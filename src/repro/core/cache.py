"""Bounded caches for the request hot paths.

The paper allows a service to cache the outcome of expensive validation
work ("the integrity of the certificate may be cached, and recomputation
avoided", section 4.2) but a production service cannot let such caches
grow with the number of certificates ever seen.  Every cache in the
validation path is therefore bounded, O(1) per operation, with
hit/miss/eviction counters the owner surfaces through its stats object:

* :class:`LRUCache` holds facts that stay true whatever happens to the
  credential records (a passed signature check, an ACL evaluation);
* :class:`PinnedCache` holds positive authorisation decisions, each
  pinned to the credential record that must stay TRUE for it to stand.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional

from repro.core.credentials import CredentialRecord, RecordState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.service import OasisService


@dataclass(frozen=True)
class CacheCounters:
    """A uniform snapshot of one bounded cache's efficacy.

    Every cache in the system — validation, decision, compiled-plan —
    reports through this one shape, so fleet tooling (the shard bench,
    per-replica dashboards) can compare cache behaviour across layers
    without knowing each layer's stats vocabulary.  ``maxsize`` is None
    for caches without a hard bound (e.g. a compiled-plan cache whose
    population is the rolefile's role count).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    maxsize: Optional[int] = None

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": round(self.hit_rate, 4),
        }


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry.

    ``on_evict`` (if given) is called once per evicted entry, letting the
    owner fold eviction counts into its own stats object.
    """

    __slots__ = ("maxsize", "on_evict", "hits", "misses", "evictions", "_data")

    def __init__(
        self,
        maxsize: int,
        on_evict: Optional[Callable[[], None]] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError("LRUCache needs room for at least one entry")
        self.maxsize = maxsize
        self.on_evict = on_evict
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test; a hit refreshes the entry's recency."""
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its recency on a hit."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict()

    def add(self, key: Hashable) -> None:
        """Set-style insertion (the value is irrelevant)."""
        self.put(key, True)

    def counters(self) -> CacheCounters:
        """The uniform efficacy snapshot of this cache."""
        return CacheCounters(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._data),
            maxsize=self.maxsize,
        )

    def clear(self) -> None:
        self._data.clear()


@dataclass(frozen=True)
class DegradationPolicy:
    """Graceful degradation for cached decisions during an issuer partition.

    With a policy attached, a cached *positive* decision whose pinned
    credential record has gone UNKNOWN (fail-closed suspicion — the
    issuer is unreachable, not known to have revoked) keeps being served
    for at most ``max_staleness`` virtual seconds after the record left
    TRUE.  Beyond the bound — or whenever the window cannot be dated —
    the decision is dropped and the caller's full path fails closed.
    FALSE is always authoritative (a known revocation is never served),
    and denials are never cached, so degradation can only ever extend a
    previously-proven grant, never invent one.
    """

    max_staleness: float


class PinnedCache:
    """A bounded LRU of positive decisions, each pinned to one credential
    record of one service.

    A decision may be served only while the record behind it stays TRUE
    (section 4.2's cached integrity, revoked through the section 4.9
    cascade).  The cache keeps that rule itself:

    * it watches ``service``'s credential table and drops every entry
      pinned to a record that changes to a non-TRUE state, in the same
      settling pass as the change;
    * under a :class:`DegradationPolicy` a change to UNKNOWN is stamped
      instead, and the entry is served for at most ``max_staleness``
      after the stamp; FALSE always drops;
    * ``service.clear_validation_caches()`` — and so a restart, a
      rolefile reload or a rolefile removal — flushes it.

    :meth:`check` is the shared fail-closed re-check for decisions made
    about a certificate; :meth:`get` serves entries that need nothing but
    their pin.  A CRR carries its row's reuse magic, so a pin never
    matches a recycled row.

    ``hits``/``misses``/``evictions`` describe the LRU itself (what
    :meth:`counters` reports: a hit is a present key, whether or not its
    re-check passes) and ``invalidations`` counts entries dropped by a
    record change.  Owners that publish counters under their own names
    pass their ``stats`` object with the field names to bump on eviction
    (``evicted``) and invalidation (``invalidated``); a degradation
    policy counts its serves in ``stats.degraded_hits``,
    ``stats.degraded_expired`` and ``stats.degraded_max_staleness``.
    """

    __slots__ = (
        "service", "maxsize", "degradation", "stats", "evicted", "invalidated",
        "hits", "misses", "evictions", "invalidations",
        "_data", "_pin_of", "_pinned", "_unknown_since",
    )

    def __init__(
        self,
        service: "OasisService",
        maxsize: int,
        degradation: Optional[DegradationPolicy] = None,
        stats: Any = None,
        evicted: Optional[str] = None,
        invalidated: Optional[str] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError("PinnedCache needs room for at least one entry")
        if degradation is not None and stats is None:
            raise ValueError("a degradation policy counts its serves on stats")
        self.service = service
        self.maxsize = maxsize
        self.degradation = degradation
        self.stats = stats
        self.evicted = evicted
        self.invalidated = invalidated
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()   # key -> value
        self._pin_of: dict[Hashable, int] = {}                   # key -> pinned CRR
        # pinned CRR -> its key, or the set of its keys when it has
        # several (a lone key needs no container for the collector to scan)
        self._pinned: dict[int, Any] = {}
        self._unknown_since: dict[int, float] = {}   # pinned CRR -> stamp
        service.credentials.watch_all(self._on_record_change)
        service.track_cache(self)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value under ``key``, refreshing its recency.  No re-check:
        the entry stands exactly as long as its pin has not left TRUE."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def check(self, key: Hashable, cert: Any, expect: Any) -> bool:
        """Whether the decision under ``key`` may be served to ``cert``.

        The fail-closed re-check: the entry must hold ``expect`` (the
        very certificate, or the ACL version the decision was made
        against), ``cert`` must not have expired, its signing secret must
        still be live, and the pinned record must be TRUE — or UNKNOWN
        within the degradation window.  Anything else drops the entry
        and misses."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return False
        self._data.move_to_end(key)
        self.hits += 1
        service = self.service
        if (
            (value is expect or value == expect)
            and (cert.expires_at is None or service.clock.now() <= cert.expires_at)
            and service.secrets.get(cert.secret_index) is not None
        ):
            pin = self._pin_of[key]
            state = service.credentials.state_of(pin)
            if state is RecordState.TRUE:
                return True
            if (
                state is RecordState.UNKNOWN
                and self.degradation is not None
                and self._serve_degraded(pin)
            ):
                return True
        del self._data[key]
        self._unpin(key, self._pin_of.pop(key))
        return False

    def put(self, key: Hashable, pin: int, value: Any) -> None:
        """Cache ``value`` under ``key``, pinned to the record ``pin``
        (which the caller has just seen TRUE)."""
        old_pin = self._pin_of.get(key)
        if old_pin != pin:
            if old_pin is not None:
                self._unpin(key, old_pin)
            self._pin_of[key] = pin
            keys = self._pinned.get(pin)
            if keys is None:
                self._pinned[pin] = key
            elif type(keys) is set:
                keys.add(key)
            else:
                self._pinned[pin] = {keys, key}
        data = self._data
        data[key] = value
        data.move_to_end(key)
        while len(data) > self.maxsize:
            old_key, _ = data.popitem(last=False)
            self._unpin(old_key, self._pin_of.pop(old_key))
            self.evictions += 1
            if self.evicted is not None:
                setattr(self.stats, self.evicted, getattr(self.stats, self.evicted) + 1)

    def clear(self) -> None:
        self._data.clear()
        self._pin_of.clear()
        self._pinned.clear()
        self._unknown_since.clear()

    def counters(self) -> CacheCounters:
        """The uniform efficacy snapshot of this cache."""
        return CacheCounters(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._data),
            maxsize=self.maxsize,
        )

    def _keys_of(self, pin: int) -> tuple:
        keys = self._pinned.get(pin)
        if keys is None:
            return ()
        return tuple(keys) if type(keys) is set else (keys,)

    def _unpin(self, key: Hashable, pin: int) -> None:
        keys = self._pinned[pin]
        if type(keys) is set:
            keys.discard(key)
            if keys:
                return
        del self._pinned[pin]
        self._unknown_since.pop(pin, None)

    def _serve_degraded(self, pin: int) -> bool:
        stats = self.stats
        since = self._unknown_since.get(pin)
        if since is not None:
            staleness = self.service.clock.now() - since
            if staleness <= self.degradation.max_staleness:
                stats.degraded_hits += 1
                if staleness > stats.degraded_max_staleness:
                    stats.degraded_max_staleness = staleness
                return True
        stats.degraded_expired += 1
        return False

    def _on_record_change(
        self, record: CredentialRecord, old: RecordState, new: RecordState
    ) -> None:
        if new is RecordState.TRUE:
            if self._unknown_since:
                self._unknown_since.pop(record.ref, None)
            return
        if not self._pinned:
            return
        ref = record.ref
        if ref not in self._pinned:
            return
        if new is RecordState.UNKNOWN and self.degradation is not None:
            self._unknown_since.setdefault(ref, self.service.clock.now())
            return
        keys = self._keys_of(ref)
        del self._pinned[ref]
        self._unknown_since.pop(ref, None)
        for key in keys:
            del self._data[key]
            del self._pin_of[key]
        self.invalidations += len(keys)
        if self.invalidated is not None:
            stats = self.stats
            setattr(stats, self.invalidated, getattr(stats, self.invalidated) + len(keys))
