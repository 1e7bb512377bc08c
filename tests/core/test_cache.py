"""PinnedCache against a brute-force model.

Random put / check / get / record-state-change / clock / restart / clear
sequences run on a tiny cache pinned to a real service's credential
records, and on a model that keeps its entries in a plain list and
applies the cache's rules by linear scan.  After every step:

* the cache answered what the model answered, with the same counters;
* no entry was served for a record that is not TRUE — or, under a
  degradation policy, UNKNOWN for longer than ``max_staleness`` since it
  last left TRUE (checked against the record history, not the model);
* the record index holds exactly the keys the LRU holds (nothing it
  evicted or dropped), and the size never exceeds the bound.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OasisService
from repro.core.cache import DegradationPolicy, PinnedCache
from repro.core.credentials import RecordOp, RecordState
from repro.runtime.clock import ManualClock

MAXSIZE = 2
KEYS = 3
MAX_STALENESS = 2.0
STATES = (RecordState.TRUE, RecordState.FALSE, RecordState.UNKNOWN)

STEPS = {
    # put(key, pin record, value)
    "put": st.tuples(st.just("put"), st.integers(0, KEYS - 1), st.integers(0, 3),
                     st.sampled_from([0, 0, 1])),
    # check(key, expected value, certificate expiry)
    "check": st.tuples(st.just("check"), st.integers(0, KEYS - 1),
                       st.sampled_from([0, 0, 1]), st.sampled_from([None, None, 2.5])),
    "get": st.tuples(st.just("get"), st.integers(0, KEYS - 1)),
    # set a source record's state (record 3 is the AND of 0 and 1)
    "set": st.tuples(st.just("set"), st.integers(0, 2),
                     st.sampled_from(STATES + (RecordState.UNKNOWN,))),
    "advance": st.tuples(st.just("advance"), st.sampled_from([0.5, 1.5, 3.0])),
    "restart": st.just(("restart",)),
    "clear": st.just(("clear",)),
}
# the interesting paths need put, state change, time and check in
# sequence, so those steps are drawn more often than the rest
OPS = st.lists(
    st.sampled_from(
        ["put", "put", "put", "check", "check", "check", "check", "set", "set",
         "advance", "advance", "get", "restart", "clear"]
    ).flatmap(STEPS.__getitem__),
    min_size=20,
    max_size=80,
)


class Model:
    """The cache's contract, by brute force."""

    def __init__(self, degraded: bool):
        self.degraded = degraded
        self.entries: list[list] = []      # [key, pin, value], oldest first
        self.since: dict[int, float] = {}  # pin -> when it went UNKNOWN
        self.hits = self.misses = self.evictions = self.invalidations = 0
        self.degraded_hits = self.degraded_expired = 0

    def _find(self, key):
        for entry in self.entries:
            if entry[0] == key:
                return entry
        return None

    def _touch(self, key):
        entry = self._find(key)
        if entry is None:
            self.misses += 1
            return None
        self.entries.remove(entry)
        self.entries.append(entry)
        self.hits += 1
        return entry

    def put(self, key, pin, value):
        entry = self._find(key)
        if entry is not None:
            self.entries.remove(entry)
        self.entries.append([key, pin, value])
        while len(self.entries) > MAXSIZE:
            self.entries.pop(0)
            self.evictions += 1

    def get(self, key):
        entry = self._touch(key)
        return None if entry is None else entry[2]

    def check(self, key, value, expired, state, now):
        entry = self._touch(key)
        if entry is None:
            return False
        if entry[2] == value and not expired:
            if state is RecordState.TRUE:
                return True
            if state is RecordState.UNKNOWN and self.degraded:
                since = self.since.get(entry[1])
                if since is not None and now - since <= MAX_STALENESS:
                    self.degraded_hits += 1
                    return True
                self.degraded_expired += 1
        self.entries.remove(entry)
        return False

    def changed(self, pin, new, now):
        if new is RecordState.TRUE:
            self.since.pop(pin, None)
        elif new is RecordState.UNKNOWN and self.degraded:
            self.since.setdefault(pin, now)
        else:
            self.since.pop(pin, None)
            dropped = [entry for entry in self.entries if entry[1] == pin]
            for entry in dropped:
                self.entries.remove(entry)
            self.invalidations += len(dropped)

    def clear(self):
        self.entries.clear()
        self.since.clear()


def build(degraded: bool):
    clock = ManualClock()
    service = OasisService("S", clock=clock)
    table = service.credentials
    sources = [table.create_source(state=RecordState.TRUE) for _ in range(3)]
    gate = table.create_gate(
        RecordOp.AND, [(sources[0].ref, False), (sources[1].ref, False)]
    )
    refs = [record.ref for record in sources] + [gate.ref]
    stats = SimpleNamespace(
        evicted=0, invalidated=0,
        degraded_hits=0, degraded_expired=0, degraded_max_staleness=0.0,
    )
    cache = PinnedCache(
        service, MAXSIZE,
        degradation=DegradationPolicy(MAX_STALENESS) if degraded else None,
        stats=stats, evicted="evicted", invalidated="invalidated",
    )
    secret_index, _ = service.signer.sign(b"live secret")
    return clock, service, refs, cache, stats, secret_index


@pytest.mark.parametrize("degraded", [False, True])
@settings(max_examples=300, deadline=None)
@given(ops=OPS)
def test_pinned_cache_matches_brute_force_model(degraded, ops):
    clock, service, refs, cache, stats, secret_index = build(degraded)
    table = service.credentials
    model = Model(degraded)
    left_true_at = {ref: None for ref in refs}   # history, for the safety check
    for op in ops:
        now = clock.now()
        if op[0] == "put":
            _, key, pin, value = op
            if table.state_of(refs[pin]) is RecordState.TRUE:   # the put contract
                cache.put(key, refs[pin], value)
                model.put(key, refs[pin], value)
        elif op[0] == "check":
            _, key, value, expires_at = op
            cert = SimpleNamespace(expires_at=expires_at, secret_index=secret_index)
            entry = model._find(key)
            state = table.state_of(entry[1]) if entry is not None else None
            expired = expires_at is not None and now > expires_at
            served = cache.check(key, cert, value)
            assert served == model.check(key, value, expired, state, now)
            if served:
                assert not expired
                if state is not RecordState.TRUE:
                    assert degraded and state is RecordState.UNKNOWN
                    assert now - left_true_at[entry[1]] <= MAX_STALENESS
        elif op[0] == "get":
            assert cache.get(op[1]) == model.get(op[1])
        elif op[0] == "set":
            _, source, state = op
            before = {ref: table.state_of(ref) for ref in refs}
            table.set_state(refs[source], state)
            for ref in refs:
                new = table.state_of(ref)
                if new is not before[ref]:
                    model.changed(ref, new, now)
                    if before[ref] is RecordState.TRUE:
                        left_true_at[ref] = now
        elif op[0] == "advance":
            clock.advance(op[1])
        elif op[0] == "restart":
            service.restart()
            model.clear()
        else:
            service.clear_validation_caches()
            model.clear()
        # the index holds exactly the live keys, each under its own pin
        indexed = [key for pin in cache._pinned for key in cache._keys_of(pin)]
        assert sorted(indexed) == sorted(cache._data) == sorted(cache._pin_of)
        for key, pin in cache._pin_of.items():
            assert key in cache._keys_of(pin)
        assert set(cache._unknown_since) <= set(cache._pinned)
        assert len(cache) <= MAXSIZE
        assert [entry[0] for entry in model.entries] == list(cache._data)
        assert (cache.hits, cache.misses, cache.evictions, cache.invalidations) == (
            model.hits, model.misses, model.evictions, model.invalidations
        )
        assert (stats.evicted, stats.invalidated) == (model.evictions, model.invalidations)
        assert (stats.degraded_hits, stats.degraded_expired) == (
            model.degraded_hits, model.degraded_expired
        )


def test_degradation_needs_somewhere_to_count():
    service = OasisService("S", clock=ManualClock())
    with pytest.raises(ValueError):
        PinnedCache(service, 4, degradation=DegradationPolicy(1.0))
    with pytest.raises(ValueError):
        PinnedCache(service, 0)


def test_check_fails_closed_mid_cascade():
    """A watch that fires before the cache's own hook in the same
    cascade (here: registered earlier) sees the entry still cached; the
    re-check of the pinned record must refuse it all the same."""
    clock = ManualClock()
    service = OasisService("S", clock=clock)
    record = service.credentials.create_source(state=RecordState.TRUE)
    seen = []
    service.credentials.watch_all(
        lambda changed, old, new: seen.append(cache.check("k", cert, "v"))
    )
    cache = PinnedCache(service, 4)
    secret_index, _ = service.signer.sign(b"live secret")
    cert = SimpleNamespace(expires_at=None, secret_index=secret_index)
    cache.put("k", record.ref, "v")
    assert cache.check("k", cert, "v")
    service.credentials.revoke(record.ref)
    assert seen == [False]
    assert len(cache) == 0


class TestDegradationWindow:
    def _world(self):
        clock, service, refs, cache, stats, secret_index = build(degraded=True)
        cert = SimpleNamespace(expires_at=None, secret_index=secret_index)
        cache.put("k", refs[2], "v")
        return clock, service.credentials, refs[2], cache, stats, cert

    def test_served_only_inside_the_window(self):
        clock, table, ref, cache, stats, cert = self._world()
        table.set_state(ref, RecordState.UNKNOWN)
        clock.advance(1.5)
        assert cache.check("k", cert, "v")
        assert (stats.degraded_hits, stats.degraded_max_staleness) == (1, 1.5)
        clock.advance(1.0)
        assert not cache.check("k", cert, "v")
        assert stats.degraded_expired == 1
        assert len(cache) == 0

    def test_window_restarts_after_the_record_recovers(self):
        clock, table, ref, cache, stats, cert = self._world()
        table.set_state(ref, RecordState.UNKNOWN)
        clock.advance(1.5)
        table.set_state(ref, RecordState.TRUE)
        clock.advance(1.5)
        table.set_state(ref, RecordState.UNKNOWN)
        clock.advance(1.0)
        assert cache.check("k", cert, "v")      # 1.0 s stale, not 4.0 s
        assert stats.degraded_max_staleness == 1.0

    def test_false_always_drops(self):
        clock, table, ref, cache, stats, cert = self._world()
        table.set_state(ref, RecordState.UNKNOWN)
        table.set_state(ref, RecordState.FALSE)
        assert len(cache) == 0
        assert not cache.check("k", cert, "v")
