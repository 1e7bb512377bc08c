"""Sharding layer: consistent-hash partitioning of the credential and
storage namespaces across a replicated service fleet.

The single-node hot paths (validation caches, the storage decision
cache, wire batching) put a ceiling on one ``OasisService``'s working
set: a credential population larger than the bounded caches thrashes
them and every request pays the cold path.  This module partitions the
namespaces horizontally:

* a :class:`HashRing` places keys on shards with a **seed-stable**
  digest (``blake2b`` — never Python's salted ``hash()``), so placement
  is identical across processes, restarts and test runs, and a
  membership change moves only the keys owned by the node that changed
  (the consistent-hashing property);
* a :class:`ShardRouter` masks crashed shards: while a shard is down,
  *new* placements route to its ring successor and the routed traffic
  is counted as reroutes; when it restarts, placement snaps back;
* each shard is one **leader** (issuer: role entry, certificate issue,
  revocation) plus read-only **follower replicas**
  (:class:`ServiceReplica`, :class:`StorageReplica`) serving warm
  ``validate()`` / ``check_access`` traffic.  A replica is one
  :class:`~repro.core.cache.PinnedCache` pinned to the leader's records
  plus the leader reference: a revocation cascade invalidates every
  replica's entry in the same settling pass that fires the leader's
  own invalidation.

Across shards on a :class:`~repro.core.linkage.SimLinkage`, a revocation
travels through each leader's journal outbox: every hop's notifications
leave in one zero-delay drain, so a cascade crossing N shard boundaries
settles in N link delays (:meth:`SimLinkage.quiesce` steps the kernel
until it has).

Fail-closed invariants carry over unchanged: a follower replica's warm
hit runs the same :meth:`PinnedCache.check` as the leader's (expiry,
secret liveness, the credential record's TRUE state) plus every
per-call check, so a revocation is visible on the very next call on
every replica, and anything a replica cannot verify falls back to the
leader's full path.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Sequence

from repro.core.cache import CacheCounters, PinnedCache
from repro.errors import OasisError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.certificates import RoleMembershipCertificate
    from repro.core.service import OasisService
    from repro.mssa.custode import Custode, FileRecord
    from repro.mssa.ids import FileId


def stable_digest(key: Any) -> int:
    """A placement digest that is identical across processes and runs.

    Python's builtin ``hash()`` is salted per process (PYTHONHASHSEED),
    so using it for placement would scatter a dataset differently on
    every boot.  ``blake2b`` over the string form is stable, fast, and
    uniform; eight bytes give a 64-bit ring coordinate.
    """
    raw = hashlib.blake2b(str(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(raw, "big")


# --------------------------------------------------------------------- ring


class HashRing:
    """A consistent-hash ring over named nodes.

    Each node contributes ``vnodes`` virtual points so load spreads
    evenly even with a handful of physical nodes.  Lookup walks the ring
    clockwise from the key's coordinate; removing a node moves only the
    keys it owned (they fall to their ring successors), which is the
    property that makes crash-restart rebalancing cheap.
    """

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = 64):
        if vnodes < 1:
            raise OasisError("a hash ring needs at least one vnode per node")
        self.vnodes = vnodes
        self._nodes: set[str] = set()
        self._points: list[tuple[int, str]] = []   # sorted (coordinate, node)
        for node in nodes:
            self.add_node(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for vnode in range(self.vnodes):
            insort(self._points, (stable_digest(f"{node}#{vnode}"), node))

    def remove_node(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [point for point in self._points if point[1] != node]

    def preference(self, key: Any) -> Iterator[str]:
        """Nodes in ring order from ``key``'s coordinate, each once.

        The first yielded node is the owner; the rest is the failover
        order a router walks while nodes are down (and the replica-set
        order for placements that want distinct nodes).
        """
        if not self._points:
            return
        start = bisect_right(self._points, (stable_digest(key), "￿"))
        seen: set[str] = set()
        for index in range(len(self._points)):
            node = self._points[(start + index) % len(self._points)][1]
            if node not in seen:
                seen.add(node)
                yield node
                if len(seen) == len(self._nodes):
                    return

    def node_for(self, key: Any) -> str:
        """The owning node for ``key``; raises on an empty ring."""
        for node in self.preference(key):
            return node
        raise OasisError("hash ring has no nodes")

    def nodes_for(self, key: Any, count: int) -> list[str]:
        """The first ``count`` distinct nodes on ``key``'s preference
        list (owner first) — a replica set."""
        out: list[str] = []
        for node in self.preference(key):
            out.append(node)
            if len(out) == count:
                break
        return out


# ------------------------------------------------------------------- router


@dataclass
class RouterStats:
    routes: int = 0        # successful placements
    reroutes: int = 0      # owner was down; a successor took the key
    rebalances: int = 0    # membership/mask changes (ring version bumps)


class ShardRouter:
    """Routes keys to live shards over a :class:`HashRing`.

    ``route`` returns the first *live* node on the key's preference
    list: while a shard is crashed, only the keys it owns move (to their
    ring successors), and they snap back when it returns.  ``version``
    increments on every membership or liveness change so cached
    placements can be checked for staleness.
    """

    def __init__(self, ring: HashRing):
        self.ring = ring
        self.version = 0
        self.stats = RouterStats()
        self._down: set[str] = set()

    @property
    def down(self) -> frozenset[str]:
        return frozenset(self._down)

    def mark_down(self, node: str) -> None:
        if node in self.ring and node not in self._down:
            self._down.add(node)
            self.version += 1
            self.stats.rebalances += 1

    def mark_up(self, node: str) -> None:
        if node in self._down:
            self._down.discard(node)
            self.version += 1
            self.stats.rebalances += 1

    def owner(self, key: Any) -> str:
        """The ring owner, ignoring liveness (where the key belongs)."""
        return self.ring.node_for(key)

    def route(self, key: Any) -> str:
        """The live shard serving ``key`` right now."""
        for node in self.ring.preference(key):
            if node not in self._down:
                self.stats.routes += 1
                if node != self.ring.node_for(key):
                    self.stats.reroutes += 1
                return node
        raise OasisError("no live shard available for placement")

    def placement(self, keys: Iterable[Any]) -> dict[Any, str]:
        """Current live placement of ``keys`` (bulk :meth:`route`)."""
        return {key: self.route(key) for key in keys}


# ----------------------------------------------------------------- replicas


@dataclass
class ReplicaStats:
    validations: int = 0       # requests served by this replica
    warm_hits: int = 0         # served entirely from the replica's cache
    leader_fallbacks: int = 0  # cold / unverifiable: leader's full path ran
    invalidations: int = 0     # cache entries dropped by a record change


class ServiceReplica:
    """A read-only follower of one credential shard's leader: a
    :class:`PinnedCache` of validated certificates (per-replica process
    memory) pinned to the leader's records, plus the leader reference.

    A warm hit runs the per-call checks (issuer, client binding, VCI
    binding, required role) and the cache's fail-closed re-check, exactly
    as the leader's own fast path does; anything else falls back to the
    leader's full validation, which classifies the failure or re-warms
    this replica.
    """

    def __init__(
        self,
        leader: "OasisService",
        name: str = "",
        validity_cache_size: int = 4096,
    ):
        self.leader = leader
        self.name = name or f"{leader.name}/replica"
        self.stats = ReplicaStats()
        self._validity = PinnedCache(
            leader, validity_cache_size, stats=self.stats, invalidated="invalidations"
        )

    def cache_counters(self) -> dict[str, CacheCounters]:
        return {"validity": self._validity.counters()}

    def validate(
        self,
        cert: "RoleMembershipCertificate",
        claimed_client=None,
        required_role: Optional[str] = None,
        domain=None,
    ) -> "RoleMembershipCertificate":
        self.stats.validations += 1
        if (
            cert.issuer == self.leader.name
            and (claimed_client is None or cert.client == claimed_client)
            and (cert.vci is None or domain is None or domain.may_use(cert.vci))
            and (required_role is None or required_role in cert.roles)
            and self._validity.check(cert.crr, cert, cert)
        ):
            self.stats.warm_hits += 1
            return cert
        # cold, unverifiable or refused: the leader's full path decides
        self.stats.leader_fallbacks += 1
        self.leader.validate(
            cert, claimed_client=claimed_client, required_role=required_role,
            domain=domain,
        )
        self._validity.put(cert.crr, cert.crr, cert)
        return cert


class StorageReplica:
    """A read-only follower of one storage shard's custode: a
    :class:`PinnedCache` of access decisions pinned to the custode
    service's records, plus the custode reference.

    Each decision is pinned to the certificate's credential record and
    stores the governing ACL's id and version record, compared against
    the file's current ACL on every hit — so ``modify_acl``,
    ``set_acl_of`` and deletion all miss on the next lookup.
    """

    def __init__(
        self,
        custode: "Custode",
        name: str = "",
        decision_cache_size: int = 4096,
    ):
        self.custode = custode
        self.name = name or f"{custode.name}/replica"
        self.stats = ReplicaStats()
        self._decisions = PinnedCache(
            custode.service, decision_cache_size, stats=self.stats,
            invalidated="invalidations",
        )

    def cache_counters(self) -> dict[str, CacheCounters]:
        return {"decisions": self._decisions.counters()}

    def check_access(
        self, cert, fid: "FileId", right: str, acl_override: Optional["FileId"] = None
    ) -> "FileRecord":
        self.stats.validations += 1
        custode = self.custode
        record = custode._record(fid)
        acl_id = acl_override or record.acl_id
        key = (cert.crr, cert.secret_index, cert.signature, fid.number, right,
               acl_override)
        if acl_id is not None and self._decisions.check(
            key, cert, (acl_id, custode._acl_version_token(acl_id))
        ):
            self.stats.warm_hits += 1
            custode._charge(record)
            return record
        # cold or unverifiable: the custode's full path (which re-checks
        # everything, charges, and warms its own cache); then pin a copy
        # in this replica's cache
        self.stats.leader_fallbacks += 1
        record = custode.check_access(cert, fid, right, acl_override=acl_override)
        token = custode._acl_version_token(acl_id)
        if token is not None:
            self._decisions.put(key, cert.crr, (acl_id, token))
        return record

    def read_segment(
        self, cert, fid: "FileId", offset: int = 0, length: Optional[int] = None
    ) -> bytes:
        record = self.check_access(cert, fid, "r")
        self.custode.ops += 1
        data = record.content
        end = len(data) if length is None else offset + length
        return bytes(data[offset:end])


# ------------------------------------------------------------------- shards


@dataclass
class ShardStats:
    reads: int = 0
    writes: int = 0

    def accumulate(self, other: "ShardStats") -> None:
        self.reads += other.reads
        self.writes += other.writes


class CredentialShard:
    """One partition of the credential namespace: a leader
    :class:`OasisService` plus read-only follower replicas.

    Writes (role entry, certificate issue, revocation) always hit the
    leader; reads (``validate``) round-robin across the followers, or
    fall to the leader when the shard runs without followers.
    """

    def __init__(
        self,
        leader: "OasisService",
        followers: int = 0,
        replica_cache_size: int = 4096,
    ):
        self.leader = leader
        self.name = leader.name
        self.stats = ShardStats()
        self.replicas = [
            ServiceReplica(
                leader,
                name=f"{leader.name}/f{index}",
                validity_cache_size=replica_cache_size,
            )
            for index in range(followers)
        ]
        self._rr = 0

    def enter_role(self, *args, **kwargs) -> "RoleMembershipCertificate":
        self.stats.writes += 1
        return self.leader.enter_role(*args, **kwargs)

    def exit_role(self, cert) -> None:
        self.stats.writes += 1
        self.leader.exit_role(cert)

    def validate(self, cert, **kwargs) -> "RoleMembershipCertificate":
        self.stats.reads += 1
        if not self.replicas:
            return self.leader.validate(cert, **kwargs)
        replica = self.replicas[self._rr % len(self.replicas)]
        self._rr += 1
        return replica.validate(cert, **kwargs)

    def cache_counters(self) -> dict[str, CacheCounters]:
        counters: dict[str, CacheCounters] = {}
        for name, snapshot in self.leader.cache_counters().items():
            counters[f"leader:{name}"] = snapshot
        for replica in self.replicas:
            for name, snapshot in replica.cache_counters().items():
                counters[f"{replica.name}:{name}"] = snapshot
        return counters


class StorageShard:
    """One partition of the file namespace: a leader custode plus
    read-only follower replicas serving warm ``check_access`` /
    ``read_segment`` traffic."""

    def __init__(
        self,
        custode: "Custode",
        followers: int = 0,
        replica_cache_size: int = 4096,
    ):
        self.custode = custode
        self.name = custode.name
        self.stats = ShardStats()
        self.replicas = [
            StorageReplica(
                custode,
                name=f"{custode.name}/f{index}",
                decision_cache_size=replica_cache_size,
            )
            for index in range(followers)
        ]
        self._rr = 0

    def _reader(self):
        if not self.replicas:
            return self.custode
        replica = self.replicas[self._rr % len(self.replicas)]
        self._rr += 1
        return replica

    def check_access(self, cert, fid, right, acl_override=None):
        self.stats.reads += 1
        return self._reader().check_access(cert, fid, right, acl_override=acl_override)

    def read_segment(self, cert, fid, offset: int = 0, length: Optional[int] = None) -> bytes:
        self.stats.reads += 1
        return self._reader().read_segment(cert, fid, offset, length)

    def cache_counters(self) -> dict[str, CacheCounters]:
        counters: dict[str, CacheCounters] = {}
        for name, snapshot in self.custode.cache_counters().items():
            counters[f"leader:{name}"] = snapshot
        for replica in self.replicas:
            for name, snapshot in replica.cache_counters().items():
                counters[f"{replica.name}:{name}"] = snapshot
        return counters


# -------------------------------------------------------------------- fleets


class CredentialFleet:
    """The client-facing facade over N credential shards.

    Placement keys (typically the principal) route *new* role entries
    through the :class:`ShardRouter`; validations route by the
    certificate's issuer — a certificate permanently names the shard
    that issued it, so reads never depend on ring membership.
    """

    def __init__(self, shards: Sequence[CredentialShard], vnodes: int = 64):
        if not shards:
            raise OasisError("a credential fleet needs at least one shard")
        self.shards = {shard.name: shard for shard in shards}
        self.router = ShardRouter(HashRing(self.shards, vnodes=vnodes))

    def shard_for(self, key: Any) -> CredentialShard:
        return self.shards[self.router.route(key)]

    def shard_of(self, cert) -> CredentialShard:
        shard = self.shards.get(cert.issuer)
        if shard is None:
            raise OasisError(f"no shard in this fleet issued {cert.issuer!r}")
        return shard

    def enter_role(self, key: Any, client, role: str, *args, **kwargs):
        return self.shard_for(key).enter_role(client, role, *args, **kwargs)

    def exit_role(self, cert) -> None:
        self.shard_of(cert).exit_role(cert)

    def validate(self, cert, **kwargs):
        return self.shard_of(cert).validate(cert, **kwargs)

    def mark_down(self, name: str) -> None:
        self.router.mark_down(name)

    def mark_up(self, name: str) -> None:
        self.router.mark_up(name)

    def leaders(self) -> list["OasisService"]:
        return [shard.leader for shard in self.shards.values()]

    def cache_counters(self) -> dict[str, CacheCounters]:
        counters: dict[str, CacheCounters] = {}
        for shard in self.shards.values():
            for name, snapshot in shard.cache_counters().items():
                counters[f"{shard.name}/{name}"] = snapshot
        return counters


class StorageFleet:
    """The client-facing facade over N storage shards.

    File *placement* (create) routes by a placement key through the
    ring; reads route by ``fid.custode`` — a :class:`FileId` pins its
    custode for life, exactly like a certificate pins its issuer."""

    def __init__(self, shards: Sequence[StorageShard], vnodes: int = 64):
        if not shards:
            raise OasisError("a storage fleet needs at least one shard")
        self.shards = {shard.name: shard for shard in shards}
        self.router = ShardRouter(HashRing(self.shards, vnodes=vnodes))

    def place(self, key: Any) -> StorageShard:
        """The shard that should hold a *new* file for ``key``."""
        return self.shards[self.router.route(key)]

    def shard_of(self, fid: "FileId") -> StorageShard:
        shard = self.shards.get(fid.custode)
        if shard is None:
            raise OasisError(f"no shard in this fleet holds {fid}")
        return shard

    def check_access(self, cert, fid, right, acl_override=None):
        return self.shard_of(fid).check_access(cert, fid, right, acl_override=acl_override)

    def read_segment(self, cert, fid, offset: int = 0, length: Optional[int] = None) -> bytes:
        return self.shard_of(fid).read_segment(cert, fid, offset, length)

    def mark_down(self, name: str) -> None:
        self.router.mark_down(name)

    def mark_up(self, name: str) -> None:
        self.router.mark_up(name)

    def cache_counters(self) -> dict[str, CacheCounters]:
        counters: dict[str, CacheCounters] = {}
        for shard in self.shards.values():
            for name, snapshot in shard.cache_counters().items():
                counters[f"{shard.name}/{name}"] = snapshot
        return counters
