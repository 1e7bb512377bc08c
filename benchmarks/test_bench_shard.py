"""Sharding benchmarks (ISSUE 7 tentpole), recorded to BENCH_shard.json.

Three experiments:

* **warm-read throughput** — the scaling claim.  Per-shard caches have a
  fixed capacity; a working set ~3x that capacity thrashes a single
  shard (every read pays the cold HMAC/ACL path) while four shards hold
  a quarter of the set each and serve warm.  The two fleets are timed
  in alternating pairs in one process, and the median of the per-pair
  ratios must be at least 3x for both ``validate()`` and
  ``read_segment``: a ratio of two throughputs measured minutes apart
  moves with the machine's load, a paired one much less.
* **revocation convergence** — a bulk revocation at the root of a
  shard-spanning subscription chain, carried hop by hop by each
  leader's journal outbox.  Every leaf must be denied, and
  :meth:`~repro.core.linkage.SimLinkage.quiesce` must return within one
  link delay per shard hop — convergence is bounded, not best-effort.
* **p99 under chaos** — warm replica reads while the control plane is
  under link flaps and loss bursts.  The fail-closed checks on the warm
  path are all shard-local, so fault injection on the wire must not
  move the tail; the p99 ratio (chaos vs calm) is asserted loose and
  recorded exact.

Raw series go to the JSON artifact (accumulate-and-merge contract, see
``conftest._record_json``); CI uploads it from the bench-smoke job.
"""

import random
import statistics
import time

import pytest

from benchmarks.conftest import alternating_pairs, bench_quick, record_bench
from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.linkage import LocalLinkage, SimLinkage
from repro.core.sharding import (
    CredentialFleet,
    CredentialShard,
    StorageFleet,
    StorageShard,
)
from repro.core.types import ObjectType
from repro.errors import OasisError
from repro.mssa.acl import Acl
from repro.mssa.byte_segment import ByteSegmentCustode
from repro.runtime.clock import ManualClock, SimClock
from repro.runtime.faults import ChaosController, FaultPlan
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator

LOGIN_RDL = """
def LoggedOn(u, h)  u: userid  h: string
LoggedOn(u, h) <-
"""

# Per-shard cache capacity and the working set sized against it: one
# shard thrashes (W = 3C > C), four shards stay warm (W/4 < C).
CACHE_CAP = 128 if bench_quick() else 512
WORKING_SET = 3 * CACHE_CAP
PASSES = 3 if bench_quick() else 5
PAIRS = 5                                    # alternating 1-shard/4-shard samples

CHAIN_USERS = 50 if bench_quick() else 500   # x4 chain levels = records
CHAIN_DEPTH = 3                              # shard-hop diameter L0->L3

P99_OPS = 400 if bench_quick() else 2000


def _percentile(values, fraction):
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


# ------------------------------------------------------------- throughput


def _build_credential_fleet(n_shards, followers=1):
    clock = ManualClock()
    registry = ServiceRegistry()
    linkage = LocalLinkage()
    leaders = []
    for index in range(n_shards):
        svc = OasisService(
            f"Login{index}",
            registry=registry,
            linkage=linkage,
            clock=clock,
            validity_cache_size=CACHE_CAP,
            signature_cache_size=CACHE_CAP,
        )
        svc.export_type(ObjectType(f"Login{index}.userid"), "userid")
        svc.add_rolefile("main", LOGIN_RDL)
        leaders.append(svc)
    fleet = CredentialFleet(
        [
            CredentialShard(leader, followers=followers, replica_cache_size=CACHE_CAP)
            for leader in leaders
        ]
    )
    host = HostOS("bench-shard-host")
    certs = []
    for index in range(WORKING_SET):
        domain = host.create_domain()
        certs.append(
            fleet.enter_role(
                f"user{index}", domain.client_id, "LoggedOn", (f"u{index}", "bench")
            )
        )
    return fleet, certs


def _credential_ops_per_sec(fleet, certs):
    for cert in certs:          # one warming pass
        fleet.validate(cert)
    started = time.perf_counter()
    for _ in range(PASSES):
        for cert in certs:
            fleet.validate(cert)
    elapsed = time.perf_counter() - started
    return (PASSES * len(certs)) / elapsed


def _build_storage_fleet(n_shards, followers=1):
    clock = ManualClock()
    registry = ServiceRegistry()
    linkage = LocalLinkage()
    login = OasisService(
        "Login", registry=registry, linkage=linkage, clock=clock
    )
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    custodes = [
        ByteSegmentCustode(
            f"ffc{index}",
            registry=registry,
            linkage=linkage,
            clock=clock,
            user_groups=lambda user: {"staff"},
            decision_cache_size=CACHE_CAP,
        )
        for index in range(n_shards)
    ]
    fleet = StorageFleet(
        [
            StorageShard(custode, followers=followers, replica_cache_size=CACHE_CAP)
            for custode in custodes
        ]
    )
    host = HostOS("bench-shard-host")
    domain = host.create_domain()
    login_cert = login.enter_role(domain.client_id, "LoggedOn", ("admin", "bench"))
    cert_of = {}
    acl_of = {}
    for custode in custodes:
        acl = custode.create_acl(Acl.parse("@staff=+r admin=+rwad", alphabet="rwad"))
        acl_of[custode.name] = acl
        cert_of[custode.name] = custode.enter_use_acl(
            domain.client_id, acl, login_cert
        )
    fids = []
    for index in range(WORKING_SET):
        shard = fleet.place(f"file{index}")
        fids.append(
            shard.custode.create_segment(
                acl_of[shard.name], f"payload {index}".encode()
            )
        )
    return fleet, fids, cert_of


def _storage_ops_per_sec(fleet, fids, cert_of):
    for fid in fids:            # one warming pass
        fleet.read_segment(cert_of[fid.custode], fid)
    started = time.perf_counter()
    for _ in range(PASSES):
        for fid in fids:
            fleet.read_segment(cert_of[fid.custode], fid)
    elapsed = time.perf_counter() - started
    return (PASSES * len(fids)) / elapsed


def test_warm_read_throughput_scales_with_shards():
    fleet1, certs1 = _build_credential_fleet(1)
    fleet4, certs4 = _build_credential_fleet(4)
    validate_pairs = alternating_pairs(
        lambda: _credential_ops_per_sec(fleet1, certs1),
        lambda: _credential_ops_per_sec(fleet4, certs4),
        PAIRS,
    )
    validate_ratios = [ops_4 / ops_1 for ops_1, ops_4 in validate_pairs]
    validate_ratio = statistics.median(validate_ratios)

    sfleet1, fids1, certof1 = _build_storage_fleet(1)
    sfleet4, fids4, certof4 = _build_storage_fleet(4)
    read_pairs = alternating_pairs(
        lambda: _storage_ops_per_sec(sfleet1, fids1, certof1),
        lambda: _storage_ops_per_sec(sfleet4, fids4, certof4),
        PAIRS,
    )
    read_ratios = [ops_4 / ops_1 for ops_1, ops_4 in read_pairs]
    read_ratio = statistics.median(read_ratios)

    # warm-path health at 4 shards: replicas actually absorbed the reads
    replica_counters = {
        name: snapshot.as_dict()
        for name, snapshot in fleet4.cache_counters().items()
        if "/f" in name
    }
    warm_hits = sum(
        shard.replicas[0].stats.warm_hits
        for shard in fleet4.shards.values()
    )
    record_bench(
        "shard", "warm_read_throughput",
        cache_capacity=CACHE_CAP,
        working_set=WORKING_SET,
        pairs=PAIRS,
        validate_ops_per_sec_1shard=round(statistics.median(p[0] for p in validate_pairs)),
        validate_ops_per_sec_4shard=round(statistics.median(p[1] for p in validate_pairs)),
        validate_speedup=round(validate_ratio, 2),
        validate_speedups=[round(r, 2) for r in validate_ratios],
        read_ops_per_sec_1shard=round(statistics.median(p[0] for p in read_pairs)),
        read_ops_per_sec_4shard=round(statistics.median(p[1] for p in read_pairs)),
        read_speedup=round(read_ratio, 2),
        read_speedups=[round(r, 2) for r in read_ratios],
        replica_warm_hits_4shard=warm_hits,
        replica_caches_4shard=len(replica_counters),
    )
    assert warm_hits > 0, "follower replicas never served a warm read"
    assert validate_ratio >= 3.0, (
        f"4-shard validate throughput only {validate_ratio:.2f}x the single shard "
        f"(median of pairs {validate_ratios})"
    )
    assert read_ratio >= 3.0, (
        f"4-shard read_segment throughput only {read_ratio:.2f}x the single shard "
        f"(median of pairs {read_ratios})"
    )


# -------------------------------------------------- revocation convergence


def _build_chain_world():
    sim = Simulator()
    net = Network(sim, seed=23, default_delay=0.01)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(net)
    leaders = []
    for index in range(CHAIN_DEPTH + 1):
        svc = OasisService(
            f"Login{index}", registry=registry, linkage=linkage, clock=clock
        )
        svc.export_type(ObjectType(f"Login{index}.userid"), "userid")
        leaders.append(svc)
    leaders[0].add_rolefile("main", LOGIN_RDL)
    for level in range(1, CHAIN_DEPTH + 1):
        parent_role = "LoggedOn" if level == 1 else f"Member{level - 1}"
        parent_args = "(u, h)" if level == 1 else "(u)"
        leaders[level].add_rolefile(
            "main",
            f"import Login0.userid\n"
            f"Member{level}(u) <- Login{level - 1}.{parent_role}{parent_args}*",
        )
        linkage.monitor(leaders[level - 1], leaders[level], period=0.5, grace=2.0)
    sim.run_until(2.0)
    return sim, net, linkage, leaders


def test_cross_shard_revocation_converges_in_bounded_hops():
    sim, net, linkage, leaders = _build_chain_world()
    host = HostOS("bench-chain-host")
    base_certs = []
    leaf_certs = []
    records = 0
    for index in range(CHAIN_USERS):
        domain = host.create_domain()
        cert = leaders[0].enter_role(
            domain.client_id, "LoggedOn", (f"u{index}", "bench")
        )
        base_certs.append(cert)
        records += 1
        for level in range(1, CHAIN_DEPTH + 1):
            cert = leaders[level].enter_role(
                domain.client_id, f"Member{level}", credentials=(cert,)
            )
            records += 1
        leaf_certs.append((leaders[CHAIN_DEPTH], cert))
    sim.run_until(sim.now + 5.0)

    def changed():
        return sum(svc.credentials.cascade_totals.records_changed for svc in leaders)

    changed_before = changed()
    bytes_before = net.stats.bytes_sent
    for cert in base_certs:
        leaders[0].exit_role(cert)
    virtual_elapsed = linkage.quiesce()

    # one link delay per shard hop, and one for the last hop's ack
    bound = (CHAIN_DEPTH + 1) * 0.01 + 1e-9
    still_valid = 0
    for service, cert in leaf_certs:
        try:
            service.validate(cert)
            still_valid += 1
        except OasisError:
            pass
    record_bench(
        "shard", "revocation_convergence",
        chain_depth=CHAIN_DEPTH,
        records=records,
        records_changed=changed() - changed_before,
        bytes_on_wire=net.stats.bytes_sent - bytes_before,
        virtual_seconds=round(virtual_elapsed, 3),
        bound_virtual_seconds=round(bound, 3),
    )
    assert still_valid == 0, f"{still_valid} leaf certificates survived the revocation"
    assert linkage.journal_quiescent() and net.in_flight == 0
    assert virtual_elapsed <= bound, (
        f"quiesce took {virtual_elapsed:.3f}s over a depth-{CHAIN_DEPTH} chain "
        f"(bound {bound:.3f}s)"
    )


# --------------------------------------------------------- p99 under chaos


def test_warm_read_p99_flat_under_chaos():
    sim = Simulator()
    net = Network(sim, seed=31, default_delay=0.01)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(net)
    leaders = []
    for index in range(4):
        svc = OasisService(
            f"Login{index}", registry=registry, linkage=linkage, clock=clock
        )
        svc.export_type(ObjectType(f"Login{index}.userid"), "userid")
        svc.add_rolefile("main", LOGIN_RDL)
        leaders.append(svc)
    # cross-shard heartbeat/subscription traffic for the chaos to chew on
    for index in range(1, 4):
        linkage.monitor(leaders[0], leaders[index], period=0.5, grace=2.0)
    fleet = CredentialFleet(
        [CredentialShard(leader, followers=1) for leader in leaders]
    )
    host = HostOS("bench-p99-host")
    certs = []
    for index in range(64):
        domain = host.create_domain()
        certs.append(
            fleet.enter_role(
                f"user{index}", domain.client_id, "LoggedOn", (f"u{index}", "bench")
            )
        )
    for cert in certs:
        fleet.validate(cert)

    rng = random.Random(31)

    def measure(ops):
        samples = []
        for _ in range(ops):
            cert = certs[rng.randrange(len(certs))]
            started = time.perf_counter()
            fleet.validate(cert)
            samples.append(time.perf_counter() - started)
            if len(samples) % 50 == 0:
                sim.run_until(sim.now + 0.25)   # let wire/heartbeat work run
        return samples

    calm = measure(P99_OPS)

    plan = FaultPlan.random(
        seed=31,
        duration=60.0,
        addresses=tuple(f"oasis:Login{i}" for i in range(4)),
        services=tuple(f"Login{i}" for i in range(4)),
        link_flaps=4,
        partitions=2,
        loss_bursts=4,
        duplication_windows=2,
        reorder_windows=2,
        crashes=0,
        max_outage=4.0,
    )
    chaos = ChaosController(net, plan)
    chaos.arm()
    stormy = measure(P99_OPS)
    chaos.disarm()

    calm_p50 = _percentile(calm, 0.50)
    calm_p99 = _percentile(calm, 0.99)
    chaos_p50 = _percentile(stormy, 0.50)
    chaos_p99 = _percentile(stormy, 0.99)
    ratio = chaos_p99 / calm_p99 if calm_p99 else 1.0
    record_bench(
        "shard", "p99_under_chaos",
        ops_per_phase=P99_OPS,
        calm_p50_us=round(calm_p50 * 1e6, 2),
        calm_p99_us=round(calm_p99 * 1e6, 2),
        chaos_p50_us=round(chaos_p50 * 1e6, 2),
        chaos_p99_us=round(chaos_p99 * 1e6, 2),
        p99_ratio=round(ratio, 2),
    )
    # warm-path checks are shard-local: wire faults must not move the
    # tail by an order of magnitude (loose bound; exact values recorded)
    assert ratio < 10.0, f"chaos moved warm-read p99 by {ratio:.1f}x"
