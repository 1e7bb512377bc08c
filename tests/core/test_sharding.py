"""Sharding layer unit tests (ISSUE 7 tentpole).

Ring placement must be deterministic and minimal-movement; the router
must mask crashed shards and snap back; follower replicas must stay
coherent with their leader's cascades (fail-closed on the very next
call); a cross-shard revocation must quiesce within one link delay per
shard boundary it crosses.
"""

import pytest

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.linkage import LocalLinkage, SimLinkage
from repro.core.sharding import (
    CredentialFleet,
    CredentialShard,
    HashRing,
    ServiceReplica,
    ShardRouter,
    StorageFleet,
    StorageShard,
    stable_digest,
)
from repro.core.types import ObjectType
from repro.errors import FraudError, MisuseError, OasisError, RevokedError
from repro.mssa.acl import Acl
from repro.mssa.byte_segment import ByteSegmentCustode
from repro.runtime.clock import ManualClock, SimClock
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator

LOGIN_RDL = """
def LoggedOn(u, h)  u: userid  h: string
LoggedOn(u, h) <-
"""


# ------------------------------------------------------------------- ring


def test_stable_digest_is_process_independent():
    # pinned value: blake2b-8 of the key bytes.  If this ever moves,
    # every persisted placement in every deployment moves with it.
    assert stable_digest("shard-a#0") == int.from_bytes(
        __import__("hashlib").blake2b(b"shard-a#0", digest_size=8).digest(), "big"
    )
    assert stable_digest("x") == stable_digest("x")
    assert stable_digest("x") != stable_digest("y")


def test_ring_placement_is_insertion_order_independent():
    keys = [f"k{i}" for i in range(300)]
    forward = HashRing(["a", "b", "c", "d"])
    backward = HashRing(["d", "c", "b", "a"])
    assert {k: forward.node_for(k) for k in keys} == {
        k: backward.node_for(k) for k in keys
    }


def test_ring_spreads_keys_across_all_nodes():
    ring = HashRing(["a", "b", "c", "d"])
    owners = {ring.node_for(f"k{i}") for i in range(300)}
    assert owners == {"a", "b", "c", "d"}


def test_ring_removal_moves_only_the_removed_nodes_keys():
    keys = [f"k{i}" for i in range(300)]
    ring = HashRing(["a", "b", "c", "d"])
    before = {k: ring.node_for(k) for k in keys}
    ring.remove_node("b")
    for key in keys:
        if before[key] != "b":
            assert ring.node_for(key) == before[key]
        else:
            assert ring.node_for(key) != "b"
    # adding it back restores the original placement exactly
    ring.add_node("b")
    assert {k: ring.node_for(k) for k in keys} == before


def test_ring_preference_walk_yields_each_node_once():
    ring = HashRing(["a", "b", "c"])
    walk = list(ring.preference("some-key"))
    assert sorted(walk) == ["a", "b", "c"]
    assert walk[0] == ring.node_for("some-key")
    assert ring.nodes_for("some-key", 2) == walk[:2]


def test_empty_ring_raises():
    with pytest.raises(OasisError):
        HashRing().node_for("k")


# ----------------------------------------------------------------- router


def test_router_masks_down_shards_and_snaps_back():
    router = ShardRouter(HashRing(["a", "b", "c"]))
    key = "some-key"
    owner = router.owner(key)
    version = router.version
    router.mark_down(owner)
    assert router.version > version
    detour = router.route(key)
    assert detour != owner
    assert detour in list(router.ring.preference(key))
    assert router.stats.reroutes == 1
    router.mark_up(owner)
    assert router.route(key) == owner


def test_router_raises_when_every_shard_is_down():
    router = ShardRouter(HashRing(["a", "b"]))
    router.mark_down("a")
    router.mark_down("b")
    with pytest.raises(OasisError):
        router.route("k")


# --------------------------------------------------------------- replicas


def build_shard(followers=2):
    clock = ManualClock()
    registry = ServiceRegistry()
    linkage = LocalLinkage()
    login = OasisService(
        "Login", registry=registry, linkage=linkage, clock=clock
    )
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    shard = CredentialShard(login, followers=followers)
    host = HostOS("shard-host")
    return clock, login, shard, host


def test_replica_serves_warm_and_falls_back_cold():
    _, login, shard, host = build_shard(followers=1)
    domain = host.create_domain()
    cert = shard.enter_role(domain.client_id, "LoggedOn", ("u1", "h"))
    replica = shard.replicas[0]
    shard.validate(cert)                    # cold: leader fallback, warms
    assert replica.stats.leader_fallbacks == 1
    shard.validate(cert)                    # warm: replica-local
    assert replica.stats.warm_hits == 1
    counters = replica.cache_counters()["validity"]
    assert counters.hits >= 1 and counters.size == 1


def test_revocation_at_leader_invalidates_replica_immediately():
    _, login, shard, host = build_shard(followers=1)
    domain = host.create_domain()
    cert = shard.enter_role(domain.client_id, "LoggedOn", ("u1", "h"))
    shard.validate(cert)
    shard.validate(cert)                    # warm on the replica
    shard.exit_role(cert)
    # the leader's cascade ran the replica's watch hook synchronously:
    # the very next replica read must deny
    with pytest.raises(RevokedError):
        shard.validate(cert)
    assert shard.replicas[0].stats.invalidations >= 1


def test_replica_warm_hit_rechecks_expiry(monkeypatch):
    clock, login, shard, host = build_shard(followers=1)
    login.cert_lifetime = 10.0
    domain = host.create_domain()
    cert = shard.enter_role(domain.client_id, "LoggedOn", ("u1", "h"))
    shard.validate(cert)
    shard.validate(cert)
    clock.advance(11.0)
    with pytest.raises(OasisError):
        shard.replicas[0].validate(cert)


def test_leader_restart_clears_replica_caches():
    _, login, shard, host = build_shard(followers=1)
    domain = host.create_domain()
    cert = shard.enter_role(domain.client_id, "LoggedOn", ("u1", "h"))
    shard.validate(cert)
    shard.validate(cert)
    assert shard.replicas[0].cache_counters()["validity"].size == 1
    login.restart()
    assert shard.replicas[0].cache_counters()["validity"].size == 0


def test_removed_rolefile_stops_granting_at_followers():
    """Withdrawing a policy changes no credential record, so no cascade
    reaches the replica: the leader's cache flush must cover it."""
    _, login, shard, host = build_shard(followers=1)
    login.add_rolefile("guests", "def Guest(u)  u: string\nGuest(u) <-\n")
    domain = host.create_domain()
    cert = shard.enter_role(domain.client_id, "Guest", ("g",), rolefile_id="guests")
    shard.validate(cert)
    shard.validate(cert)                    # warm on the replica
    assert shard.replicas[0].stats.warm_hits == 1
    login.remove_rolefile("guests")
    with pytest.raises(MisuseError, match="unknown rolefile"):
        login.validate(cert)
    with pytest.raises(MisuseError, match="unknown rolefile"):
        shard.validate(cert)


@pytest.mark.parametrize("followers", [0, 1])
def test_vci_binding_checked_through_followers(followers):
    """Section 2.8.1 through the fleet facade: the VCI holder is granted
    (warm hits included) and a forked child without the VCI is refused,
    with or without follower replicas."""
    fleet, host = build_fleet(n_shards=1, followers=followers)
    parent = host.create_domain()
    vci = parent.new_vci()
    cert = fleet.enter_role("p", parent.client_id, "LoggedOn", ("u1", "h"), vci=vci)
    child = parent.fork(pass_vcis=set())
    for _ in range(3):
        assert fleet.validate(cert, domain=parent) is cert
        with pytest.raises(FraudError, match="may not use"):
            fleet.validate(cert, domain=child)
    if followers:
        assert fleet.shard_of(cert).replicas[0].stats.warm_hits >= 2


def test_foreign_issuer_certificates_fall_back_to_leader_path():
    _, login, shard, host = build_shard(followers=1)
    clock2 = ManualClock()
    registry2 = ServiceRegistry()
    other = OasisService(
        "Other", registry=registry2, linkage=LocalLinkage(), clock=clock2
    )
    other.export_type(ObjectType("Other.userid"), "userid")
    other.add_rolefile("main", LOGIN_RDL)
    domain = host.create_domain()
    foreign = other.enter_role(domain.client_id, "LoggedOn", ("u1", "h"))
    with pytest.raises(OasisError):
        shard.replicas[0].validate(foreign)


# ----------------------------------------------------------------- fleets


def build_fleet(n_shards=2, followers=1):
    clock = ManualClock()
    registry = ServiceRegistry()
    linkage = LocalLinkage()
    shards = []
    for index in range(n_shards):
        svc = OasisService(
            f"Login{index}", registry=registry, linkage=linkage, clock=clock
        )
        svc.export_type(ObjectType(f"Login{index}.userid"), "userid")
        svc.add_rolefile("main", LOGIN_RDL)
        shards.append(CredentialShard(svc, followers=followers))
    return CredentialFleet(shards), HostOS("fleet-host")


def test_fleet_routes_validation_by_issuer():
    fleet, host = build_fleet(n_shards=3)
    certs = []
    for index in range(30):
        domain = host.create_domain()
        certs.append(
            fleet.enter_role(f"user{index}", domain.client_id, "LoggedOn", (f"u{index}", "h"))
        )
    issuers = {cert.issuer for cert in certs}
    assert len(issuers) > 1, "placement never spread across shards"
    for cert in certs:
        assert fleet.validate(cert) is cert
        assert fleet.shard_of(cert).name == cert.issuer


def test_fleet_rejects_certificates_from_outside_the_fleet():
    fleet, host = build_fleet(n_shards=2)
    elsewhere = OasisService(
        "Elsewhere",
        registry=ServiceRegistry(),
        linkage=LocalLinkage(),
        clock=ManualClock(),
    )
    elsewhere.export_type(ObjectType("Elsewhere.userid"), "userid")
    elsewhere.add_rolefile("main", LOGIN_RDL)
    domain = host.create_domain()
    foreign = elsewhere.enter_role(domain.client_id, "LoggedOn", ("u", "h"))
    with pytest.raises(OasisError):
        fleet.shard_of(foreign)


def test_fleet_mark_down_moves_new_placements_only():
    fleet, host = build_fleet(n_shards=3)
    key = "sticky-user"
    home = fleet.router.route(key)
    fleet.mark_down(home)
    assert fleet.router.route(key) != home
    fleet.mark_up(home)
    assert fleet.router.route(key) == home


# ---------------------------------------------------------------- storage


def build_storage_world(followers=1):
    clock = ManualClock()
    registry = ServiceRegistry()
    linkage = LocalLinkage()
    login = OasisService("Login", registry=registry, linkage=linkage, clock=clock)
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    custode = ByteSegmentCustode(
        "ffc",
        registry=registry,
        linkage=linkage,
        clock=clock,
        user_groups=lambda user: {"staff"},
    )
    fleet = StorageFleet([StorageShard(custode, followers=followers)])
    host = HostOS("storage-host")
    domain = host.create_domain()
    login_cert = login.enter_role(domain.client_id, "LoggedOn", ("admin", "h"))
    acl = custode.create_acl(Acl.parse("@staff=+r admin=+rwad", alphabet="rwad"))
    fid = custode.create_segment(acl, b"replicated payload")
    cert = custode.enter_use_acl(domain.client_id, acl, login_cert)
    return login, custode, fleet, fid, cert


def test_storage_replica_serves_warm_reads():
    login, custode, fleet, fid, cert = build_storage_world()
    replica = fleet.shards["ffc"].replicas[0]
    assert fleet.read_segment(cert, fid) == b"replicated payload"
    assert fleet.read_segment(cert, fid, offset=11) == b"payload"
    assert replica.stats.warm_hits >= 1
    assert replica.cache_counters()["decisions"].size == 1


def test_storage_replica_denies_after_use_cert_revoked():
    login, custode, fleet, fid, cert = build_storage_world()
    fleet.read_segment(cert, fid)
    fleet.read_segment(cert, fid)           # warm
    custode.service.exit_role(cert)
    with pytest.raises(OasisError):
        fleet.read_segment(cert, fid)


def test_storage_replica_repins_after_acl_change():
    login, custode, fleet, fid, cert = build_storage_world()
    fleet.read_segment(cert, fid)
    fleet.read_segment(cert, fid)           # warm, pinned to ACL version
    replica = fleet.shards["ffc"].replicas[0]
    warm_before = replica.stats.warm_hits
    acl_id = custode._record(fid).acl_id
    custode.modify_acl(cert, acl_id, Acl.parse("admin=+rwad", alphabet="rwad"))
    # the version record moved: outstanding UseAcl certificates are
    # revoked and the replica's pin is stale — the warm path must not
    # serve this read
    with pytest.raises(OasisError):
        fleet.read_segment(cert, fid)
    assert replica.stats.warm_hits == warm_before


def test_storage_replica_denies_after_regroup():
    """A regrouped file is governed by its new ACL on the replica too:
    the pinned decision stored the old ACL, so the next read misses."""
    login, custode, fleet, fid, cert = build_storage_world()
    fleet.read_segment(cert, fid)
    fleet.read_segment(cert, fid)           # warm on the replica
    replica = fleet.shards["ffc"].replicas[0]
    other = custode.create_acl(Acl.parse("nobody=+r", alphabet="rwad"))
    custode.set_acl_of(cert, fid, other)
    warm_before = replica.stats.warm_hits
    with pytest.raises(OasisError):
        fleet.read_segment(cert, fid)
    assert replica.stats.warm_hits == warm_before


# ----------------------------------------------------------------- settle


def build_chain(depth=2):
    sim = Simulator()
    net = Network(sim, seed=5, default_delay=0.01)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(net)
    leaders = []
    for index in range(depth + 1):
        svc = OasisService(
            f"Login{index}", registry=registry, linkage=linkage, clock=clock
        )
        svc.export_type(ObjectType(f"Login{index}.userid"), "userid")
        leaders.append(svc)
    leaders[0].add_rolefile("main", LOGIN_RDL)
    for level in range(1, depth + 1):
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


def test_settle_converges_within_chain_hop_bound():
    depth = 2
    sim, net, linkage, leaders = build_chain(depth)
    host = HostOS("settle-host")
    chains = []
    for index in range(12):
        domain = host.create_domain()
        cert = leaders[0].enter_role(domain.client_id, "LoggedOn", (f"u{index}", "h"))
        base = cert
        for level in range(1, depth + 1):
            cert = leaders[level].enter_role(
                domain.client_id, f"Member{level}", credentials=(cert,)
            )
        chains.append((base, cert))
    sim.run_until(sim.now + 3.0)

    def changed():
        return sum(svc.credentials.cascade_totals.records_changed for svc in leaders)

    before = changed()
    for base, _leaf in chains:
        leaders[0].exit_role(base)
    # each shard boundary costs one link delay (0.01 s): the outbox
    # drains every hop's notifications in one zero-delay event
    assert linkage.quiesce() <= (depth + 1) * 0.01 + 1e-9
    assert changed() - before >= len(chains) * (depth + 1)
    for _base, leaf in chains:
        with pytest.raises(OasisError):
            leaders[depth].validate(leaf)


def test_settle_on_quiet_fleet_is_one_hop():
    """Nothing to deliver: quiesce returns once the heartbeats in flight
    land, within one link delay, and changes no record."""
    sim, net, linkage, leaders = build_chain(depth=1)
    before = [svc.credentials.cascade_totals.records_changed for svc in leaders]
    assert linkage.quiesce() <= 0.01 + 1e-9
    assert linkage.journal_quiescent() and net.in_flight == 0
    assert [svc.credentials.cascade_totals.records_changed for svc in leaders] == before
