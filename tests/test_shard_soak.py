"""Seeded 4-shard soak with a shard-kill event (ISSUE 7).

A :class:`~repro.core.sharding.CredentialFleet` of four leaders (each
with one follower replica) runs under the PR-5 chaos harness while a
driver enters, validates and revokes roles through the fleet facade.
One shard is crash-restarted mid-soak.  Asserted throughout:

* **zero fail-closed violations** — no surrogate grants past the stale
  bound, swept by :class:`~repro.runtime.faults.InvariantChecker`;
* **ring rebalance** — while the shard is down, placements it owns
  route to ring successors (and are counted as reroutes); after the
  restart, placement snaps back to ring ownership;
* **queue bounds** — no wire queue outgrows its ``max_queue`` even with
  the kill interleaved with flush traffic.

Run directly (CI chaos-smoke does) or via pytest.
"""

import random

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.linkage import SimLinkage
from repro.core.sharding import CredentialFleet, CredentialShard
from repro.core.types import ObjectType
from repro.errors import OasisError
from repro.runtime.clock import SimClock
from repro.runtime.faults import ChaosController, FaultPlan, InvariantChecker
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator
from repro.runtime.wire import WirePolicy

SEED = 20260808
SHARDS = 4
DURATION = 30.0
SETTLE = 25.0
MAX_OUTAGE = 4.0
PERIOD = 0.5
GRACE = 2.0
STALE_BOUND = MAX_OUTAGE + (GRACE + 1.0) * PERIOD + 3.0

LOGIN_RDL = """
def LoggedOn(u, h)  u: userid  h: string
LoggedOn(u, h) <-
"""

CHAIN_RDL = """
import Login0.userid
Member(u) <- Login0.LoggedOn(u, h)*
"""


def build_fleet_world():
    sim = Simulator()
    net = Network(sim, seed=SEED, default_delay=0.01)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(
        net, policy=WirePolicy(max_batch=64, max_delay=0.05, max_queue=64)
    )
    leaders = []
    for index in range(SHARDS):
        svc = OasisService(
            f"Login{index}", registry=registry, linkage=linkage, clock=clock
        )
        svc.export_type(ObjectType(f"Login{index}.userid"), "userid")
        svc.add_rolefile("main", LOGIN_RDL)
        leaders.append(svc)
    # cross-shard subscription graph: every other shard consumes Login0
    # roles, so revocations issued at shard 0 must propagate fleet-wide
    for index in range(1, SHARDS):
        leaders[index].add_rolefile("chain", CHAIN_RDL)
        linkage.monitor(leaders[0], leaders[index], period=PERIOD, grace=GRACE)
    fleet = CredentialFleet(
        [CredentialShard(leader, followers=1) for leader in leaders]
    )
    return sim, net, linkage, leaders, fleet


def test_shard_kill_soak_fail_closed_and_rebalance():
    sim, net, linkage, leaders, fleet = build_fleet_world()
    sim.run_until(1.0)
    services = {leader.name: leader for leader in leaders}
    host = HostOS("shard-soak-host")
    rng = random.Random(SEED)
    probe_keys = [f"probe{i}" for i in range(32)]
    assert {fleet.router.owner(k) for k in probe_keys} == set(services), (
        "probe keys must cover every shard"
    )

    plan = FaultPlan.random(
        seed=SEED,
        duration=DURATION,
        addresses=tuple(f"oasis:Login{i}" for i in range(SHARDS)),
        services=tuple(f"Login{i}" for i in range(SHARDS)),
        link_flaps=3,
        partitions=1,
        loss_bursts=3,
        duplication_windows=2,
        reorder_windows=2,
        crashes=1,
        max_outage=MAX_OUTAGE,
    )
    kill_events = []

    def crash(name):
        linkage.crash(services[name])
        fleet.mark_down(name)
        owned = [key for key in probe_keys if fleet.router.owner(key) == name]
        # rebalance: every key the dead shard owns routes to a live
        # ring successor the moment the shard is marked down
        for key in owned:
            assert fleet.router.route(key) != name
        kill_events.append((name, len(owned)))

    def restart(name):
        linkage.restart(services[name])
        fleet.mark_up(name)
        # placement snaps back to ring ownership once the shard returns
        for key in probe_keys:
            if name == fleet.router.owner(key):
                assert fleet.router.route(key) == name

    chaos = ChaosController(net, plan, crash=crash, restart=restart)
    checker = InvariantChecker(
        leaders,
        stale_bound=STALE_BOUND,
        is_down=chaos.is_down,
        channels=linkage.all_channels,
        journals=linkage.durable,
    )
    chaos.arm()

    sessions = []

    def do_op():
        code = rng.randrange(4)
        try:
            if code == 0:
                # key-routed placement through the ring (live shards only)
                domain = host.create_domain()
                user = f"user{len(sessions)}"
                shard = fleet.shard_for(user)
                if chaos.is_down(shard.name):
                    return
                cert = shard.enter_role(
                    domain.client_id, "LoggedOn", (user, "soak-host")
                )
                sessions.append({"client": domain.client_id, "cert": cert,
                                 "member": None})
            elif code == 1 and sessions:
                session = rng.choice(sessions)
                if not chaos.is_down(session["cert"].issuer):
                    fleet.validate(session["cert"])
            elif code == 2 and not chaos.is_down("Login0"):
                # cross-shard chain: base at shard 0, member elsewhere
                domain = host.create_domain()
                base = leaders[0].enter_role(
                    domain.client_id, "LoggedOn", (f"c{len(sessions)}", "soak-host")
                )
                consumer = leaders[rng.randrange(1, SHARDS)]
                member = None
                if not chaos.is_down(consumer.name):
                    member = consumer.enter_role(
                        domain.client_id, "Member",
                        credentials=(base,), rolefile_id="chain",
                    )
                sessions.append({"client": domain.client_id, "cert": base,
                                 "member": (consumer, member)})
            elif code == 3 and sessions:
                session = rng.choice(sessions)
                if not chaos.is_down(session["cert"].issuer):
                    sessions.remove(session)
                    services[session["cert"].issuer].exit_role(session["cert"])
        except OasisError:
            pass    # individual denials/sheds are fine; safety is asserted below

    ops = 80
    spacing = DURATION / ops
    for index in range(ops):
        sim.schedule_at(1.2 + index * spacing, do_op)
    for tick in range(int(DURATION + SETTLE)):
        sim.schedule_at(1.6 + tick, checker.check_fail_closed)
        sim.schedule_at(1.7 + tick, checker.check_queue_bounds)
    end = max(plan.horizon(), DURATION) + SETTLE
    sim.schedule_at(max(plan.horizon(), DURATION) + 0.5, chaos.disarm)
    sim.run_until(end)

    assert kill_events, "the fault plan never killed a shard"
    assert checker.violations == [], (
        f"fail-closed violations under shard kill: {checker.violations}"
    )
    assert checker.checks > 0
    assert checker.check_outbox_conservation() == []
    assert linkage.journal_quiescent()
    # after the dust settles every probe key is served by its ring owner
    for key in probe_keys:
        assert fleet.router.route(key) == fleet.router.owner(key)
    # fleet stayed live through the kill: entries continued on other shards
    assert sum(shard.stats.writes for shard in fleet.shards.values()) > 0


if __name__ == "__main__":
    test_shard_kill_soak_fail_closed_and_rebalance()
    print("shard soak: ok")
