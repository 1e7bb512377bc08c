"""Unit tests for the seeded chaos harness (FaultPlan, ChaosController,
InvariantChecker)."""

import pytest

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.credentials import RecordState
from repro.core.linkage import SimLinkage
from repro.core.types import ObjectType
from repro.runtime.clock import SimClock
from repro.runtime.faults import (
    ChaosController,
    CrashRestart,
    DuplicationWindow,
    FaultPlan,
    InvariantChecker,
    LinkFlap,
    LossBurst,
    PartitionWindow,
    ReorderWindow,
)
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator

LOGIN_RDL = """
def LoggedOn(u, h)  u: userid  h: string
LoggedOn(u, h) <-
"""

FILES_RDL = """
import Login.userid
Reader(u) <- Login.LoggedOn(u, h)*
"""


def make_net(**kwargs):
    sim = Simulator()
    return sim, Network(sim, seed=3, **kwargs)


def collector(net, name):
    got = []
    net.add_node(name, lambda m: got.append((net.simulator.now, m.payload)))
    return got


# ------------------------------------------------------------------ FaultPlan


def test_random_plan_is_deterministic():
    kwargs = dict(
        duration=100.0, addresses=("a", "b", "c"), services=("Login", "Files")
    )
    one = FaultPlan.random(seed=42, **kwargs)
    two = FaultPlan.random(seed=42, **kwargs)
    other = FaultPlan.random(seed=43, **kwargs)
    assert one == two
    assert one != other
    assert one.events == tuple(sorted(one.events, key=lambda e: e.at))


def test_random_plan_respects_requested_counts():
    plan = FaultPlan.random(
        seed=1,
        duration=50.0,
        addresses=("a", "b"),
        services=("S",),
        link_flaps=4,
        partitions=3,
        loss_bursts=2,
        duplication_windows=1,
        reorder_windows=1,
        crashes=2,
    )
    kinds = [type(e).__name__ for e in plan.events]
    assert kinds.count("LinkFlap") == 4
    assert kinds.count("PartitionWindow") == 3
    assert kinds.count("LossBurst") == 2
    assert kinds.count("DuplicationWindow") == 1
    assert kinds.count("ReorderWindow") == 1
    assert kinds.count("CrashRestart") == 2


def test_horizon_covers_every_fault():
    plan = FaultPlan(
        events=(
            LinkFlap(1.0, "a", "b", 5.0),
            CrashRestart(4.0, "S", 10.0),
        )
    )
    assert plan.horizon() == pytest.approx(14.0)


# ------------------------------------------------------------ ChaosController


def test_link_flap_cuts_then_heals():
    sim, net = make_net()
    net.add_node("a", lambda m: None)
    got = collector(net, "b")
    plan = FaultPlan(events=(LinkFlap(1.0, "a", "b", 2.0),))
    chaos = ChaosController(net, plan)
    chaos.arm()
    sim.schedule_at(1.5, net.send, "a", "b", "ping", "during")
    sim.schedule_at(4.0, net.send, "a", "b", "ping", "after")
    sim.run()
    assert [p for _, p in got] == ["after"]
    assert chaos.stats.link_flaps == 1
    assert net.stats.dropped_while_down == 1


def test_partition_window_heals_itself():
    sim, net = make_net()
    net.add_node("a", lambda m: None)
    got = collector(net, "b")
    plan = FaultPlan(
        events=(PartitionWindow(1.0, frozenset({"a"}), frozenset({"b"}), 2.0),)
    )
    chaos = ChaosController(net, plan)
    chaos.arm()
    sim.schedule_at(2.0, net.send, "a", "b", "ping", "during")
    sim.schedule_at(4.0, net.send, "a", "b", "ping", "after")
    sim.run()
    assert [p for _, p in got] == ["after"]
    assert chaos.stats.partitions == 1
    assert chaos.stats.heals == 1


def test_loss_burst_drops_matching_traffic_only():
    sim, net = make_net()
    net.add_node("a", lambda m: None)
    net.add_node("c", lambda m: None)
    got_b = collector(net, "b")
    plan = FaultPlan(
        events=(LossBurst(at=0.0, duration=10.0, probability=1.0, source="a", dest="b"),)
    )
    chaos = ChaosController(net, plan)
    chaos.arm()
    for t in (1.0, 2.0, 3.0):
        sim.schedule_at(t, net.send, "a", "b", "ping", t)
        sim.schedule_at(t, net.send, "c", "b", "ping", t)
    sim.run()
    # a->b eaten by the burst, c->b untouched
    assert len(got_b) == 3
    assert chaos.stats.messages_dropped == 3
    assert net.stats.dropped_by_fault == 3


def test_duplication_window_clones_messages():
    sim, net = make_net()
    net.add_node("a", lambda m: None)
    got = collector(net, "b")
    plan = FaultPlan(events=(DuplicationWindow(0.0, 10.0, probability=1.0, copies=2),))
    chaos = ChaosController(net, plan)
    chaos.arm()
    for t in (1.0, 2.0):
        sim.schedule_at(t, net.send, "a", "b", "ping", t)
    sim.run()
    assert len(got) == 4  # every message delivered twice
    assert chaos.stats.messages_duplicated == 2
    assert net.stats.duplicated == 2


def test_reorder_window_delays_messages():
    sim, net = make_net(default_delay=0.01)
    net.add_node("a", lambda m: None)
    got = collector(net, "b")
    plan = FaultPlan(
        events=(ReorderWindow(0.0, 10.0, probability=1.0, max_extra_delay=5.0),)
    )
    chaos = ChaosController(net, plan)
    chaos.arm()
    for i in range(10):
        sim.schedule_at(1.0 + i * 0.001, net.send, "a", "b", "ping", i)
    sim.run()
    assert chaos.stats.messages_reordered == 10
    payloads = [p for _, p in got]
    assert len(payloads) == 10
    assert payloads != sorted(payloads)  # later traffic overtook earlier


def test_crash_restart_fires_callbacks_and_tracks_down_set():
    sim, net = make_net()
    events = []
    plan = FaultPlan(events=(CrashRestart(2.0, "Login", downtime=3.0),))
    chaos = ChaosController(
        net,
        plan,
        crash=lambda name: events.append(("crash", name, sim.now)),
        restart=lambda name: events.append(("restart", name, sim.now)),
    )
    chaos.arm()
    sim.schedule_at(3.0, lambda: events.append(("down?", chaos.is_down("Login"), sim.now)))
    sim.run()
    assert events == [
        ("crash", "Login", 2.0),
        ("down?", True, 3.0),
        ("restart", "Login", 5.0),
    ]
    assert not chaos.is_down("Login")
    assert chaos.stats.crashes == 1
    assert chaos.stats.restarts == 1


def test_disarm_removes_injector():
    sim, net = make_net()
    net.add_node("a", lambda m: None)
    got = collector(net, "b")
    plan = FaultPlan(events=(LossBurst(0.0, 100.0, probability=1.0),))
    chaos = ChaosController(net, plan)
    chaos.arm()
    sim.run_until(1.0)
    chaos.disarm()
    net.send("a", "b", "ping", "x")
    sim.run()
    assert [p for _, p in got] == ["x"]


# ---------------------------------------------------------- InvariantChecker


def make_world(delay=0.01):
    sim = Simulator()
    net = Network(sim, seed=5, default_delay=delay)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(net)
    login = OasisService("Login", registry=registry, linkage=linkage, clock=clock)
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    files = OasisService("Files", registry=registry, linkage=linkage, clock=clock)
    files.add_rolefile("main", FILES_RDL)
    user = HostOS("ely").create_domain()
    return sim, net, linkage, login, files, user


def test_checker_flags_stale_true_surrogate():
    """No heartbeat monitor and a partition: the surrogate stays TRUE
    while issuer truth is FALSE — exactly the breach the checker exists
    to catch once the stale bound is exceeded."""
    sim, net, linkage, login, files, user = make_world()
    cert = login.enter_role(user.client_id, "LoggedOn", ("dm", "ely"))
    files.enter_role(user.client_id, "Reader", credentials=(cert,))
    sim.run()
    checker = InvariantChecker([login, files], stale_bound=1.0)
    net.partition({"oasis:Login"}, {"oasis:Files"})
    login.exit_role(cert)
    sim.run_until(sim.now + 0.5)
    assert checker.check_fail_closed() == []  # still inside the allowance
    sim.run_until(sim.now + 2.0)
    violations = checker.check_fail_closed()
    assert len(violations) == 1
    v = violations[0]
    assert v.consumer == "Files"
    assert v.issuer == "Login"
    assert v.surrogate_state is RecordState.TRUE
    assert v.issuer_state is RecordState.FALSE
    assert v.stale_for > 1.0
    assert "Files" in str(v) and "Login" in str(v)


def test_checker_accepts_prompt_propagation():
    sim, net, linkage, login, files, user = make_world()
    cert = login.enter_role(user.client_id, "LoggedOn", ("dm", "ely"))
    files.enter_role(user.client_id, "Reader", credentials=(cert,))
    sim.run()
    checker = InvariantChecker([login, files], stale_bound=1.0)
    login.exit_role(cert)
    sim.run()  # Modified event lands well inside the bound
    assert checker.check_fail_closed() == []
    assert checker.converged()


def test_checker_skips_down_consumers():
    sim, net, linkage, login, files, user = make_world()
    cert = login.enter_role(user.client_id, "LoggedOn", ("dm", "ely"))
    files.enter_role(user.client_id, "Reader", credentials=(cert,))
    sim.run()
    down = set()
    checker = InvariantChecker(
        [login, files], stale_bound=1.0, is_down=lambda name: name in down
    )
    net.partition({"oasis:Login"}, {"oasis:Files"})
    login.exit_role(cert)
    sim.run_until(sim.now + 5.0)
    down.add("Files")  # a dead process grants nothing
    assert checker.check_fail_closed() == []
    down.clear()
    assert len(checker.check_fail_closed()) == 1


def test_divergences_and_convergence():
    sim, net, linkage, login, files, user = make_world()
    cert = login.enter_role(user.client_id, "LoggedOn", ("dm", "ely"))
    files.enter_role(user.client_id, "Reader", credentials=(cert,))
    sim.run()
    checker = InvariantChecker([login, files], stale_bound=1.0)
    net.partition({"oasis:Login"}, {"oasis:Files"})
    login.exit_role(cert)
    sim.run_until(sim.now + 5.0)
    assert not checker.converged()
    assert checker.divergences() == [
        ("Files", "Login", cert.crr, RecordState.TRUE, RecordState.FALSE)
    ]
    net.heal({"oasis:Login"}, {"oasis:Files"})
    sim.run()   # the parked revocation is redelivered from the outbox
    assert checker.converged()


# ------------------------------------------------------------ OverloadBurst


def test_overload_burst_generates_synthetic_traffic():
    from repro.runtime.faults import OverloadBurst

    sim, net = make_net()
    collector(net, "a")
    got = collector(net, "b")
    plan = FaultPlan(
        events=(OverloadBurst(at=1.0, duration=0.5, source="a", dest="b", rate=100.0),),
        seed=9,
    )
    chaos = ChaosController(net, plan)
    chaos.arm()
    sim.run_until(5.0)
    assert chaos.stats.overload_bursts == 1
    # ~rate * duration messages, all of the chaos kind, all accounted
    assert 40 <= chaos.stats.overload_messages <= 60
    assert len(got) == chaos.stats.overload_messages
    assert net.unaccounted() == 0


def test_overload_burst_stops_at_window_end():
    from repro.runtime.faults import OverloadBurst

    sim, net = make_net()
    collector(net, "a")
    got = collector(net, "b")
    plan = FaultPlan(
        events=(OverloadBurst(at=0.0, duration=1.0, source="a", dest="b", rate=50.0),),
        seed=9,
    )
    ChaosController(net, plan).arm()
    sim.run_until(30.0)
    assert got
    assert all(at <= 1.01 for at, _payload in got)


def test_overload_burst_custom_generator():
    from repro.runtime.faults import OverloadBurst

    sim, net = make_net()
    bursts = []
    plan = FaultPlan(
        events=(OverloadBurst(at=0.0, duration=0.1, source="a", dest="b", rate=30.0),),
        seed=9,
    )
    chaos = ChaosController(net, plan, overload=bursts.append)
    chaos.arm()
    sim.run_until(1.0)
    assert len(bursts) == chaos.stats.overload_messages
    assert all(event.dest == "b" for event in bursts)


def test_random_plan_includes_overload_bursts():
    from repro.runtime.faults import OverloadBurst

    plan = FaultPlan.random(
        seed=5, duration=60.0, addresses=("a", "b", "c"), overload_bursts=3
    )
    bursts = [e for e in plan.events if isinstance(e, OverloadBurst)]
    assert len(bursts) == 3
    assert plan.horizon() >= max(e.at + e.duration for e in bursts)
    replay = FaultPlan.random(
        seed=5, duration=60.0, addresses=("a", "b", "c"), overload_bursts=3
    )
    assert replay.events == plan.events


def test_checker_queue_bound_invariant():
    from repro.runtime.wire import BatchedChannel, WirePolicy

    sim, net, _linkage, login, files, _user = make_world()
    collector(net, "a")
    collector(net, "b")
    channel = BatchedChannel(
        net, "a", "b", policy=WirePolicy(max_delay=1.0, max_queue=3)
    )
    checker = InvariantChecker([login, files], stale_bound=10.0, channels=[channel])
    net.set_link_state("a", "b", False)
    for i in range(10):
        channel.send("note", i)
    assert checker.check_queue_bounds() == []     # bound held: spill kept it
    channel._pending.append({"kind": "x", "payload": 0})   # force a breach
    breaches = checker.check_queue_bounds()
    assert breaches and "holds 4 > bound 3" in breaches[0]
