"""Property-based chaos tests (ISSUE 5 satellite).

Hypothesis drives random fault plans and operation interleavings over a
small seeded world and asserts the fail-closed invariant always holds;
after faults cease the system must quiesce to brute-force ground truth
(every surrogate equal to its issuer's actual record state, every
validation outcome matching the issuer's answer).
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.linkage import SimLinkage
from repro.core.types import ObjectType
from repro.errors import OasisError, RevokedError
from repro.runtime.clock import SimClock
from repro.runtime.faults import ChaosController, FaultPlan, InvariantChecker
from repro.runtime.network import Network
from repro.runtime.rpc import RetryPolicy, RpcEndpoint
from repro.runtime.simulator import Simulator

LOGIN_RDL = """
def LoggedOn(u, h)  u: userid  h: string
LoggedOn(u, h) <-
"""

FILES_RDL = """
import Login.userid
Reader(u) <- Login.LoggedOn(u, h)*
"""

DURATION = 30.0
MAX_OUTAGE = 4.0
PERIOD = 0.5
GRACE = 2.0
STALE_BOUND = MAX_OUTAGE + (GRACE + 1.0) * PERIOD + 3.0
SETTLE = 25.0


def build_world(seed):
    sim = Simulator()
    net = Network(sim, seed=seed, default_delay=0.01)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(net)
    login = OasisService("Login", registry=registry, linkage=linkage, clock=clock)
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    files = OasisService("Files", registry=registry, linkage=linkage, clock=clock)
    files.add_rolefile("main", FILES_RDL)
    linkage.monitor(login, files, period=PERIOD, grace=GRACE)
    return sim, net, linkage, login, files


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    ops=st.lists(st.integers(min_value=0, max_value=3), min_size=10, max_size=60),
)
def test_fail_closed_holds_and_quiesces_to_ground_truth(seed, ops):
    sim, net, linkage, login, files = build_world(seed)
    host = HostOS("prop-host")
    services = {"Login": login, "Files": files}
    plan = FaultPlan.random(
        seed=seed,
        duration=DURATION,
        addresses=("oasis:Login", "oasis:Files"),
        services=("Login", "Files"),
        link_flaps=2,
        partitions=1,
        loss_bursts=2,
        duplication_windows=2,
        reorder_windows=2,
        crashes=1,
        max_outage=MAX_OUTAGE,
    )
    chaos = ChaosController(
        net,
        plan,
        crash=lambda name: linkage.crash(services[name]),
        restart=lambda name: linkage.restart(services[name]),
    )
    checker = InvariantChecker(
        [login, files], stale_bound=STALE_BOUND, is_down=chaos.is_down,
        journals=linkage.durable,
    )
    chaos.arm()

    rng = random.Random(f"prop-ops:{seed}")
    sessions = []
    next_user = [0]

    def do_op(code):
        try:
            if code == 0 and not chaos.is_down("Login"):
                domain = host.create_domain()
                user = f"p{next_user[0]}"
                next_user[0] += 1
                cert = login.enter_role(
                    domain.client_id, "LoggedOn", (user, "prop-host")
                )
                sessions.append(
                    {"client": domain.client_id, "login_cert": cert, "reader": None}
                )
            elif code == 1 and sessions and not chaos.is_down("Login"):
                session = rng.choice(sessions)
                sessions.remove(session)
                login.exit_role(session["login_cert"])
            elif code == 2 and sessions and not chaos.is_down("Files"):
                session = rng.choice(sessions)
                if session["reader"] is None:
                    session["reader"] = files.enter_role(
                        session["client"],
                        "Reader",
                        credentials=(session["login_cert"],),
                    )
            elif code == 3 and not chaos.is_down("Files"):
                candidates = [s for s in sessions if s["reader"] is not None]
                if candidates:
                    files.validate(rng.choice(candidates)["reader"])
        except OasisError:
            pass  # individual denials are fine; safety is what we assert

    spacing = DURATION / max(len(ops), 1)
    for index, code in enumerate(ops):
        sim.schedule_at(0.2 + index * spacing, do_op, code)
    for tick in range(int(DURATION + SETTLE)):
        sim.schedule_at(0.6 + tick, checker.check_fail_closed)
    end = max(plan.horizon(), DURATION) + SETTLE
    sim.schedule_at(max(plan.horizon(), DURATION) + 0.5, chaos.disarm)
    sim.run_until(end)

    # invariant 1: never a stale grant beyond the propagation allowance
    assert checker.violations == [], "\n".join(str(v) for v in checker.violations)
    # invariant 2: quiesced to brute-force ground truth
    assert checker.converged(), checker.divergences()
    # invariant 3: every notification applied exactly once or parked
    assert checker.check_outbox_conservation() == []
    assert linkage.journal_quiescent()
    for session in sessions:
        if session["reader"] is None:
            continue
        truth = login.credentials.state_of(session["login_cert"].crr)
        if truth.name == "TRUE":
            files.validate(session["reader"])
        else:
            with pytest.raises(RevokedError):
                files.validate(session["reader"])


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    calls=st.integers(min_value=1, max_value=15),
    dup_p=st.floats(min_value=0.0, max_value=0.9),
    loss_p=st.floats(min_value=0.0, max_value=0.5),
)
def test_rpc_executes_at_most_once_per_logical_call(seed, calls, dup_p, loss_p):
    """Under random duplication and loss with retries, a counting handler
    never executes more than once per logical call, and every call that
    reports success executed exactly once."""
    sim = Simulator()
    net = Network(sim, seed=seed)
    server = RpcEndpoint(net, "server", seed=seed)
    policy = RetryPolicy(max_attempts=5, base_delay=0.5, multiplier=2.0, jitter=0.2)
    client = RpcEndpoint(net, "client", retry=policy, seed=seed)
    count = [0]

    def bump(i):
        count[0] += 1
        return i

    server.register("bump", bump)
    rng = random.Random(f"rpc-prop:{seed}")

    def injector(message, delay):
        if rng.random() < loss_p:
            return None
        delays = [delay]
        if rng.random() < dup_p:
            delays.append(delay + rng.uniform(0.0, 0.5))
        return delays

    net.set_fault_injector(injector)
    futures = [client.call("server", "bump", i, timeout=1.0) for i in range(calls)]
    sim.run()
    succeeded = [i for i, f in enumerate(futures) if not f.failed]
    for i in succeeded:
        assert futures[i].result() == i
    # at-most-once: dedup caps executions at one per logical call, and a
    # success implies its execution happened
    assert count[0] == server.stats.executions
    assert len(succeeded) <= server.stats.executions <= calls
