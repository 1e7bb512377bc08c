"""Fault-recovery benchmarks (ISSUE 5, extended by ISSUE 6).

Recovery-path measurements on the simulated clock, recorded to
BENCH_faults.json:

* **partition reconvergence** — virtual time from a partition healing to
  every surrogate matching issuer truth again (including revocations
  issued while the network was split);
* **retry amplification** — requests actually sent per logical RPC call
  on a lossy link, with the at-most-once guarantee intact — measured
  both without and with a circuit breaker (the breaker must hold the
  measured amplification strictly below the ~1.8x open-loop expectation
  at 25% loss);
* **crash recovery** — virtual time from a crashed issuer's restart to
  its peer serving correct answers in the new boot epoch;
* **bounded-queue shedding** — wire-queue depth and spill accounting
  when a destination stays down under sustained load.

Assertions are safety-and-bound checks (recovery must complete, and
within the protocol-derived latency budget); raw numbers go to the JSON
artifact for tracking.
"""

import time

import pytest

from benchmarks.conftest import bench_quick, record_faults
from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.linkage import SimLinkage
from repro.core.types import ObjectType
from repro.errors import RevokedError
from repro.runtime.clock import SimClock
from repro.runtime.network import Link, Network
from repro.runtime.rpc import BreakerPolicy, RetryPolicy, RpcEndpoint
from repro.runtime.simulator import Simulator
from repro.runtime.wire import BatchedChannel, WirePolicy

LOGIN_RDL = """
def LoggedOn(u, h)  u: userid  h: string
LoggedOn(u, h) <-
"""

FILES_RDL = """
import Login.userid
Reader(u) <- Login.LoggedOn(u, h)*
"""

SURROGATES = 50 if bench_quick() else 200
RPC_CALLS = 100 if bench_quick() else 400
PERIOD = 1.0
GRACE = 2.0


def make_world(delay=0.01):
    sim = Simulator()
    net = Network(sim, seed=11, default_delay=delay)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(net)
    login = OasisService("Login", registry=registry, linkage=linkage, clock=clock)
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    files = OasisService("Files", registry=registry, linkage=linkage, clock=clock)
    files.add_rolefile("main", FILES_RDL)
    return sim, net, linkage, login, files


def populate(login, files, count):
    host = HostOS("bench-faults")
    pairs = []
    for i in range(count):
        domain = host.create_domain()
        cert = login.enter_role(domain.client_id, "LoggedOn", (f"u{i}", "host"))
        reader = files.enter_role(domain.client_id, "Reader", credentials=(cert,))
        pairs.append((cert, reader))
    return pairs


def converged(login, files):
    for record in files.credentials.externals_of("Login"):
        assert record.external_ref is not None
        if record.state is not login.credentials.state_of(record.external_ref):
            return False
    return True


def time_to_convergence(sim, login, files, budget=60.0, step=0.05):
    start = sim.now
    deadline = start + budget
    while sim.now < deadline:
        if converged(login, files):
            return sim.now - start
        sim.run_until(sim.now + step)
    raise AssertionError("did not reconverge within the budget")


def test_partition_reconvergence_time():
    sim, net, linkage, login, files = make_world()
    pairs = populate(login, files, SURROGATES)
    linkage.monitor(login, files, period=PERIOD, grace=GRACE)
    sim.run_until(5.0)
    net.partition({"oasis:Login"}, {"oasis:Files"})
    # a third of the population is revoked while the network is split
    for cert, _reader in pairs[:: 3]:
        login.exit_role(cert)
    sim.run_until(30.0)
    # nothing crossed the split: the revoked sessions' readers fail
    # closed on suspicion (Unknown), not on a delivered FALSE
    for _cert, reader in pairs[:: 3]:
        with pytest.raises(RevokedError) as err:
            files.validate(reader)
        assert err.value.uncertain
    wall_start = time.perf_counter()
    net.heal({"oasis:Login"}, {"oasis:Files"})
    virtual = time_to_convergence(sim, login, files)
    wall = time.perf_counter() - wall_start
    # restore fires one heartbeat round-trip after the heal, then one
    # cascade settles the whole batch
    bound = (GRACE + 2.0) * PERIOD + 1.0
    assert virtual <= bound
    with pytest.raises(RevokedError):
        files.validate(pairs[0][1])
    files.validate(pairs[1][1])
    record_faults(
        "partition_reconvergence",
        surrogates=SURROGATES,
        revoked_during_split=len(pairs[:: 3]),
        virtual_seconds_to_converge=round(virtual, 4),
        bound_virtual_seconds=bound,
        wall_seconds=round(wall, 4),
    )


def test_retry_amplification_under_loss():
    sim = Simulator()
    net = Network(sim, seed=13)
    server = RpcEndpoint(net, "server", seed=13)
    policy = RetryPolicy(max_attempts=8, base_delay=0.2, multiplier=2.0, jitter=0.3)
    client = RpcEndpoint(net, "client", retry=policy, seed=13)
    executed = [0]

    def bump(i):
        executed[0] += 1
        return i

    server.register("bump", bump)
    loss = 0.25
    net.set_link("client", "server", Link(loss_probability=loss))
    net.set_link("server", "client", Link(loss_probability=loss))
    wall_start = time.perf_counter()
    futures = [
        client.call("server", "bump", i, timeout=1.0) for i in range(RPC_CALLS)
    ]
    sim.run()
    wall = time.perf_counter() - wall_start
    succeeded = sum(1 for f in futures if not f.failed)
    amplification = client.stats.requests_sent / client.stats.calls
    # every delivered call executed exactly once despite the retries
    assert executed[0] == server.stats.executions <= RPC_CALLS
    assert succeeded >= RPC_CALLS * 0.95
    # with p=0.25 per direction the expected attempts/call is ~1.8; give
    # generous headroom before calling the backoff policy pathological
    assert amplification < 4.0
    record_faults(
        "retry_amplification",
        calls=RPC_CALLS,
        loss_probability=loss,
        succeeded=succeeded,
        requests_sent=client.stats.requests_sent,
        amplification=round(amplification, 4),
        retries=client.stats.retries,
        duplicates_suppressed=server.stats.duplicates_suppressed,
        wall_seconds=round(wall, 4),
    )


def test_retry_amplification_with_breaker():
    """ISSUE 6 acceptance: the breaker bounds amplification below 1.8x.

    At 25% loss per direction an attempt completes with probability
    0.75^2 = 0.5625, so an open-loop retry client sends ~1.78 requests
    per call — and the seeded run above lands right on that expectation.
    With a per-destination circuit breaker, runs of consecutive attempt
    failures trip the circuit and calls arriving during the cooldown are
    shed *without touching the wire*, so the measured requests/call
    ratio must come out strictly below the open-loop figure.  Shedding
    is the honest cost: shed calls fail fast and are reported alongside.
    """
    sim = Simulator()
    net = Network(sim, seed=13)
    server = RpcEndpoint(net, "server", seed=13)
    policy = RetryPolicy(max_attempts=8, base_delay=0.2, multiplier=2.0, jitter=0.3)
    breaker = BreakerPolicy(failure_threshold=6, cooldown=0.5, half_open_probes=1)
    client = RpcEndpoint(net, "client", retry=policy, seed=13, breaker=breaker)
    executed = [0]

    def bump(i):
        executed[0] += 1
        return i

    server.register("bump", bump)
    loss = 0.25
    net.set_link("client", "server", Link(loss_probability=loss))
    net.set_link("server", "client", Link(loss_probability=loss))
    futures = []

    def fire(i):
        futures.append(client.call("server", "bump", i, timeout=1.0))

    # calls arrive over time (20/s) rather than all at once, so the
    # breaker sees the live failure pattern instead of a burst snapshot
    for i in range(RPC_CALLS):
        sim.schedule_at(i * 0.05, fire, i)
    wall_start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - wall_start
    succeeded = sum(1 for f in futures if not f.failed)
    shed = client.stats.breaker_fast_failures
    amplification = client.stats.requests_sent / client.stats.calls
    assert executed[0] == server.stats.executions <= RPC_CALLS
    assert amplification < 1.8
    assert client.stats.breaker_opens >= 1     # the breaker really engaged
    assert succeeded + shed >= RPC_CALLS * 0.95
    assert succeeded >= RPC_CALLS * 0.5        # shedding is a trim, not a blackout
    record_faults(
        "retry_amplification_with_breaker",
        calls=RPC_CALLS,
        loss_probability=loss,
        succeeded=succeeded,
        requests_sent=client.stats.requests_sent,
        amplification=round(amplification, 4),
        bound_amplification=1.8,
        breaker_opens=client.stats.breaker_opens,
        breaker_closes=client.stats.breaker_closes,
        breaker_probes=client.stats.breaker_probes,
        calls_shed=shed,
        failure_threshold=breaker.failure_threshold,
        cooldown=breaker.cooldown,
        wall_seconds=round(wall, 4),
    )


def test_bounded_queue_shedding_under_overload():
    """Queue depth stays at the bound while a down destination is hammered."""
    sim = Simulator()
    net = Network(sim, seed=17)
    net.add_node("sink", lambda message: None)
    net.add_node("pump", lambda message: None)
    bound = 64
    channel = BatchedChannel(
        net, "pump", "sink", policy=WirePolicy(max_batch=16, max_delay=0.01, max_queue=bound)
    )
    net.set_link_state("pump", "sink", up=False)
    offered = 10 * bound
    wall_start = time.perf_counter()
    for i in range(offered):
        sim.schedule_at(i * 0.001, channel.send, "overload", {"seq": i})
    sim.run_until(offered * 0.001 + 1.0)
    assert channel.pending == bound          # memory held at the bound...
    assert channel.stats.spilled == offered - bound   # ...and every spill counted
    assert net.stats.spilled_overflow == channel.stats.spilled
    # heal: the held backlog drains and the network books balance
    net.set_link_state("pump", "sink", up=True)
    sim.run()
    wall = time.perf_counter() - wall_start
    assert channel.pending == 0
    assert net.unaccounted() == 0
    record_faults(
        "bounded_queue_shedding",
        offered=offered,
        max_queue=bound,
        spilled=channel.stats.spilled,
        held_flushes=channel.stats.held_flushes,
        max_pending=channel.stats.max_pending,
        batches_after_heal=channel.stats.batches,
        wall_seconds=round(wall, 4),
    )


def test_crash_recovery_time():
    sim, net, linkage, login, files = make_world()
    pairs = populate(login, files, SURROGATES)
    linkage.monitor(login, files, period=PERIOD, grace=GRACE)
    sim.run_until(5.0)
    linkage.crash(login)
    sim.run_until(20.0)
    wall_start = time.perf_counter()
    t0 = sim.now
    linkage.restart(login)
    virtual = time_to_convergence(sim, login, files)
    wall = time.perf_counter() - wall_start
    # first new-epoch heartbeat + resubscribe round trip, with margin
    assert virtual <= PERIOD + 1.0
    assert login.boot_epoch == 2
    files.validate(pairs[0][1])
    record_faults(
        "crash_recovery",
        surrogates=SURROGATES,
        virtual_seconds_to_converge=round(virtual, 4),
        new_boot_epoch=login.boot_epoch,
        wall_seconds=round(wall, 4),
    )
