"""Fault-recovery benchmarks (ISSUE 5, extended by ISSUE 6).

Recovery-path measurements on the simulated clock, recorded to
BENCH_faults.json:

* **partition reconvergence** — virtual time from a partition healing to
  every surrogate matching issuer truth again (including revocations
  issued while the network was split);
* **relay amplification** — ``outbox-deliver`` requests sent per
  delivered notification on a lossy link, with exactly-once application
  intact: the relay sends each delivery once and the dead-letter queue,
  the one retry, redelivers parked entries in one batch per destination,
  so the ratio stays below the ~1.8x a per-entry retry costs at 25% loss;
* **crash recovery** — virtual time from a crashed issuer's restart to
  its peer serving correct answers in the new boot epoch.

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
from repro.runtime.simulator import Simulator

LOGIN_RDL = """
def LoggedOn(u, h)  u: userid  h: string
LoggedOn(u, h) <-
"""

FILES_RDL = """
import Login.userid
Reader(u) <- Login.LoggedOn(u, h)*
"""

SURROGATES = 50 if bench_quick() else 200
REVOCATIONS = 100
PERIOD = 1.0
GRACE = 2.0


def make_world(delay=0.01, seed=11):
    sim = Simulator()
    net = Network(sim, seed=seed, default_delay=delay)
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


def test_relay_amplification_under_loss():
    """At 25% loss per direction a delivery call and its ack both land
    with probability 0.75^2 = 0.5625, so retrying each entry on its own
    would send ~1.78 requests per notification (1.79 measured at seed 13
    when each delivery call retried itself before parking).  The relay
    sends once and the DLQ redelivers every parked entry for a
    destination in one call, so the ratio must stay below 1.8 — while
    every notification is applied exactly once and every surrogate ends
    FALSE."""
    sim, net, linkage, login, files = make_world(seed=13)
    pairs = populate(login, files, REVOCATIONS)
    sim.run_until(2.0)
    loss = 0.25
    net.set_link("oasis:Login", "oasis:Files", Link(base_delay=0.01, loss_probability=loss))
    net.set_link("oasis:Files", "oasis:Login", Link(base_delay=0.01, loss_probability=loss))
    relay = linkage.relay_of("Login")
    journal = relay.journal
    requests_before = relay.rpc.stats.requests_sent
    delivered_before = journal.stats.outbox_delivered
    for index, (cert, _reader) in enumerate(pairs):
        sim.schedule_at(2.0 + index * 0.05, login.exit_role, cert)
    wall_start = time.perf_counter()
    sim.run_until(2.0 + REVOCATIONS * 0.05)
    while journal.depth["Files"] and sim.now < 300.0:
        sim.run_until(sim.now + 1.0)
    wall = time.perf_counter() - wall_start
    requests = relay.rpc.stats.requests_sent - requests_before
    delivered = journal.stats.outbox_delivered - delivered_before
    amplification = requests / delivered
    assert delivered == REVOCATIONS
    assert linkage.durable.conservation_breaches() == []
    applied = linkage.durable.journal("Files").applied_counts
    assert all(applied[("Login", entry.seq)] == 1 for entry in journal.outbox.values())
    assert all(record.state.name == "FALSE" for record in files.credentials.externals_of("Login"))
    assert amplification < 1.8
    record_faults(
        "relay_amplification",
        revocations=REVOCATIONS,
        loss_probability=loss,
        requests_sent=requests,
        delivered=delivered,
        amplification=round(amplification, 4),
        bound_amplification=1.8,
        parked=journal.stats.parked,
        virtual_seconds_to_drain=round(sim.now - 2.0, 4),
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
