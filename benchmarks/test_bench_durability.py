"""Durability benchmarks (ISSUE 10).

Crash-recovery cost measurements on the simulated clock, recorded to
BENCH_durability.json:

* **crash recovery** — network messages from a crashed subscriber's
  restart to full reconvergence (local replay plus one tail-sync round
  trip), pinned at the measured count whatever the number of
  surrogates;
* **outbox drain throughput** — notifications delivered per wire
  envelope when a mass revocation drains through the transactional
  outbox, plus the virtual time to settle.

Assertions are the acceptance bounds; raw numbers go to the JSON
artifact for tracking.
"""

import time

from benchmarks.conftest import bench_quick, record_bench
from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.credentials import RecordState
from repro.core.linkage import SimLinkage
from repro.core.types import ObjectType
from repro.runtime.clock import SimClock
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

SURROGATES = 1024 if bench_quick() else 2048
REVOKED = 256 if bench_quick() else 512


def make_world():
    sim = Simulator()
    net = Network(sim, seed=17, default_delay=0.01)
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
    host = HostOS("bench-durability")
    pairs = []
    for i in range(count):
        domain = host.create_domain()
        cert = login.enter_role(domain.client_id, "LoggedOn", (f"u{i}", "host"))
        reader = files.enter_role(domain.client_id, "Reader", credentials=(cert,))
        pairs.append((cert, reader))
    return pairs


def converged(login, files):
    for record in files.credentials.externals_of("Login"):
        if record.state is not login.credentials.state_of(record.external_ref):
            return False
    return True


def recover_and_count():
    """Crash the subscriber, restart it, and count the network messages
    it takes to reconverge."""
    sim, net, linkage, login, files = make_world()
    populate(login, files, SURROGATES)
    sim.run_until(10.0)
    assert converged(login, files)

    linkage.crash(files)
    sim.run_until(15.0)
    sent_before = net.stats.messages_sent
    restart_at = sim.now
    linkage.restart(files)
    deadline = restart_at + 120.0
    while sim.now < deadline:
        masked = any(
            record.state is RecordState.UNKNOWN
            for record in files.credentials.externals_of("Login")
        )
        if not masked and converged(login, files):
            break
        sim.run_until(sim.now + 0.1)
    else:
        raise AssertionError("recovery did not converge within the budget")
    messages = net.stats.messages_sent - sent_before
    virtual = sim.now - restart_at
    journal = linkage.durable.journal("Files")
    assert journal.stats.replays == 1
    assert journal.stats.tail_syncs_pulled == 1
    return messages, virtual, journal.stats.records_replayed


# Recovery messages, measured: the tail-sync request and its reply.  The
# count does not grow with SURROGATES (one reply carries them all).
RECOVERY_MESSAGES = 2


def test_crash_recovery_by_replay_and_tail_sync():
    wall_start = time.perf_counter()
    messages, virtual, replayed = recover_and_count()
    wall = time.perf_counter() - wall_start
    assert messages == RECOVERY_MESSAGES, (
        f"recovery of {SURROGATES} surrogates used {messages} messages"
    )
    assert replayed >= SURROGATES     # recovery really came from the log
    record_bench(
        "durability", "crash_recovery",
        surrogates=SURROGATES,
        journal_messages=messages,
        journal_virtual_s=round(virtual, 3),
        records_replayed=replayed,
        wall_s=round(wall, 3),
    )


def test_outbox_drain_throughput():
    sim, net, linkage, login, files = make_world()
    pairs = populate(login, files, SURROGATES)
    sim.run_until(10.0)

    journal = linkage.durable.journal("Login")
    sent_before = net.stats.messages_sent
    delivered_before = journal.stats.outbox_delivered
    start = sim.now
    login.credentials.revoke_many([cert.crr for cert, _reader in pairs[:REVOKED]])
    deadline = start + 60.0
    while sim.now < deadline:
        if linkage.journal_quiescent() and converged(login, files):
            break
        sim.run_until(sim.now + 0.1)
    else:
        raise AssertionError("outbox did not drain within the budget")
    virtual = sim.now - start
    envelopes = net.stats.messages_sent - sent_before
    delivered = journal.stats.outbox_delivered - delivered_before
    assert delivered >= REVOKED
    assert linkage.durable.conservation_breaches() == []
    # batching: the drain must not pay one wire envelope per notification
    per_envelope = delivered / envelopes
    assert per_envelope >= 4.0, (
        f"{delivered} notifications took {envelopes} envelopes "
        f"({per_envelope:.1f}/envelope)"
    )
    record_bench(
        "durability", "outbox_drain",
        revoked=REVOKED,
        notifications_delivered=delivered,
        wire_envelopes=envelopes,
        notifications_per_envelope=round(per_envelope, 2),
        drain_virtual_s=round(virtual, 3),
    )
