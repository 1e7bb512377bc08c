"""Wire-efficiency benchmarks: messages-on-wire and revocation latency.

The acceptance gates for the notification transport:

* a 10k-record revocation cascade across a SimLinkage link puts >= 5x
  fewer messages on the wire than the seed's one-message-per-
  notification scheme: the journal relay delivers a round's entries to
  a destination in one ``outbox-deliver`` request and its ack;
* a revocation is visible at the subscriber one link delay after the
  revoke — no correctness-for-throughput trade;
* in a busy window, piggybacking on a batched channel means zero
  standalone heartbeats.

Counter assertions are exact; timings go to BENCH_hotpath.json.
"""

import time

import pytest

from benchmarks.conftest import bench_quick, record_hotpath
from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.linkage import SimLinkage
from repro.core.types import ObjectType
from repro.errors import RevokedError
from repro.runtime.clock import SimClock
from repro.runtime.heartbeat import HeartbeatMonitor, HeartbeatSender
from repro.runtime.network import Link, Network
from repro.runtime.simulator import Simulator
from repro.runtime.wire import BatchedChannel, unpack, heartbeat_of

LOGIN_RDL = "def LoggedOn(u, h)  u: userid  h: string\nLoggedOn(u, h) <- "
FILES_RDL = "import Login.userid\nReader(u) <- Login.LoggedOn(u, h)*"

CASCADE = 2_000 if bench_quick() else 10_000


def build_linked_world(n, link_delay=0.001, seed=9):
    sim = Simulator()
    net = Network(sim, seed=seed, default_delay=link_delay)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(net)
    login = OasisService("Login", registry=registry, linkage=linkage, clock=clock)
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    files = OasisService("Files", registry=registry, linkage=linkage, clock=clock)
    files.add_rolefile("main", FILES_RDL)
    host = HostOS("bench")
    certs, readers = [], []
    for i in range(n):
        domain = host.create_domain()
        cert = login.enter_role(domain.client_id, "LoggedOn", (f"u{i}", "bench"))
        readers.append(files.enter_role(domain.client_id, "Reader", credentials=(cert,)))
        certs.append(cert)
    sim.run()  # settle subscriptions
    return sim, net, linkage, login, files, certs, readers


def test_cascade_messages_on_wire_reduced_5x():
    """The tentpole gate: the journal relay cuts a CASCADE-record
    revocation's wire traffic by >= 5x against the seed's scheme of one
    message per notification."""
    sim, net, linkage, login, files, certs, readers = build_linked_world(CASCADE)
    journal = linkage.relay_of("Login").journal
    before_messages = net.stats.messages_sent
    before_bytes = net.stats.bytes_sent
    before_delivered = journal.stats.outbox_delivered
    start = time.perf_counter()
    login.credentials.revoke_many([cert.crr for cert in certs])
    sim.run()
    elapsed = time.perf_counter() - start
    messages = net.stats.messages_sent - before_messages
    notifications = journal.stats.outbox_delivered - before_delivered
    assert notifications == CASCADE   # every notification delivered
    ratio = notifications / messages  # one message each in the seed scheme
    assert ratio >= 5.0, f"only {ratio:.1f}x: {notifications} -> {messages} messages"
    record_hotpath(
        "wire_cascade",
        cascade_records=CASCADE,
        messages_unbatched=notifications,
        messages_batched=messages,
        reduction_ratio=ratio,
        bytes_batched=net.stats.bytes_sent - before_bytes,
        seconds_batched=elapsed,
    )


def _revocation_latency(link_delay=0.001):
    sim, net, linkage, login, files, certs, readers = build_linked_world(
        1, link_delay=link_delay
    )
    files.validate(readers[0])
    t0 = sim.now
    login.exit_role(certs[0])
    while True:
        try:
            files.validate(readers[0])
        except RevokedError:
            return sim.now - t0
        if not sim.step():
            pytest.fail("revocation never became visible")


def test_revocation_visible_one_link_delay_after_the_revoke():
    """No correctness-for-throughput trade: the relay drains a revocation
    in a zero-delay event, so it is visible at the subscriber one link
    delay after the revoke (measured: exactly 1 ms across a 1 ms link)."""
    link_delay = 0.001
    latency = _revocation_latency(link_delay=link_delay)
    assert latency <= link_delay + 1e-9
    record_hotpath(
        "wire_revocation_latency",
        link_delay=link_delay,
        latency=latency,
    )


def test_busy_link_heartbeats_all_piggybacked():
    """In a 30s busy window (data every 0.4s, period 1s) every liveness
    signal rides a data batch: zero standalone heartbeat messages."""
    sim = Simulator()
    net = Network(sim, seed=17, default_delay=0.001)
    sender = HeartbeatSender(net, "svc", "cli", period=1.0)
    monitor = HeartbeatMonitor(net, "cli", "svc", period=1.0, grace=2.0)

    def cli_node(message):
        hb = heartbeat_of(message)
        if hb is not None:
            monitor.handle_message("heartbeat", hb)
        for msg in unpack(message):
            if msg.kind == "heartbeat":
                monitor.handle_message(msg.kind, msg.payload)

    net.add_node("svc", lambda message: None)
    net.add_node("cli", cli_node)
    channel = BatchedChannel(net, "svc", "cli", heartbeat=sender)
    sender.start()

    def traffic():
        channel.send("data", sim.now)
        sim.schedule(0.4, traffic)

    traffic()
    sim.run_until(1.0)                       # warmup: the t=0 startup tick
    bare_at_warmup = sender.stats.heartbeats_sent
    sim.run_until(31.0)                      # the 30s busy window
    bare_in_window = sender.stats.heartbeats_sent - bare_at_warmup
    piggybacked = sender.stats.piggybacked
    assert bare_in_window == 0
    assert piggybacked >= 30 / 0.4 - 5
    assert not monitor.suspect
    # silence after the window is still detected within the bound
    cut_at = sim.now
    net.partition({"svc"}, {"cli"})
    sim.run_until(cut_at + 10.0)
    assert monitor.suspect
    record_hotpath(
        "wire_heartbeat_piggyback",
        window_seconds=30.0,
        bare_heartbeats_in_window=bare_in_window,
        piggybacked=piggybacked,
        detection_ok=monitor.suspect,
    )
