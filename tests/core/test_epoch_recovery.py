"""Boot-epoch safety across crash-restarts, end to end over ``SimLinkage``.

Codec frames are self-contained and carry no epoch; staleness is checked
where traffic is applied:

* every heartbeat body carries the sender's boot epoch, and the monitor
  drops anything from an epoch older than one it has seen
  (``HeartbeatMonitor.stats.stale_epoch_dropped``);
* every outbox delivery is deduplicated by ``(issuer, outbox seq)`` in
  the receiver's journal, carries a stamp that orders it against every
  other delivery and snapshot of the same record, and is refused while
  the receiver awaits the issuer's tail-sync snapshot.

The scenarios: the tail-sync after a restart, a delayed duplicate of a
pre-crash delivery, a replayed pre-crash delivery, and a pre-crash
delivery landing in the mask window between the epoch-change mask and
the tail-sync reply.
"""

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.credentials import RecordState
from repro.core.linkage import SimLinkage
from repro.core.types import ObjectType
from repro.runtime.clock import SimClock
from repro.runtime.codec import Encoded
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

LOGIN_NODE = "oasis:Login"
FILES_NODE = "oasis:Files"


def make_world(delay=0.05, net=None):
    if net is None:
        net = Network(Simulator(), seed=11, default_delay=delay)
    sim = net.simulator
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(net)
    login = OasisService("Login", registry=registry, linkage=linkage, clock=clock)
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    files = OasisService("Files", registry=registry, linkage=linkage, clock=clock)
    files.add_rolefile("main", FILES_RDL)
    host = HostOS("ely")
    alice, bob = host.create_domain(), host.create_domain()
    cert_a = login.enter_role(alice.client_id, "LoggedOn", ("a", "ely"))
    cert_b = login.enter_role(bob.client_id, "LoggedOn", ("b", "ely"))
    files.enter_role(alice.client_id, "Reader", credentials=(cert_a,))
    files.enter_role(bob.client_id, "Reader", credentials=(cert_b,))
    return sim, net, linkage, login, files, cert_a, cert_b


def surrogate_states(files):
    return {
        record.external_ref: record.state
        for record in files.credentials.externals_of("Login")
    }


def is_delivery_from_login(message):
    return message.kind == "rpc-request" and message.source == LOGIN_NODE


def test_restart_resyncs_under_new_epoch():
    sim, net, linkage, login, files, cert_a, cert_b = make_world()
    sender, monitor = linkage.monitor(login, files, period=1.0, grace=2.0)
    sim.run_until(3.0)
    assert monitor.sender_epoch == 1
    linkage.crash(login)
    sim.run_until(8.0)
    linkage.restart(login)
    sim.run_until(15.0)
    assert login.boot_epoch == 2
    assert monitor.sender_epoch == 2
    assert monitor.stats.epoch_changes == 1
    # the tail-sync reply resolved the surrogates from Unknown back to
    # issuer truth
    assert linkage.relay_of("Files").journal.stats.tail_syncs_pulled == 1
    assert surrogate_states(files)[cert_a.crr] is RecordState.TRUE
    assert surrogate_states(files)[cert_b.crr] is RecordState.TRUE
    assert monitor.stats.stale_epoch_dropped == 0
    assert net.stats.dropped_decode == 0
    assert net.unaccounted() == 0


def test_delayed_pre_crash_retransmission_rejected_after_restart():
    """A pre-crash revocation delivery gets a ghost copy delayed past the
    issuer's crash-restart.  When it finally arrives, the receiver's RPC
    dedup window answers it without running the delivery again, and
    nothing changes (past the window, the journal's ``(issuer, seq)``
    ledger drops it: ``test_replayed_stale_frame_never_applies``)."""
    sim, net, linkage, login, files, cert_a, cert_b = make_world()
    sender, monitor = linkage.monitor(login, files, period=1.0, grace=2.0)
    sim.run_until(3.0)

    def ghost_deliveries(message, delay):
        # every delivery from here on gets a copy that lands 45 virtual
        # seconds later, past the restart
        if is_delivery_from_login(message):
            return [delay, 45.0]
        return [delay]

    net.set_fault_injector(ghost_deliveries)
    login.exit_role(cert_a)
    sim.run_until(4.0)
    net.set_fault_injector(None)
    assert surrogate_states(files)[cert_a.crr] is RecordState.FALSE
    # crash and restart the issuer: boot epoch 2
    linkage.crash(login)
    sim.run_until(12.0)
    linkage.restart(login)
    sim.run_until(20.0)
    assert monitor.sender_epoch == 2
    states = surrogate_states(files)
    assert states == {cert_a.crr: RecordState.FALSE, cert_b.crr: RecordState.TRUE}
    endpoint = linkage.relay_of("Files").rpc
    suppressed = endpoint.stats.duplicates_suppressed
    # the ghost copy of the pre-crash delivery lands around t=48
    sim.run_until(55.0)
    assert endpoint.stats.duplicates_suppressed == suppressed + 1
    assert surrogate_states(files) == states
    assert linkage.durable.conservation_breaches() == []
    assert net.stats.dropped_decode == 0
    assert net.unaccounted() == 0


def test_replayed_stale_frame_never_applies():
    """Capture the pre-crash delivery that carried the subscribe replies
    (TRUE), revoke cert_b, crash and restart the issuer, then replay the
    captured delivery under a fresh call id, past the RPC dedup window:
    the receiver's journal has applied those ``(issuer, seq)`` before,
    so they never apply again."""
    sim = Simulator()
    net = Network(sim, seed=11, default_delay=0.05)
    captured = []

    def capture(message, delay):
        if is_delivery_from_login(message):
            captured.append(message.payload)
        return [delay]

    net.set_fault_injector(capture)
    sim, net, linkage, login, files, cert_a, cert_b = make_world(net=net)
    sender, monitor = linkage.monitor(login, files, period=1.0, grace=2.0)
    sim.run_until(3.0)
    net.set_fault_injector(None)
    replay = net.codec.decode(captured[-1])
    issuer, rows = replay["args"]
    assert issuer == "Login" and [row[1] for row in rows] == [cert_a.crr, cert_b.crr]
    assert {row[2] for row in rows} == {"true"}
    login.exit_role(cert_b)
    linkage.crash(login)
    sim.run_until(8.0)
    linkage.restart(login)
    sim.run_until(15.0)
    assert surrogate_states(files)[cert_b.crr] is RecordState.FALSE
    journal = linkage.relay_of("Files").journal
    dropped = journal.stats.duplicates_dropped
    replay["id"] = 10**6
    net.send(LOGIN_NODE, FILES_NODE, "rpc-request", replay)
    sim.run_until(16.0)
    assert journal.stats.duplicates_dropped == dropped + 2
    # the pre-crash TRUE inside the replayed frame never applied
    assert surrogate_states(files)[cert_b.crr] is RecordState.FALSE
    assert net.stats.dropped_decode == 0
    assert net.unaccounted() == 0


def test_pre_crash_batch_in_the_mask_window_never_unmasks():
    """The mask window runs from the epoch-change mask to the tail-sync
    reply.  A delivery sent before the crash lands inside it: a TRUE for
    ``cert_a`` (a subscribe reply) whose stamp is above any applied,
    though the crashed boot had since revoked ``cert_a``.  It is refused,
    so the surrogate never reads TRUE after the restart, and ends FALSE."""
    sim, net, linkage, login, files, cert_a, cert_b = make_world()
    sender, monitor = linkage.monitor(login, files, period=1.0, grace=2.0)
    sim.run_until(3.0)
    surrogate = files.credentials.external("Login", cert_a.crr)
    changes = []
    files.credentials.watch(
        surrogate.ref, lambda record, old, new: changes.append((sim.now, new))
    )

    # Resubscribe and keep the issuer's answer off the wire: an outbox
    # delivery of a freshly stamped TRUE.
    captured = []

    def capture(message, delay):
        if is_delivery_from_login(message) and not captured:
            captured.append(message.payload)
            return None
        return [delay]

    net.set_fault_injector(capture)
    linkage.subscribe(files, "Login", cert_a.crr)
    sim.run_until(3.2)
    net.set_fault_injector(None)
    assert len(captured) == 1
    # the link goes down before the RPC retry can land; cert_a
    # is revoked while it is down, then the issuer crashes
    net.set_link_state(LOGIN_NODE, FILES_NODE, False)
    login.exit_role(cert_a)
    sim.run_until(4.0)
    linkage.crash(login)
    sim.run_until(8.0)
    assert surrogate_states(files)[cert_a.crr] is RecordState.UNKNOWN

    # the stale delivery is sent the moment Files sees epoch 2: it lands
    # after the mask and one link delay before the tail-sync reply
    landed = []
    on_epoch_change = monitor.on_epoch_change

    def deliver_stale_batch(old, new):
        on_epoch_change(old, new)
        landed.append(sim.now + 0.05)
        net.send(LOGIN_NODE, FILES_NODE, "rpc-request", Encoded(captured[0]))

    monitor.on_epoch_change = deliver_stale_batch
    net.set_link_state(LOGIN_NODE, FILES_NODE, True)
    restarted_at = sim.now
    linkage.restart(login)
    sim.run_until(60.0)

    assert monitor.sender_epoch == 2 and len(landed) == 1
    assert linkage.relay_of("Files").journal.stats.refused >= 1
    after_restart = [state for at, state in changes if at >= restarted_at]
    assert RecordState.TRUE not in after_restart
    # the tail-sync reply closed the window after the stale delivery landed
    assert [at for at, state in changes if state is RecordState.FALSE][0] > landed[0]
    states = surrogate_states(files)
    assert states[cert_a.crr] is RecordState.FALSE
    assert states[cert_b.crr] is RecordState.TRUE
    assert linkage.journal_quiescent()
    assert linkage.durable.conservation_breaches() == []
    assert net.unaccounted() == 0
