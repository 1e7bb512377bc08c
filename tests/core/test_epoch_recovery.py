"""Boot-epoch safety across crash-restarts, end to end over ``SimLinkage``.

Codec frames are self-contained and carry no epoch; staleness is checked
where traffic is applied:

* every heartbeat body carries the sender's boot epoch, and the monitor
  drops anything from an epoch older than one it has seen
  (``HeartbeatMonitor.stats.stale_epoch_dropped``);
* every Modified stamp carries the issuer's boot epoch, and the linkage
  drops a stamp older than the newest epoch the subscriber has seen from
  that issuer (``SimLinkage.stale_modified_dropped``) — the floor is
  raised by every applied stamp and by the monitor's epoch change.

The scenarios: the heartbeat data-loss path over encoded frames, the
resync after a restart, a delayed duplicate of a pre-crash
retransmission, a replayed pre-crash frame, and a pre-crash batch landing
in the mask window between the epoch-change mask and the resync reply.
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

LOGIN_ADDR = "oasis:Login"
FILES_ADDR = "oasis:Files"


def make_world(delay=0.05):
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


def test_nack_retransmitted_batch_is_encoded_and_decodes():
    """The heartbeat data-loss fix over encoded frames: a revocation
    batch dropped by a link flap is retransmitted from the retained
    *encoded* bytes and still lands the revocation."""
    sim, net, linkage, login, files, cert_a, cert_b = make_world()
    sender, monitor = linkage.monitor(login, files, period=1.0, grace=4.0)
    sim.run_until(3.0)
    assert RecordState.FALSE not in surrogate_states(files).values()
    net.set_link_state(LOGIN_ADDR, FILES_ADDR, False)
    login.exit_role(cert_a)  # batch flushed into the dead link
    sim.run_until(3.5)
    net.set_link_state(LOGIN_ADDR, FILES_ADDR, True)
    sim.run_until(8.0)
    # the gap was nacked and the retained encoded frame re-delivered
    assert sender.stats.resends >= 1
    assert surrogate_states(files)[cert_a.crr] is RecordState.FALSE
    assert surrogate_states(files)[cert_b.crr] is RecordState.TRUE
    assert net.stats.dropped_decode == 0
    assert net.unaccounted() == 0


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
    # new-epoch traffic applies: the resync replies resolved the
    # surrogates from Unknown back to issuer truth
    assert surrogate_states(files)[cert_a.crr] is RecordState.TRUE
    assert surrogate_states(files)[cert_b.crr] is RecordState.TRUE
    assert monitor.stats.stale_epoch_dropped == 0
    assert linkage.stale_modified_dropped == 0
    assert net.stats.dropped_decode == 0
    assert net.unaccounted() == 0


def test_delayed_pre_crash_retransmission_rejected_after_restart():
    """A pre-crash batch is lost, nack-retransmitted, and a *duplicate*
    of the retransmission is delayed past the issuer's crash-restart.
    When it finally arrives the monitor has already seen epoch 2, so it
    drops the dead epoch's heartbeat-payload before its items apply."""
    sim, net, linkage, login, files, cert_a, cert_b = make_world()
    sender, monitor = linkage.monitor(login, files, period=1.0, grace=2.0)

    def duplicate_retransmissions(message, delay):
        # every heartbeat-payload retransmission gets a ghost copy that
        # arrives 25 virtual seconds later — long after the restart
        if message.kind == "heartbeat-payload" and message.source == LOGIN_ADDR:
            return [delay, 25.0]
        return [delay]

    net.set_fault_injector(duplicate_retransmissions)
    sim.run_until(3.0)
    # lose a revocation batch to a link flap, then let the nack machinery
    # retransmit it (the duplicate is now in flight for t~29)
    net.set_link_state(LOGIN_ADDR, FILES_ADDR, False)
    login.exit_role(cert_a)
    sim.run_until(3.5)
    net.set_link_state(LOGIN_ADDR, FILES_ADDR, True)
    sim.run_until(7.0)
    assert sender.stats.resends >= 1
    assert surrogate_states(files)[cert_a.crr] is RecordState.FALSE
    # crash and restart the issuer: boot epoch 2
    linkage.crash(login)
    sim.run_until(12.0)
    linkage.restart(login)
    sim.run_until(20.0)
    assert monitor.sender_epoch == 2
    states = surrogate_states(files)
    assert states[cert_a.crr] is RecordState.FALSE
    assert states[cert_b.crr] is RecordState.TRUE
    stale_before = monitor.stats.stale_epoch_dropped
    # the ghost copy of the pre-crash retransmission lands around t=29
    sim.run_until(35.0)
    assert monitor.stats.stale_epoch_dropped > stale_before
    # the stale frame changed nothing and the accounting still balances
    assert surrogate_states(files) == states
    assert net.stats.dropped_decode == 0
    assert net.unaccounted() == 0


def test_replayed_stale_frame_never_applies():
    """Without fault-injector timing: build a pre-crash retransmission
    carrying a revocation of a live record, replay it after the restart,
    and watch the monitor drop it."""
    sim, net, linkage, login, files, cert_a, cert_b = make_world()
    sender, monitor = linkage.monitor(login, files, period=1.0, grace=2.0)
    sim.run_until(3.0)
    stale = net.codec.encode(
        "heartbeat-payload",
        {
            "seq": 999,
            "horizon": sim.now,
            "epoch": login.boot_epoch,
            "payload": {
                "items": [
                    {
                        "kind": "modified",
                        "payload": {
                            "issuer": "Login",
                            "ref": cert_b.crr,
                            "state": "false",
                            "stamp": None,
                        },
                    }
                ]
            },
        },
    )
    linkage.crash(login)
    sim.run_until(8.0)
    linkage.restart(login)
    sim.run_until(15.0)
    assert surrogate_states(files)[cert_b.crr] is RecordState.TRUE
    net.send(LOGIN_ADDR, FILES_ADDR, "heartbeat-payload", stale)
    sim.run_until(16.0)
    assert monitor.stats.stale_epoch_dropped >= 1
    # the bogus revocation inside the stale frame never applied
    assert surrogate_states(files)[cert_b.crr] is RecordState.TRUE
    assert net.stats.dropped_decode == 0
    assert net.unaccounted() == 0


def test_pre_crash_batch_in_the_mask_window_never_unmasks():
    """The mask window runs from the epoch-change mask to the resync
    reply.  A wire batch encoded before the crash lands inside it: hb
    epoch 1 and a Modified TRUE for ``cert_a`` whose stamp is above any
    applied, though the crashed boot had since revoked ``cert_a``.
    The surrogate must never read TRUE after the restart, and must end
    FALSE."""
    sim, net, linkage, login, files, cert_a, cert_b = make_world()
    sender, monitor = linkage.monitor(login, files, period=1.0, grace=2.0)
    sim.run_until(3.0)
    surrogate = files.credentials.external("Login", cert_a.crr)
    changes = []
    files.credentials.watch(
        surrogate.ref, lambda record, old, new: changes.append((sim.now, new))
    )

    # Ask for a resubscribe and keep the issuer's answer off the wire: a
    # wire batch with hb epoch 1 and freshly stamped Modified TRUEs.
    captured = []

    def capture(message, delay):
        if message.kind == "wire-batch" and message.source == LOGIN_ADDR and not captured:
            captured.append(message.payload)
            return None
        return [delay]

    net.set_fault_injector(capture)
    linkage.resync(files, "Login")
    sim.run_until(3.2)
    net.set_fault_injector(None)
    assert len(captured) == 1
    # the link goes down before a nack can recover the captured batch;
    # cert_a is revoked while it is down, then the issuer crashes
    net.set_link_state(LOGIN_ADDR, FILES_ADDR, False)
    login.exit_role(cert_a)
    sim.run_until(4.0)
    linkage.crash(login)
    sim.run_until(8.0)
    assert surrogate_states(files)[cert_a.crr] is RecordState.UNKNOWN

    # the stale batch is sent the moment Files sees epoch 2: it lands
    # after the mask and one link delay before the resync reply
    landed = []
    on_epoch_change = monitor.on_epoch_change

    def deliver_stale_batch(old, new):
        on_epoch_change(old, new)
        landed.append(sim.now + 0.05)
        net.send(LOGIN_ADDR, FILES_ADDR, "wire-batch", Encoded(captured[0]))

    monitor.on_epoch_change = deliver_stale_batch
    net.set_link_state(LOGIN_ADDR, FILES_ADDR, True)
    restarted_at = sim.now
    linkage.restart(login)
    sim.run_until(15.0)

    assert monitor.sender_epoch == 2 and len(landed) == 1
    after_restart = [state for at, state in changes if at >= restarted_at]
    assert RecordState.TRUE not in after_restart
    # the resync reply closed the window after the stale batch landed
    assert [at for at, state in changes if state is RecordState.FALSE][0] > landed[0]
    states = surrogate_states(files)
    assert states[cert_a.crr] is RecordState.FALSE
    assert states[cert_b.crr] is RecordState.TRUE
    assert net.unaccounted() == 0
