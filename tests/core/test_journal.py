"""Event-sourced durability: WAL ordering, the transactional outbox,
dead-letter redelivery, tail-sync recovery, and replay idempotence.

The scenarios attack the exact window the journal exists to close: a
crash between "apply" (the credential mutation lands) and "notify" (the
cascade notification reaches the subscriber).  Without the outbox that
window silently loses revocations (see
``test_crash_discards_queued_wire_traffic`` in test_crash_restart.py);
with it, every notification is exactly-once-applied or parked in the
DLQ — checked by ``DurableStore.conservation_breaches``.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.audit import AuditKind, AuditLog
from repro.core.credentials import CredentialRecordTable, RecordState
from repro.core.journal import DEAD, DELIVERED, INFLIGHT, PENDING, ServiceJournal
from repro.core.linkage import SimLinkage
from repro.core.service import PrincipalAdmission
from repro.core.types import ObjectType
from repro.errors import OasisError, OverloadError, RevokedError
from repro.runtime.clock import SimClock
from repro.runtime.faults import InvariantChecker
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


def make_world(delay=0.05):
    sim = Simulator()
    net = Network(sim, seed=13, default_delay=delay)
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
    host = HostOS("journal-host")
    pairs = []
    for i in range(count):
        domain = host.create_domain()
        cert = login.enter_role(domain.client_id, "LoggedOn", (f"u{i}", "host"))
        reader = files.enter_role(domain.client_id, "Reader", credentials=(cert,))
        pairs.append((cert, reader))
    return pairs


def surrogate_states(files):
    return {
        record.external_ref: record.state
        for record in files.credentials.externals_of("Login")
    }


# ------------------------------------------------------------- WAL discipline


def test_wal_fires_before_the_mutation_applies():
    table = CredentialRecordTable("T")
    record = table.create_source(state=RecordState.TRUE)
    seen = []
    table.wal = lambda kind, data: seen.append(
        (kind, data, table.state_of(record.ref))
    )
    table.set_states([(record.ref, RecordState.FALSE)])
    kind, data, state_at_wal = seen[0]
    assert kind == "state"
    assert data["updates"] == [[record.ref, RecordState.FALSE.value]]
    # write-AHEAD: when the journal saw the event, the record had not
    # yet changed
    assert state_at_wal is RecordState.TRUE
    assert table.state_of(record.ref) is RecordState.FALSE


def test_wal_records_only_effective_changes():
    table = CredentialRecordTable("T")
    live = table.create_source(state=RecordState.TRUE)
    dead = table.create_source(state=RecordState.FALSE, permanent=True)
    seen = []
    table.wal = lambda kind, data: seen.append((kind, data))
    table.set_states([(live.ref, RecordState.TRUE)])       # no-op: same state
    table.set_states([(dead.ref, RecordState.TRUE)])       # no-op: permanent
    table.revoke_many([dead.ref])                          # no-op: permanent
    assert seen == []
    table.revoke_many([live.ref])
    assert seen == [("revoke", {"refs": [live.ref]})]


def test_revocation_travels_through_the_outbox():
    sim, net, linkage, login, files = make_world()
    (cert, reader), = populate(login, files, 1)
    sim.run_until(2.0)
    assert surrogate_states(files)[cert.crr] is RecordState.TRUE
    login.exit_role(cert)
    sim.run_until(4.0)
    assert surrogate_states(files)[cert.crr] is RecordState.FALSE
    store = linkage.durable
    entries = [
        e for e in store.journal("Login").outbox.values() if e.dest == "Files"
    ]
    assert entries and all(e.status == DELIVERED for e in entries)
    assert store.journal("Files").stats.applied >= 1
    assert store.conservation_breaches() == []


# ----------------------------------------------------- the apply/notify window


def test_crash_mid_append_cannot_lose_the_revocation():
    """The tentpole scenario: the process dies right after the journal
    transaction commits (state + outbox durable) and before the drain
    runs.  The legacy wire path loses this notification forever; the
    outbox redrains it on recovery."""
    sim, net, linkage, login, files = make_world()
    (cert, reader), = populate(login, files, 1)
    sim.run_until(2.0)

    relay = linkage.relay_of("Login")
    relay.arm_crash(
        "mid-append",
        lambda: sim.schedule(0.0, linkage.crash, login, name="test-crash"),
    )
    login.exit_role(cert)  # applied locally; the crash outruns the drain
    sim.run_until(5.0)
    # the crash window: state changed, notification never left
    assert login.credentials.state_of(cert.crr) is RecordState.FALSE
    assert surrogate_states(files)[cert.crr] is RecordState.TRUE
    pending = [
        e for e in linkage.durable.journal("Login").outbox.values()
        if e.status == PENDING
    ]
    assert pending, "the undrained notification must survive in the outbox"

    linkage.restart(login)
    sim.run_until(10.0)
    assert surrogate_states(files)[cert.crr] is RecordState.FALSE
    assert linkage.durable.conservation_breaches() == []
    assert linkage.durable.journal("Login").stats.replays == 1


def test_crash_mid_drain_delivers_exactly_once():
    """Die after the batch is marked in flight: the delivery may or may
    not have departed.  Receiver-side (issuer, seq) dedup makes the
    post-recovery redrain idempotent — applied exactly once either way."""
    sim, net, linkage, login, files = make_world()
    (cert, reader), = populate(login, files, 1)
    sim.run_until(2.0)
    files_applied_before = linkage.durable.journal("Files").stats.applied

    relay = linkage.relay_of("Login")
    relay.arm_crash(
        "mid-drain",
        lambda: sim.schedule(0.0, linkage.crash, login, name="test-crash"),
    )
    login.exit_role(cert)
    sim.run_until(5.0)
    linkage.restart(login)
    sim.run_until(15.0)

    assert surrogate_states(files)[cert.crr] is RecordState.FALSE
    files_journal = linkage.durable.journal("Files")
    login_journal = linkage.durable.journal("Login")
    # every delivered entry applied exactly once, duplicates dropped
    for entry in login_journal.outbox.values():
        if entry.status == DELIVERED and entry.dest == "Files":
            assert files_journal.applied_counts[("Login", entry.seq)] == 1
    assert files_journal.stats.applied - files_applied_before >= 1
    assert linkage.durable.conservation_breaches() == []


def test_undeliverable_notifications_park_in_dlq_and_redeliver():
    sim, net, linkage, login, files = make_world()
    (cert, reader), = populate(login, files, 1)
    sim.run_until(2.0)

    linkage.crash(files)
    login.exit_role(cert)  # the dest is down; the delivery call fails
    sim.run_until(20.0)
    login_journal = linkage.durable.journal("Login")
    assert login_journal.stats.parked >= 1
    parked = [
        e for e in login_journal.outbox.values()
        if e.dest == "Files" and e.status != DELIVERED
    ]
    assert parked and all(
        e.redeliveries >= 1 and e.next_attempt_at > 0 for e in parked
    )
    # parked is not lost: the conservation sweep is clean with entries
    # sitting in the DLQ
    assert linkage.durable.conservation_breaches() == []

    linkage.restart(files)
    sim.run_until(60.0)  # past the seeded backoff
    assert not login_journal.dead_letters()
    assert login_journal.stats.outbox_redelivered >= 1
    assert surrogate_states(files)[cert.crr] is RecordState.FALSE
    assert linkage.durable.conservation_breaches() == []


def test_an_ack_redelivers_the_parked_backlog_at_once():
    """No monitor: the first delivery Files acks after an outage shows it
    is back, so the entries parked for it go out at once instead of
    waiting out their DLQ backoff (here due over a second later)."""
    sim, net, linkage, login, files = make_world(delay=0.01)
    pairs = populate(login, files, 4)
    sim.run_until(2.0)
    net.set_link_state("oasis:Login", "oasis:Files", False)
    for cert, _reader in pairs[:3]:
        login.exit_role(cert)
    sim.run_until(20.0)
    login_journal = linkage.durable.journal("Login")
    parked = login_journal.dead_letters()
    assert len(parked) == 3
    assert min(entry.next_attempt_at for entry in parked) > 21.0

    net.set_link_state("oasis:Login", "oasis:Files", True)
    login.exit_role(pairs[3][0])
    sim.run_until(20.1)            # the delivery, its ack, the backlog
    assert login_journal.depth["Files"] == 0
    assert login_journal.stats.outbox_redelivered == 3
    assert set(surrogate_states(files).values()) == {RecordState.FALSE}
    assert linkage.durable.conservation_breaches() == []


def assert_outbox_view_matches_full_scan(linkage, name):
    """The undelivered view the relay drains from must equal a scan of
    the full durable outbox, in seq order, at any instant."""
    journal = linkage.durable.journal(name)
    full = [e for e in journal.outbox.values() if e.status != DELIVERED]
    assert journal.unsettled() == full
    assert [e.seq for e in full] == sorted(e.seq for e in full)
    assert journal.dead_letters() == [e for e in full if e.status == DEAD]
    assert_parked_count_matches(journal)
    assert linkage.relay_of(name).quiescent() == all(
        e.status not in (PENDING, INFLIGHT) for e in journal.outbox.values()
    )


def assert_parked_count_matches(journal):
    """The per-destination parked count must equal a scan of the DEAD
    entries of the full durable outbox."""
    dead = Counter(e.dest for e in journal.outbox.values() if e.status == DEAD)
    assert {dest: n for dest, n in journal.parked.items() if n} == dict(dead)


def test_undelivered_view_tracks_crash_and_dlq():
    """Crash mid-drain, then park entries in the DLQ and redeliver them:
    at every step the undelivered view equals the full-outbox scan."""
    sim, net, linkage, login, files = make_world()
    pairs = populate(login, files, 6)
    sim.run_until(2.0)
    assert_outbox_view_matches_full_scan(linkage, "Login")

    linkage.relay_of("Login").arm_crash(
        "mid-drain",
        lambda: sim.schedule(0.0, linkage.crash, login, name="test-crash"),
    )
    login.exit_role(pairs[0][0])
    assert_outbox_view_matches_full_scan(linkage, "Login")   # pending
    sim.run_until(5.0)
    assert_outbox_view_matches_full_scan(linkage, "Login")   # reverted on crash
    linkage.restart(login)
    sim.run_until(15.0)
    assert_outbox_view_matches_full_scan(linkage, "Login")

    linkage.crash(files)
    for cert, _reader in pairs[1:4]:
        login.exit_role(cert)
    login_journal = linkage.durable.journal("Login")
    saw_parked = False
    for step in range(1, 151):   # down for 30 s, then past the backoff
        if step == 61:
            linkage.restart(files)
        sim.run_until(15.0 + 0.5 * step)
        saw_parked = saw_parked or bool(login_journal.dead_letters())
        assert_outbox_view_matches_full_scan(linkage, "Login")
    assert saw_parked, "the dest was down: entries must have parked"
    assert login_journal.stats.outbox_redelivered >= 1
    assert login_journal.unsettled() == []
    assert_outbox_view_matches_full_scan(linkage, "Login")
    assert_outbox_view_matches_full_scan(linkage, "Files")
    assert linkage.durable.conservation_breaches() == []


def test_parked_count_tracks_the_dead_letters_through_crash_and_recovery():
    """The parked count that gates redelivery equals a scan of the DEAD
    entries after every kernel event: entries park while Files is cut
    off, their backoff redeliveries fail and park them again, an ack
    redelivers the backlog at once, and a crash and recovery of the
    issuer leave a parked entry parked until it is redelivered."""
    sim, net, linkage, login, files = make_world(delay=0.01)
    pairs = populate(login, files, 6)
    journal = linkage.durable.journal("Login")

    def run_until(time):
        while (at := sim.peek_time()) is not None and at <= time:
            sim.step()
            assert_parked_count_matches(journal)
        sim.run_until(time)

    run_until(2.0)
    net.set_link_state("oasis:Login", "oasis:Files", False)
    for cert, _reader in pairs[:3]:
        login.exit_role(cert)
    run_until(10.0)
    assert journal.parked["Files"] == 3
    assert journal.stats.parked > 3      # redelivered into the cut, parked again

    net.set_link_state("oasis:Login", "oasis:Files", True)
    login.exit_role(pairs[3][0])
    run_until(10.1)                      # its ack redelivers the backlog at once
    assert journal.parked["Files"] == 0
    assert journal.stats.outbox_redelivered == 3

    net.set_link_state("oasis:Login", "oasis:Files", False)
    login.exit_role(pairs[4][0])
    run_until(12.0)
    assert journal.parked["Files"] == 1
    linkage.crash(login)
    assert_parked_count_matches(journal)
    run_until(14.0)
    net.set_link_state("oasis:Login", "oasis:Files", True)
    linkage.restart(login)
    assert journal.parked["Files"] == 1
    login.exit_role(pairs[5][0])
    run_until(60.0)
    assert journal.parked["Files"] == 0
    assert journal.unsettled() == []
    assert set(surrogate_states(files).values()) == {RecordState.FALSE}
    assert linkage.durable.conservation_breaches() == []


def test_subscriber_recovers_by_tail_sync_not_resubscribe_storm():
    sim, net, linkage, login, files = make_world()
    pairs = populate(login, files, 20)
    sim.run_until(2.0)

    linkage.crash(files)
    for cert, _reader in pairs[:7]:
        login.exit_role(cert)  # revoked while the subscriber is down
    sim.run_until(10.0)
    subscribes = linkage.channel("Files", "Login").stats
    subscribes_before = subscribes.sends
    linkage.restart(files)
    sim.run_until(40.0)

    files_journal = linkage.durable.journal("Files")
    assert files_journal.stats.tail_syncs_pulled >= 1
    assert linkage.durable.journal("Login").stats.tail_syncs_served >= 1
    # recovery does not resubscribe: no subscribe went to Login
    assert subscribes.sends == subscribes_before
    states = surrogate_states(files)
    for index, (cert, _reader) in enumerate(pairs):
        expected = RecordState.FALSE if index < 7 else RecordState.TRUE
        assert states[cert.crr] is expected
    assert linkage.durable.conservation_breaches() == []


def test_stale_tail_reply_never_reopens_a_newer_revocation():
    """The issuer serves the restarted subscriber's tail-sync snapshot,
    then revokes a session; that revocation's delivery overtakes the
    held snapshot reply.  The snapshot's older TRUE must not land last:
    the overtaking delivery is refused while the snapshot is awaited,
    and its redelivery's newer stamp applies after the snapshot."""
    sim, net, linkage, login, files = make_world(delay=0.01)
    pairs = populate(login, files, 3)
    sim.run_until(2.0)
    checker = InvariantChecker([login, files], stale_bound=1.0)
    linkage.crash(files)
    sim.run_until(3.0)
    held = []

    def hold_first_tail_reply(message, delay):
        if (
            not held
            and message.kind == "rpc-reply"
            and (message.source, message.dest) == ("oasis:Login", "oasis:Files")
        ):
            held.append(sim.now)
            return [delay + 0.05]
        return [delay]

    net.set_fault_injector(hold_first_tail_reply)
    linkage.restart(files)          # the snapshot is served at T+0.01
    revoked = pairs[0][0]
    sim.schedule(0.011, login.exit_role, revoked, name="test-logoff")
    sim.run_until(8.0)

    assert held == [pytest.approx(3.01)]   # the tail-sync reply was the one held
    assert linkage.durable.journal("Login").stats.tail_syncs_served == 1
    assert surrogate_states(files)[revoked.crr] is RecordState.FALSE
    assert checker.divergences() == []
    assert checker.check_fail_closed() == []
    assert linkage.durable.journal("Files").stats.refused >= 1
    assert linkage.durable.conservation_breaches() == []


# Heal times of the parked-delivery probe.  Before the refusal-while-
# suspect rule and the stamped restore, 7 of these 10 re-opened the
# revoked surrogate for 1.3 to 7.0 s.
PARKED_HEAL_TIMES = (3.0, 3.5, 4.0, 5.0, 5.5, 6.0, 7.5, 8.0, 8.5, 10.0)


@pytest.mark.parametrize("heal_at", PARKED_HEAL_TIMES)
def test_parked_older_delivery_never_reopens_a_revocation_on_heal(heal_at):
    """A subscribe reply (TRUE) parks behind a cut of the Login-Files
    link, and the session logs off, so its FALSE parks behind the TRUE.
    When the link heals, the older TRUE must not re-open the surrogate:
    not while Files still suspects Login (the delivery is refused and
    redelivered), and not after the restore re-read (the re-read is the
    issuer's stamped snapshot, which the TRUE's older stamp cannot
    supersede)."""
    sim, net, linkage, login, files = make_world(delay=0.01)
    relays = [linkage.enable_journal(service, seed=13) for service in (login, files)]
    linkage.monitor(login, files, 0.5, grace=2.0)
    sim.run_until(1.0)
    client = HostOS("probe-host").create_domain().client_id
    cert = login.enter_role(client, "LoggedOn", ("u", "h"))
    files.enter_role(client, "Reader", credentials=(cert,))
    sim.run_until(1.005)                # the subscribe is in flight
    net.partition({"oasis:Login"}, {"oasis:Files"})
    sim.run_until(2.0)
    login.exit_role(cert)
    checker = InvariantChecker([login, files], stale_bound=1.0, journals=linkage.durable)

    sim.schedule_at(heal_at, net.heal, {"oasis:Login"}, {"oasis:Files"})
    end = heal_at + 40.0
    for k in range(1, int((end - 2.0) / 0.05)):
        sim.schedule_at(2.0 + 0.05 * k, checker.check_fail_closed)
    sim.run_until(end)

    assert checker.violations == [], "\n".join(str(v) for v in checker.violations)
    assert surrogate_states(files)[cert.crr] is RecordState.FALSE
    assert checker.converged()
    assert relays[0].journal.stats.outbox_delivered >= 2   # the TRUE and the FALSE
    assert checker.check_outbox_conservation() == []
    assert linkage.journal_quiescent()


def test_tail_reply_from_a_suspect_issuer_leaves_surrogates_unknown():
    """Files stays down longer than its monitor's grace, so it restarts
    suspecting Login, and Login's heartbeats stay lost (its sender is
    stopped) while the RPCs get through.  The tail-sync reply lands while
    Login is suspect, and Files refuses Login's deliveries until the
    restore: the reply must leave the surrogates Unknown, or a revocation
    issued after it would leave a TRUE surrogate behind until the
    heartbeats resume."""
    sim, net, linkage, login, files = make_world(delay=0.01)
    pairs = populate(login, files, 3)
    sender, _monitor = linkage.monitor(login, files, 0.5, grace=2.0)
    sim.run_until(2.0)
    linkage.crash(files)
    sender.stop()
    sim.run_until(4.0)                  # suspect since 3.0 (0.5 * 2.0 of silence)
    linkage.restart(files)
    sim.run_until(4.1)
    files_journal = linkage.durable.journal("Files")
    assert files_journal.stats.tail_syncs_pulled == 1
    assert linkage.suspects("Files", "Login")
    assert set(surrogate_states(files).values()) == {RecordState.UNKNOWN}

    checker = InvariantChecker([login, files], stale_bound=1.0, journals=linkage.durable)
    revoked = pairs[0][0]
    login.exit_role(revoked)
    for k in range(1, 120):
        sim.schedule_at(4.1 + 0.05 * k, checker.check_fail_closed)
    sim.run_until(10.0)
    assert checker.violations == [], "\n".join(str(v) for v in checker.violations)
    assert files_journal.stats.refused >= 1      # the FALSE parks meanwhile
    assert set(surrogate_states(files).values()) == {RecordState.UNKNOWN}

    sender.start()
    sim.run_until(12.0)
    assert not linkage.suspects("Files", "Login")
    assert surrogate_states(files)[revoked.crr] is RecordState.FALSE
    assert checker.converged()
    assert checker.check_fail_closed() == [] and checker.violations == []
    assert checker.check_outbox_conservation() == []
    assert linkage.journal_quiescent()


# ------------------------------------------- the channel names the issuer


def spoof_world():
    """Login, Files and Mirror on one linkage; one Files Reader whose
    Login session is live, and Mirror's relay endpoint as the spoofer."""
    sim, net, linkage, login, files = make_world(delay=0.01)
    OasisService("Mirror", registry=login.registry, linkage=linkage, clock=login.clock)
    (cert, reader), = populate(login, files, 1)
    sim.run_until(1.0)
    return sim, linkage, login, files, cert, reader, linkage.relay_of("Mirror").rpc


def test_a_delivery_naming_another_issuer_cannot_revoke():
    """Mirror claims to be Login in an ``outbox-deliver`` that revokes
    a live session: the receiver takes the issuer from the calling node,
    so Files' Login surrogate and its Login ledger stay untouched."""
    sim, linkage, login, files, cert, reader, mirror = spoof_world()
    files_journal = linkage.durable.journal("Files")
    ledger = dict(files_journal.applied_counts)
    mirror.call("oasis:Files", "outbox-deliver", "Login",
                [[999, cert.crr, "false", [99, 999]]])
    sim.run_until(2.0)
    assert surrogate_states(files)[cert.crr] is RecordState.TRUE
    assert files.validate(reader) is reader
    assert ("Login", 999) not in files_journal.applied_counts
    assert {k: v for k, v in files_journal.applied_counts.items()
            if k[0] == "Login"} == {k: v for k, v in ledger.items() if k[0] == "Login"}


def test_a_delivery_naming_another_issuer_cannot_swallow_its_next_revocation():
    """Fail-open variant: Mirror sends a harmless row under Login's next
    outbox seq, hoping Files records ``("Login", seq)`` and then drops
    Login's real revocation under that seq as a duplicate.  The ledger
    is not touched, so the revocation lands."""
    sim, linkage, login, files, cert, reader, mirror = spoof_world()
    login_journal = linkage.durable.journal("Login")
    next_seq = max(login_journal.outbox) + 1
    mirror.call("oasis:Files", "outbox-deliver", "Login",
                [[next_seq, 123456789, "true", None]])
    sim.run_until(2.0)
    assert ("Login", next_seq) not in linkage.durable.journal("Files").applied_counts
    login.exit_role(cert)
    assert login_journal.outbox[next_seq].ref == cert.crr
    sim.run_until(9.0)
    with pytest.raises(RevokedError):
        files.validate(reader)
    assert linkage.durable.journal("Files").stats.duplicates_dropped == 0
    assert linkage.durable.conservation_breaches() == []


def test_tail_sync_serves_the_callers_own_snapshot():
    """A tail-sync names no subscriber: Mirror asking on Files' behalf
    learns nothing of Files' subscriptions, and its own pull returns
    its own (empty) snapshot."""
    sim, linkage, login, files, cert, reader, mirror = spoof_world()
    named = mirror.call("oasis:Login", "tail-sync", "Files")
    own = mirror.call("oasis:Login", "tail-sync")
    sim.run_until(2.0)
    assert named.failed or named.result()["items"] == []
    assert own.result()["items"] == []
    assert linkage.relay_of("Login").snapshot_for("Files")   # Files does subscribe


def test_one_round_is_one_outbox_transaction_across_a_crash():
    """A logoff of N sessions, each subscribed by two services, settles
    in one round: one ``notify`` record carrying all 2N outbox entries.
    A crash armed at the append point lands before the drain; after the
    restart every entry is delivered and applied exactly once."""
    sim, net, linkage, login, files = make_world()
    mirror = OasisService(
        "Mirror", registry=login.registry, linkage=linkage, clock=login.clock
    )
    mirror.add_rolefile("main", FILES_RDL)
    pairs = populate(login, files, 5)
    for cert, _reader in pairs:
        mirror.enter_role(cert.client, "Reader", credentials=(cert,))
    sim.run_until(2.0)
    journal = linkage.durable.journal("Login")
    records_before = len(journal.records)

    linkage.relay_of("Login").arm_crash(
        "mid-append",
        lambda: sim.schedule(0.0, linkage.crash, login, name="test-crash"),
    )
    certs = [cert for cert, _reader in pairs]
    login.exit_roles(certs)
    notify = [r for r in journal.records[records_before:] if r.kind == "notify"]
    assert len(notify) == 1
    entries = [journal.outbox[seq] for seq, *_rest in notify[0].data["outbox"]]
    assert len(entries) == 2 * len(certs)
    assert {(e.ref, e.dest) for e in entries} == {
        (cert.crr, dest) for cert in certs for dest in ("Files", "Mirror")
    }
    sim.run_until(5.0)
    # the crash outran the drain: the whole transaction is still pending
    assert all(e.status == PENDING for e in entries)

    linkage.restart(login)
    sim.run_until(10.0)
    assert all(e.status == DELIVERED for e in entries)
    for dest in ("Files", "Mirror"):
        applied = linkage.durable.journal(dest).applied_counts
        assert all(applied[("Login", e.seq)] == 1 for e in entries if e.dest == dest)
    assert linkage.durable.conservation_breaches() == []
    for service in (files, mirror):
        states = {
            record.external_ref: record.state
            for record in service.credentials.externals_of("Login")
        }
        assert all(states[cert.crr] is RecordState.FALSE for cert in certs)


# ------------------------------------------------------------------ replay


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from(["true", "false", "revoke"])),
        min_size=1,
        max_size=30,
    )
)
def test_journal_replay_is_idempotent(ops):
    """Replay twice == replay once: re-driving the log against the live
    table changes nothing (permanent records absorb revocations,
    same-state updates plan as empty) and journals nothing new."""
    journal = ServiceJournal("T")
    table = CredentialRecordTable("T")
    table.wal = lambda kind, data: journal.append(kind, data)
    refs = [table.create_source(state=RecordState.TRUE).ref for _ in range(6)]
    for index, op in ops:
        if op == "revoke":
            table.revoke_many([refs[index]])
        else:
            state = RecordState.TRUE if op == "true" else RecordState.FALSE
            table.set_states([(refs[index], state)])

    def apply(record):
        if record.kind == "state":
            table.set_states(
                [(ref, RecordState(value)) for ref, value in record.data["updates"]],
                permanent=record.data.get("permanent", False),
            )
        elif record.kind == "revoke":
            table.revoke_many(record.data["refs"])

    def snapshot():
        return [(table.state_of(ref), table.get(ref).permanent) for ref in refs]

    before = snapshot()
    length = len(journal)
    count_once = journal.replay(apply)
    assert snapshot() == before
    assert len(journal) == length  # replay must not re-journal
    count_twice = journal.replay(apply)
    assert count_twice == count_once
    assert snapshot() == before
    assert len(journal) == length


# ----------------------------------------------------------- audit via journal


def test_audit_rings_hot_window_and_spills_to_journal():
    journal = ServiceJournal("T")
    log = AuditLog(hot_window=4)
    log.attach_journal(journal)
    for i in range(10):
        log.record(float(i), AuditKind.VALIDATION_OK, f"c{i}", "ok")
    assert len(log.recent()) == 4                       # bounded in memory
    assert [e.client for e in log.recent()] == ["c6", "c7", "c8", "c9"]
    assert log.spilled == 6
    assert len(log) == 10                               # nothing lost
    assert len(log.entries(AuditKind.VALIDATION_OK)) == 10
    assert log.dropped == 0


def test_audit_standalone_capacity_still_drops_newest():
    # the pre-journal contract, unchanged: over capacity, new entries drop
    log = AuditLog(capacity=2)
    for i in range(5):
        log.record(float(i), AuditKind.VALIDATION_OK, f"c{i}", "ok")
    assert len(log) == 2
    assert log.dropped == 3


def test_role_history_cdc_tracks_tenures():
    journal = ServiceJournal("T")
    log = AuditLog(hot_window=8)
    log.attach_journal(journal)
    log.record(1.0, AuditKind.ROLE_ENTERED, "alice", "", ("Reader", "x"))
    log.record(2.0, AuditKind.ROLE_ENTERED, "bob", "", ("Reader", "x"))
    log.record(3.0, AuditKind.ROLE_EXITED, "alice", "", ("Reader", "x"))
    log.record(4.0, AuditKind.ROLE_REVOKED, "bob", "", ("Reader", "x"))
    log.record(5.0, AuditKind.ROLE_ENTERED, "alice", "", ("Writer", "y"))
    history = log.role_history()
    assert [(t.client, t.entered_at, t.ended_at) for t in history] == [
        ("alice", 1.0, 3.0),
        ("bob", 2.0, 4.0),
        ("alice", 5.0, None),
    ]
    assert history[1].end_kind is AuditKind.ROLE_REVOKED
    assert history[2].open
    assert log.holders_at(2.5) == {("Reader", ("x",)): ["alice", "bob"]}
    assert log.holders_at(6.0) == {("Writer", ("y",)): ["alice"]}
    assert log.current_members() == {("Writer", ("y",)): ["alice"]}


# ----------------------------------------------------------- batched recovery


def test_restart_recovers_in_one_tail_sync_not_a_storm():
    count = 150
    sim, net, linkage, login, files = make_world()
    pairs = populate(login, files, count)
    sim.run_until(5.0)

    linkage.crash(files)
    sim.run_until(10.0)
    sent_before = net.stats.messages_sent
    linkage.restart(files)
    sim.run_until(30.0)

    # one tail-sync request and its reply carry all 150 refs
    assert linkage.durable.journal("Files").stats.tail_syncs_pulled == 1
    assert net.stats.messages_sent - sent_before == 2
    states = surrogate_states(files)
    assert all(state is RecordState.TRUE for state in states.values())


# ------------------------------------------------------ per-principal budget


def test_principal_admission_budget_sheds_noisy_tenant():
    admission = PrincipalAdmission(budget=2, window=1.0)
    registry = ServiceRegistry()
    login = OasisService("Login", registry=registry, admission=admission)
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    host = HostOS("adm-host")
    noisy = host.create_domain().client_id
    quiet = host.create_domain().client_id

    login.enter_role(noisy, "LoggedOn", ("n0", "h"))
    login.enter_role(noisy, "LoggedOn", ("n1", "h"))
    with pytest.raises(OverloadError):
        login.enter_role(noisy, "LoggedOn", ("n2", "h"))
    # the budget is per principal: the quiet tenant is unaffected
    login.enter_role(quiet, "LoggedOn", ("q0", "h"))
    assert login.stats.entries_shed == 1
    assert login.stats.sheds_by_principal == {str(noisy): 1}


def test_principal_admission_window_slides():
    admission = PrincipalAdmission(budget=2, window=1.0)
    assert admission.admit("p", now=0.0)
    assert admission.admit("p", now=0.1)
    assert not admission.admit("p", now=0.2)
    # the old admissions age out of the window
    assert admission.admit("p", now=1.5)


# ---------------------------------------------------- quiesce integration


def test_quiesce_lands_every_revocation_without_dead_letters():
    """quiesce() returns once every outbox entry is acked: one delivery
    and its ack, two link delays (0.1 s) after the revocations."""
    sim, net, linkage, login, files = make_world()
    pairs = populate(login, files, 10)
    sim.run_until(2.0)
    for cert, _reader in pairs[:4]:
        login.exit_role(cert)
    assert linkage.quiesce() <= 2 * 0.05 + 1e-9
    assert linkage.journal_quiescent() and net.in_flight == 0
    states = surrogate_states(files)
    for index, (cert, _reader) in enumerate(pairs):
        expected = RecordState.FALSE if index < 4 else RecordState.TRUE
        assert states[cert.crr] is expected
    assert linkage.durable.conservation_breaches() == []
    assert DEAD not in {
        e.status for e in linkage.durable.journal("Login").outbox.values()
    }


def test_quiesce_waits_for_a_subscribe_still_queued_in_its_channel():
    """Right after an admission its subscribe sits in the channel until
    the zero-delay flush: quiesce sends it and returns once the reply is
    acked, three link delays (0.15 s) later: the subscribe, the reply's
    delivery and its ack."""
    sim, net, linkage, login, files = make_world()
    (cert, _reader), = populate(login, files, 1)
    assert net.in_flight == 0 and linkage.journal_quiescent()
    assert linkage.quiesce() == pytest.approx(3 * 0.05)
    assert login.credentials.get(cert.crr).subscribers == {"Files"}
    assert linkage.durable.journal("Files").stats.applied == 1


def test_quiesce_raises_past_its_timeout():
    """An entry that cannot land within the timeout (its destination is
    down and the outbox still holds it in flight) is an error, not a
    silent return."""
    sim, net, linkage, login, files = make_world()
    pairs = populate(login, files, 2)
    sim.run_until(2.0)
    net.node("oasis:Files").up = False      # silent: the call times out
    login.exit_role(pairs[0][0])
    with pytest.raises(OasisError, match="not quiescent within 0.5s"):
        linkage.quiesce(timeout=0.5)
