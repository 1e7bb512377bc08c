"""Tests for distributed credential coherence (sections 4.9-4.10).

Covers the SimLinkage: Modified-event propagation over the simulated
network, heartbeat-driven Unknown marking, and recovery.
"""

import pytest

from repro.core import GroupService, HostOS, OasisService, ServiceRegistry
from repro.core.credentials import RecordState
from repro.core.journal import SYNC_RETRY_PERIOD
from repro.core.linkage import SimLinkage
from repro.core.types import ObjectType
from repro.errors import RevokedError
from repro.runtime.clock import SimClock
from repro.runtime.network import Link, Network
from repro.runtime.rpc import RpcEndpoint, RpcError
from repro.runtime.simulator import Simulator

LOGIN_RDL = """
def LoggedOn(u, h)  u: userid  h: string
LoggedOn(u, h) <-
"""

FILES_RDL = """
import Login.userid
Reader(u) <- Login.LoggedOn(u, h)*
"""


def make_distributed_world(delay=0.01):
    sim = Simulator()
    net = Network(sim, seed=2, default_delay=delay)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(net)
    login = OasisService("Login", registry=registry, linkage=linkage, clock=clock)
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    files = OasisService("Files", registry=registry, linkage=linkage, clock=clock)
    files.add_rolefile("main", FILES_RDL)
    host = HostOS("ely")
    user = host.create_domain()
    return sim, net, linkage, login, files, user


def test_external_record_resolves_after_subscribe():
    sim, net, linkage, login, files, user = make_distributed_world()
    login_cert = login.enter_role(user.client_id, "LoggedOn", ("dm", "ely"))
    reader = files.enter_role(user.client_id, "Reader", credentials=(login_cert,))
    # the issuer vouched for the credential at entry, so the certificate is
    # immediately usable even before the subscription reply lands
    files.validate(reader)
    sim.run()
    files.validate(reader)  # and stays valid once the reply arrives


def test_remote_revocation_propagates_with_network_delay():
    sim, net, linkage, login, files, user = make_distributed_world(delay=0.5)
    login_cert = login.enter_role(user.client_id, "LoggedOn", ("dm", "ely"))
    reader = files.enter_role(user.client_id, "Reader", credentials=(login_cert,))
    sim.run()
    files.validate(reader)
    t0 = sim.now
    login.exit_role(login_cert)
    files.validate(reader)  # event still in flight: stale success
    sim.run()
    assert sim.now >= t0 + 0.5
    with pytest.raises(RevokedError):
        files.validate(reader)


def test_heartbeat_loss_fails_closed():
    """Section 4.10: a missed heartbeat marks external records Unknown;
    the consuming service must act as if revoked (uncertain)."""
    sim, net, linkage, login, files, user = make_distributed_world()
    login_cert = login.enter_role(user.client_id, "LoggedOn", ("dm", "ely"))
    reader = files.enter_role(user.client_id, "Reader", credentials=(login_cert,))
    linkage.monitor(login, files, period=1.0, grace=2.0)
    sim.run_until(5.0)
    files.validate(reader)
    net.partition({"oasis:Login"}, {"oasis:Files"})
    sim.run_until(30.0)
    with pytest.raises(RevokedError) as err:
        files.validate(reader)
    assert err.value.uncertain


def test_heartbeat_restore_recovers_true_state():
    sim, net, linkage, login, files, user = make_distributed_world()
    login_cert = login.enter_role(user.client_id, "LoggedOn", ("dm", "ely"))
    reader = files.enter_role(user.client_id, "Reader", credentials=(login_cert,))
    linkage.monitor(login, files, period=1.0, grace=2.0)
    sim.run_until(5.0)
    net.partition({"oasis:Login"}, {"oasis:Files"})
    sim.run_until(30.0)
    net.heal({"oasis:Login"}, {"oasis:Files"})
    sim.run_until(60.0)
    files.validate(reader)  # state re-read on restore; still logged on


def test_revocation_during_partition_detected_on_heal():
    """The cert is revoked while the services cannot talk; after healing
    the consuming service learns the truth rather than resurrecting it."""
    sim, net, linkage, login, files, user = make_distributed_world()
    login_cert = login.enter_role(user.client_id, "LoggedOn", ("dm", "ely"))
    reader = files.enter_role(user.client_id, "Reader", credentials=(login_cert,))
    linkage.monitor(login, files, period=1.0, grace=2.0)
    sim.run_until(5.0)
    net.partition({"oasis:Login"}, {"oasis:Files"})
    login.exit_role(login_cert)
    sim.run_until(30.0)
    with pytest.raises(RevokedError) as err:
        files.validate(reader)
    assert err.value.uncertain  # the revocation did not cross: suspicion
    net.heal({"oasis:Login"}, {"oasis:Files"})
    sim.run_until(60.0)
    with pytest.raises(RevokedError) as err:
        files.validate(reader)
    assert not err.value.uncertain  # definitively revoked, not just unknown


def test_reconnection_restores_true_states_for_all_surrogates():
    """Satellite: after a missed heartbeat marks surrogates Unknown, the
    re-read on reconnection restores every surviving record's true state
    in one cascade."""
    sim, net, linkage, login, files, user = make_distributed_world()
    host = HostOS("ely2")
    certs = []
    readers = []
    for i in range(5):
        domain = host.create_domain()
        cert = login.enter_role(domain.client_id, "LoggedOn", (f"u{i}", "ely"))
        readers.append(files.enter_role(domain.client_id, "Reader", credentials=(cert,)))
        certs.append(cert)
    linkage.monitor(login, files, period=1.0, grace=2.0)
    sim.run_until(5.0)
    for reader in readers:
        files.validate(reader)
    net.partition({"oasis:Login"}, {"oasis:Files"})
    sim.run_until(30.0)
    for reader in readers:
        with pytest.raises(RevokedError) as err:
            files.validate(reader)
        assert err.value.uncertain  # fail closed, not revoked
    net.heal({"oasis:Login"}, {"oasis:Files"})
    sim.run_until(60.0)
    for reader in readers:
        files.validate(reader)  # all true states restored


def test_mixed_fates_during_partition_resolved_on_heal():
    """Records revoked during the partition come back FALSE (definitive);
    untouched ones come back TRUE — in the same re-read batch."""
    sim, net, linkage, login, files, user = make_distributed_world()
    host = HostOS("ely3")
    pairs = []
    for i in range(4):
        domain = host.create_domain()
        cert = login.enter_role(domain.client_id, "LoggedOn", (f"v{i}", "ely"))
        reader = files.enter_role(domain.client_id, "Reader", credentials=(cert,))
        pairs.append((cert, reader))
    linkage.monitor(login, files, period=1.0, grace=2.0)
    sim.run_until(5.0)
    net.partition({"oasis:Login"}, {"oasis:Files"})
    login.exit_role(pairs[0][0])
    login.exit_role(pairs[2][0])
    sim.run_until(30.0)
    for _cert, reader in pairs:
        with pytest.raises(RevokedError) as err:
            files.validate(reader)
        assert err.value.uncertain  # nothing crossed the split
    net.heal({"oasis:Login"}, {"oasis:Files"})
    sim.run_until(60.0)
    for index, (cert, reader) in enumerate(pairs):
        if index in (0, 2):
            with pytest.raises(RevokedError) as err:
                files.validate(reader)
            assert not err.value.uncertain  # truth learned, not suspicion
        else:
            files.validate(reader)


class TestWireEfficiency:
    """The outbox relay underneath SimLinkage: one transaction and one
    delivery per destination per round."""

    def test_revocation_cascade_batches_into_few_messages(self):
        sim, net, linkage, login, files, user = make_distributed_world()
        host = HostOS("ely4")
        certs = []
        for i in range(50):
            domain = host.create_domain()
            cert = login.enter_role(domain.client_id, "LoggedOn", (f"w{i}", "ely"))
            files.enter_role(domain.client_id, "Reader", credentials=(cert,))
            certs.append(cert)
        sim.run()
        journal = linkage.relay_of("Login").journal
        before = net.stats.messages_sent
        records = len(journal)
        delivered = journal.stats.outbox_delivered
        login.credentials.revoke_many([cert.crr for cert in certs])
        sim.run()
        # 50 notifications to one destination: one outbox transaction,
        # one outbox-deliver and its ack
        assert net.stats.messages_sent - before == 2
        assert [r.kind for r in journal.records[records:]].count("notify") == 1
        assert journal.stats.outbox_delivered - delivered == 50

    def test_state_flip_coalesces_to_final_state(self):
        """TRUE -> UNKNOWN -> FALSE inside one drain crosses the wire in
        one delivery, and the receiver settles on FALSE (last-state-wins,
        never the reverse)."""
        sim, net, linkage, login, files, user = make_distributed_world()
        login_cert = login.enter_role(user.client_id, "LoggedOn", ("dm", "ely"))
        reader = files.enter_role(user.client_id, "Reader", credentials=(login_cert,))
        sim.run()
        before = net.stats.messages_sent
        from repro.core.credentials import RecordState
        record = login.credentials.get(login_cert.crr)
        subscribers = set(record.subscribers)
        assert subscribers  # Files subscribed to the issuer's CRR
        linkage.publish(login, [(login_cert.crr, RecordState.UNKNOWN, sorted(subscribers))])
        linkage.publish(login, [(login_cert.crr, RecordState.FALSE, sorted(subscribers))])
        sim.run()
        assert net.stats.messages_sent - before == 2   # one delivery, one ack
        with pytest.raises(RevokedError) as err:
            files.validate(reader)
        assert not err.value.uncertain

    def test_flush_deadline_bounds_revocation_latency(self):
        """Fail-closed: the final state is never delayed past the flush
        deadline.  The relay drains in a zero-delay event, so a
        revocation is visible one link delay after it."""
        sim = Simulator()
        net = Network(sim, seed=2, default_delay=0.001)
        clock = SimClock(sim)
        registry = ServiceRegistry()
        linkage = SimLinkage(net)
        login = OasisService("Login", registry=registry, linkage=linkage, clock=clock)
        login.export_type(ObjectType("Login.userid"), "userid")
        login.add_rolefile("main", LOGIN_RDL)
        files = OasisService("Files", registry=registry, linkage=linkage, clock=clock)
        files.add_rolefile("main", FILES_RDL)
        user = HostOS("ely").create_domain()
        login_cert = login.enter_role(user.client_id, "LoggedOn", ("dm", "ely"))
        reader = files.enter_role(user.client_id, "Reader", credentials=(login_cert,))
        sim.run()
        t0 = sim.now
        login.exit_role(login_cert)
        sim.run_until(t0 + 0.001)
        with pytest.raises(RevokedError):
            files.validate(reader)

    def test_subscription_reply_is_not_held_for_a_batch(self):
        """The subscribe leaves in the relay's zero-delay tail-sync call
        and the issuer answers it at once, so the surrogate is resolved
        two link delays after entry."""
        from repro.core.credentials import RecordState

        sim = Simulator()
        net = Network(sim, seed=2, default_delay=0.001)
        clock = SimClock(sim)
        registry = ServiceRegistry()
        linkage = SimLinkage(net)
        login = OasisService("Login", registry=registry, linkage=linkage, clock=clock)
        login.export_type(ObjectType("Login.userid"), "userid")
        login.add_rolefile("main", LOGIN_RDL)
        files = OasisService("Files", registry=registry, linkage=linkage, clock=clock)
        files.add_rolefile("main", FILES_RDL)
        user = HostOS("ely").create_domain()
        login_cert = login.enter_role(user.client_id, "LoggedOn", ("dm", "ely"))
        files.enter_role(user.client_id, "Reader", credentials=(login_cert,))
        sim.run_until(0.01)   # two link hops, far below the batch window
        surrogate = files.credentials.externals_of("Login")[0]
        assert surrogate.state is RecordState.TRUE


class TestGroupService:
    def test_lazy_materialisation(self):
        groups = GroupService()
        groups.create_group("g", {"a", "b"})
        assert groups.interesting_count() == 0
        groups.membership_record("a", "g")
        assert groups.interesting_count() == 1

    def test_record_tracks_changes(self):
        from repro.core.credentials import RecordState
        groups = GroupService()
        groups.create_group("g", {"a"})
        record = groups.membership_record("a", "g")
        assert record.state is RecordState.TRUE
        groups.remove_member("g", "a")
        assert record.state is RecordState.FALSE
        groups.add_member("g", "a")
        assert record.state is RecordState.TRUE

    def test_record_for_nonmember_starts_false(self):
        from repro.core.credentials import RecordState
        groups = GroupService()
        groups.create_group("g", set())
        record = groups.membership_record("x", "g")
        assert record.state is RecordState.FALSE

    def test_same_record_returned(self):
        groups = GroupService()
        groups.create_group("g", {"a"})
        assert groups.membership_record("a", "g") is groups.membership_record("a", "g")

    def test_members_listing(self):
        groups = GroupService()
        groups.create_group("g", {"a", "b"})
        assert groups.members("g") == {"a", "b"}
        assert groups.groups() == ["g"]


def test_lost_subscribe_is_retried_until_acknowledged():
    """A subscribe call eaten by the network must not orphan the
    surrogate: the subscriber sends it again one period after it went
    until its reply lands."""
    sim, net, linkage, login, files, user = make_distributed_world()
    login_cert = login.enter_role(user.client_id, "LoggedOn", ("dm", "ely"))
    # every subscribe from Files dies on the floor for a while
    net.set_link("oasis:Files", "oasis:Login", Link(loss_probability=1.0))
    reader = files.enter_role(user.client_id, "Reader", credentials=(login_cert,))
    sim.run_until(1.0)
    record = login.credentials.get(login_cert.crr)
    assert "Files" not in record.subscribers  # issuer is still unaware
    net.set_link("oasis:Files", "oasis:Login", Link())
    sim.run_until(10.0)
    rpc = linkage.relay_of("Files").rpc
    assert (rpc.stats.calls, rpc.stats.timeouts) == (2, 1)
    assert "Files" in login.credentials.get(login_cert.crr).subscribers
    # ...so the revocation propagates instead of leaving a stale grant
    login.exit_role(login_cert)
    sim.run_until(20.0)
    with pytest.raises(RevokedError):
        files.validate(reader)


# -- the subscriber is whoever made the call ----------------------------------


def make_three_service_world(sessions=2):
    """Login plus two subscribers, Files and Mirror, with ``sessions``
    sessions; every link has the same fixed delay."""
    sim, net, linkage, login, files, user = make_distributed_world()
    mirror = OasisService(
        "Mirror", registry=files.registry, linkage=linkage, clock=files.clock
    )
    mirror.add_rolefile("main", FILES_RDL)
    host = HostOS("ely")
    certs = [
        login.enter_role(host.create_domain().client_id, "LoggedOn", (f"u{i}", "ely"))
        for i in range(sessions)
    ]
    return sim, net, linkage, login, files, mirror, certs


def subscribers_of(service, cert):
    return service.credentials.get(cert.crr).subscribers


def read_as(service, cert):
    return service.enter_role(cert.client, "Reader", credentials=(cert,))


def test_a_re_entry_with_the_same_credential_sends_nothing():
    """Files already tracks the Login certificate's record after the
    first entry: later entries with it reuse the surrogate and send no
    subscribe, so Login appends no outbox entry for them.  One logoff
    still denies every membership entered with the certificate."""
    sim, net, linkage, login, files, user = make_distributed_world()
    login_cert = login.enter_role(user.client_id, "LoggedOn", ("dm", "ely"))
    readers = [read_as(files, login_cert)]
    sim.run()
    assert subscribers_of(login, login_cert) == {"Files"}
    sent = net.stats.messages_sent
    appended = login.journal.stats.outbox_appended
    for _ in range(5):
        readers.append(read_as(files, login_cert))
        sim.run()
    assert net.stats.messages_sent == sent
    assert login.journal.stats.outbox_appended == appended
    for reader in readers:
        files.validate(reader)
    login.exit_role(login_cert)
    sim.run()
    for reader in readers:
        with pytest.raises(RevokedError):
            files.validate(reader)
    assert net.unaccounted() == 0


def test_the_subscriber_is_whoever_sent_the_subscribe():
    """The issuer takes the subscriber from the channel (the calling
    node's address), never from the request, which carries refs only:
    a tail-sync call from Files subscribes Files and nobody else, and a
    call that also names Mirror is refused."""
    sim, net, linkage, login, files, mirror, certs = make_three_service_world()
    read_as(files, certs[0])
    sim.run()
    assert subscribers_of(login, certs[0]) == {"Files"}
    rpc = linkage.relay_of("Files").rpc
    named = rpc.call("oasis:Login", "tail-sync", [certs[1].crr], "Mirror")
    own = rpc.call("oasis:Login", "tail-sync", [certs[1].crr])
    sim.run()
    assert named.failed
    assert own.result()["items"] == [[certs[1].crr, "true", None]]
    assert subscribers_of(login, certs[0]) == {"Files"}
    assert subscribers_of(login, certs[1]) == {"Files"}
    assert net.unaccounted() == 0


def test_retried_subscribes_subscribe_the_sender():
    sim, net, linkage, login, files, mirror, certs = make_three_service_world()
    read_as(files, certs[0])
    sim.run_until(1.0)
    assert subscribers_of(login, certs[0]) == {"Files"}
    # a lost subscribe from Mirror lands when its call goes again
    net.set_link("oasis:Mirror", "oasis:Login", Link(loss_probability=1.0))
    read_as(mirror, certs[1])
    sim.run_until(1.5)
    net.set_link("oasis:Mirror", "oasis:Login", Link())
    sim.run_until(10.0)
    assert linkage.relay_of("Mirror").rpc.stats.timeouts == 1
    assert subscribers_of(login, certs[1]) == {"Mirror"}


def test_a_subscribe_from_an_address_with_no_service_is_ignored():
    """Nobody at a bare address could receive the notifications, so its
    tail-sync call is refused and subscribes nobody."""
    sim, net, linkage, login, files, mirror, certs = make_three_service_world()
    sim.run()
    ghost = RpcEndpoint(net, "oasis:Ghost")
    call = ghost.call("oasis:Login", "tail-sync", [certs[0].crr, certs[1].crr])
    sim.run()
    with pytest.raises(RpcError, match="no attached service"):
        call.result()
    assert subscribers_of(login, certs[0]) == set()
    assert subscribers_of(login, certs[1]) == set()
    assert login.journal.stats.tail_syncs_served == 0
    assert net.unaccounted() == 0


# -- a burst of admissions: one call per subscriber, one reply each ------------


def capture(net, lossy=()):
    """Every message put on the wire from now on, as sent (encoded).
    Those sent from an address in ``lossy`` are lost."""
    frames = []

    def inject(message, delay):
        frames.append(message)
        return None if message.source in lossy else [delay]

    net.set_fault_injector(inject)
    return frames


def sync_calls(net, frames, source):
    """(send time, refs) of each tail-sync call ``source`` sent, in send
    order."""
    calls = []
    for m in frames:
        if m.source == source and m.kind == "rpc-request":
            body = net.codec.decode(m.payload)
            if body["method"] == "tail-sync":
                calls.append((m.sent_at, list(body["args"][0])))
    return calls


def test_a_burst_of_admissions_is_one_tail_sync_call_per_subscriber():
    """Sixteen sessions enter at Files and at Mirror in one instant.
    Each subscriber sends its subscribes as one tail-sync call, and the
    issuer answers each call with one reply of stamped rows, appending
    no journal record and no outbox entry.  On fixed-delay links the
    issuer knows every subscriber one link delay later, and every reply
    has landed one delay after that; nothing is sent again."""
    sim, net, linkage, login, files, mirror, certs = make_three_service_world(16)
    sim.run()
    delay = net.link("oasis:Files", "oasis:Login").base_delay
    login_journal = linkage.durable.journal("Login")
    frames = capture(net)
    t0 = sim.now
    readers = [(read_as(files, cert), read_as(mirror, cert)) for cert in certs]
    records, appended = len(login_journal), login_journal.stats.outbox_appended
    refs = [cert.crr for cert in certs]

    sim.run_until(t0 + delay)
    assert sync_calls(net, frames, "oasis:Files") == [(t0, refs)]
    assert sync_calls(net, frames, "oasis:Mirror") == [(t0, refs)]
    assert all(subscribers_of(login, cert) == {"Files", "Mirror"} for cert in certs)

    sim.run_until(t0 + 2 * delay)
    replies = [(m.kind, m.dest) for m in frames if m.source == "oasis:Login"]
    assert sorted(replies) == [("rpc-reply", "oasis:Files"), ("rpc-reply", "oasis:Mirror")]
    assert net.in_flight == 0
    assert (len(login_journal), login_journal.stats.outbox_appended) == (records, appended)
    assert login_journal.stats.tail_syncs_served == 2

    sim.run_until(t0 + 3 * SYNC_RETRY_PERIOD)
    assert len(frames) == 2 * 2          # a call and its reply per subscriber
    # the subscriptions are in place: one logoff reaches both subscribers
    login.exit_role(certs[0])
    linkage.quiesce()
    for service, reader in zip((files, mirror), readers[0]):
        with pytest.raises(RevokedError):
            service.validate(reader)
    assert net.unaccounted() == 0


def test_a_lost_burst_is_resent_as_one_batch_one_period_later():
    """Files' burst of six subscribes is one tail-sync call, and it is
    lost.  One period after it was sent the call goes again, as one
    call, with only the refs whose surrogate remains; then a logoff
    denies."""
    sim, net, linkage, login, files, mirror, certs = make_three_service_world(6)
    sim.run()
    lossy = {"oasis:Files"}
    frames = capture(net, lossy)
    t0 = sim.now
    readers = [read_as(files, cert) for cert in certs]
    sim.run_until(t0 + SYNC_RETRY_PERIOD / 4)
    assert sync_calls(net, frames, "oasis:Files") == [(t0, [c.crr for c in certs])]
    assert all(subscribers_of(login, cert) == set() for cert in certs)

    lossy.clear()
    # Files drops its surrogate for certs[0]
    gone = files.credentials.external("Login", certs[0].crr)
    files.credentials.revoke(gone.ref)
    files.credentials.sweep()
    assert files.credentials.external("Login", certs[0].crr) is None
    sim.run_until(t0 + SYNC_RETRY_PERIOD)
    assert sync_calls(net, frames, "oasis:Files")[1:] == [
        (t0 + SYNC_RETRY_PERIOD, [c.crr for c in certs[1:]])
    ]

    sim.run_until(t0 + 4 * SYNC_RETRY_PERIOD)   # the reply lands: nothing more is sent
    assert len(sync_calls(net, frames, "oasis:Files")) == 2
    assert all(subscribers_of(login, cert) == {"Files"} for cert in certs[1:])
    assert subscribers_of(login, certs[0]) == set()
    login.exit_role(certs[1])
    linkage.quiesce()
    with pytest.raises(RevokedError):
        files.validate(readers[1])
    files.validate(readers[2])
    assert linkage.durable.conservation_breaches() == []
    assert net.unaccounted() == 0


def test_a_lost_reply_is_resent_one_period_after_the_send():
    """Login registers Files for the burst, but its reply is lost.  One
    period after the call was sent it goes again with the refs whose
    surrogate remains, and this reply lands; then a logoff denies."""
    sim, net, linkage, login, files, mirror, certs = make_three_service_world(3)
    sim.run()
    lossy = {"oasis:Login"}
    frames = capture(net, lossy)
    t0 = sim.now
    readers = [read_as(files, cert) for cert in certs]
    sim.run_until(t0 + SYNC_RETRY_PERIOD / 4)
    assert all(subscribers_of(login, cert) == {"Files"} for cert in certs)

    lossy.clear()
    gone = files.credentials.external("Login", certs[0].crr)
    files.credentials.revoke(gone.ref)
    files.credentials.sweep()
    sim.run_until(t0 + 4 * SYNC_RETRY_PERIOD)
    assert sync_calls(net, frames, "oasis:Files") == [
        (t0, [c.crr for c in certs]),
        (t0 + SYNC_RETRY_PERIOD, [c.crr for c in certs[1:]]),
    ]
    assert [m.kind for m in frames if m.source == "oasis:Login"] == ["rpc-reply"] * 2
    login.exit_role(certs[2])
    linkage.quiesce()
    with pytest.raises(RevokedError):
        files.validate(readers[2])
    files.validate(readers[1])
    assert net.unaccounted() == 0


def test_each_ref_is_resent_one_period_after_its_own_last_send():
    """Every subscribe from Files is lost.  Refs sent at different times
    come due at different times: each failed call goes again one period
    after it was sent, with its own refs.  A second entry with the same
    credential sends nothing (its surrogate exists), so its ref stays
    due one period after its first send."""
    sim, net, linkage, login, files, mirror, certs = make_three_service_world(3)
    sim.run()
    period = SYNC_RETRY_PERIOD
    a, b, c = (cert.crr for cert in certs)
    frames = capture(net, lossy={"oasis:Files"})
    t0 = sim.now
    read_as(files, certs[0])
    sim.run_until(t0 + period / 2)
    read_as(files, certs[1])
    read_as(files, certs[2])
    sim.run_until(t0 + 3 * period / 4)
    read_as(files, certs[0])
    sim.run_until(t0 + 5 * period / 2)
    sent = [(at - t0, refs) for at, refs in sync_calls(net, frames, "oasis:Files")]
    assert sent == [
        (0.0, [a]),
        (period / 2, [b, c]),
        (period, [a]),
        (3 * period / 2, [b, c]),
        (2 * period, [a]),
        (5 * period / 2, [b, c]),
    ]
    # the calls sent at 0, 1/2, 1 and 3/2 periods have timed out
    assert linkage.relay_of("Files").rpc.stats.timeouts == 4
    assert net.unaccounted() == 0


def test_a_subscribe_queued_at_a_crash_is_lost_and_resent_after_restart():
    """The relay's subscribe queue is volatile: a subscribe still queued
    for its call when its service crashes dies with it.  The restart's
    tail-sync carries every surrogate held for the issuer, so it
    registers the lost subscribe itself and resolves the surrogate,
    with nothing sent again."""
    sim, net, linkage, login, files, user = make_distributed_world()
    login_cert = login.enter_role(user.client_id, "LoggedOn", ("dm", "ely"))
    reader = files.enter_role(user.client_id, "Reader", credentials=(login_cert,))
    relay = linkage.relay_of("Files")
    assert relay.subscribes_queued()     # waiting for the zero-delay call
    sent = net.stats.messages_sent
    linkage.crash(files)
    assert not relay.subscribes_queued()
    sim.run_until(0.5)
    assert net.stats.messages_sent == sent
    assert subscribers_of(login, login_cert) == set()

    linkage.restart(files)
    sim.run_until(1.0)                   # the tail-sync has landed
    assert subscribers_of(login, login_cert) == {"Files"}
    files.validate(reader)
    sim.run_until(3 * SYNC_RETRY_PERIOD)
    assert relay.rpc.stats.calls == 1    # the restart's tail-sync, once
    assert relay.journal.stats.tail_syncs_pulled == 1
    assert linkage.durable.conservation_breaches() == []
    assert net.unaccounted() == 0
