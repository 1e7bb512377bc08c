"""Tests for distributed credential coherence (sections 4.9-4.10).

Covers the SimLinkage: Modified-event propagation over the simulated
network, heartbeat-driven Unknown marking, and recovery.
"""

import pytest

from repro.core import GroupService, HostOS, OasisService, ServiceRegistry
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
        """The subscribe and the reply that resolves a fail-closed Unknown
        surrogate are both urgent: the surrogate is resolved two link
        delays after entry."""
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
    """A subscribe request eaten by the network must not orphan the
    surrogate: the subscriber retries on a timer until any Modified
    event for the ref proves the issuer knows about it (ISSUE 5)."""
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
    assert linkage.subscribe_retries >= 1
    assert "Files" in login.credentials.get(login_cert.crr).subscribers
    # ...so the revocation propagates instead of leaving a stale grant
    login.exit_role(login_cert)
    sim.run_until(20.0)
    with pytest.raises(RevokedError):
        files.validate(reader)


# -- the subscriber is whoever sent the subscribe -----------------------------


def make_three_service_world():
    """Login plus two subscribers, Files and Mirror, with two sessions."""
    sim, net, linkage, login, files, user = make_distributed_world()
    mirror = OasisService(
        "Mirror", registry=files.registry, linkage=linkage, clock=files.clock
    )
    mirror.add_rolefile("main", FILES_RDL)
    host = HostOS("ely")
    certs = [
        login.enter_role(host.create_domain().client_id, "LoggedOn", (f"u{i}", "ely"))
        for i in range(2)
    ]
    return sim, net, linkage, login, files, mirror, certs


def subscribers_of(service, cert):
    return service.credentials.get(cert.crr).subscribers


def read_as(service, cert):
    return service.enter_role(cert.client, "Reader", credentials=(cert,))


def test_the_subscriber_is_whoever_sent_the_subscribe():
    """The issuer takes the subscriber from the channel (the sending
    node's address), never from a claim inside the message: items naming
    Mirror, sent from Files, subscribe Files."""
    sim, net, linkage, login, files, mirror, certs = make_three_service_world()
    read_as(files, certs[0])
    sim.run()
    assert subscribers_of(login, certs[0]) == {"Files"}
    channel = linkage.channel("Files", "Login")
    channel.send("subscribe", {"ref": certs[1].crr, "subscriber": "Mirror"}, urgent=True)
    channel.flush()
    sim.run()
    assert subscribers_of(login, certs[0]) == {"Files"}
    assert subscribers_of(login, certs[1]) == {"Files"}
    assert net.unaccounted() == 0


def test_retried_subscribes_subscribe_the_sender():
    sim, net, linkage, login, files, mirror, certs = make_three_service_world()
    read_as(files, certs[0])
    sim.run_until(1.0)
    assert subscribers_of(login, certs[0]) == {"Files"}
    # a lost subscribe from Mirror lands on its timer retry
    net.set_link("oasis:Mirror", "oasis:Login", Link(loss_probability=1.0))
    read_as(mirror, certs[1])
    sim.run_until(1.5)
    net.set_link("oasis:Mirror", "oasis:Login", Link())
    sim.run_until(10.0)
    assert linkage.subscribe_retries >= 1
    assert subscribers_of(login, certs[1]) == {"Mirror"}


def test_a_subscribe_from_an_address_with_no_service_is_ignored():
    """Nobody at a bare address could receive the notifications, so its
    subscribe items change nothing and draw no reply."""
    from repro.runtime.wire import BatchedChannel

    sim, net, linkage, login, files, mirror, certs = make_three_service_world()
    sim.run()
    net.add_node("oasis:Ghost", lambda message: None)
    ghost = BatchedChannel(net, "oasis:Ghost", "oasis:Login")
    ghost.send("subscribe", {"ref": certs[0].crr}, urgent=True)
    ghost.send("subscribe", {"ref": certs[1].crr, "subscriber": "Files"}, urgent=True)
    ghost.flush()
    sent = net.stats.messages_sent
    sim.run()
    assert subscribers_of(login, certs[0]) == set()
    assert subscribers_of(login, certs[1]) == set()
    assert net.stats.messages_sent == sent   # no reply went anywhere
    assert net.unaccounted() == 0
