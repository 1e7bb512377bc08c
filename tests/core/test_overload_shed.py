"""Admission control under backpressure (ISSUE 7 satellite).

A service whose undelivered outbox entries to some destination have
reached the queue bound must not take on new state: a role entered now
would mint revocation obligations the service already cannot deliver.
The entry paths (role entry, certificate issue) consult
``Linkage.backpressured_of`` and shed early with a structured
:class:`~repro.errors.OverloadError` — no credential record is created,
so there is nothing to revoke later.
"""

import pytest

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.linkage import SimLinkage
from repro.core.types import ObjectType
from repro.errors import OverloadError
from repro.runtime.clock import SimClock
from repro.runtime.faults import InvariantChecker
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator
from repro.runtime.wire import WirePolicy

LOGIN_RDL = """
def LoggedOn(u, h)  u: userid  h: string
LoggedOn(u, h) <-
"""

FILES_RDL = """
import Login.userid
Reader(u) <- Login.LoggedOn(u, h)*
"""

MAX_QUEUE = 3


def build_world():
    sim = Simulator()
    net = Network(sim, seed=17, default_delay=0.01)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(
        net, policy=WirePolicy(max_batch=64, max_delay=0.05, max_queue=MAX_QUEUE)
    )
    login = OasisService(
        "Login", registry=registry, linkage=linkage, clock=clock
    )
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    files = OasisService(
        "Files", registry=registry, linkage=linkage, clock=clock
    )
    files.add_rolefile("main", FILES_RDL)
    linkage.monitor(login, files, period=0.5, grace=2.0)
    sim.run_until(1.0)
    return sim, net, linkage, login, files


def jam_login(sim, net, linkage, login, files, host):
    """Fill Login's outbox to Files to its queue bound: subscribe Files
    to a handful of records, cut the link to it, revoke them all."""
    sessions = []
    for index in range(MAX_QUEUE + 2):
        domain = host.create_domain()
        cert = login.enter_role(domain.client_id, "LoggedOn", (f"u{index}", "h"))
        files.enter_role(domain.client_id, "Reader", credentials=(cert,))
        sessions.append(cert)
    sim.run_until(sim.now + 2.0)
    net.set_link_state("oasis:Login", "oasis:Files", False)
    for cert in sessions:
        login.exit_role(cert)
    sim.run_until(sim.now + 1.0)     # the deliveries fail into the dead link
    assert linkage.backpressured_of("Login") == ["Files"], "setup failed to jam the outbox"


def test_role_entry_sheds_when_outbound_channels_are_jammed():
    """The outbox, not a wire channel, is the jammed queue."""
    sim, net, linkage, login, files = build_world()
    host = HostOS("shed-host")
    jam_login(sim, net, linkage, login, files, host)

    domain = host.create_domain()
    with pytest.raises(OverloadError) as excinfo:
        login.enter_role(domain.client_id, "LoggedOn", ("newcomer", "h"))
    assert "overloaded" in str(excinfo.value)
    assert login.stats.entries_shed == 1
    # an unjammed service is unaffected
    assert files.stats.entries_shed == 0


def test_certificate_issue_sheds_when_jammed():
    sim, net, linkage, login, files = build_world()
    host = HostOS("shed-host")
    domain = host.create_domain()
    keeper = login.enter_role(domain.client_id, "LoggedOn", ("keeper", "h"))
    jam_login(sim, net, linkage, login, files, host)
    with pytest.raises(OverloadError):
        login.delegate(keeper, "LoggedOn")
    assert login.stats.entries_shed == 1


def test_entry_recovers_after_link_restores_and_queue_drains():
    sim, net, linkage, login, files = build_world()
    host = HostOS("shed-host")
    jam_login(sim, net, linkage, login, files, host)
    domain = host.create_domain()
    with pytest.raises(OverloadError):
        login.enter_role(domain.client_id, "LoggedOn", ("early", "h"))

    net.set_link_state("oasis:Login", "oasis:Files", True)
    sim.run_until(sim.now + 3.0)     # the parked backlog is redelivered
    assert not linkage.backpressured_of("Login")
    cert = login.enter_role(domain.client_id, "LoggedOn", ("late", "h"))
    assert login.validate(cert) is cert


def test_shedding_can_be_disabled():
    sim, net, linkage, login, files = build_world()
    host = HostOS("shed-host")
    jam_login(sim, net, linkage, login, files, host)
    login.shed_on_overload = False
    domain = host.create_domain()
    cert = login.enter_role(domain.client_id, "LoggedOn", ("forced", "h"))
    assert cert is not None
    assert login.stats.entries_shed == 0


# -- the journaled path: Login partitioned from both shards -----------------

PROBE_BOUND = 32
PROBE_SHARDS = ("bsc0", "bsc1")
PROBE_PERIOD = 0.5
PROBE_RTT = 0.02


def test_partitioned_issuer_sheds_admissions_at_the_outbox_bound():
    """Login is cut off from both shards.  Each cycle revokes residents
    (never shed: the revocations queue in the outbox) and tries to admit
    newcomers.  Admissions succeed while every destination's undelivered
    outbox depth is under the bound and are shed once one reaches it;
    after the heal the backlog lands exactly once and admissions resume
    within a heartbeat period and a few round trips."""
    sim = Simulator()
    net = Network(sim, seed=17, default_delay=PROBE_RTT / 2)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(net, policy=WirePolicy(max_batch=16, max_queue=PROBE_BOUND))
    login = OasisService("Login", registry=registry, linkage=linkage, clock=clock)
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    shards = []
    for name in PROBE_SHARDS:
        shard = OasisService(name, registry=registry, linkage=linkage, clock=clock)
        shard.add_rolefile("main", FILES_RDL)
        linkage.monitor(login, shard, period=PROBE_PERIOD, grace=2.0)
        shards.append(shard)
    host = HostOS("probe-host")
    residents = []
    for index in range(128):
        client = host.create_domain().client_id
        cert = login.enter_role(client, "LoggedOn", (f"r{index}", "h"))
        shards[index % 2].enter_role(client, "Reader", credentials=(cert,))
        residents.append(cert)
    sim.run_until(2.0)
    checker = InvariantChecker([login] + shards, stale_bound=1.0, journals=linkage.durable)
    login_nodes = {"oasis:Login"}
    shard_nodes = {f"oasis:{name}" for name in PROBE_SHARDS}
    net.partition(login_nodes, shard_nodes)
    depth = linkage.relay_of("Login").journal.depth

    admitted = shed = 0
    for cycle in range(8):
        for cert in residents[cycle * 16:(cycle + 1) * 16]:
            login.exit_role(cert)
        sim.run_until(sim.now + 0.5)
        jammed = max(depth.get(name, 0) for name in PROBE_SHARDS) >= PROBE_BOUND
        assert bool(linkage.backpressured_of("Login")) == jammed
        for index in range(16):
            client = host.create_domain().client_id
            args = (f"n{cycle}.{index}", "h")
            if jammed:
                with pytest.raises(OverloadError):
                    login.enter_role(client, "LoggedOn", args)
                shed += 1
            else:
                login.enter_role(client, "LoggedOn", args)
                admitted += 1
        checker.check_fail_closed()
    # 8 revocations per shard per cycle: the bound is reached after 4
    assert admitted == 3 * 16 and shed == 5 * 16
    assert login.stats.entries_shed == shed
    assert max(depth[name] for name in PROBE_SHARDS) == 64   # revocations all queued

    # the heal is seen at the next heartbeat (one period); the restore
    # then has Login redeliver its parked backlog at once, so shedding
    # stops a few round trips later instead of after the DLQ backoff
    healed_at = sim.now
    net.heal(login_nodes, shard_nodes)
    sim.run_until(healed_at + PROBE_PERIOD + 4 * PROBE_RTT)
    assert linkage.backpressured_of("Login") == []
    assert linkage.relay_of("Login").journal.stats.outbox_redelivered >= PROBE_BOUND
    sim.run_until(healed_at + 5.0)
    assert not any(depth.values())
    login.enter_role(host.create_domain().client_id, "LoggedOn", ("late", "h"))
    assert checker.check_fail_closed() == [] and checker.violations == []
    assert checker.converged()
    assert checker.check_outbox_conservation() == []
    assert linkage.journal_quiescent()
