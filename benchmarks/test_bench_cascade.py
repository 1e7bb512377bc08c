"""E4 (fig 4.8, section 4.10): cross-service revocation cascades.

A chain of services, each naming its clients in terms of the previous
one's roles (Login -> Files -> Backup -> ...).  Revoking the root
membership cascades through external records and Modified events.  We
measure (a) cascade latency vs chain length on the simulated network,
and (b) the heartbeat-bounded detection window when the revocation
message itself is lost (fail closed within grace * period).
"""

import pytest

from benchmarks.conftest import record
from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.linkage import SimLinkage
from repro.core.types import ObjectType
from repro.errors import RevokedError
from repro.runtime.clock import SimClock
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator

LOGIN_RDL = "def LoggedOn(u, h)  u: userid  h: string\nLoggedOn(u, h) <- "


def build_chain(length, delay=0.01):
    sim = Simulator()
    net = Network(sim, seed=9, default_delay=delay)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(net)
    login = OasisService("Login", registry=registry, linkage=linkage, clock=clock)
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    client = HostOS("h").create_domain().client_id
    certs = [login.enter_role(client, "LoggedOn", ("dm", "h"))]
    services = [login]
    prev = "Login"
    prev_role = "LoggedOn(u, h)"
    for i in range(length):
        svc = OasisService(f"Svc{i}", registry=registry, linkage=linkage, clock=clock)
        svc.add_rolefile("main", f"Member(u) <- {prev}.{prev_role}*\n")
        certs.append(svc.enter_role(client, "Member", credentials=(certs[-1],)))
        services.append(svc)
        prev, prev_role = f"Svc{i}", "Member(u)"
    sim.run()   # settle subscriptions
    return sim, services, certs


@pytest.mark.parametrize("length", [2, 4, 8, 16])
def test_e4_cascade_latency_vs_chain_length(benchmark, length):
    """Revoke at Login; time until the leaf certificate reads revoked."""

    def run():
        sim, services, certs = build_chain(length)
        t0 = sim.now
        services[0].exit_role(certs[0])
        # drain the network; each hop adds one link delay
        sim.run()
        leaf = services[-1]
        try:
            leaf.validate(certs[-1])
            return None
        except RevokedError:
            return sim.now - t0

    latency = benchmark(run)
    assert latency is not None
    record(benchmark, chain_length=length, cascade_latency_s=round(latency, 4))
    # one link delay per hop: latency grows linearly with chain length
    assert latency == pytest.approx(length * 0.01, rel=0.5)


@pytest.mark.parametrize("period", [0.5, 2.0])
def test_e4_partition_detection_bounded_by_heartbeat(benchmark, period):
    """Lose the revocation in a partition: the consumer fails closed
    within grace*period of the cut (section 4.10)."""

    def run():
        sim, services, certs = build_chain(1)
        login, files = services[0], services[1]
        linkage = login.linkage
        linkage.monitor(login, files, period=period, grace=2.0)
        sim.run_until(sim.now + 5 * period)
        cut_at = sim.now
        linkage.network.partition({"oasis:Login"}, {f"oasis:{files.name}"})
        login.exit_role(certs[0])   # the Modified event cannot cross the cut
        while sim.now < cut_at + 20 * period:
            sim.run_until(sim.now + period / 4)
            try:
                files.validate(certs[1])
            except RevokedError as err:
                return sim.now - cut_at, err.uncertain
        return None

    detection = benchmark(run)
    assert detection is not None
    window, uncertain = detection
    # detected by heartbeat silence (Unknown), not by a delivered FALSE
    assert uncertain
    record(benchmark, heartbeat_period=period, detection_window_s=round(window, 3))
    # the window is bounded by grace * period plus one watchdog period
    assert window <= 2.0 * period + period + period / 4 + 1e-6
