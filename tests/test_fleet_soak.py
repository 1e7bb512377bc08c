"""Fleet-scale kernel soaks.

Two complementary checks on the simulation kernel at fleet scale:

* a 200-service profiled chaos soak — one Login issuer and 199 consumer
  services with live surrogates, heartbeat monitoring and a seeded fault
  plan — asserting zero fail-closed violations and that the profiling
  layer attributes the full event stream to the expected subsystems;

* byte-identical event ordering between the kernel and the tests'
  reference heap (tests/heap_kernel.py): the *existing* chaos soak
  (tests/test_chaos_soak.py, same seed, same fault plan) and its
  invariant sweeps must replay event-for-event on both kernels.
"""

import hashlib

import pytest

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.linkage import SimLinkage
from repro.core.types import ObjectType
from repro.runtime.clock import SimClock
from repro.runtime.faults import ChaosController, FaultPlan, InvariantChecker
from repro.runtime.network import Network
from repro.runtime.profile import SimProfile
from repro.runtime.simulator import Simulator

from tests.heap_kernel import HeapSimulator
from tests.test_chaos_soak import (
    HEARTBEAT_GRACE,
    HEARTBEAT_PERIOD,
    MAX_OUTAGE,
    STALE_BOUND,
    SoakWorld,
)

LOGIN_RDL = """
def LoggedOn(u, h)  u: userid  h: string
LoggedOn(u, h) <-
"""

CONSUMER_RDL = """
import Login.userid
Reader(u) <- Login.LoggedOn(u, h)*
"""

FLEET_SEED = 907
FLEET_SERVICES = 200           # 1 issuer + 199 consumers
FLEET_USERS = 60
FLEET_DURATION = 40.0          # fault window (virtual seconds)
FLEET_SETTLE = 20.0


class FleetWorld:
    """A 200-service fleet: one Login issuer, 199 consumers with
    monitored linkage and live surrogate credentials."""

    def __init__(self, seed=FLEET_SEED):
        self.sim = Simulator()
        self.net = Network(self.sim, seed=seed, default_delay=0.01)
        self.clock = SimClock(self.sim)
        self.registry = ServiceRegistry()
        self.linkage = SimLinkage(self.net)
        self.login = OasisService(
            "Login", registry=self.registry, linkage=self.linkage, clock=self.clock
        )
        self.login.export_type(ObjectType("Login.userid"), "userid")
        self.login.add_rolefile("main", LOGIN_RDL)
        self.consumers = []
        for i in range(FLEET_SERVICES - 1):
            consumer = OasisService(
                f"Svc{i:03d}",
                registry=self.registry,
                linkage=self.linkage,
                clock=self.clock,
            )
            consumer.add_rolefile("main", CONSUMER_RDL)
            self.consumers.append(consumer)
        self.services = {"Login": self.login}
        self.services.update((c.name, c) for c in self.consumers)
        self.host = HostOS("fleet-host")

    def populate(self):
        """Log users in and spread Reader surrogates across the fleet."""
        import random

        rng = random.Random(f"fleet-pop:{FLEET_SEED}")
        self._rng = rng
        self.surrogate_consumers = set()
        self.sessions = []
        self.next_user = 0
        for _ in range(FLEET_USERS):
            self._login_one()
        # heartbeat-monitor the whole fleet: every consumer watches the
        # issuer so Unknown marking works wherever surrogates live.  Done
        # exactly once — monitor() builds a fresh sender/monitor pair, and
        # a replaced monitor's watchdog would keep suspecting forever.
        for consumer in self.consumers:
            self.linkage.monitor(
                self.login,
                consumer,
                period=HEARTBEAT_PERIOD,
                grace=HEARTBEAT_GRACE,
            )

    def _login_one(self):
        user = f"u{self.next_user}"
        self.next_user += 1
        domain = self.host.create_domain()
        cert = self.login.enter_role(
            domain.client_id, "LoggedOn", (user, "fleet-host")
        )
        for consumer in self._rng.sample(self.consumers, 3):
            consumer.enter_role(domain.client_id, "Reader", credentials=(cert,))
            self.surrogate_consumers.add(consumer.name)
        self.sessions.append(cert)

    def churn(self):
        """One session cycles: oldest user out (revocation cascade to its
        three consumers), a fresh user in."""
        from repro.errors import OasisError

        try:
            if self.sessions and not self.chaos.is_down("Login"):
                self.login.exit_role(self.sessions.pop(0))
            if not self.chaos.is_down("Login"):
                self._login_one()
        except OasisError:
            pass  # a consumer crashed mid-cascade; safety is swept separately

    def run(self, profile=None):
        if profile is not None:
            profile.attach(self.sim)
        plan = FaultPlan.random(
            seed=FLEET_SEED,
            duration=FLEET_DURATION,
            addresses=tuple(
                SimLinkage.address_of(n)
                for n in list(self.services)[:24]
            ),
            services=tuple(list(self.services)[:24]),
            link_flaps=4,
            partitions=2,
            loss_bursts=3,
            duplication_windows=2,
            reorder_windows=2,
            crashes=2,
            max_outage=MAX_OUTAGE,
        )
        self.chaos = ChaosController(
            self.net,
            plan,
            crash=lambda name: self.linkage.crash(self.services[name]),
            restart=lambda name: self.linkage.restart(self.services[name]),
        )
        self.checker = InvariantChecker(
            list(self.services.values()),
            stale_bound=STALE_BOUND,
            is_down=self.chaos.is_down,
            journals=self.linkage.durable,
        )
        self.chaos.arm()
        sweeps = int(FLEET_DURATION + FLEET_SETTLE)
        for i in range(sweeps):
            self.sim.schedule_at(1.0 + i, self.checker.check_fail_closed)
        for i in range(int(FLEET_DURATION)):
            self.sim.schedule_at(0.7 + i, self.churn)
        end = max(plan.horizon(), FLEET_DURATION) + FLEET_SETTLE
        self.sim.schedule_at(
            max(plan.horizon(), FLEET_DURATION) + 1.0, self.chaos.disarm
        )
        self.sim.run_until(end)
        return plan


@pytest.fixture(scope="module")
def fleet():
    world = FleetWorld()
    world.populate()
    world.profile = SimProfile()
    world.run(profile=world.profile)
    return world


def test_fleet_soak_zero_fail_closed_violations(fleet):
    assert fleet.checker.checks >= FLEET_DURATION
    assert fleet.checker.violations == [], "\n".join(
        str(v) for v in fleet.checker.violations
    )
    assert fleet.checker.converged(), fleet.checker.divergences()
    assert fleet.checker.check_outbox_conservation() == []
    assert fleet.linkage.journal_quiescent()


def test_fleet_soak_actually_exercised_the_fleet(fleet):
    stats = fleet.chaos.stats
    assert stats.partitions >= 1 and stats.heals == stats.partitions
    assert stats.crashes >= 1 and stats.restarts == stats.crashes
    # heartbeat chains ran fleet-wide for the whole soak
    assert len(fleet.linkage._monitors) > 100
    assert fleet.sim.events_processed > 10_000


def test_fleet_soak_profile_attributes_the_event_stream(fleet):
    report = fleet.profile.report()
    assert report["total_events"] == fleet.sim.events_processed
    # the big three subsystems of a heartbeat-dominated fleet soak:
    # heartbeats, deliveries and the outbox relay's RPC timers
    for subsystem in ("hb", "deliver", "rpc"):
        assert subsystem in report["subsystems"], sorted(report["subsystems"])
    # heartbeats dominate event count in an idle-ish fleet
    assert report["subsystems"]["hb"]["events"] > report["total_events"] * 0.3
    shares = sum(r["events_share"] for r in report["subsystems"].values())
    assert abs(shares - 1.0) < 1e-9


# ------------------------------------------------- cross-kernel soak replay


def _traced_soak(sim_factory):
    """Run the existing chaos soak with a dispatch tracer; digest the
    full (time, name) event stream."""
    world = SoakWorld(sim_factory=sim_factory)
    digest = hashlib.blake2b(digest_size=16)
    world.sim.set_tracer(
        lambda time, name: digest.update(f"{time!r}|{name}\n".encode())
    )
    world.run()
    return world, digest.hexdigest()


def test_existing_chaos_soak_is_byte_identical_across_kernels():
    """Same seed -> same events_processed, same event ordering (digest
    over every dispatch), same invariant sweep results, on the kernel
    and the reference heap."""
    kernel, kernel_digest = _traced_soak(Simulator)
    heap, heap_digest = _traced_soak(HeapSimulator)
    assert kernel_digest == heap_digest
    assert kernel.sim.events_processed == heap.sim.events_processed
    assert kernel.checker.checks == heap.checker.checks
    assert len(kernel.checker.violations) == len(heap.checker.violations)
    assert kernel.checker.divergences() == heap.checker.divergences()
    assert kernel.counts == heap.counts
    assert kernel.denials == heap.denials
    assert kernel.net.stats == heap.net.stats
