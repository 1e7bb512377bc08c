"""Seeded overload-burst chaos soak (ISSUE 6 acceptance).

The ISSUE-5 soak proves fail-closed *correctness* under faults; this one
proves bounded *liveness* under load.  The same three-service world runs
with the overload-resilience layer switched on — an outbox bound on
admission, a degradation-enabled custode — while the fault plan drives
traffic spikes (OverloadBurst), a Login partition long enough to trip
suspicion, link flaps, loss, duplication, reordering and a crash-restart.

Swept invariants, on top of fail-closed:

* **outbox bound** — while Login's undelivered notifications to one
  destination sit at the bound, Login sheds admissions; its revocations
  are never shed, and every one lands exactly once after the heal;
* **degradation staleness** — no degraded decision is ever served
  staler than the policy's ``max_staleness``;
* **conservation** — every message offered to the network is delivered,
  in a drop counter, or in flight: ``Network.unaccounted() == 0``.

Everything is seeded: a failure replays exactly.
"""

import random

import pytest

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.linkage import SimLinkage
from repro.core.types import ObjectType
from repro.errors import AccessDenied, OasisError, RevokedError
from repro.mssa.acl import Acl
from repro.mssa.byte_segment import ByteSegmentCustode
from repro.mssa.custode import DegradationPolicy
from repro.runtime.clock import SimClock
from repro.runtime.faults import (
    ChaosController,
    CrashRestart,
    DuplicationWindow,
    FaultPlan,
    InvariantChecker,
    LinkFlap,
    LossBurst,
    OverloadBurst,
    PartitionWindow,
    ReorderWindow,
)
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

SEED = 2206
DURATION = 80.0
SETTLE = 40.0
OPS_TARGET = 400
HEARTBEAT_PERIOD = 1.0
HEARTBEAT_GRACE = 2.0
MAX_OUTAGE = 12.0
STALE_BOUND = MAX_OUTAGE + (HEARTBEAT_GRACE + 1.0) * HEARTBEAT_PERIOD + 5.0
OUTBOX_BOUND = 2       # deliberately tight so the partition makes Login shed
MAX_STALENESS = 6.0    # degradation bound, well inside the partition window
PINNED_SESSIONS = 3    # long-lived readers that stay logged in across faults


def build_plan():
    login, files, ffc = "oasis:Login", "oasis:Files", "oasis:ffc"
    events = (
        # a traffic spike on a healthy link: queues absorb it
        OverloadBurst(at=10.0, duration=3.0, source=files, dest=ffc, rate=300.0),
        # the centrepiece: Login partitioned long enough for suspicion,
        # degradation, degradation *expiry*, and an outbox jam
        PartitionWindow(
            at=20.0,
            group_a=frozenset({login}),
            group_b=frozenset({files, ffc}),
            duration=MAX_OUTAGE,
        ),
        # a second spike *during* the partition: overload and partition
        # interact on the same links and counters
        OverloadBurst(at=24.0, duration=4.0, source=files, dest=ffc, rate=400.0),
        LinkFlap(at=45.0, source=files, dest=login, duration=4.0),
        LossBurst(at=55.0, duration=5.0, probability=0.4),
        DuplicationWindow(at=58.0, duration=5.0, probability=0.4),
        ReorderWindow(at=62.0, duration=5.0, probability=0.4, max_extra_delay=0.5),
        CrashRestart(at=68.0, service="Files", downtime=4.0),
    )
    return FaultPlan(events=events, seed=SEED)


class OverloadWorld:
    def __init__(self, seed=SEED):
        self.sim = Simulator()
        self.net = Network(self.sim, seed=seed, default_delay=0.01)
        self.clock = SimClock(self.sim)
        self.registry = ServiceRegistry()
        self.linkage = SimLinkage(self.net, outbox_bound=OUTBOX_BOUND)
        self.login = OasisService(
            "Login", registry=self.registry, linkage=self.linkage, clock=self.clock
        )
        self.login.export_type(ObjectType("Login.userid"), "userid")
        self.login.add_rolefile("main", LOGIN_RDL)
        self.files = OasisService(
            "Files", registry=self.registry, linkage=self.linkage, clock=self.clock
        )
        self.files.add_rolefile("main", FILES_RDL)
        self.ffc = ByteSegmentCustode(
            "ffc",
            registry=self.registry,
            linkage=self.linkage,
            clock=self.clock,
            user_groups=lambda u: {"staff"},
            degradation=DegradationPolicy(max_staleness=MAX_STALENESS),
        )
        self.services = {
            "Login": self.login,
            "Files": self.files,
            "ffc": self.ffc.service,
        }
        for consumer in (self.files, self.ffc.service):
            self.linkage.monitor(
                self.login, consumer, period=HEARTBEAT_PERIOD, grace=HEARTBEAT_GRACE
            )
        self.host = HostOS("overload-host")
        self.acl = self.ffc.create_acl(
            Acl.parse("@staff=+r admin=+rwad", alphabet="rwad")
        )
        self.fid = self.ffc.create_segment(self.acl, b"overload payload")
        self.rng = random.Random(f"overload-ops:{seed}")
        self.sessions = []
        self.pinned = []
        self.counts = {"login": 0, "exit": 0, "enter": 0, "read": 0,
                       "skipped_down": 0}
        self.denials = 0
        self.degraded_reads = 0
        self.next_user = 0
        self.ops_done = 0
        self.admitted_while_jammed = 0
        self.max_depth = 0
        self.staleness_breaches = []

    # ------------------------------------------------------------- operations

    def up(self, name):
        return not self.chaos.is_down(name)

    def step(self):
        self.ops_done += 1
        op = self.rng.choices(
            ["login", "exit", "enter", "read"], weights=[3, 2, 3, 8]
        )[0]
        try:
            getattr(self, "_op_" + op)()
        except (RevokedError, AccessDenied):
            self.denials += 1
        except OasisError:
            self.denials += 1

    def _make_pinned(self):
        """A long-lived session, primed, that the op mix never exits.

        These model the steady clients the degradation tier exists for:
        they hold a warm cached decision when the issuer partitions.
        """
        user = f"pinned{len(self.pinned)}"
        domain = self.host.create_domain()
        cert = self.login.enter_role(
            domain.client_id, "LoggedOn", (user, "overload-host")
        )
        use_acl = self.ffc.enter_use_acl(domain.client_id, self.acl, cert)
        self.ffc.read_segment(use_acl, self.fid)
        self.pinned.append(
            {"user": user, "client": domain.client_id,
             "login_cert": cert, "reader": None, "use_acl": use_acl}
        )

    def _op_login(self):
        if not self.up("Login"):
            self.counts["skipped_down"] += 1
            return
        user = f"u{self.next_user}"
        self.next_user += 1
        domain = self.host.create_domain()
        jammed = bool(self.linkage.backpressured_of("Login"))
        cert = self.login.enter_role(domain.client_id, "LoggedOn", (user, "overload-host"))
        self.admitted_while_jammed += jammed
        self.sessions.append(
            {"user": user, "client": domain.client_id,
             "login_cert": cert, "reader": None, "use_acl": None}
        )
        self.counts["login"] += 1

    def _op_exit(self):
        if not self.up("Login") or not self.sessions:
            self.counts["skipped_down"] += 1
            return
        session = self.rng.choice(self.sessions)
        self.sessions.remove(session)
        self.login.exit_role(session["login_cert"])
        self.counts["exit"] += 1

    def _op_enter(self):
        if not self.sessions:
            return
        session = self.rng.choice(self.sessions)
        if session["reader"] is None and self.up("Files"):
            session["reader"] = self.files.enter_role(
                session["client"], "Reader", credentials=(session["login_cert"],)
            )
            self.counts["enter"] += 1
        elif session["use_acl"] is None and self.up("ffc"):
            session["use_acl"] = self.ffc.enter_use_acl(
                session["client"], self.acl, session["login_cert"]
            )
            self.counts["enter"] += 1
        else:
            self.counts["skipped_down"] += 1

    def _op_read(self):
        candidates = self.pinned + [
            s for s in self.sessions if s["use_acl"] is not None
        ]
        if not candidates or not self.up("ffc"):
            self.counts["skipped_down"] += 1
            return
        session = self.rng.choice(candidates)
        self.counts["read"] += 1
        before = self.ffc.storage.degraded_hits
        self.ffc.read_segment(session["use_acl"], self.fid)
        if self.ffc.storage.degraded_hits > before:
            self.degraded_reads += 1

    # ------------------------------------------------------------------- run

    def sweep(self):
        self.checker.check_fail_closed()
        depth = self.linkage.relay_of("Login").journal.depth
        self.max_depth = max(self.max_depth, *depth.values(), 0)
        self.staleness_breaches.extend(self.checker.check_degradation_bounds())

    def run(self):
        plan = build_plan()
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
            custodes=[self.ffc],
            journals=self.linkage.durable,
        )
        self.chaos.arm()
        for i in range(PINNED_SESSIONS):
            self.sim.schedule_at(0.1 + i * 0.1, self._make_pinned)
        spacing = DURATION / OPS_TARGET
        for i in range(OPS_TARGET):
            self.sim.schedule_at(0.5 + i * spacing, self.step)
        for i in range(int(DURATION + SETTLE)):
            self.sim.schedule_at(1.0 + i, self.sweep)
        end = max(plan.horizon(), DURATION) + SETTLE
        self.sim.schedule_at(max(plan.horizon(), DURATION) + 1.0, self.chaos.disarm)
        self.sim.run_until(end)
        return plan


@pytest.fixture(scope="module")
def soak():
    world = OverloadWorld()
    world.plan = world.run()
    return world


def test_soak_exercised_overload_machinery(soak):
    stats = soak.chaos.stats
    assert soak.ops_done >= 350
    assert stats.overload_bursts == 2
    assert stats.overload_messages >= 1000     # the spikes really fired
    # the partition jammed Login's outbox at its bound: Login shed
    # admissions (and only admissions: no record was created for them)
    assert soak.login.stats.entries_shed >= 1
    # the degradation tier served real traffic during the partition
    assert soak.degraded_reads >= 1
    assert soak.ffc.storage.degraded_hits >= 1


def test_soak_never_violates_fail_closed(soak):
    assert soak.checker.checks >= DURATION
    assert soak.checker.violations == [], "\n".join(
        str(v) for v in soak.checker.violations
    )


def test_soak_respects_queue_bounds(soak):
    """No admission got past the outbox bound, and the bound was really
    reached (revocations, never shed, may queue beyond it)."""
    assert soak.admitted_while_jammed == 0
    assert soak.max_depth >= OUTBOX_BOUND


def test_soak_respects_degradation_staleness_bound(soak):
    assert soak.staleness_breaches == []
    assert 0.0 < soak.ffc.storage.degraded_max_staleness <= MAX_STALENESS
    # the bound bit at least once: reads beyond it fell back and denied
    assert soak.ffc.storage.degraded_expired >= 1


def test_soak_accounts_for_every_message(soak):
    """Acceptance: all NetworkStats counters sum to messages offered."""
    stats = soak.net.stats
    assert stats.offered() == (
        stats.delivered
        + stats.dropped_by_loss
        + stats.dropped_while_down
        + stats.dropped_no_handler
        + stats.dropped_by_fault
        + soak.net.in_flight
    )
    assert soak.net.unaccounted() == 0


def test_soak_converges_after_faults_cease(soak):
    assert soak.checker.converged(), soak.checker.divergences()


def test_soak_conserves_every_notification(soak):
    assert soak.checker.check_outbox_conservation() == []
    assert soak.linkage.journal_quiescent()


def test_soak_replays_identically():
    def fingerprint():
        world = OverloadWorld()
        world.run()
        return (
            world.counts,
            world.denials,
            world.degraded_reads,
            world.net.stats.messages_sent,
            world.login.stats.entries_shed,
            world.chaos.stats,
            len(world.checker.violations),
        )

    assert fingerprint() == fingerprint()
