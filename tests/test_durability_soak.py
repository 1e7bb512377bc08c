"""Durability soak (ISSUE 10 acceptance).

Two scenarios attack the apply-vs-notify window the transactional
outbox exists to close:

1. **Crash-mid-cascade** — the shard leader revokes 1000 certificates
   in one cascade (a 2k-record settle: every source and its surrogate
   flips) with a crash armed at the ``mid-append`` fault point: the
   journal transaction lands, then the process dies before the outbox
   drains a single notification.  Recovery must replay the local
   journal, redrain the outbox, and converge with zero fail-closed
   violations and a clean conservation sweep.

2. **Seeded journal-crash chaos soak** — a fleet runs continuous role
   entry/revocation while a seeded fault plan flaps links, drops,
   duplicates and reorders messages, and fires :class:`JournalCrash`
   events at both fault points.  Every second the fail-closed sweep and
   the outbox conservation sweep run; after the faults cease the fleet
   must converge, and the whole run must replay identically from its
   seed.
"""

import random

import pytest

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.credentials import RecordState
from repro.core.linkage import SimLinkage
from repro.core.sharding import ShardCoordinator
from repro.core.types import ObjectType
from repro.errors import OasisError
from repro.runtime.clock import SimClock
from repro.runtime.faults import (
    ChaosController,
    FaultPlan,
    InvariantChecker,
    JournalCrash,
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

SEED = 1010


def build_world(seed=SEED, delay=0.01, monitor=False):
    sim = Simulator()
    net = Network(sim, seed=seed, default_delay=delay)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(net)
    login = OasisService("Login", registry=registry, linkage=linkage, clock=clock)
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    files = OasisService("Files", registry=registry, linkage=linkage, clock=clock)
    files.add_rolefile("main", FILES_RDL)
    if monitor:
        linkage.monitor(login, files, period=1.0, grace=2.0)
    return sim, net, linkage, login, files


def surrogate_states(files):
    return {
        record.external_ref: record.state
        for record in files.credentials.externals_of("Login")
    }


# ------------------------------------------------------ crash mid-cascade


class CascadeCrashRun:
    """Kill the leader between journal append and outbox drain in the
    middle of a mass revocation, then recover."""

    PAIRS = 1000
    DOWNTIME = 3.0

    def __init__(self):
        sim, net, linkage, login, files = build_world()
        self.sim, self.net, self.linkage = sim, net, linkage
        self.login, self.files = login, files
        self.store = linkage.durable
        host = HostOS("cascade-host")
        self.pairs = []
        for i in range(self.PAIRS):
            domain = host.create_domain()
            cert = login.enter_role(domain.client_id, "LoggedOn", (f"u{i}", "h"))
            files.enter_role(domain.client_id, "Reader", credentials=(cert,))
            self.pairs.append(cert)
        sim.run_until(5.0)

        self.down = set()
        self.checker = InvariantChecker(
            [login, files],
            stale_bound=self.DOWNTIME + 10.0,
            is_down=lambda name: name in self.down,
            journals=self.store,
        )
        for i in range(40):
            sim.schedule_at(5.5 + i, self.checker.check_fail_closed)
        self.sweep_breaches = []
        for i in range(40):
            sim.schedule_at(
                5.5 + i,
                lambda: self.sweep_breaches.extend(
                    self.checker.check_outbox_conservation()
                ),
            )

        relay = linkage.relay_of("Login")
        relay.arm_crash("mid-append", self._crash_soon)
        self.changed_before = (
            login.credentials.cascade_totals.records_changed
            + files.credentials.cascade_totals.records_changed
        )
        # ONE cascade over 2k records: 1000 sources flip FALSE and every
        # surrogate must follow — this is the settle the crash interrupts
        login.credentials.revoke_many([cert.crr for cert in self.pairs])
        self.changed_local = (
            login.credentials.cascade_totals.records_changed
            + files.credentials.cascade_totals.records_changed
            - self.changed_before
        )
        sim.run_until(sim.now + self.DOWNTIME)
        self.states_during_outage = dict(surrogate_states(files))
        self.pending_during_outage = sum(
            1
            for entry in self.store.journal("Login").outbox.values()
            if entry.status == "pending"
        )
        self.down.discard("Login")
        linkage.restart(login)
        sim.run_until(sim.now + 20.0)

        self.coordinator = ShardCoordinator(net, linkage, [login, files])
        self.settle_stats = self.coordinator.settle(max_hops=6, hop_window=0.5)
        sim.run_until(45.0)
        self.changed_total = (
            login.credentials.cascade_totals.records_changed
            + files.credentials.cascade_totals.records_changed
            - self.changed_before
        )

    def _crash_soon(self):
        self.down.add("Login")
        self.sim.schedule(0.0, self.linkage.crash, self.login, name="soak-crash")


@pytest.fixture(scope="module")
def cascade():
    return CascadeCrashRun()


def test_cascade_crash_window_is_real(cascade):
    """The scenario only means something if the crash actually landed in
    the window: state applied locally, nothing notified."""
    assert cascade.changed_local >= cascade.PAIRS   # the leader applied...
    assert cascade.pending_during_outage == cascade.PAIRS   # ...but told no one
    # the full settle spans both shards: a 2k-record cascade
    assert cascade.changed_total >= 2 * cascade.PAIRS
    # during the outage the subscriber still believed the world was TRUE
    assert all(
        state is RecordState.TRUE
        for state in cascade.states_during_outage.values()
    )


def test_cascade_crash_recovers_by_local_replay(cascade):
    journal = cascade.store.journal("Login")
    assert journal.stats.replays == 1
    assert journal.stats.records_replayed > cascade.PAIRS


def test_cascade_crash_loses_no_revocation(cascade):
    states = surrogate_states(cascade.files)
    assert len(states) == cascade.PAIRS
    assert all(state is RecordState.FALSE for state in states.values())
    for cert in cascade.pairs:
        assert cascade.login.credentials.state_of(cert.crr) is RecordState.FALSE


def test_cascade_crash_never_violates_fail_closed(cascade):
    assert cascade.checker.checks >= 30
    assert cascade.checker.violations == [], "\n".join(
        str(v) for v in cascade.checker.violations
    )


def test_cascade_crash_conserves_every_notification(cascade):
    assert cascade.sweep_breaches == []
    assert cascade.store.conservation_breaches() == []
    login_journal = cascade.store.journal("Login")
    delivered = sum(
        1 for e in login_journal.outbox.values() if e.status == "delivered"
    )
    assert delivered == len(login_journal.outbox)


def test_cascade_settle_carries_journal_heads(cascade):
    heads = cascade.settle_stats.journal_heads
    assert heads.keys() == {"Login", "Files"}
    assert heads["Login"] == cascade.store.journal("Login").head()
    assert heads["Files"] == cascade.store.journal("Files").head()


# ------------------------------------------------- seeded journal-crash soak


def outbox_view_mismatches(linkage):
    """Journals whose undelivered view, DLQ or quiescence disagrees with
    a scan of the full durable outbox."""
    mismatches = []
    for name, journal in sorted(linkage.durable.journals().items()):
        full = [e for e in journal.outbox.values() if e.status != "delivered"]
        if (
            journal.unsettled() != full
            or journal.dead_letters() != [e for e in full if e.status == "dead"]
            or linkage.relay_of(name).quiescent()
            != all(e.status == "dead" for e in full)
        ):
            mismatches.append(name)
    return mismatches


DURATION = 60.0
SETTLE = 40.0
OPS_TARGET = 240
STALE_BOUND = 6.0 + 3.0 * 1.0 + 5.0   # max outage + suspicion + resend margin


class JournalChaosWorld:
    def __init__(self, seed=SEED):
        self.seed = seed
        (
            self.sim,
            self.net,
            self.linkage,
            self.login,
            self.files,
        ) = build_world(seed=seed, monitor=True)
        self.store = self.linkage.durable
        self.services = {"Login": self.login, "Files": self.files}
        self.host = HostOS("chaos-host")
        self.rng = random.Random(f"durability-ops:{seed}")
        self.sessions = []
        self.next_user = 0
        self.counts = {"enter": 0, "revoke": 0, "skipped_down": 0}
        self.denials = 0
        self.sweep_breaches = []
        self.view_mismatches = []

    def up(self, name):
        return not self.chaos.is_down(name)

    def step(self):
        try:
            if self.sessions and self.rng.random() < 0.4:
                self._op_revoke()
            else:
                self._op_enter()
        except OasisError:
            self.denials += 1

    def _op_enter(self):
        if not (self.up("Login") and self.up("Files")):
            self.counts["skipped_down"] += 1
            return
        user = f"u{self.next_user}"
        self.next_user += 1
        domain = self.host.create_domain()
        cert = self.login.enter_role(domain.client_id, "LoggedOn", (user, "h"))
        self.files.enter_role(domain.client_id, "Reader", credentials=(cert,))
        self.sessions.append(cert)
        self.counts["enter"] += 1

    def _op_revoke(self):
        if not self.up("Login"):
            self.counts["skipped_down"] += 1
            return
        cert = self.rng.choice(self.sessions)
        self.sessions.remove(cert)
        self.login.exit_role(cert)
        self.counts["revoke"] += 1

    def sweep(self):
        self.checker.check_fail_closed()
        self.sweep_breaches.extend(self.checker.check_outbox_conservation())
        self.view_mismatches.extend(
            (self.sim.now, name) for name in outbox_view_mismatches(self.linkage)
        )

    def run(self):
        base = FaultPlan.random(
            seed=self.seed,
            duration=DURATION,
            addresses=("oasis:Login", "oasis:Files"),
            services=("Login", "Files"),
            link_flaps=3,
            partitions=1,
            loss_bursts=3,
            duplication_windows=3,
            reorder_windows=2,
            crashes=0,       # wall-clock crashes would disarm the fault
            max_outage=6.0,  # points; every crash here is a JournalCrash
        )
        events = base.events + (
            JournalCrash(at=10.0, service="Login", point="mid-append", downtime=4.0),
            JournalCrash(at=25.0, service="Login", point="mid-drain", downtime=4.0),
            JournalCrash(at=40.0, service="Files", point="mid-append", downtime=4.0),
        )
        plan = FaultPlan(
            events=tuple(sorted(events, key=lambda e: e.at)), seed=self.seed
        )
        self.chaos = ChaosController(
            self.net,
            plan,
            crash=lambda name: self.linkage.crash(self.services[name]),
            restart=lambda name: self.linkage.restart(self.services[name]),
            arm_journal_crash=self.linkage.arm_journal_crash,
        )
        self.checker = InvariantChecker(
            [self.login, self.files],
            stale_bound=STALE_BOUND,
            is_down=self.chaos.is_down,
            journals=self.store,
        )
        self.chaos.arm()
        spacing = DURATION / OPS_TARGET
        for i in range(OPS_TARGET):
            self.sim.schedule_at(0.5 + i * spacing, self.step)
        for i in range(int(DURATION + SETTLE)):
            self.sim.schedule_at(1.0 + i, self.sweep)
        end = max(plan.horizon(), DURATION) + SETTLE
        self.sim.schedule_at(max(plan.horizon(), DURATION) + 1.0, self.chaos.disarm)
        self.sim.run_until(end)
        return plan

    def fingerprint(self):
        login_journal = self.store.journal("Login")
        files_journal = self.store.journal("Files")
        return (
            self.counts,
            self.denials,
            self.net.stats.messages_sent,
            self.chaos.stats,
            len(self.checker.violations),
            len(self.sweep_breaches),
            login_journal.head(),
            files_journal.head(),
            login_journal.stats.outbox_delivered,
            files_journal.stats.applied,
        )


@pytest.fixture(scope="module")
def chaos_soak():
    world = JournalChaosWorld()
    world.plan = world.run()
    return world


def test_journal_soak_fired_both_fault_points(chaos_soak):
    stats = chaos_soak.chaos.stats
    assert stats.journal_crashes >= 2
    assert stats.restarts == stats.crashes
    assert stats.messages_dropped >= 1
    assert chaos_soak.counts["enter"] >= 50
    assert chaos_soak.counts["revoke"] >= 20


def test_journal_soak_loses_no_notification(chaos_soak):
    """The exactly-once conservation sweep held every second of the run
    and at the end: every notification is delivered-and-applied-once or
    parked in the DLQ — never vanished, never double-applied."""
    assert chaos_soak.sweep_breaches == []
    assert chaos_soak.store.conservation_breaches() == []
    assert chaos_soak.linkage.journal_quiescent()
    assert chaos_soak.store.journal("Login").stats.outbox_delivered >= 1


def test_journal_soak_never_violates_fail_closed(chaos_soak):
    assert chaos_soak.checker.checks >= DURATION
    assert chaos_soak.checker.violations == [], "\n".join(
        str(v) for v in chaos_soak.checker.violations
    )


def test_journal_soak_converges_after_faults_cease(chaos_soak):
    assert chaos_soak.checker.converged(), chaos_soak.checker.divergences()
    assert chaos_soak.store.journal("Login").unsettled() == []


def test_journal_soak_undelivered_view_matches_full_outbox(chaos_soak):
    """Swept every second and once at the end: draining from the
    undelivered view loses nothing a full-outbox scan would see."""
    assert chaos_soak.view_mismatches == []
    assert outbox_view_mismatches(chaos_soak.linkage) == []


def test_journal_soak_recovered_by_replay_not_resubscribe(chaos_soak):
    login_journal = chaos_soak.store.journal("Login")
    files_journal = chaos_soak.store.journal("Files")
    assert login_journal.stats.replays + files_journal.stats.replays >= 2
    # the restarted subscriber re-learned its issuer's truth by tail-sync
    assert files_journal.stats.tail_syncs_pulled >= 1


def test_journal_soak_replays_identically():
    """Same seed, same world: the durability soak is deterministic —
    journal heads, delivery counts and fault stats all replay exactly."""

    def fingerprint():
        world = JournalChaosWorld()
        world.run()
        return world.fingerprint()

    assert fingerprint() == fingerprint()
