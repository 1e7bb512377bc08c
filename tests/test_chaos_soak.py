"""Seeded chaos soak (ISSUE 5 acceptance).

Three services — a Login issuer, a plain consuming service and a
flat-file custode — run ~600 operations while a seeded fault plan
flaps links, partitions the network, drops/duplicates/reorders
messages and crash-restarts services.  Throughout, the fail-closed
invariant is swept: no access is ever granted through a surrogate
that is not TRUE at its issuer (beyond the propagation allowance).
After the faults cease, every external record converges to issuer
truth within a bounded settle time.

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
from repro.runtime.clock import SimClock
from repro.runtime.faults import ChaosController, FaultPlan, InvariantChecker
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

SEED = 1105
DURATION = 120.0          # fault window (virtual seconds)
SETTLE = 40.0             # convergence allowance after the last fault
OPS_TARGET = 600
HEARTBEAT_PERIOD = 1.0
HEARTBEAT_GRACE = 2.0
MAX_OUTAGE = 8.0
# propagation allowance: suspicion latency ((grace+1) periods) + the
# longest fault window that can mask traffic without tripping suspicion
# + nack-driven resend latency + margin
STALE_BOUND = MAX_OUTAGE + (HEARTBEAT_GRACE + 1.0) * HEARTBEAT_PERIOD + 5.0


class SoakWorld:
    def __init__(self, seed=SEED, sim_factory=Simulator):
        # sim_factory lets the kernel-equivalence tests run the identical
        # soak on the heap-only baseline kernel (see test_fleet_soak.py)
        self.sim = sim_factory()
        self.net = Network(self.sim, seed=seed, default_delay=0.01)
        self.clock = SimClock(self.sim)
        self.registry = ServiceRegistry()
        self.linkage = SimLinkage(self.net)
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
        self.host = HostOS("soak-host")
        self.acl = self.ffc.create_acl(
            Acl.parse("@staff=+r admin=+rwad", alphabet="rwad")
        )
        self.acl_open = Acl.parse("@staff=+r admin=+rwad", alphabet="rwad")
        self.acl_admin_only = Acl.parse("admin=+rwad", alphabet="rwad")
        self.fid = self.ffc.create_segment(self.acl, b"soak payload")
        # the admin session drives modify_acl and is never logged out
        admin_domain = self.host.create_domain()
        self.admin_domain_client = admin_domain.client_id
        self.admin_login = self.login.enter_role(
            self.admin_domain_client, "LoggedOn", ("admin", "soak-host")
        )
        self.admin_cert = self.ffc.enter_use_acl(
            self.admin_domain_client, self.acl, self.admin_login
        )
        self.rng = random.Random(f"soak-ops:{seed}")
        self.sessions = []    # [{user, login_cert, reader, use_acl}]
        self.counts = {
            "login": 0, "exit": 0, "enter": 0, "validate": 0,
            "read": 0, "modify_acl": 0, "skipped_down": 0,
        }
        self.denials = 0
        self.next_user = 0
        self.ops_done = 0
        self._acl_is_open = True

    # ------------------------------------------------------------- operations

    def up(self, name):
        return not self.chaos.is_down(name)

    def step(self):
        self.ops_done += 1
        op = self.rng.choices(
            ["login", "exit", "enter", "validate", "read", "modify_acl"],
            weights=[3, 2, 3, 5, 5, 1],
        )[0]
        try:
            getattr(self, "_op_" + op)()
        except (RevokedError, AccessDenied):
            self.denials += 1
        except OasisError:
            # e.g. entering with a certificate revoked mid-flight: the
            # soak cares about safety, not liveness of individual ops
            self.denials += 1

    def _op_login(self):
        if not self.up("Login"):
            self.counts["skipped_down"] += 1
            return
        user = f"u{self.next_user}"
        self.next_user += 1
        domain = self.host.create_domain()
        cert = self.login.enter_role(
            domain.client_id, "LoggedOn", (user, "soak-host")
        )
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

    def _op_validate(self):
        candidates = [s for s in self.sessions if s["reader"] is not None]
        if not candidates or not self.up("Files"):
            self.counts["skipped_down"] += 1
            return
        session = self.rng.choice(candidates)
        self.counts["validate"] += 1
        self.files.validate(session["reader"])

    def _op_read(self):
        candidates = [s for s in self.sessions if s["use_acl"] is not None]
        if not candidates or not self.up("ffc"):
            self.counts["skipped_down"] += 1
            return
        session = self.rng.choice(candidates)
        self.counts["read"] += 1
        self.ffc.read_segment(session["use_acl"], self.fid)

    def _op_modify_acl(self):
        if not self.up("ffc"):
            self.counts["skipped_down"] += 1
            return
        new = self.acl_admin_only if self._acl_is_open else self.acl_open
        self._acl_is_open = not self._acl_is_open
        self.counts["modify_acl"] += 1
        self.ffc.modify_acl(self.admin_cert, self.acl, new)
        # every UseAcl certificate died with the version record; holders
        # will re-enter on later ops
        for session in self.sessions:
            session["use_acl"] = None
        self.admin_cert = self.ffc.enter_use_acl(
            self.admin_domain_client, self.acl, self.admin_login
        )

    # ------------------------------------------------------------------- run

    def run(self):
        plan = FaultPlan.random(
            seed=SEED,
            duration=DURATION,
            addresses=tuple(f"oasis:{n}" for n in self.services),
            services=tuple(self.services),
            link_flaps=4,
            partitions=3,
            loss_bursts=3,
            duplication_windows=3,
            reorder_windows=3,
            crashes=3,
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
        spacing = DURATION / OPS_TARGET
        for i in range(OPS_TARGET):
            self.sim.schedule_at(0.5 + i * spacing, self.step)
        sweeps = int(DURATION + SETTLE)
        for i in range(sweeps):
            self.sim.schedule_at(1.0 + i, self.checker.check_fail_closed)
        end = max(plan.horizon(), DURATION) + SETTLE
        self.sim.schedule_at(max(plan.horizon(), DURATION) + 1.0, self.chaos.disarm)
        self.sim.run_until(end)
        return plan


@pytest.fixture(scope="module")
def soak():
    world = SoakWorld()
    world.plan = world.run()
    return world


def test_soak_exercised_the_full_fault_taxonomy(soak):
    stats = soak.chaos.stats
    assert soak.ops_done >= 500
    assert stats.partitions >= 1 and stats.heals == stats.partitions
    assert stats.crashes >= 1 and stats.restarts == stats.crashes
    assert stats.link_flaps >= 1
    assert stats.messages_dropped >= 1
    assert stats.messages_duplicated >= 1
    assert stats.messages_reordered >= 1
    # the mix actually ran: every operation class fired
    for op in ("login", "exit", "enter", "validate", "read", "modify_acl"):
        assert soak.counts[op] >= 1, soak.counts


def test_soak_never_violates_fail_closed(soak):
    assert soak.checker.checks >= DURATION
    assert soak.checker.violations == [], "\n".join(
        str(v) for v in soak.checker.violations
    )


def test_soak_converges_after_faults_cease(soak):
    assert soak.checker.converged(), soak.checker.divergences()


def test_soak_conserves_every_notification(soak):
    """Every outbox entry is applied exactly once or parked, and nothing
    is pending or in flight once the faults have ceased."""
    assert soak.checker.check_outbox_conservation() == []
    assert soak.linkage.journal_quiescent()


def test_soak_recovery_machinery_was_used(soak):
    """The pass is meaningful only if the recovery paths actually ran."""
    monitors = soak.linkage._monitors.values()
    assert any(m.stats.suspicions >= 1 for m in monitors)
    assert sum(m.stats.epoch_changes for m in monitors) >= 1 or all(
        event.service not in ("Login",)
        for event in soak.plan.events
        if type(event).__name__ == "CrashRestart"
    )


def test_soak_replays_identically():
    """Same seed, same world: the chaos run is deterministic."""

    def fingerprint():
        world = SoakWorld()
        world.run()
        return (
            world.counts,
            world.denials,
            world.net.stats.messages_sent,
            world.chaos.stats,
            len(world.checker.violations),
        )

    assert fingerprint() == fingerprint()
