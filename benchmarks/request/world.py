"""The shared world every workload of the request benchmark runs in.

One process and one client thread drive a closed loop: the next client
call starts only after the previous one returns.  A :class:`World` is a
``Login`` service plus two byte-segment custode shards (``bsc0``,
``bsc1``, one follower replica each) behind a ``StorageFleet``, all three
journaled and Login heartbeat-monitored by both shards, over a seeded
simulated network.

Client calls go through the helpers here.  Each helper times the call,
counts it, and checks its answer: a read must return the bytes written,
a read by a live session must be granted, and a revoked session must be
denied within :data:`DENY_DEADLINE` virtual seconds.  A failed check
raises :class:`GateFailure`, which voids the run.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.linkage import SimLinkage
from repro.core.sharding import StorageFleet, StorageShard
from repro.core.types import ObjectType
from repro.errors import OasisError, RevokedError
from repro.mssa.acl import Acl
from repro.mssa.byte_segment import ByteSegmentCustode
from repro.runtime.clock import SimClock
from repro.runtime.faults import InvariantChecker
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator

SHARDS = ("bsc0", "bsc1")
FILES = 64
FILE_BYTES = 256
NET_DELAY = 0.01
NET_JITTER = 0.005
HEARTBEAT_PERIOD = 0.5
HEARTBEAT_GRACE = 2.0
# A revoked session still granted this many virtual seconds after its
# revocation fails the run.
DENY_DEADLINE = 30.0
# Virtual seconds between fail-closed sweeps, and the quiet period the
# final gates let the world settle for.
SWEEP_EVERY = 1.0
SETTLE = 5.0

LOGIN_RDL = """
def LoggedOn(u, h)  u: userid  h: string
LoggedOn(u, h) <-
"""

# Kernel events after which a revoked session can newly read as denied:
# network deliveries and journal outbox work.  Deny probes run only
# after one of these.
_DELIVERY_PREFIXES = ("deliver:", "journal-")


class GateFailure(Exception):
    """A correctness gate failed; the run's numbers are void."""


def _staff(_user: str) -> set:
    return {"staff"}


@dataclass
class Session:
    """One admitted principal: a Login certificate plus a UseAcl
    certificate at the shard holding its home file."""

    login_cert: object
    use_cert: object
    shard: str
    fid: object
    data: bytes


class World:
    """The services, the network and the measurement state of one round."""

    def __init__(self, seed: int, residents: int, stale_bound: float = 1.0):
        self.seed = seed
        self.rng = random.Random(f"request-bench:{seed}")
        self.sim = Simulator()
        self.net = Network(
            self.sim, seed=seed, default_delay=NET_DELAY, default_jitter=NET_JITTER
        )
        clock = SimClock(self.sim)
        registry = ServiceRegistry()
        self.linkage = SimLinkage(self.net)
        self.login = OasisService(
            "Login", registry=registry, linkage=self.linkage, clock=clock
        )
        self.login.export_type(ObjectType("Login.userid"), "userid")
        self.login.add_rolefile("main", LOGIN_RDL)
        self.custodes = {
            name: ByteSegmentCustode(
                name, registry=registry, linkage=self.linkage, clock=clock,
                user_groups=_staff,
            )
            for name in SHARDS
        }
        self.services = [self.login] + [c.service for c in self.custodes.values()]
        for service in self.services:
            self.linkage.enable_journal(service, seed=seed)
        for custode in self.custodes.values():
            self.linkage.monitor(
                self.login, custode.service,
                period=HEARTBEAT_PERIOD, grace=HEARTBEAT_GRACE,
            )
        self.fleet = StorageFleet(
            [StorageShard(custode, followers=1) for custode in self.custodes.values()]
        )
        self.acls = {name: Acl.parse("@staff=+r", alphabet="rw") for name in SHARDS}
        self.acl_ids = {
            name: custode.create_acl(self.acls[name])
            for name, custode in self.custodes.items()
        }
        self.files: list[tuple[object, bytes]] = []
        self.files_on: dict[str, list[tuple[object, bytes]]] = {n: [] for n in SHARDS}
        for index in range(FILES):
            shard = self.fleet.place(f"file{index}")
            data = self.rng.randbytes(FILE_BYTES)
            fid = shard.custode.create_segment(self.acl_ids[shard.name], data)
            self.files.append((fid, data))
            self.files_on[shard.name].append((fid, data))
        self.host = HostOS("bench-clients")
        self._principals = 0

        self.start_timing()         # set-up admissions are timed, then dropped
        self.tracer = None          # a LayerTracer during traced rounds
        self.is_down: Callable[[str], bool] = lambda _name: False
        self._saw_delivery = False
        self.sim.set_tracer(self._on_dispatch)

        self.residents = [self.admit() for _ in range(residents)]
        self.sim.run_until(self.sim.now + 1.0)   # subscriptions settle
        self.checker = InvariantChecker(
            self.services,
            stale_bound=stale_bound,
            is_down=lambda name: self.is_down(name),
            journals=self.linkage.durable,
        )
        self._next_sweep = self.sim.now + SWEEP_EVERY

    # ------------------------------------------------------------ measuring

    def start_timing(self) -> float:
        """Forget everything measured during set-up; returns the start
        time of the timed phase."""
        self.calls = 0
        self.samples: dict[str, list[float]] = {
            "entry": [], "access": [], "propagate": [], "request": [],
        }
        self.deny_ms: list[float] = []
        self.untimed_s = 0.0
        return perf_counter()

    @contextmanager
    def untimed(self):
        """Harness work (sweeps, gates) inside the timed phase: excluded
        from the timed wall time and from the layer trace."""
        started = perf_counter()
        if self.tracer is not None:
            self.tracer.pause()
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.resume()
            self.untimed_s += perf_counter() - started

    def _on_dispatch(self, time: float, name: str) -> None:
        if name.startswith(_DELIVERY_PREFIXES):
            self._saw_delivery = True
        if self.tracer is not None:
            self.tracer.on_dispatch(name)

    # --------------------------------------------------------- client calls

    def pick_file(self, shard: Optional[str] = None) -> tuple[object, bytes]:
        return self.rng.choice(self.files if shard is None else self.files_on[shard])

    def admit(self, home: Optional[tuple[object, bytes]] = None) -> Session:
        """Login entry plus ``enter_use_acl`` at the home file's shard
        (a remote validate at Login and a surrogate subscribe)."""
        fid, data = home or self.pick_file()
        shard = fid.custode
        self._principals += 1
        client = self.host.create_domain().client_id
        started = perf_counter()
        login_cert = self.login.enter_role(
            client, "LoggedOn", (f"u{self._principals}", "bench")
        )
        use_cert = self.custodes[shard].enter_use_acl(
            client, self.acl_ids[shard], login_cert
        )
        elapsed = perf_counter() - started
        self.calls += 2
        self.samples["entry"].append(elapsed)
        return Session(login_cert, use_cert, shard, fid, data)

    def read(self, session: Session, fid=None, data: Optional[bytes] = None) -> None:
        """One ``read_segment`` by a live session: must grant, and must
        return the bytes written."""
        if fid is None:
            fid, data = session.fid, session.data
        started = perf_counter()
        try:
            got = self.fleet.read_segment(session.use_cert, fid)
        except OasisError as exc:
            raise GateFailure(f"live session denied reading {fid}: {exc!r}") from exc
        self.samples["access"].append(perf_counter() - started)
        self.calls += 1
        if got != data:
            raise GateFailure(f"read of {fid} returned other bytes than written")

    def validate(self, session: Session) -> None:
        """One ``validate_for_peer`` at Login by a live session."""
        started = perf_counter()
        try:
            self.login.validate_for_peer(session.login_cert)
        except OasisError as exc:
            raise GateFailure(f"live session failed validation: {exc!r}") from exc
        self.samples["access"].append(perf_counter() - started)
        self.calls += 1

    def revoke(self, sessions: list[Session]) -> None:
        """Log ``sessions`` off at Login (one ``exit_role``, or one
        ``exit_roles`` for several), then step the kernel until every
        one of them is denied at its shard.  Records the host time of the
        revoke call plus the stepping (deny probes excluded) and the
        virtual revoke-to-deny latency."""
        revoked_at = self.sim.now
        started = perf_counter()
        if len(sessions) == 1:
            self.login.exit_role(sessions[0].login_cert)
        else:
            self.login.exit_roles([s.login_cert for s in sessions])
        spent = perf_counter() - started
        # the logoff, plus the one denied read per session that the
        # stepping waits for; the probes themselves are untimed
        self.calls += 1 + len(sessions)
        pending = list(sessions)
        deadline = revoked_at + DENY_DEADLINE
        while pending:
            self._saw_delivery = False
            started = perf_counter()
            self.sim.step()
            spent += perf_counter() - started
            if self._saw_delivery:
                with self.untimed():
                    # denial is permanent, so probing may stop at the
                    # first session still granted: the step that denies
                    # the last one is found all the same
                    while pending and self._denied(pending[-1]):
                        pending.pop()
            if pending and self.sim.now > deadline:
                raise GateFailure(
                    f"{len(pending)} revoked session(s) still granted "
                    f"{DENY_DEADLINE}s after revocation"
                )
        self.samples["propagate"].append(spent)
        self.deny_ms.append((self.sim.now - revoked_at) * 1e3)

    def _denied(self, session: Session) -> bool:
        """Deny probe: a read by a revoked session.  Unreachable shards
        are not probed."""
        if self.is_down(session.shard):
            return False
        try:
            got = self.fleet.read_segment(session.use_cert, session.fid)
        except RevokedError:
            return True
        except OasisError as exc:
            raise GateFailure(f"deny probe failed otherwise: {exc!r}") from exc
        if got != session.data:
            raise GateFailure(f"read of {session.fid} returned other bytes than written")
        return False

    def advance(self, seconds: float) -> None:
        """Let virtual time pass (heartbeats, deliveries, fault events)."""
        self.sim.run_until(self.sim.now + seconds)

    # ---------------------------------------------------------------- gates

    def sweep(self) -> None:
        """Run the fail-closed sweep once per :data:`SWEEP_EVERY` virtual
        seconds (call between client calls)."""
        if self.sim.now >= self._next_sweep:
            with self.untimed():
                self.checker.check_fail_closed()
                self._next_sweep = self.sim.now + SWEEP_EVERY

    def final_gates(self) -> None:
        """Drain every outbox, let the world settle, then require that no
        message went unaccounted, every notification was applied exactly
        once, no grant outlived its revocation, and every surrogate agrees
        with its issuer."""
        for service in self.services:
            self.linkage.drain_journal_of(service.name)
        self.sim.run_until(self.sim.now + SETTLE)
        self.checker.check_fail_closed()
        failures = []
        if self.net.unaccounted() != 0:
            failures.append(f"{self.net.unaccounted()} messages unaccounted")
        if not self.linkage.journal_quiescent():
            failures.append("journal outboxes not quiescent after the final drain")
        failures += self.linkage.durable.conservation_breaches()[:5]
        failures += [str(v) for v in self.checker.violations[:5]]
        divergent = self.checker.divergences()
        if divergent:
            failures.append(f"{len(divergent)} surrogates disagree with their issuer")
        if failures:
            raise GateFailure("; ".join(failures))

    def fingerprint(self) -> tuple:
        """What a replay of the same seed must reproduce exactly."""
        return (
            self.calls,
            self.sim.events_processed,
            self.net.stats.messages_sent,
            self.net.stats.bytes_sent,
            tuple(len(self.linkage.durable.journal(s.name)) for s in self.services),
            tuple(self.deny_ms),
        )
