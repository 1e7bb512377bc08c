"""Deterministic fault injection and chaos invariants.

The dissertation's security argument is really a *failure-model*
argument: a service that falls silent must have its surrogates marked
Unknown (fail closed, section 4.10), and a restarted party is a new
party (section 2's ``(host, id, boot_time)`` identity).  This module
attacks the runtime with seeded faults so those properties are tested
rather than assumed:

* a :class:`FaultPlan` is a declarative, seeded schedule of link flaps,
  partition windows, loss bursts, duplication windows, reorder windows
  and service crash/restarts;
* a :class:`ChaosController` arms the plan on the simulator clock and
  doubles as the network's fault injector (duplication/reordering/loss
  act per message, below the link's own loss model);
* an :class:`InvariantChecker` watches every service's credential table
  and asserts the two chaos invariants:

  1. **fail closed** — no surrogate record stays TRUE materially longer
     than its issuer's truth has been non-TRUE (bounded by the
     notification pipeline: heartbeat grace + wire flush + link delay);
  2. **convergence** — once faults cease, every surrogate settles to
     its issuer's brute-force ground truth within a bounded settle time.

Everything is seeded; a failing run replays exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.core.credentials import RecordState
from repro.errors import NetworkError
from repro.runtime.network import Message, Network
from repro.runtime.simulator import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.service import OasisService
    from repro.mssa.custode import Custode
    from repro.runtime.wire import BatchedChannel


# --------------------------------------------------------------- fault events


@dataclass(frozen=True)
class LinkFlap:
    """One directed link goes down at ``at`` and recovers after ``duration``."""

    at: float
    source: str
    dest: str
    duration: float


@dataclass(frozen=True)
class PartitionWindow:
    """Both directions between two address groups cut for ``duration``."""

    at: float
    group_a: frozenset[str]
    group_b: frozenset[str]
    duration: float


@dataclass(frozen=True)
class LossBurst:
    """Messages between ``source`` and ``dest`` (None = any) are dropped
    with ``probability`` while the burst is active."""

    at: float
    duration: float
    probability: float
    source: Optional[str] = None
    dest: Optional[str] = None


@dataclass(frozen=True)
class DuplicationWindow:
    """Delivered messages are cloned (``copies`` total) with ``probability``."""

    at: float
    duration: float
    probability: float
    copies: int = 2


@dataclass(frozen=True)
class ReorderWindow:
    """Delivered messages gain up to ``max_extra_delay`` extra latency with
    ``probability`` — later traffic on the same link can overtake them."""

    at: float
    duration: float
    probability: float
    max_extra_delay: float


@dataclass(frozen=True)
class CrashRestart:
    """Service ``service`` crashes at ``at`` and restarts after ``downtime``
    (in a new boot epoch)."""

    at: float
    service: str
    downtime: float


@dataclass(frozen=True)
class JournalCrash:
    """Crash ``service`` at a journal fault point instead of at a wall
    time: ``point`` is ``"mid-append"`` (right after the next journal
    transaction lands, before its outbox drains) or ``"mid-drain"``
    (after the next drain marks a batch in flight, before delivery
    resolves).  Arming happens at ``at``; the crash fires whenever the
    service next reaches the point, and the restart follows ``downtime``
    later.  This is the targeted attack on the apply-vs-notify window
    the transactional outbox exists to close."""

    at: float
    service: str
    point: str
    downtime: float


@dataclass(frozen=True)
class OverloadBurst:
    """Synthetic traffic spike: ``rate`` messages per virtual second from
    ``source`` toward ``dest`` for ``duration``.

    Drives the overload-resilience machinery (bounded wire queues,
    breakers, degradation) the way the other events drive fail-closed:
    the burst competes with real traffic for the same links and queues.
    """

    at: float
    duration: float
    source: str
    dest: str
    rate: float
    kind: str = "chaos-overload"


FaultEvent = Any  # union of the event dataclasses above


@dataclass
class FaultStats:
    link_flaps: int = 0
    partitions: int = 0
    heals: int = 0
    loss_bursts: int = 0
    crashes: int = 0
    restarts: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_reordered: int = 0
    overload_bursts: int = 0
    overload_messages: int = 0
    journal_crashes: int = 0


# ----------------------------------------------------------------- fault plan


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative schedule of fault events."""

    events: tuple[FaultEvent, ...]
    seed: int = 0

    def horizon(self) -> float:
        """Virtual time by which every scheduled fault has ceased."""
        end = 0.0
        for event in self.events:
            duration = getattr(event, "duration", None)
            if duration is None:
                duration = getattr(event, "downtime", 0.0)
            end = max(end, event.at + duration)
        return end

    @classmethod
    def random(
        cls,
        seed: int,
        duration: float,
        addresses: Sequence[str] = (),
        services: Sequence[str] = (),
        link_flaps: int = 3,
        partitions: int = 2,
        loss_bursts: int = 2,
        duplication_windows: int = 2,
        reorder_windows: int = 2,
        crashes: int = 1,
        overload_bursts: int = 0,
        overload_rate: float = 200.0,
        max_outage: float = 0.0,
    ) -> "FaultPlan":
        """A reproducible random plan over ``duration`` virtual seconds.

        ``addresses`` feed the link/partition/loss events; ``services``
        feed the crash events.  ``max_outage`` caps each fault's length
        (default: a quarter of ``duration``).
        """
        rng = random.Random(f"fault-plan:{seed}")
        max_outage = max_outage or duration / 4.0
        events: list[FaultEvent] = []

        def span() -> tuple[float, float]:
            at = rng.uniform(0.0, duration)
            return at, rng.uniform(max_outage * 0.1, max_outage)

        if len(addresses) >= 2:
            for _ in range(link_flaps):
                at, length = span()
                source, dest = rng.sample(list(addresses), 2)
                events.append(LinkFlap(at, source, dest, length))
            for _ in range(partitions):
                at, length = span()
                pool = list(addresses)
                rng.shuffle(pool)
                cut = rng.randint(1, len(pool) - 1)
                events.append(
                    PartitionWindow(
                        at, frozenset(pool[:cut]), frozenset(pool[cut:]), length
                    )
                )
            for index in range(loss_bursts):
                at, length = span()
                if index % 2 == 0:
                    # every other burst hits all links, not one pair —
                    # a single quiet pair must not make loss a no-op
                    source = dest = None
                else:
                    source, dest = rng.sample(list(addresses), 2)
                events.append(
                    LossBurst(at, length, rng.uniform(0.2, 0.8), source, dest)
                )
        for _ in range(duplication_windows):
            at, length = span()
            events.append(
                DuplicationWindow(at, length, rng.uniform(0.2, 0.6), copies=2)
            )
        for _ in range(reorder_windows):
            at, length = span()
            events.append(
                ReorderWindow(at, length, rng.uniform(0.2, 0.6), length / 2.0)
            )
        if len(addresses) >= 2:
            for _ in range(overload_bursts):
                at, length = span()
                source, dest = rng.sample(list(addresses), 2)
                events.append(
                    OverloadBurst(
                        at,
                        length,
                        source,
                        dest,
                        rate=rng.uniform(overload_rate * 0.5, overload_rate),
                    )
                )
        if services:
            for _ in range(crashes):
                at, length = span()
                events.append(CrashRestart(at, rng.choice(list(services)), length))
        events.sort(key=lambda e: e.at)
        return cls(events=tuple(events), seed=seed)


# ------------------------------------------------------------------ controller


class ChaosController:
    """Arms a :class:`FaultPlan` on the simulator and injects per-message
    faults (loss bursts, duplication, reordering) into the network.

    ``crash`` / ``restart`` are callbacks taking a service name — usually
    ``SimLinkage.crash`` / ``SimLinkage.restart`` adapted by the caller.
    ``overload`` (taking the :class:`OverloadBurst`) overrides how each
    burst message is generated; the default sends a synthetic datagram of
    the burst's ``kind`` straight through the network, competing with
    real traffic for the same links.
    """

    def __init__(
        self,
        network: Network,
        plan: FaultPlan,
        crash: Optional[Callable[[str], None]] = None,
        restart: Optional[Callable[[str], None]] = None,
        overload: Optional[Callable[["OverloadBurst"], None]] = None,
        arm_journal_crash: Optional[Callable[[str, str, Callable[[], None]], None]] = None,
    ):
        self.network = network
        self.sim = network.simulator
        self.plan = plan
        self.stats = FaultStats()
        self._crash = crash
        self._restart = restart
        self._overload = overload
        self._arm_journal_crash = arm_journal_crash
        self._rng = random.Random(f"chaos:{plan.seed}")
        self._loss: list[tuple[float, float, LossBurst]] = []
        self._dup: list[tuple[float, float, DuplicationWindow]] = []
        self._reorder: list[tuple[float, float, ReorderWindow]] = []
        self.down_services: set[str] = set()
        self._armed = False

    def arm(self) -> None:
        """Schedule every event of the plan and install the injector."""
        if self._armed:
            return
        self._armed = True
        self.network.set_fault_injector(self._deliveries)
        base = self.sim.now
        for event in self.plan.events:
            self.sim.schedule_at(
                base + event.at, self._fire, event, name="chaos-event"
            )

    def disarm(self) -> None:
        """Remove the injector (active windows simply stop mattering)."""
        self.network.set_fault_injector(None)
        self._armed = False

    def _fire(self, event: FaultEvent) -> None:
        now = self.sim.now
        if isinstance(event, LinkFlap):
            self.stats.link_flaps += 1
            self.network.set_link_state(event.source, event.dest, False)
            self.sim.schedule(
                event.duration,
                self.network.set_link_state,
                event.source,
                event.dest,
                True,
                name="chaos-flap-heal",
            )
        elif isinstance(event, PartitionWindow):
            self.stats.partitions += 1
            self.network.partition(set(event.group_a), set(event.group_b))
            self.sim.schedule(
                event.duration, self._heal, event, name="chaos-heal"
            )
        elif isinstance(event, LossBurst):
            self.stats.loss_bursts += 1
            self._loss.append((now, now + event.duration, event))
        elif isinstance(event, DuplicationWindow):
            self._dup.append((now, now + event.duration, event))
        elif isinstance(event, ReorderWindow):
            self._reorder.append((now, now + event.duration, event))
        elif isinstance(event, OverloadBurst):
            self.stats.overload_bursts += 1
            self._start_overload(event, now + event.duration)
        elif isinstance(event, CrashRestart):
            self.stats.crashes += 1
            self.down_services.add(event.service)
            if self._crash is not None:
                self._crash(event.service)
            self.sim.schedule(
                event.downtime, self._revive, event.service, name="chaos-restart"
            )
        elif isinstance(event, JournalCrash):
            if self._arm_journal_crash is not None:
                # the trigger schedules the crash as a zero-delay event,
                # not synchronously: the append/drain step that tripped
                # the point completes atomically (a real crash cannot
                # tear a committed journal transaction), then the
                # process dies before the next step runs
                self._arm_journal_crash(
                    event.service,
                    event.point,
                    lambda e=event: self.sim.schedule(
                        0.0, self._journal_crash_now, e, name="chaos-journal-crash"
                    ),
                )

    def _heal(self, event: PartitionWindow) -> None:
        self.stats.heals += 1
        self.network.heal(set(event.group_a), set(event.group_b))

    def _start_overload(self, event: OverloadBurst, end: float) -> None:
        # One reusable kernel entry ticks the whole burst instead of each
        # tick scheduling its successor.
        timer = PeriodicTimer(
            self.sim, 1.0 / event.rate, self._overload_tick, name="chaos-overload"
        )
        timer.args = (event, end, timer)
        timer.poke()

    def _overload_tick(
        self, event: OverloadBurst, end: float, timer: PeriodicTimer
    ) -> None:
        if self.sim.now >= end:
            timer.cancel()
            return
        self.stats.overload_messages += 1
        if self._overload is not None:
            self._overload(event)
        else:
            try:
                self.network.send(
                    event.source,
                    event.dest,
                    event.kind,
                    {"seq": self.stats.overload_messages},
                )
            except NetworkError:
                pass  # destination vanished mid-burst; keep ticking

    def _journal_crash_now(self, event: JournalCrash) -> None:
        if event.service in self.down_services:
            return  # already down via another fault; nothing to crash
        self.stats.journal_crashes += 1
        self.stats.crashes += 1
        self.down_services.add(event.service)
        if self._crash is not None:
            self._crash(event.service)
        self.sim.schedule(
            event.downtime, self._revive, event.service, name="chaos-restart"
        )

    def _revive(self, service: str) -> None:
        self.stats.restarts += 1
        self.down_services.discard(service)
        if self._restart is not None:
            self._restart(service)

    def is_down(self, service: str) -> bool:
        return service in self.down_services

    # -- the network's per-message fault injector ---------------------------

    def _active(self, windows: list, source: str, dest: str) -> Any:
        now = self.sim.now
        for start, end, event in windows:
            if not (start <= now < end):
                continue
            event_source = getattr(event, "source", None)
            event_dest = getattr(event, "dest", None)
            if event_source is not None and event_source != source:
                continue
            if event_dest is not None and event_dest != dest:
                continue
            return event
        return None

    def _deliveries(self, message: Message, base_delay: float) -> Optional[list[float]]:
        loss = self._active(self._loss, message.source, message.dest)
        if loss is not None and self._rng.random() < loss.probability:
            self.stats.messages_dropped += 1
            return None
        delay = base_delay
        reorder = self._active(self._reorder, message.source, message.dest)
        if reorder is not None and self._rng.random() < reorder.probability:
            delay = base_delay + self._rng.uniform(0.0, reorder.max_extra_delay)
            self.stats.messages_reordered += 1
        delays = [delay]
        dup = self._active(self._dup, message.source, message.dest)
        if dup is not None and self._rng.random() < dup.probability:
            extra = max(0, dup.copies - 1)
            self.stats.messages_duplicated += extra
            for _ in range(extra):
                # a duplicate takes its own (possibly longer) path
                delays.append(delay + self._rng.uniform(0.0, base_delay + delay))
        return delays


# ----------------------------------------------------------------- invariants


@dataclass
class Violation:
    """One observed breach of the fail-closed invariant."""

    at: float
    consumer: str
    issuer: str
    remote_ref: int
    surrogate_state: RecordState
    issuer_state: RecordState
    stale_for: float

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"[t={self.at:.3f}] {self.consumer} holds {self.surrogate_state.name} "
            f"surrogate for {self.issuer}#{self.remote_ref} "
            f"(issuer says {self.issuer_state.name}, stale {self.stale_for:.3f}s)"
        )


class InvariantChecker:
    """Watches a set of services and checks the two chaos invariants.

    ``stale_bound`` is the allowance for in-flight propagation: a
    surrogate may read TRUE while its issuer's truth is non-TRUE for at
    most this long (heartbeat grace + wire flush delay + link delay,
    plus margin).  ``is_down`` lets the checker skip consumers that are
    currently crashed — a dead process grants nothing.

    Overload invariants: pass ``channels`` (a sequence of bounded
    :class:`~repro.runtime.wire.BatchedChannel` instances, or a callable
    returning one — e.g. ``linkage.all_channels``) to have
    :meth:`check_queue_bounds` assert no queue ever outgrew its
    ``max_queue``; pass ``custodes`` to have
    :meth:`check_degradation_bounds` assert no degraded decision was ever
    served staler than its policy's ``max_staleness``.
    """

    def __init__(
        self,
        services: Sequence["OasisService"],
        stale_bound: float,
        is_down: Optional[Callable[[str], bool]] = None,
        channels: "Sequence[BatchedChannel] | Callable[[], Sequence[BatchedChannel]]" = (),
        custodes: Sequence["Custode"] = (),
        journals: Optional[Any] = None,
    ):
        if not services:
            raise ValueError("InvariantChecker needs at least one service")
        self.services = list(services)
        self.stale_bound = stale_bound
        self.is_down = is_down or (lambda name: False)
        self._channels = channels
        self.custodes = list(custodes)
        # a DurableStore, for the outbox conservation sweep
        self.journals = journals
        self.violations: list[Violation] = []
        self.checks = 0
        # (issuer name, ref) -> virtual time its truth last left TRUE
        self._not_true_since: dict[tuple[str, int], float] = {}
        self._clocks: dict[str, Callable[[], float]] = {}
        for service in self.services:
            self._attach(service)

    def _attach(self, service: "OasisService") -> None:
        name = service.name
        table = service.credentials

        def on_change(changes, _name=name):
            not_true_since = self._not_true_since
            now = None
            for record, old, new in changes:
                if new is RecordState.TRUE:
                    not_true_since.pop((_name, record.ref), None)
                elif old is RecordState.TRUE:
                    if now is None:
                        now = self._now(_name)
                    not_true_since[(_name, record.ref)] = now
        table.watch_all(on_change)
        self._clocks[name] = service.clock.now
        # records already non-TRUE when the checker attaches have been so
        # for an unknown time: date them "now" and let the bound run
        for record in table.all_records():
            if record.state is not RecordState.TRUE:
                self._not_true_since[(name, record.ref)] = self._now(name)

    def _now(self, name: str) -> float:
        return self._clocks[name]()

    def _service(self, name: str) -> "OasisService":
        for service in self.services:
            if service.name == name:
                return service
        raise KeyError(name)

    def check_fail_closed(self) -> list[Violation]:
        """Invariant 1: no surrogate stays TRUE materially after its
        issuer's truth went non-TRUE.  Returns (and records) the fresh
        violations found by this sweep."""
        self.checks += 1
        found: list[Violation] = []
        names = {service.name for service in self.services}
        for consumer in self.services:
            if self.is_down(consumer.name):
                continue
            now = self._now(consumer.name)
            for issuer_name in consumer.credentials.external_services():
                if issuer_name not in names:
                    continue
                issuer = self._service(issuer_name)
                if self.is_down(issuer_name):
                    # a crashed issuer's truth is unobservable; the
                    # consumer's heartbeat machinery is what must react,
                    # and its allowance is the same stale bound measured
                    # from the crash — covered once the issuer returns
                    continue
                for record in consumer.credentials.externals_of(issuer_name):
                    if record.state is not RecordState.TRUE:
                        continue
                    assert record.external_ref is not None
                    truth = issuer.credentials.state_of(record.external_ref)
                    if truth is RecordState.TRUE:
                        continue
                    key = (issuer_name, record.external_ref)
                    since = self._not_true_since.setdefault(key, now)
                    stale_for = now - since
                    if stale_for > self.stale_bound:
                        found.append(
                            Violation(
                                at=now,
                                consumer=consumer.name,
                                issuer=issuer_name,
                                remote_ref=record.external_ref,
                                surrogate_state=record.state,
                                issuer_state=truth,
                                stale_for=stale_for,
                            )
                        )
        self.violations.extend(found)
        return found

    def divergences(self) -> list[tuple[str, str, int, RecordState, RecordState]]:
        """Invariant 2 helper: every (consumer, issuer, ref) whose
        surrogate state differs from issuer truth.  Empty once the system
        has converged after faults cease."""
        out = []
        names = {service.name for service in self.services}
        for consumer in self.services:
            for issuer_name in consumer.credentials.external_services():
                if issuer_name not in names:
                    continue
                issuer = self._service(issuer_name)
                for record in consumer.credentials.externals_of(issuer_name):
                    assert record.external_ref is not None
                    truth = issuer.credentials.state_of(record.external_ref)
                    if record.state is not truth:
                        out.append(
                            (
                                consumer.name,
                                issuer_name,
                                record.external_ref,
                                record.state,
                                truth,
                            )
                        )
        return out

    def converged(self) -> bool:
        return not self.divergences()

    # -- overload invariants -------------------------------------------------

    def channels(self) -> "Sequence[BatchedChannel]":
        return self._channels() if callable(self._channels) else self._channels

    def check_queue_bounds(self) -> list[str]:
        """Invariant 3: no bounded wire queue ever exceeds ``max_queue``.

        Checks both the instantaneous backlog and the high-water mark, so
        a sweep that lands after a flush still catches a past breach.
        Returns human-readable breach descriptions (empty = clean).
        """
        breaches: list[str] = []
        for channel in self.channels():
            bound = channel.policy.max_queue
            if bound is None:
                continue
            label = f"{channel.source}->{channel.dest}"
            if channel.pending > bound:
                breaches.append(
                    f"queue {label} holds {channel.pending} > bound {bound}"
                )
            if channel.stats.max_pending > bound:
                breaches.append(
                    f"queue {label} peaked at {channel.stats.max_pending}"
                    f" > bound {bound}"
                )
        return breaches

    def check_outbox_conservation(self) -> list[str]:
        """Invariant 5 (durability): every journaled notification is
        exactly-once-applied at its destination or parked in the DLQ —
        never vanished, never double-applied.  Delegates to the
        :class:`~repro.core.journal.DurableStore` sweep; empty list when
        no store was given.  Returns breach descriptions (empty = clean).
        """
        if self.journals is None:
            return []
        return self.journals.conservation_breaches()

    def check_degradation_bounds(self) -> list[str]:
        """Invariant 4: degraded decisions never exceed the staleness bound.

        Every custode records the worst staleness it ever served from the
        degradation tier; that high-water mark must stay within the
        policy's ``max_staleness``.  Returns breach descriptions.
        """
        breaches: list[str] = []
        for custode in self.custodes:
            policy = custode.degradation
            if policy is None:
                continue
            worst = custode.storage.degraded_max_staleness
            if worst > policy.max_staleness:
                breaches.append(
                    f"custode {custode.name!r} served a decision"
                    f" {worst:.3f}s stale > bound {policy.max_staleness:.3f}s"
                )
        return breaches
