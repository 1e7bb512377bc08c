"""Deterministic discrete-event simulator on one ``(time, seq)`` heap.

This is the virtual-time kernel underneath every distributed experiment in
the repository.  Events are callbacks scheduled at absolute virtual times;
ties are broken by insertion order, so execution order is exactly
``(time, seq)`` and runs are fully deterministic.

The queue is a single ``heapq`` of ``(time, seq, entry)`` tuples.  No two
tuples share a ``(time, seq)`` key, so comparisons never reach the entry
and stay inside the C tuple compare.

Cancellation is O(1): the entry is flagged dead and its callback released
immediately (a cancelled RPC timeout must not pin its closure until its
scheduled time arrives).  A tuple is dead once its entry is no longer
queued, or has been re-armed under a newer ``seq``.  Dead tuples are
dropped lazily when they reach the top of the heap, with a compaction
pass once they dominate the live population.

:class:`Timer` and :class:`PeriodicTimer` are first-class re-armable
timers that reuse one kernel entry across arms/fires instead of
allocating a fresh entry and handle per period — the heartbeat tick, the
monitor watchdog, wire flush timers and fault ticks all run on them.

The simulator intentionally has no notion of processes or threads: OASIS
services are plain objects whose methods are invoked either directly
(local calls) or by scheduled message deliveries (see
:mod:`repro.runtime.network`).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Any, Callable, Optional

from repro.errors import SimulationError

# Compact once this many cancelled entries linger AND they outnumber the
# live ones.  Long-running workloads that cancel most of what they
# schedule (an RPC endpoint cancelling its timeout on every reply) would
# otherwise accumulate dead entries until their scheduled times arrive.
_COMPACT_MIN_CANCELLED = 256


class _Entry:
    """One scheduled callback.  Reused across arms when owned by a Timer;
    ``seq`` is the key of its one live tuple while ``queued``."""

    __slots__ = ("seq", "fn", "args", "name", "queued", "reusable")

    def __init__(
        self,
        fn: Optional[Callable[..., Any]],
        args: tuple,
        name: str,
        reusable: bool = False,
    ):
        self.seq = 0
        self.fn = fn
        self.args = args
        self.name = name
        self.queued = False
        self.reusable = reusable


@dataclass(slots=True)
class ScheduledEvent:
    """Handle for a scheduled callback; pass to :meth:`Simulator.cancel`."""

    time: float
    seq: int
    name: str = ""
    entry: Any = None


class Simulator:
    """A discrete-event simulator with deterministic tie-breaking.

    >>> sim = Simulator()
    >>> order = []
    >>> _ = sim.schedule(2.0, order.append, "b")
    >>> _ = sim.schedule(1.0, order.append, "a")
    >>> sim.run()
    2
    >>> order
    ['a', 'b']
    """

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        self._seq = 0
        self._queue: list[tuple[float, int, _Entry]] = []
        self._live = 0
        self._dead = 0
        self._profile = None
        self._tracer: Optional[Callable[[float, str], None]] = None
        self.events_processed = 0

    # ------------------------------------------------------------- scheduling

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        name: str = "",
    ) -> ScheduledEvent:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self._now + delay
        entry = _Entry(fn, args, name)
        self._arm_entry(entry, time)
        return ScheduledEvent(time, entry.seq, name, entry)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        name: str = "",
    ) -> ScheduledEvent:
        """Schedule ``fn(*args)`` to run at absolute virtual time ``time``."""
        entry = _Entry(fn, args, name)
        self._arm_entry(entry, time)
        return ScheduledEvent(time, entry.seq, name, entry)

    def cancel(self, handle: ScheduledEvent) -> bool:
        """Cancel a scheduled event.  Returns False if already run/cancelled.

        O(1): the entry is flagged dead and its callback and arguments are
        released immediately — a cancelled timeout must not pin its
        closure (or the state it captures) until the event's scheduled
        time arrives.  The dead tuple itself is reclaimed lazily, with a
        compaction pass once dead tuples dominate.
        """
        entry = handle.entry
        if entry is None or entry.seq != handle.seq or not self._cancel_entry(entry):
            return False
        entry.fn = None
        entry.args = ()
        return True

    # ------------------------------------------- the one insert and cancel

    def _arm_entry(self, entry: _Entry, time: float) -> None:
        """Queue an idle entry at ``time`` under a fresh ``seq``.  A timer
        re-arms its one entry this way, with no handle allocated; the
        tuple an earlier arm left no longer matches it and is dead."""
        # ``not >=`` also refuses NaN, which has no place in the heap order
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at {time} < current time {self._now}"
            )
        self._seq += 1
        entry.seq = self._seq
        entry.queued = True
        heappush(self._queue, (time, entry.seq, entry))
        self._live += 1

    def _cancel_entry(self, entry: _Entry) -> bool:
        """Disarm a queued entry; its callback is kept for re-arming."""
        if not entry.queued:
            return False
        entry.queued = False
        self._live -= 1
        self._dead += 1
        if self._dead >= _COMPACT_MIN_CANCELLED and self._dead > self._live:
            self._compact()
        return True

    def _compact(self) -> None:
        """Rebuild the heap from its live tuples."""
        self._queue = [
            tup for tup in self._queue if tup[2].queued and tup[2].seq == tup[1]
        ]
        heapify(self._queue)
        self._dead = 0

    # ------------------------------------------------------------- execution

    def pending(self) -> int:
        """Number of events still waiting to run."""
        return self._live

    def cancelled_pending(self) -> int:
        """Dead (cancelled, not yet reclaimed) entries still queued."""
        return self._dead

    def _head(self) -> Optional[tuple[float, int, _Entry]]:
        """The next live tuple, dropping the dead ones above it."""
        queue = self._queue
        while queue:
            head = queue[0]
            entry = head[2]
            if entry.queued and entry.seq == head[1]:
                return head
            heappop(queue)
            self._dead -= 1
        return None

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next pending event, or None if queue empty."""
        head = self._head()
        return None if head is None else head[0]

    def set_profile(self, profile) -> None:
        """Attach a :class:`repro.runtime.profile.SimProfile` (or None)."""
        self._profile = profile

    def set_tracer(self, tracer: Optional[Callable[[float, str], None]]) -> None:
        """Attach a ``tracer(time, name)`` hook called at each dispatch."""
        self._tracer = tracer

    def _dispatch(self) -> None:
        """Pop the head tuple, which :meth:`_head` found live, and run it."""
        time, _, entry = heappop(self._queue)
        entry.queued = False
        self._live -= 1
        self._now = time
        self.events_processed += 1
        fn = entry.fn
        args = entry.args
        if not entry.reusable:
            # Executed one-shot entries must not pin their closures while
            # the caller still holds the handle.
            entry.fn = None
            entry.args = ()
        if self._tracer is not None:
            self._tracer(time, entry.name)
        if self._profile is None:
            fn(*args)
        else:
            started = perf_counter()
            fn(*args)
            self._profile.record(entry.name, perf_counter() - started)

    def step(self) -> bool:
        """Run the single next event.  Returns False if nothing is pending."""
        if self._head() is None:
            return False
        self._dispatch()
        return True

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the queue drains.  Returns the number of events run.

        Raises :class:`SimulationError` only if events are *still pending*
        after ``max_events`` have run — draining the queue in exactly
        ``max_events`` steps is success, not a runaway.
        """
        count = 0
        while count < max_events and self.step():
            count += 1
        if count >= max_events and self.peek_time() is not None:
            raise SimulationError(f"exceeded max_events={max_events}")
        return count

    def run_until(self, time: float, max_events: int = 10_000_000) -> int:
        """Run all events with timestamps <= ``time``; advance clock to it."""
        if time < self._now:
            raise SimulationError(f"cannot run backwards to {time}")
        count = 0
        while True:
            head = self._head()
            if head is None or head[0] > time:
                break
            if count >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            self._dispatch()
            count += 1
        self._now = max(self._now, time)
        return count

    def run_for(self, duration: float, max_events: int = 10_000_000) -> int:
        """Run events for ``duration`` seconds of virtual time."""
        return self.run_until(self._now + duration, max_events=max_events)


class Timer:
    """A re-armable one-shot timer that reuses a single kernel entry.

    On :class:`Simulator`, arming and disarming go through an O(1) fast
    path with no handle or entry allocation; on kernels without the fast
    path (the tests' reference heap) it falls back to plain
    ``schedule_at``/``cancel``.  Both paths allocate sequence numbers
    from the kernel's one counter, so execution order is identical.
    """

    __slots__ = ("sim", "fn", "args", "name", "_entry", "_handle")

    def __init__(self, sim, fn: Callable[..., Any], *args: Any, name: str = ""):
        self.sim = sim
        self.fn = fn
        self.args = args
        self.name = name
        if hasattr(sim, "_arm_entry"):
            self._entry = _Entry(fn, args, name, reusable=True)
        else:
            self._entry = None
        self._handle: Optional[ScheduledEvent] = None

    @property
    def armed(self) -> bool:
        if self._entry is not None:
            return self._entry.queued
        return self._handle is not None

    def arm(self, delay: float) -> None:
        """Arm (or re-arm) to fire ``delay`` seconds from now."""
        self.arm_at(self.sim.now + delay)

    def arm_at(self, time: float) -> None:
        """Arm (or re-arm) to fire at absolute virtual time ``time``."""
        if self.armed:
            self.disarm()
        if self._entry is not None:
            self.sim._arm_entry(self._entry, time)
        else:
            self._handle = self.sim.schedule_at(time, self._fire, name=self.name)

    def disarm(self) -> bool:
        """Cancel the pending fire.  Returns False if not armed."""
        if self._entry is not None:
            return self.sim._cancel_entry(self._entry)
        if self._handle is not None:
            handle, self._handle = self._handle, None
            return self.sim.cancel(handle)
        return False

    def _fire(self) -> None:
        # Fallback-path trampoline so ``armed`` stays accurate.
        self._handle = None
        self.fn(*self.args)


class PeriodicTimer:
    """Fires ``fn(*args)`` every ``period`` virtual seconds on one entry.

    Replaces the "callback schedules a fresh event for itself" idiom: the
    chain re-arms a single reusable kernel entry, so a fleet of periodic
    heartbeats no longer allocates an entry and handle per beat.

    From *within* the callback, :meth:`reschedule` overrides the next
    interval (clamped at zero — float accumulation must never push a
    wake-up into the past) and :meth:`cancel` stops the chain.
    :meth:`poke` runs the callback synchronously right now and re-arms
    from the current time.
    """

    __slots__ = ("sim", "period", "fn", "args", "name", "fires", "_timer", "_override", "_active")

    def __init__(
        self, sim, period: float, fn: Callable[..., Any], *args: Any, name: str = ""
    ):
        if period <= 0:
            raise SimulationError(f"periodic timer needs period > 0, got {period}")
        self.sim = sim
        self.period = period
        self.fn = fn
        self.args = args
        self.name = name
        self.fires = 0
        self._timer = Timer(sim, self._fire, name=name)
        self._override: Optional[float] = None
        self._active = False

    @property
    def active(self) -> bool:
        return self._active

    def start(self, first_delay: Optional[float] = None) -> None:
        """Arm the chain; first fire after ``first_delay`` (default: one period)."""
        self._active = True
        if self._timer.armed:
            self._timer.disarm()
        self._timer.arm(self.period if first_delay is None else max(0.0, first_delay))

    def poke(self) -> None:
        """Run the callback now (synchronously) and re-arm from here."""
        self._active = True
        if self._timer.armed:
            self._timer.disarm()
        self._fire()

    def reschedule(self, delay: float) -> None:
        """From within the callback: fire next after ``delay`` (>= 0) instead
        of one full period."""
        self._override = max(0.0, delay)

    def cancel(self) -> bool:
        """Stop the chain.  Safe to call from within the callback."""
        self._active = False
        return self._timer.disarm()

    def _fire(self) -> None:
        self.fires += 1
        self._override = None
        self.fn(*self.args)
        if self._active:
            delay = self.period if self._override is None else self._override
            self._timer.arm(delay)
