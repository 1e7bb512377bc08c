"""Heap-only virtual-time kernel, kept as the tests' reference kernel.

This is the repo's original simulator: a global ``heapq`` of per-event
``@dataclass(order=True)`` entries ordered by ``(time, seq)`` and
compared in Python, a ``seq -> entry`` handle map for cancellation, and
lazy compaction of cancelled entries.  The kernel-equivalence tests
and the cross-kernel chaos-soak replay assert that both kernels execute
identical schedules in identical order, and
``benchmarks/test_bench_runtime.py`` measures the kernel against it.

API parity with :class:`~repro.runtime.simulator.Simulator` is
deliberate — profiling/tracing hooks and the ``max_events`` semantics
are mirrored here so the two kernels are drop-in interchangeable
(``Timer``/``PeriodicTimer`` detect the missing fast path and fall back
to plain ``schedule_at``/``cancel``).  The queue discipline itself is
untouched: that is what is being measured.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.runtime.simulator import ScheduledEvent

__all__ = ["HeapSimulator"]


@dataclass(order=True)
class _QueueEntry:
    time: float
    seq: int
    fn: Optional[Callable[..., Any]] = field(compare=False)
    args: tuple = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    name: str = field(default="", compare=False)


# Compact the heap once this many cancelled entries linger AND they make
# up the majority of it.
_COMPACT_MIN_CANCELLED = 256


class HeapSimulator:
    """The reference heap-only discrete-event simulator.

    Same observable semantics as :class:`repro.runtime.simulator.Simulator`
    (tie-break by insertion order, O(1)-ish lazy cancel, compaction), with
    dataclass entries compared in Python instead of ``(time, seq)`` tuples.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        self._queue: list[_QueueEntry] = []
        self._seq = 0
        self._handles: dict[int, _QueueEntry] = {}
        self._cancelled_pending = 0
        self._profile = None
        self._tracer: Optional[Callable[[float, str], None]] = None
        self.events_processed = 0

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
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args, name=name)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        name: str = "",
    ) -> ScheduledEvent:
        """Schedule ``fn(*args)`` to run at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} < current time {self._now}"
            )
        self._seq += 1
        seq = self._seq
        entry = _QueueEntry(time=time, seq=seq, fn=fn, args=args, name=name)
        heapq.heappush(self._queue, entry)
        self._handles[seq] = entry
        return ScheduledEvent(time, seq, name)

    def cancel(self, handle: ScheduledEvent) -> bool:
        """Cancel a scheduled event.  Returns False if already run/cancelled."""
        entry = self._handles.pop(handle.seq, None)
        if entry is None or entry.cancelled:
            return False
        entry.cancelled = True
        entry.fn = None
        entry.args = ()
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= _COMPACT_MIN_CANCELLED
            and self._cancelled_pending * 2 > len(self._queue)
        ):
            self._compact()
        return True

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries."""
        self._queue = [e for e in self._queue if not e.cancelled]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0

    def pending(self) -> int:
        """Number of events still waiting to run."""
        return len(self._queue) - self._cancelled_pending

    def cancelled_pending(self) -> int:
        """Dead (cancelled, not yet reclaimed) entries still in the heap."""
        return self._cancelled_pending

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next pending event, or None if queue empty."""
        while self._queue and self._queue[0].cancelled:
            entry = heapq.heappop(self._queue)
            self._cancelled_pending -= 1
            self._handles.pop(entry.seq, None)
        return self._queue[0].time if self._queue else None

    def set_profile(self, profile) -> None:
        """Attach a :class:`repro.runtime.profile.SimProfile` (or None)."""
        self._profile = profile

    def set_tracer(self, tracer: Optional[Callable[[float, str], None]]) -> None:
        """Attach a ``tracer(time, name)`` hook called at each dispatch."""
        self._tracer = tracer

    def step(self) -> bool:
        """Run the single next event.  Returns False if nothing is pending."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            self._handles.pop(entry.seq, None)
            if entry.cancelled:
                self._cancelled_pending -= 1
                continue
            self._now = entry.time
            self.events_processed += 1
            assert entry.fn is not None
            if self._tracer is not None:
                self._tracer(entry.time, entry.name)
            if self._profile is None:
                entry.fn(*entry.args)
            else:
                started = perf_counter()
                entry.fn(*entry.args)
                self._profile.record(entry.name, perf_counter() - started)
            return True
        return False

    def run(self, max_events: int = 10_000_000) -> int:
        """Run until the queue drains.  Returns the number of events run."""
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
            nxt = self.peek_time()
            if nxt is None or nxt > time:
                break
            if count >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            self.step()
            count += 1
        self._now = max(self._now, time)
        return count

    def run_for(self, duration: float, max_events: int = 10_000_000) -> int:
        """Run events for ``duration`` seconds of virtual time."""
        return self.run_until(self._now + duration, max_events=max_events)
