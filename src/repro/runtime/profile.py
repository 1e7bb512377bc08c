"""Lightweight per-subsystem profiling for the virtual-time kernel.

Attach a :class:`SimProfile` to a simulator and every dispatched event is
attributed to a subsystem bucket by its event-name prefix (the part
before the first ``:``): heartbeats schedule as ``hb:...``, network
deliveries as ``deliver:...``, RPC timers as ``rpc:...``, wire flushes as
``flush:...``.  Each bucket accumulates an event count and the wall-clock
time spent inside the callbacks, so a regression in fleet-scale soak
throughput is attributable to a subsystem instead of "the kernel got
slower".

The kernel pays for profiling only while a profile is attached (a single
``is None`` check per event otherwise), so soaks can run unprofiled at
full speed and flip profiling on for diagnosis.

>>> from repro.runtime.simulator import Simulator
>>> sim = Simulator()
>>> prof = SimProfile()
>>> _ = prof.attach(sim)
>>> _ = sim.schedule(1.0, lambda: None, name="hb:node-a")
>>> _ = sim.schedule(2.0, lambda: None, name="deliver:rpc")
>>> sim.run()
2
>>> sorted(prof.buckets)
['deliver', 'hb']
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["ProfileBucket", "SimProfile"]


@dataclass
class ProfileBucket:
    """Accumulated cost of one subsystem's events."""

    events: int = 0
    wall_s: float = 0.0


@dataclass
class SimProfile:
    """Per-subsystem event counts and wall-time, keyed by name prefix."""

    buckets: Dict[str, ProfileBucket] = field(default_factory=dict)
    total_events: int = 0
    total_wall_s: float = 0.0

    def attach(self, sim) -> "SimProfile":
        """Start receiving dispatch records from ``sim``."""
        sim.set_profile(self)
        return self

    def detach(self, sim) -> None:
        """Stop receiving dispatch records from ``sim``."""
        sim.set_profile(None)

    def record(self, name: str, wall_s: float) -> None:
        """Called by the kernel after each dispatched event."""
        key = name.partition(":")[0] if name else "(unnamed)"
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = ProfileBucket()
        bucket.events += 1
        bucket.wall_s += wall_s
        self.total_events += 1
        self.total_wall_s += wall_s

    def events_per_sec(self) -> float:
        """Aggregate dispatch rate over callback wall-time."""
        if self.total_wall_s <= 0.0:
            return 0.0
        return self.total_events / self.total_wall_s

    def report(self) -> Dict[str, Any]:
        """Machine-readable summary: per-subsystem share of events and time.

        Buckets are ordered by wall-time, heaviest first, so the top entry
        is where a slow soak is actually spending its time.
        """
        subsystems = {}
        for key, bucket in sorted(
            self.buckets.items(), key=lambda kv: (-kv[1].wall_s, kv[0])
        ):
            subsystems[key] = {
                "events": bucket.events,
                "wall_s": bucket.wall_s,
                "events_share": (
                    bucket.events / self.total_events if self.total_events else 0.0
                ),
                "wall_share": (
                    bucket.wall_s / self.total_wall_s if self.total_wall_s else 0.0
                ),
            }
        return {
            "total_events": self.total_events,
            "total_wall_s": self.total_wall_s,
            "events_per_sec": self.events_per_sec(),
            "subsystems": subsystems,
        }

    def format(self) -> str:
        """Human-readable table of the report, for soak logs."""
        report = self.report()
        lines = [
            f"{'subsystem':<14} {'events':>10} {'wall_s':>10} {'ev%':>6} {'wall%':>6}"
        ]
        for key, row in report["subsystems"].items():
            lines.append(
                f"{key:<14} {row['events']:>10} {row['wall_s']:>10.4f} "
                f"{row['events_share'] * 100:>5.1f}% {row['wall_share'] * 100:>5.1f}%"
            )
        lines.append(
            f"{'total':<14} {report['total_events']:>10} "
            f"{report['total_wall_s']:>10.4f} ({report['events_per_sec']:.0f} ev/s)"
        )
        return "\n".join(lines)
