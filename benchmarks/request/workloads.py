"""The four workloads of the request benchmark, and one round of each.

A round builds a fresh :class:`~benchmarks.request.world.World` from the
seed, times its set-up, runs the workload's timed body, then runs the
correctness gates.  A round's length is fixed by operation count, never
by duration: per-call cost grows with accumulated state (every request
adds a surrogate that later entries and revocations scan, and journals
only grow), so a time-bounded round would measure a different state on
a faster machine.  Rounds of one seed are identical; a run repeats them.

``scale`` shrinks every count (the smoke test runs at 1/50).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Callable, Optional

from benchmarks.request import layers
from benchmarks.request.world import World
from repro.runtime.faults import (
    ChaosController,
    CrashRestart,
    DuplicationWindow,
    FaultPlan,
    LossBurst,
    PartitionWindow,
    ReorderWindow,
)

RESIDENTS = 2048
READS_PER_REQUEST = 8
REQUESTS = 600

WARM_OPS = 150_000
WARM_BATCH = 1000          # ops between kernel advances
WARM_TICK = 0.05           # virtual seconds the kernel advances per batch
READ_SHARE = 0.9

FANOUT_RESIDENTS = 2048
FANOUT = 128
FANOUT_CYCLES = 8
FANOUT_PAUSE = 0.5         # virtual seconds between cycles

FAULTY_REQUESTS = 600
THINK = 0.010


def _n(count: int, scale: float) -> int:
    return max(1, round(count * scale))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    residents: int
    body: Callable[[World, float], dict]
    warm: bool = False
    stale_bound: float = 1.0


def _percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


@dataclass
class Round:
    """What one round measured.  Raw samples are reduced as the round
    ends, so a run's memory does not grow with its number of rounds."""

    timed_s: float
    calls: int
    wall: dict[str, float]            # wall-time metrics of this round
    samples: dict[str, int]           # sample count behind each timing
    deterministic: dict[str, float]   # identical on every round of a seed
    fingerprint: tuple
    tracer: Optional[layers.LayerTracer]   # traced rounds only
    counters: tuple[dict, dict]            # layers.counters before/after


def run_round(workload: Workload, seed: int, scale: float = 1.0,
              traced: bool = False) -> Round:
    gc.collect()
    started = perf_counter()
    world = World(seed, _n(workload.residents, scale), workload.stale_bound)
    if workload.warm:
        for session in world.residents:
            world.read(session)
            world.validate(session)
    setup_s = perf_counter() - started
    # set-up objects live for the whole round: keep the collector from
    # rescanning them, so its pauses track what the timed phase allocates
    gc.collect()
    gc.freeze()
    try:
        before = layers.counters(world) if traced else {}
        bytes_before = world.net.stats.bytes_sent
        tracer = None
        started = world.start_timing()
        if traced:
            with layers.traced(world) as tracer:
                extra = workload.body(world, scale)
        else:
            extra = workload.body(world, scale)
        timed_s = perf_counter() - started - world.untimed_s
        after = layers.counters(world) if traced else {}
        wire_bytes = world.net.stats.bytes_sent - bytes_before
    finally:
        gc.unfreeze()
    world.final_gates()

    wall = {"setup_s": setup_s, "ops_per_s": world.calls / timed_s}
    samples = {}
    for phase, values in world.samples.items():
        if values:
            wall[f"{phase}_us_p50"] = median(values) * 1e6
            wall[f"bench.{phase}_us_p99"] = _percentile(values, 0.99) * 1e6
            samples[f"{phase}_us"] = len(values)
    fingerprint = world.fingerprint()
    deterministic = {
        "wire_bytes_per_op": wire_bytes / world.calls,
        "revoke_to_deny_ms_p50": round(median(world.deny_ms), 2),
        "revoke_to_deny_ms_p99": round(_percentile(world.deny_ms, 0.99), 2),
        "ops_per_round": world.calls,
        "kernel_events_per_round": world.sim.events_processed,
        "messages_per_round": world.net.stats.messages_sent,
    }
    for name, value in extra.items():
        if value is not None:
            deterministic[name] = round(value, 4)
    return Round(timed_s, world.calls, wall, samples, deterministic, fingerprint,
                 tracer, (before, after))


# ------------------------------------------------------------- bodies


def _request(world: World, home=None) -> None:
    """Login entry -> enter_use_acl at the file's shard -> 8 reads ->
    logoff -> kernel steps until the next read is denied."""
    started = perf_counter()
    probes = world.untimed_s
    session = world.admit(home)
    for _ in range(READS_PER_REQUEST):
        fid, data = world.pick_file(session.shard)
        world.read(session, fid, data)
    world.revoke([session])
    world.samples["request"].append(perf_counter() - started - (world.untimed_s - probes))


def request_path(world: World, scale: float) -> dict:
    for _ in range(_n(REQUESTS, scale)):
        _request(world)
        world.sweep()
    return {}


def warm_reads(world: World, scale: float) -> dict:
    residents = world.residents
    ops = _n(WARM_OPS, scale)
    rng = world.rng
    with world.untimed():
        plan = [
            (rng.randrange(len(residents)), rng.random() < READ_SHARE)
            for _ in range(ops)
        ]
    start = world.sim.now
    for batch, offset in enumerate(range(0, ops, WARM_BATCH)):
        for slot, is_read in plan[offset:offset + WARM_BATCH]:
            if is_read:
                world.read(residents[slot])
            else:
                world.validate(residents[slot])
        # one session per batch logs off and a fresh principal takes its
        # slot: a trickle that keeps every layer warm but nearly idle
        slot = rng.randrange(len(residents))
        world.revoke([residents[slot]])
        residents[slot] = world.admit()
        world.sim.run_until(max(world.sim.now, start + (batch + 1) * WARM_TICK))
        world.sweep()
    return {}


def revocation_fanout(world: World, scale: float) -> dict:
    residents = world.residents
    fanout = _n(FANOUT, scale)
    for _ in range(_n(FANOUT_CYCLES, scale)):
        slots = world.rng.sample(range(len(residents)), fanout)
        world.revoke([residents[slot] for slot in slots])
        for slot in slots:
            residents[slot] = world.admit()
            world.read(residents[slot])
        # the fresh sessions' subscriptions settle and heartbeats run
        # before the next revocation
        world.advance(FANOUT_PAUSE)
        world.sweep()
    return {}


def _fault_plan(seed: int) -> FaultPlan:
    login = frozenset({"oasis:Login", "journal:Login"})
    bsc0 = frozenset({"oasis:bsc0", "journal:bsc0"})
    return FaultPlan(
        events=(
            LossBurst(at=1.0, duration=4.0, probability=0.3),
            DuplicationWindow(at=5.5, duration=1.5, probability=0.3),
            ReorderWindow(at=7.5, duration=1.5, probability=0.3, max_extra_delay=0.05),
            CrashRestart(at=9.5, service="bsc1", downtime=2.0),
            PartitionWindow(at=12.0, group_a=login, group_b=bsc0, duration=3.0),
        ),
        seed=seed,
    )


def faulty_request_path(world: World, scale: float) -> dict:
    plan = _fault_plan(world.seed)
    services = {service.name: service for service in world.services}
    restarted_at: list[float] = []

    def restart(name: str) -> None:
        world.linkage.restart(services[name])
        restarted_at.append(world.sim.now)

    chaos = ChaosController(
        world.net, plan,
        crash=lambda name: world.linkage.crash(services[name]),
        restart=restart,
    )
    world.is_down = chaos.is_down
    horizon = world.sim.now + plan.horizon()
    chaos.arm()
    requests = _n(FAULTY_REQUESTS, scale)
    deferred = 0
    recovery_ms = None

    def poll_recovery() -> None:
        nonlocal recovery_ms
        if restarted_at and recovery_ms is None:
            with world.untimed():
                if world.checker.converged():
                    recovery_ms = (world.sim.now - restarted_at[0]) * 1e3

    for _ in range(requests):
        world.advance(THINK)
        poll_recovery()
        home = world.pick_file()
        if chaos.is_down(home[0].custode):
            # the client cannot reach the file's shard: it backs off and
            # retries after another think time until the shard is back
            deferred += 1
            while chaos.is_down(home[0].custode):
                world.advance(THINK)
                poll_recovery()
        _request(world, home)
        world.sweep()
    # the gates judge convergence only once every fault has ceased
    world.sim.run_until(max(world.sim.now, horizon))
    chaos.disarm()
    poll_recovery()
    return {"recovery_ms": recovery_ms, "deferred_share": deferred / requests}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "request_path",
            "every layer once per request over ~2k live surrogates, so "
            "population-scaled costs such as surrogate scans show",
            RESIDENTS, request_path,
        ),
        Workload(
            "warm_reads",
            "read-dominated steady state whose working set fits the caches; "
            "wire, codec, journal and cascade stay nearly idle",
            RESIDENTS, warm_reads, warm=True,
        ),
        Workload(
            "revocation_fanout",
            "write-dominated: one logoff revokes 128 sessions; cascade, "
            "outbox, relay RPC, codec and kernel carry it",
            FANOUT_RESIDENTS, revocation_fanout,
        ),
        Workload(
            "faulty_request_path",
            "requests under loss, duplication, reordering, a shard crash and "
            "a partition: retry, suspicion, replay and tail-sync carry load",
            RESIDENTS, faulty_request_path, stale_bound=6.0,
        ),
    )
}
