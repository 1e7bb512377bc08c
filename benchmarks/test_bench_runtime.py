"""Runtime-kernel benchmarks: the timer wheel vs the heap-only baseline.

The acceptance gates for the hierarchical-timer-wheel kernel:

* a 100k-timer micro-bench — a standing population of 100k parked
  session-expiry timers with a hot event stream scheduling and
  dispatching against it — runs >= 3x the kernel events/sec of the
  heap-only baseline (``repro.baselines.HeapSimulator``).  The heap
  pays O(log n) Python-level comparisons per push/pop against the
  standing population; the wheel pays O(1) per event.  The two kernels
  run in alternating pairs in one process and the gate reads the
  median of the per-pair ratios, so a change in machine load between
  the two sides cannot pass or fail it;
* a 100-service fleet macro-bench (heartbeat chains + subscribe RPC
  traffic + revocation cascades over a lossless network) replays
  **byte-identically** on both kernels: same seed -> same events
  processed, same (time, name) dispatch digest.  Throughput for both
  kernels is recorded; the determinism assertions are exact.

Measured series go to BENCH_runtime.json (``BENCH_RUNTIME_OUT``) for
the CI artifact.
"""

import hashlib
import random
import statistics
import time

from benchmarks.conftest import alternating_pairs, bench_quick, record_runtime
from repro.baselines.heap_kernel import HeapSimulator
from repro.core import HostOS, OasisService, ServiceRegistry
from repro.core.linkage import SimLinkage
from repro.core.types import ObjectType
from repro.runtime.clock import SimClock
from repro.runtime.network import Network
from repro.runtime.simulator import Simulator, Timer

PARKED = 100_000          # standing timer population (the "100k" in 100k-timer)
HOT = 100_000             # hot events scheduled + dispatched against it
MICRO_PAIRS = 5           # alternating wheel/heap runs; the gate reads the median ratio
CHURN_TIMERS = 50_000 if bench_quick() else 100_000
CHURN_RESETS = 4

FLEET_SERVICES = 30 if bench_quick() else 100
FLEET_USERS = 10 if bench_quick() else 30
FLEET_DURATION = 8.0 if bench_quick() else 20.0

LOGIN_RDL = """
def LoggedOn(u, h)  u: userid  h: string
LoggedOn(u, h) <-
"""

CONSUMER_RDL = """
import Login.userid
Reader(u) <- Login.LoggedOn(u, h)*
"""


# ------------------------------------------------------- 100k-timer micro-bench


def _micro_dispatch_mix(sim_cls):
    """100k parked far-future timers; a hot stream schedules one event
    ~1 ms out and dispatches it, 100k times.  Every hot push lands at
    the front of the schedule, which is the heap's worst case (a full
    sift) and the wheel's common case (current level-0 page)."""
    sim = sim_cls()
    rng = random.Random(7)
    for _ in range(PARKED):
        sim.schedule(3600.0 + rng.random() * 100, int)

    def tick():
        sim.schedule(0.001, tick)

    sim.schedule(0.001, tick)
    before = sim.events_processed
    start = time.perf_counter()
    sim.run_until(0.001 * HOT)
    wall = time.perf_counter() - start
    return sim.events_processed - before, wall


def _micro_timer_churn(sim_cls):
    """Heartbeat-watchdog pattern: a standing population of deadline
    timers, each reset (disarm + re-arm) several times and finally
    fired.  Exercises the O(1) cancel path and dead-entry reclamation."""
    sim = sim_cls()
    rng = random.Random(11)
    timers = [Timer(sim, int) for _ in range(CHURN_TIMERS)]
    ops = 0
    start = time.perf_counter()
    for t in timers:
        t.arm(3.0 + rng.random())
        ops += 1
    for _ in range(CHURN_RESETS):
        for t in timers:
            t.disarm()
            t.arm(3.0 + rng.random())
            ops += 2
    sim.run_until(10.0)
    wall = time.perf_counter() - start
    assert sim.events_processed == CHURN_TIMERS  # every timer fired once
    return ops + sim.events_processed, wall


def _paired_rates(fn):
    """``MICRO_PAIRS`` (wheel, heap) runs of ``fn``.  Returns the event
    count, the per-pair wheel/heap rate ratios and the median rate of
    each kernel."""
    pairs = alternating_pairs(lambda: fn(Simulator), lambda: fn(HeapSimulator), MICRO_PAIRS)
    counts = {n for run in pairs for n, _wall in run}
    assert len(counts) == 1  # same seed -> same event count, every kernel
    wheel = [n / wall for (n, wall), _ in pairs]
    heap = [n / wall for _, (n, wall) in pairs]
    ratios = [w / h for w, h in zip(wheel, heap)]
    return counts.pop(), ratios, statistics.median(wheel), statistics.median(heap)


def test_micro_100k_timer_wheel_3x_over_heap_baseline():
    """The tentpole gate: >= 3x kernel events/sec on the 100k-timer
    micro-bench vs the heap-only baseline (median of paired runs)."""
    n, ratios, wheel_eps, heap_eps = _paired_rates(_micro_dispatch_mix)
    assert n == HOT - 1  # identical workloads actually ran
    speedup = statistics.median(ratios)
    churn_n, churn_ratios, churn_wheel, churn_heap = _paired_rates(_micro_timer_churn)
    churn_speedup = statistics.median(churn_ratios)
    record_runtime(
        "micro_100k_timers",
        parked_timers=PARKED,
        hot_events=n,
        pairs=MICRO_PAIRS,
        wheel_events_per_sec=round(wheel_eps),
        heap_events_per_sec=round(heap_eps),
        speedup=round(speedup, 2),
        speedups=[round(r, 2) for r in ratios],
        churn_ops=churn_n,
        churn_wheel_ops_per_sec=round(churn_wheel),
        churn_heap_ops_per_sec=round(churn_heap),
        churn_speedup=round(churn_speedup, 2),
    )
    assert speedup >= 3.0, (
        f"wheel is only {speedup:.2f}x the heap baseline "
        f"(median of pairs {[round(r, 2) for r in ratios]})"
    )
    # the cancel-heavy churn path must never regress below the baseline
    assert churn_speedup > 1.0


# ------------------------------------------------- 100-service fleet macro-bench


def _fleet_run(sim_cls):
    """One Login issuer + consumer fleet with heartbeat chains; every
    virtual second one session logs out (revocation cascade to its three
    consumers, subscribe RPCs from the replacement login).  Returns
    (events_processed, wall seconds, dispatch digest)."""
    sim = sim_cls()
    net = Network(sim, seed=23, default_delay=0.01)
    clock = SimClock(sim)
    registry = ServiceRegistry()
    linkage = SimLinkage(net)
    login = OasisService(
        "Login", registry=registry, linkage=linkage, clock=clock
    )
    login.export_type(ObjectType("Login.userid"), "userid")
    login.add_rolefile("main", LOGIN_RDL)
    consumers = []
    for i in range(FLEET_SERVICES - 1):
        consumer = OasisService(
            f"Svc{i:03d}", registry=registry, linkage=linkage, clock=clock
        )
        consumer.add_rolefile("main", CONSUMER_RDL)
        consumers.append(consumer)
    for consumer in consumers:
        linkage.monitor(login, consumer, period=1.0, grace=2.0)
    host = HostOS("bench-host")
    rng = random.Random("fleet-bench:23")
    sessions = []
    next_user = [0]

    def login_one():
        user = f"u{next_user[0]}"
        next_user[0] += 1
        domain = host.create_domain()
        cert = login.enter_role(domain.client_id, "LoggedOn", (user, "bench-host"))
        for consumer in rng.sample(consumers, 3):
            consumer.enter_role(domain.client_id, "Reader", credentials=(cert,))
        sessions.append(cert)

    def churn():
        login.exit_role(sessions.pop(0))
        login_one()

    for _ in range(FLEET_USERS):
        login_one()
    for i in range(int(FLEET_DURATION)):
        sim.schedule_at(0.5 + i, churn)

    digest = hashlib.blake2b(digest_size=16)
    sim.set_tracer(lambda t, name: digest.update(f"{t!r}|{name}\n".encode()))
    before = sim.events_processed
    start = time.perf_counter()
    sim.run_until(FLEET_DURATION + 2.0)
    wall = time.perf_counter() - start
    return sim.events_processed - before, wall, digest.hexdigest()


def test_macro_fleet_byte_identical_and_throughput_recorded():
    """Dual-kernel determinism at fleet scale: same seed -> same events
    processed and the same (time, name) digest over every dispatch."""
    wheel_events, wheel_wall, wheel_digest = _fleet_run(Simulator)
    heap_events, heap_wall, heap_digest = _fleet_run(HeapSimulator)
    assert wheel_digest == heap_digest
    assert wheel_events == heap_events
    # the fleet actually ran: at minimum the heartbeat chains ticked
    # (delivery batching folds same-tick arrivals into single events)
    assert wheel_events > 2 * FLEET_SERVICES * FLEET_DURATION
    record_runtime(
        "macro_fleet",
        services=FLEET_SERVICES,
        users=FLEET_USERS,
        duration_s=FLEET_DURATION,
        events=wheel_events,
        wheel_events_per_sec=round(wheel_events / wheel_wall),
        heap_events_per_sec=round(heap_events / heap_wall),
        speedup=round((wheel_events / wheel_wall) / (heap_events / heap_wall), 2),
        digest=wheel_digest,
    )
