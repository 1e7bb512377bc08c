"""Hot-path scaling of the event broker (section 6.8 infrastructure).

The routing index must make ``signal()`` cost a function of the number
of *matching* registrations, not of the total registered population —
OASIS brokers carry one registration per outstanding credential-record
dependency, so the population grows with every issued certificate.

Assertions are primarily counter-based (exact, deterministic); the
timing ratios are deliberately generous so the suite stays green on
noisy CI machines.  Raw timings go to BENCH_hotpath.json.
"""

import time

from benchmarks.conftest import bench_quick, record, record_bench
from repro.events.broker import EventBroker
from repro.events.model import WILDCARD, Event, Var, template
from repro.runtime.clock import ManualClock

SMALL = 100
LARGE = 2_000 if bench_quick() else 10_000
SIGNALS = 200


def _sink(event, horizon):
    pass


def _loaded_broker(n_decoys):
    """A broker with ``n_decoys`` non-matching registrations plus one
    registration for the hot event type."""
    broker = EventBroker("P", clock=ManualClock())
    session = broker.establish_session(_sink)
    for i in range(n_decoys):
        broker.register(session, template(f"Decoy{i}", WILDCARD))
    broker.register(session, template("Hot", Var("x")))
    return broker


def _time_signals(broker):
    start = time.perf_counter()
    for i in range(SIGNALS):
        broker.signal(Event("Hot", (i,)))
    return time.perf_counter() - start


def test_signal_flat_under_nonmatching_load():
    """The acceptance gate: signal() roughly flat 100 -> 10k decoys."""
    small = _loaded_broker(SMALL)
    large = _loaded_broker(LARGE)
    t_small = _time_signals(small)
    t_large = _time_signals(large)

    # exact: only the one matching registration was ever examined
    assert small.stats.routing_candidates == SIGNALS
    assert large.stats.routing_candidates == SIGNALS
    assert large.stats.routing_skipped == SIGNALS * LARGE
    # generous: a linear scan would be ~LARGE/SMALL (>= 20x); indexed
    # routing should be within noise of flat
    assert t_large < 8 * t_small, (
        f"signal() not flat: {t_small:.4f}s @ {SMALL} regs vs "
        f"{t_large:.4f}s @ {LARGE} regs"
    )
    record_bench(
        "hotpath", "signal_fanout",
        registrations_small=SMALL,
        registrations_large=LARGE,
        signals=SIGNALS,
        seconds_small=t_small,
        seconds_large=t_large,
        ratio=t_large / t_small if t_small else None,
        candidates_per_signal=large.stats.routing_candidates / SIGNALS,
    )


def test_literal_subbucket_routing(benchmark):
    """Registrations on the same event type but different first-parameter
    literals live in separate sub-buckets; a signal touches only its own."""
    broker = EventBroker("P", clock=ManualClock())
    session = broker.establish_session(_sink)
    population = LARGE // 10
    for i in range(population):
        broker.register(session, template("Seen", f"badge{i}", WILDCARD))

    benchmark(broker.signal, Event("Seen", ("badge0", "sensor")))
    per_signal = broker.stats.routing_candidates / max(1, broker.stats.events_signalled)
    record(benchmark, population=population, candidates_per_signal=per_signal)
    assert per_signal == 1.0


def test_close_session_proportional_to_own_registrations():
    """Per-session registration sets: closing a 10-registration session
    must not scan the whole table."""
    def build(n_other):
        broker = EventBroker("P", clock=ManualClock())
        crowd = broker.establish_session(_sink)
        for i in range(n_other):
            broker.register(crowd, template(f"Crowd{i}", WILDCARD))
        return broker

    def close_cost(broker, rounds=50):
        start = time.perf_counter()
        for _ in range(rounds):
            session = broker.establish_session(_sink)
            for j in range(10):
                broker.register(session, template(f"Mine{j}", WILDCARD))
            broker.close_session(session)
        return time.perf_counter() - start

    t_small = close_cost(build(SMALL))
    t_large = close_cost(build(LARGE))
    assert t_large < 8 * t_small, (
        f"close_session scans the table: {t_small:.4f}s vs {t_large:.4f}s"
    )
    record_bench(
        "hotpath", "close_session",
        other_registrations_small=SMALL,
        other_registrations_large=LARGE,
        seconds_small=t_small,
        seconds_large=t_large,
        ratio=t_large / t_small if t_small else None,
    )


def test_retro_replay_bisect():
    """Retrospective registration over a deep buffer: the per-name index
    plus timestamp bisect examines only the tail after ``since``."""
    clock = ManualClock()
    broker = EventBroker("P", clock=clock, retention=10_000.0)
    session = broker.establish_session(_sink)
    buffered = LARGE
    for i in range(buffered):
        clock.advance(0.01)
        broker.signal(Event("Tick", (i,)))
    cutoff = clock.now() - 0.05   # only the last handful qualify

    pre = broker.preregister(session, template("Tick", Var("n")))
    start = time.perf_counter()
    replay = broker.retro_register(pre, since=cutoff)
    elapsed = time.perf_counter() - start

    assert 0 < len(replay) <= 6
    # the bisect means almost nothing before the cutoff was examined
    assert broker.stats.replay_scanned <= len(replay) + 1
    record_bench(
        "hotpath", "retro_replay",
        buffered=buffered,
        replayed=len(replay),
        scanned=broker.stats.replay_scanned,
        seconds=elapsed,
    )
