"""Cross-kernel determinism: the kernel must execute any interleaving of
schedule/schedule_at/cancel and ``Timer`` arm/re-arm/disarm exactly like
the tests' reference heap (:mod:`tests.heap_kernel`).

Execution order is defined by exact ``(time, seq)`` keys, and both
kernels must agree event-for-event.  The kernel keys its heap with
tuples, reuses one entry per ``Timer`` across arms (a re-arm leaves a
stale tuple behind) and compacts dead tuples; the reference keys it
with dataclasses and gives ``Timer`` a fresh handle per arm.  None of
that may be observable.  A Hypothesis interpreter drives both kernels
through the same operation sequence (including callbacks that schedule
from inside events, and cancel bursts that force compaction) and
asserts the dispatch logs are identical, alongside handle/counter
consistency across compaction.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime.simulator import Simulator, Timer
from tests.heap_kernel import HeapSimulator

# Delays from zero to ~8 days: sub-millisecond near-ties, exact binary
# fractions and near-equal triples around 0.25 s and 64 s.
DELAYS = [0.0, 1e-9, 0.0005, 0.001, 0.2499, 0.25, 0.2501, 1.0, 2.75,
          63.9, 64.0, 64.1, 300.0, 16000.0, 17000.0, 7e5]
TIMERS = 3
BURST = 300    # events scheduled and cancelled at once: enough to compact

op_strategy = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(range(len(DELAYS))),
              st.booleans()),
    st.tuples(st.just("schedule_at"), st.floats(0.0, 1000.0,
              allow_nan=False, allow_infinity=False), st.just(False)),
    st.tuples(st.just("cancel"), st.integers(0, 10_000), st.just(False)),
    st.tuples(st.just("run_for"), st.sampled_from([0.01, 0.3, 5.0, 100.0, 20000.0]),
              st.just(False)),
    st.tuples(st.just("step"), st.just(0), st.just(False)),
    st.tuples(st.just("arm"), st.sampled_from(range(len(DELAYS))),
              st.integers(0, TIMERS - 1)),
    st.tuples(st.just("disarm"), st.integers(0, TIMERS - 1), st.just(False)),
    st.tuples(st.just("burst"), st.sampled_from(range(len(DELAYS))), st.just(False)),
)


def interpret(sim, ops):
    """Run one op sequence; return the dispatch log and final counters."""
    log = []
    handles = []
    counter = [0]

    def spawning_cb(tag, delay_idx):
        # schedule-from-inside-an-event: inserts relative to a moving clock
        log.append((sim.now, tag))
        handles.append(
            sim.schedule(DELAYS[(delay_idx + 3) % len(DELAYS)], plain_cb, tag + 100000)
        )

    def plain_cb(tag):
        log.append((sim.now, tag))

    timers = [Timer(sim, plain_cb, -1 - i, name=f"timer:{i}") for i in range(TIMERS)]
    for timer in timers:
        timer.arm(DELAYS[-1])   # armed from the start: every "arm" op re-arms

    for kind, arg, flag in ops:
        counter[0] += 1
        tag = counter[0]
        if kind == "schedule":
            cb = (spawning_cb, (tag, arg)) if flag else (plain_cb, (tag,))
            handles.append(sim.schedule(DELAYS[arg], cb[0], *cb[1]))
        elif kind == "schedule_at":
            handles.append(sim.schedule_at(sim.now + arg, plain_cb, tag))
        elif kind == "cancel":
            if handles:
                sim.cancel(handles[arg % len(handles)])
        elif kind == "run_for":
            sim.run_for(arg)
        elif kind == "step":
            sim.step()
        elif kind == "arm":
            timers[flag].arm(DELAYS[arg])   # re-arms when already armed
        elif kind == "disarm":
            timers[arg].disarm()
        elif kind == "burst":
            for _ in range(BURST):
                sim.cancel(sim.schedule(DELAYS[arg], plain_cb, tag))
    sim.run()
    return log, sim.events_processed, sim.pending(), sim.cancelled_pending(), sim.now


@settings(max_examples=60, deadline=None)
@given(st.lists(op_strategy, min_size=1, max_size=60))
@example([("arm", 7, 0), ("arm", 8, 0), ("burst", 12, False)])
def test_kernel_and_reference_heap_execute_identically(ops):
    kernel = interpret(Simulator(), ops)
    heap = interpret(HeapSimulator(), ops)
    assert kernel[0] == heap[0]              # same events in the same order
    assert kernel[1] == heap[1]              # same events_processed
    assert kernel[2] == heap[2] == 0         # both fully drained
    assert kernel[3] == heap[3] == 0         # every dead entry reclaimed once
    assert kernel[4] == heap[4]              # same final virtual time


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(range(len(DELAYS))),
                       st.sampled_from(["keep", "cancel", "timer"])),
             min_size=300, max_size=400),
    st.randoms(use_true_random=False),
)
@example([(0, "timer")] * 300 + [(3, "cancel")] * 700, random.Random(0))
def test_counters_consistent_across_compaction_and_cascades(plan, rng):
    """pending()/cancelled_pending() stay exact through mass cancellation
    (compaction) while re-armed timers leave stale tuples behind, on both
    kernels."""
    for sim in (Simulator(), HeapSimulator()):
        cancels = []
        expected_live = 0
        for delay_idx, action in plan:
            if action == "timer":
                timer = Timer(sim, int)
                timer.arm(DELAYS[delay_idx])
                timer.arm(DELAYS[-1 - delay_idx])   # re-arm: one stale tuple
                cancels.append(timer.disarm)
            else:
                handle = sim.schedule(DELAYS[delay_idx], lambda: None)
                if action == "cancel":
                    assert sim.cancel(handle) is True
                    assert sim.cancel(handle) is False  # idempotent
                    continue
                cancels.append(lambda handle=handle: sim.cancel(handle))
            expected_live += 1
        assert sim.pending() == expected_live
        # cancel a random half of the survivors, possibly forcing compaction
        rng.shuffle(cancels)
        for cancel in cancels[: len(cancels) // 2]:
            assert cancel() is True
            expected_live -= 1
        assert sim.pending() == expected_live
        assert 0 <= sim.cancelled_pending() <= max(
            256, sim.pending() + sim.cancelled_pending()
        )
        ran = sim.run()
        assert ran == expected_live == sim.events_processed
        assert sim.pending() == 0
        assert sim.cancelled_pending() == 0
