"""Unit tests for the discrete-event simulator kernel."""

import pytest

from repro.errors import SimulationError
from repro.runtime.profile import SimProfile
from repro.runtime.simulator import PeriodicTimer, Simulator, Timer


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule(1.0, order.append, label)
    sim.run()
    assert order == list("abcde")


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_schedule_during_event_runs_later():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, lambda: order.append("nested"))

    sim.schedule(1.0, first)
    sim.schedule(3.0, lambda: order.append("third"))
    sim.run()
    assert order == ["first", "nested", "third"]


def test_cancel_prevents_execution():
    sim = Simulator()
    ran = []
    handle = sim.schedule(1.0, ran.append, "x")
    assert sim.cancel(handle) is True
    assert sim.cancel(handle) is False
    sim.run()
    assert ran == []


def test_cancel_after_run_returns_false():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.cancel(handle) is False


def test_run_until_stops_at_boundary():
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.schedule(3.0, order.append, "c")
    sim.run_until(2.0)
    assert order == ["a", "b"]
    assert sim.now == 2.0
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_for_advances_relative():
    sim = Simulator(start_time=10.0)
    sim.schedule(5.0, lambda: None)
    sim.run_for(2.0)
    assert sim.now == 12.0
    assert sim.pending() == 1


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator(start_time=5.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(4.0, lambda: None)


def test_nan_times_rejected():
    """A NaN time has no place in the (time, seq) order."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        Timer(sim, lambda: None).arm(float("nan"))
    assert sim.pending() == 0


def test_run_backwards_rejected():
    sim = Simulator(start_time=5.0)
    with pytest.raises(SimulationError):
        sim.run_until(1.0)


def test_peek_time_skips_cancelled():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.cancel(h1)
    assert sim.peek_time() == 2.0


def test_pending_counts_uncancelled():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    sim.cancel(h1)
    assert sim.pending() == 1


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


def test_run_returns_event_count():
    sim = Simulator()
    for i in range(7):
        sim.schedule(float(i), lambda: None)
    assert sim.run() == 7
    assert sim.events_processed == 7


def test_max_events_guard():
    sim = Simulator()

    def rearm():
        sim.schedule(1.0, rearm)

    sim.schedule(1.0, rearm)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_draining_in_exactly_max_events_is_not_a_runaway():
    """Satellite regression: running exactly ``max_events`` events and
    draining the queue used to raise SimulationError even though nothing
    was pending — the guard must only fire when events remain."""
    sim = Simulator()
    for i in range(100):
        sim.schedule(float(i), lambda: None)
    assert sim.run(max_events=100) == 100
    assert sim.pending() == 0

    sim = Simulator()
    for i in range(100):
        sim.schedule(float(i), lambda: None)
    assert sim.run_until(200.0, max_events=100) == 100


def test_run_until_max_events_still_guards_runaways():
    sim = Simulator()

    def rearm():
        sim.schedule(0.5, rearm)

    sim.schedule(0.5, rearm)
    with pytest.raises(SimulationError):
        sim.run_until(1000.0, max_events=100)


# ------------------------------------------- (time, seq) order, pinned


def test_order_preserved_across_far_apart_delays():
    """Delays from sub-millisecond to days, inserted latest first, run
    in global time order."""
    sim = Simulator()
    order = []
    delays = [0.0001, 0.1, 0.25, 0.26, 1.0, 63.9, 64.0, 5000.0, 20000.0, 7e5]
    for d in reversed(delays):
        sim.schedule(d, order.append, d)
    sim.run()
    assert order == delays


def test_same_slot_ties_and_subtick_ordering():
    """Events a fraction of a millisecond apart sort by exact time, and
    exact-time ties by insertion order."""
    sim = Simulator()
    order = []
    sim.schedule(0.00050, order.append, "late")
    sim.schedule(0.00040, order.append, "mid-a")
    sim.schedule(0.00040, order.append, "mid-b")
    sim.schedule(0.00030, order.append, "early")
    sim.run()
    assert order == ["early", "mid-a", "mid-b", "late"]


def test_insert_behind_cursor_after_peek_still_runs_in_order():
    """An insert after peek_time() saw a later event still runs before
    that event."""
    sim = Simulator()
    order = []
    sim.schedule(100.0, order.append, "far")
    assert sim.peek_time() == 100.0
    sim.schedule(0.001, order.append, "near")
    sim.schedule(0.002, order.append, "near2")
    sim.run()
    assert order == ["near", "near2", "far"]


def test_compaction_keeps_survivors_and_counters_consistent():
    """Mass cancellation triggers compaction; bookkeeping and the
    surviving schedule must be unaffected."""
    sim = Simulator()
    ran = []
    keep = []
    for i in range(600):
        handle = sim.schedule(1.0 + i * 0.01, ran.append, i)
        if i % 10 == 0:
            keep.append((i, handle))
        else:
            sim.cancel(handle)
    assert sim.pending() == len(keep)
    assert sim.cancelled_pending() <= 256  # compaction reclaimed the rest
    sim.run()
    assert ran == [i for i, _ in keep]
    assert sim.pending() == 0
    assert sim.cancelled_pending() == 0


def test_cancel_releases_closure_immediately():
    class Big:
        pass

    sim = Simulator()
    big = Big()
    handle = sim.schedule(1000.0, lambda obj: None, big)
    sim.cancel(handle)
    assert handle.entry.fn is None
    assert handle.entry.args == ()


def test_profile_attributes_events_by_prefix():
    sim = Simulator()
    prof = SimProfile().attach(sim)
    sim.schedule(1.0, lambda: None, name="hb:svc-a")
    sim.schedule(1.0, lambda: None, name="hb:svc-b")
    sim.schedule(2.0, lambda: None, name="deliver:rpc-request")
    sim.schedule(3.0, lambda: None)
    sim.run()
    report = prof.report()
    assert report["total_events"] == 4
    assert report["subsystems"]["hb"]["events"] == 2
    assert report["subsystems"]["deliver"]["events"] == 1
    assert report["subsystems"]["(unnamed)"]["events"] == 1
    assert abs(sum(r["events_share"] for r in report["subsystems"].values()) - 1.0) < 1e-9
    prof.detach(sim)
    sim.schedule(1.0, lambda: None, name="hb:svc-a")
    sim.run()
    assert prof.total_events == 4  # detached: no further records


def test_tracer_sees_dispatch_order():
    sim = Simulator()
    seen = []
    sim.set_tracer(lambda time, name: seen.append((time, name)))
    sim.schedule(2.0, lambda: None, name="b")
    sim.schedule(1.0, lambda: None, name="a")
    sim.run()
    assert seen == [(1.0, "a"), (2.0, "b")]


# ----------------------------------------------------------------- timers


def test_timer_rearm_and_disarm():
    sim = Simulator()
    fired = []
    timer = Timer(sim, fired.append, "x", name="t:one")
    timer.arm(1.0)
    assert timer.armed
    timer.arm(2.0)  # re-arm supersedes the first arm
    sim.run()
    assert fired == ["x"]
    assert sim.now == 2.0
    assert not timer.armed
    timer.arm(1.0)
    assert timer.disarm() is True
    assert timer.disarm() is False
    sim.run()
    assert fired == ["x"]


def test_periodic_timer_fires_every_period():
    sim = Simulator()
    fired = []
    timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now), name="p:t")
    timer.start()
    sim.run_until(4.5)
    assert fired == [1.0, 2.0, 3.0, 4.0]
    timer.cancel()
    sim.run_until(10.0)
    assert len(fired) == 4
    assert sim.pending() == 0


def test_periodic_timer_poke_runs_now_and_rearms():
    sim = Simulator(start_time=5.0)
    fired = []
    timer = PeriodicTimer(sim, 2.0, lambda: fired.append(sim.now), name="p:t")
    timer.poke()
    assert fired == [5.0]
    sim.run_until(9.5)
    assert fired == [5.0, 7.0, 9.0]


def test_periodic_timer_reschedule_overrides_next_interval():
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        if len(fired) == 1:
            timer.reschedule(0.25)

    timer = PeriodicTimer(sim, 1.0, tick, name="p:t")
    timer.start()
    sim.run_until(3.5)
    assert fired == [1.0, 1.25, 2.25, 3.25]


def test_periodic_timer_reschedule_clamps_negative_delay():
    """Satellite regression: float accumulation can compute a fractionally
    negative wake-up delay; the chain must clamp to zero, not die with
    'cannot schedule in the past'."""
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        if len(fired) == 1:
            timer.reschedule(-1e-13)

    timer = PeriodicTimer(sim, 1.0, tick, name="p:t")
    timer.start()
    sim.run_until(2.5)
    assert fired == [1.0, 1.0, 2.0]


def test_periodic_timer_cancel_from_within_callback():
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        if len(fired) == 2:
            timer.cancel()

    timer = PeriodicTimer(sim, 1.0, tick, name="p:t")
    timer.start()
    sim.run()
    assert fired == [1.0, 2.0]
    assert sim.pending() == 0
