"""E10 (section 6.7): bead machine cost scales with matches, not volume.

"Only events that are truly of interest are ever registered, and as
beads are linked there is no need for searching or other 'expensive'
operations."  We run the Together expression over event streams of
growing size with a fixed number of relevant events, and over streams
where everything is relevant, and measure throughput and registration
counts.
"""

import pytest

from benchmarks.conftest import Counted, record
from repro.events.composite.machine import Machine
from repro.events.composite.parser import parse_expression
from repro.events.model import Event

TOGETHER = 'Enter("A", R); Enter("B", R) - Leaves("A", R)'
VOLUMES = [1_000, 10_000]


def make_noise_stream(n, relevant_every):
    """n events; every ``relevant_every``-th concerns A or B, the rest
    are other people the machine never registered for."""
    events = []
    for i in range(n):
        t = float(i + 1)
        if i % relevant_every == 0:
            who = "A" if (i // relevant_every) % 2 == 0 else "B"
            events.append(Event("Enter", (who, f"room{i % 5}"), timestamp=t))
        else:
            events.append(Event("Enter", (f"person{i}", f"room{i % 5}"), timestamp=t))
    return events


@pytest.mark.parametrize("n", VOLUMES)
def test_e10_throughput_sparse_matches(benchmark, n):
    """1% of events are relevant: work stays near-constant per event."""
    events = make_noise_stream(n, relevant_every=100)

    @Counted
    def run():
        signals = []
        machine = Machine(parse_expression(TOGETHER),
                          lambda t, e: signals.append(t), start=0.0)
        for event in events:
            machine.post(event)
        machine.advance_horizon(float("inf"))
        return machine

    machine = benchmark(run)
    per_event_us = run.mean / n * 1e6
    record(benchmark, events=n, us_per_event=round(per_event_us, 2),
           registrations=machine.registrations_made,
           beads=machine.beads_created)


@pytest.mark.parametrize("n", VOLUMES)
def test_e10_throughput_dense_matches(benchmark, n):
    """Every event is relevant: cost tracks the match rate."""
    events = make_noise_stream(n, relevant_every=1)

    def run():
        machine = Machine(parse_expression(TOGETHER), lambda t, e: None, start=0.0)
        for event in events:
            machine.post(event)
        machine.advance_horizon(float("inf"))
        return machine

    machine = benchmark(run)
    record(benchmark, events=n, registrations=machine.registrations_made,
           beads=machine.beads_created)


def test_e10_registration_minimisation(benchmark):
    """The alphabet is explicit: at any moment only the templates the
    evaluation is actually waiting for are registered (section 6.4.2)."""

    def run():
        machine = Machine(parse_expression(TOGETHER), lambda t, e: None, start=0.0)
        waiting_over_time = [len(machine.waiting_templates())]
        machine.post(Event("Enter", ("A", "T14"), timestamp=1.0))
        waiting_over_time.append(len(machine.waiting_templates()))
        machine.post(Event("Enter", ("B", "T14"), timestamp=2.0))
        machine.advance_horizon(3.0)
        waiting_over_time.append(len(machine.waiting_templates()))
        return waiting_over_time

    waiting = benchmark(run)
    record(benchmark, live_registrations_over_time=waiting)
    assert max(waiting) <= 3


def test_e10_squash_expression_full_game(benchmark):
    """The densest expression in the paper over a 1000-event rally."""
    source = (
        "$serve(s); (((floor | wall | hit(i)) - front)"
        " | ($front; ((floor; floor) | front) - hit(i))"
        " | ($hit(i); (floor | hit(j)) - front)"
        " | (hit(s) - hit(i) {i != s})"
        " | ($hit(i); hit(i) - hit(j) {j != i}))"
    )
    events = []
    t = 0.0
    for point in range(50):
        t += 1.0
        events.append(Event("serve", (1 + point % 2,), timestamp=t))
        for rally in range(8):
            t += 0.5
            events.append(Event("front", (), timestamp=t))
            t += 0.5
            events.append(Event("hit", (1 + (rally + point) % 2,), timestamp=t))
        t += 0.5
        events.append(Event("floor", (), timestamp=t))
        t += 0.5
        events.append(Event("floor", (), timestamp=t))

    def run():
        signals = []
        machine = Machine(parse_expression(source),
                          lambda tt, e: signals.append(tt), start=0.0)
        for event in events:
            machine.post(event)
            machine.advance_horizon(event.timestamp)
        machine.advance_horizon(float("inf"))
        return len(signals)

    n_signals = benchmark(run)
    record(benchmark, events=len(events), end_of_point_signals=n_signals)
    assert n_signals >= 50   # at least one signal per point
