"""Smoke test of the request benchmark: every workload at 1/50 size
passes its correctness gates and reports every metric BENCHMARK.json
names, with its unit.

    PYTHONPATH=src:. python -m pytest benchmarks/request
"""

import math

import pytest

from benchmarks.request.run import load_spec, measure, report
from benchmarks.request.workloads import WORKLOADS

SPEC = load_spec()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_reports_every_metric(name):
    # seconds=0: one untraced and one traced round, then stop
    run = measure(WORKLOADS[name], seed=7, seconds=0, trace=1, spec=SPEC, scale=1 / 50)
    for section in ("end_to_end", "per_layer"):
        reported = report(run, SPEC[section])
        for metric in SPEC[section]:
            entry = reported[metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["value"]), metric["name"]
    for metric in SPEC["end_to_end"]:
        assert run.metrics[metric["name"]] > 0, metric["name"]
    assert run.metrics["network.unaccounted"] == 0
    assert run.deterministic["ops_per_round"] > 0


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
