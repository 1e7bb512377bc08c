"""Pins the request benchmark's deterministic records.

One 1/50-scale round of each workload at seed 7 must reproduce
``request_counters.json`` exactly: operations, kernel events and
messages per round, wire bytes per operation, revoke-to-deny latency,
and (where the workload reports them) recovery time and deferred share.
A change that moves a counter on purpose rewrites the file with

    PYTHONPATH=src:. python benchmarks/test_request_counters.py

and says which counter moved and why.  Run the check with

    PYTHONPATH=src:. python -m pytest benchmarks/test_request_counters.py
"""

import json
from pathlib import Path

import pytest

from benchmarks.request.workloads import WORKLOADS, run_round

PINNED = Path(__file__).with_name("request_counters.json")
SEED = 7
SCALE = 1 / 50


def measure(name: str) -> dict:
    return run_round(WORKLOADS[name], SEED, SCALE).deterministic


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_deterministic_records_match_the_pinned_values(name):
    assert measure(name) == json.loads(PINNED.read_text())[name]


if __name__ == "__main__":
    PINNED.write_text(
        json.dumps({name: measure(name) for name in WORKLOADS}, indent=1) + "\n"
    )
