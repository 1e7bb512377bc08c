"""Shared fixtures and helpers for the benchmark harness.

Each benchmark reproduces one experiment id from DESIGN.md section 4
(E1-E14).  Measured series beyond the timed statistic are recorded in
``benchmark.extra_info`` so they appear in ``--benchmark-json`` output,
and printed for eyeballing against EXPERIMENTS.md.
"""

import json
import os
import time

import pytest

from repro.core import GroupService, HostOS, OasisService, ServiceRegistry
from repro.core.linkage import LocalLinkage
from repro.core.types import ObjectType
from repro.runtime.clock import ManualClock

LOGIN_RDL = "def LoggedOn(u, h)  u: userid  h: string\nLoggedOn(u, h) <- "


class BenchWorld:
    """A Login + generic-service world for the core benchmarks."""

    def __init__(self):
        self.clock = ManualClock()
        self.registry = ServiceRegistry()
        self.linkage = LocalLinkage()
        self.login = OasisService(
            "Login", registry=self.registry, linkage=self.linkage, clock=self.clock
        )
        self.login.export_type(ObjectType("Login.userid"), "userid")
        self.login.add_rolefile("main", LOGIN_RDL)
        self.host = HostOS("bench-host")

    def user(self, name):
        domain = self.host.create_domain()
        cert = self.login.enter_role(domain.client_id, "LoggedOn", (name, "bench-host"))
        return domain.client_id, cert


@pytest.fixture
def bench_world():
    return BenchWorld()


def record(benchmark, **series):
    """Attach a measured series to the benchmark output and print it."""
    for key, value in series.items():
        benchmark.extra_info[key] = value
    line = ", ".join(f"{k}={v}" for k, v in series.items())
    print(f"\n  [{benchmark.name}] {line}")


class Counted:
    """``fn`` with a count of its calls and their total wall time.

    ``benchmark.stats`` is None under ``--benchmark-disable``, so a test
    that reports a per-call figure benchmarks a ``Counted`` and divides by
    its ``calls``: the same in both modes, warm-up calls included."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - started
            self.calls += 1

    @property
    def mean(self):
        return self.seconds / self.calls


# --------------------------------------------- hot-path results (BENCH_hotpath)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def hotpath_out_path():
    return os.environ.get(
        "BENCH_HOTPATH_OUT", os.path.join(_REPO_ROOT, "BENCH_hotpath.json")
    )


def bench_quick():
    """CI smoke mode: shrink the big cases so the job stays fast.  The
    asymptotic assertions (counters, ratios) hold at every size."""
    return os.environ.get("BENCH_QUICK", "") not in ("", "0")


def alternating_pairs(measure_a, measure_b, pairs=5):
    """``pairs`` ``(a, b)`` results of two measurements taken in this
    process, alternating which runs first.  A wall-clock ratio gate reads
    the median of the per-pair ratios: two throughputs measured minutes
    apart move with the machine's load, a pair taken back to back much
    less."""
    results = []
    for pair in range(pairs):
        if pair % 2:
            b = measure_b()
            a = measure_a()
        else:
            a = measure_a()
            b = measure_b()
        results.append((a, b))
    return results


def record_hotpath(name, **data):
    """Merge one experiment's results into BENCH_hotpath.json.

    Each hot-path benchmark calls this once; the file accumulates a
    ``{experiment: {series...}}`` mapping that CI uploads as an artifact,
    so results stay machine-readable across separate pytest runs."""
    _record_json(hotpath_out_path(), "hotpath", name, data)


# ------------------------------------------ fault/recovery results (BENCH_faults)


def faults_out_path():
    return os.environ.get(
        "BENCH_FAULTS_OUT", os.path.join(_REPO_ROOT, "BENCH_faults.json")
    )


def record_faults(name, **data):
    """Merge one fault/recovery experiment's results into BENCH_faults.json
    (same accumulate-and-merge contract as :func:`record_hotpath`)."""
    _record_json(faults_out_path(), "faults", name, data)


# --------------------------------------------------- codec results (BENCH_codec)


def codec_out_path():
    return os.environ.get(
        "BENCH_CODEC_OUT", os.path.join(_REPO_ROOT, "BENCH_codec.json")
    )


def record_codec(name, **data):
    """Merge one wire-codec experiment's results into BENCH_codec.json
    (same accumulate-and-merge contract as :func:`record_hotpath`)."""
    _record_json(codec_out_path(), "codec", name, data)


# ------------------------------------------------ sharding results (BENCH_shard)


def shard_out_path():
    return os.environ.get(
        "BENCH_SHARD_OUT", os.path.join(_REPO_ROOT, "BENCH_shard.json")
    )


def record_shard(name, **data):
    """Merge one sharding experiment's results into BENCH_shard.json
    (same accumulate-and-merge contract as :func:`record_hotpath`)."""
    _record_json(shard_out_path(), "shard", name, data)


# ------------------------------------- durability results (BENCH_durability)


def durability_out_path():
    return os.environ.get(
        "BENCH_DURABILITY_OUT", os.path.join(_REPO_ROOT, "BENCH_durability.json")
    )


def record_durability(name, **data):
    """Merge one durability/recovery experiment's results into
    BENCH_durability.json (same accumulate-and-merge contract as
    :func:`record_hotpath`)."""
    _record_json(durability_out_path(), "durability", name, data)


# ------------------------------------------------ kernel results (BENCH_runtime)


def runtime_out_path():
    return os.environ.get(
        "BENCH_RUNTIME_OUT", os.path.join(_REPO_ROOT, "BENCH_runtime.json")
    )


def record_runtime(name, **data):
    """Merge one kernel experiment's results into BENCH_runtime.json
    (same accumulate-and-merge contract as :func:`record_hotpath`)."""
    _record_json(runtime_out_path(), "runtime", name, data)


def _record_json(path, kind, name, data):
    results = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                results = json.load(fh)
        except (OSError, ValueError):
            results = {}
    results[name] = data
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    line = ", ".join(f"{k}={v}" for k, v in data.items())
    print(f"\n  [{kind}:{name}] {line}")
