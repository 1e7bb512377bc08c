"""Command-line entry of the request benchmark.

    python3 benchmarks/request/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE]

With ``--workload`` it runs that workload in this process: fresh rounds
of the seed, one after another, until ``--seconds`` of wall time have
passed.  It prints every metric as ``workload metric value unit`` and,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  A traced
run alternates untraced and traced rounds, so the tracing overhead is
measured in the same run.

Without ``--workload`` it runs every workload, each in its own
subprocess, one after another.  ``--out`` appends each run's record
(metrics, sample counts, deterministic metrics) to a JSON file that
``compare.py`` reads.  The exit code is non-zero if any correctness gate
failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parents[2]


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class Run:
    """Everything one run of one workload measured."""

    metrics: dict[str, float]
    samples: dict[str, int]           # sample count behind each timing
    deterministic: dict[str, float]   # identical on every run of a seed
    attempted: int


def measure(workload, seed: int, seconds: float, trace: int, spec: dict,
            scale: float = 1.0) -> Run:
    """Run rounds of ``workload`` until ``seconds`` have passed (and, when
    tracing, at least one untraced and one traced round exist).  Raises
    :class:`~benchmarks.request.world.GateFailure` if a gate fails."""
    from benchmarks.request import layers
    from benchmarks.request.workloads import run_round
    from benchmarks.request.world import GateFailure

    untraced, traced = [], []
    started = perf_counter()
    while True:
        trace_this = trace == 1 and len(untraced) > len(traced)
        result = run_round(workload, seed, scale, traced=trace_this)
        (traced if trace_this else untraced).append(result)
        if result.fingerprint != untraced[0].fingerprint:
            raise GateFailure("a replay of the same seed diverged")
        if perf_counter() - started >= seconds and (trace == 0 or traced):
            break
        gc.collect()

    # Set-up time is the median over rounds.  Every other wall-time
    # metric is taken per round (a p50 over that round's samples) and the
    # run reports its best round: the shared machine has slow stretches
    # lasting seconds, and the best of several rounds is far steadier
    # than their median.
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    for name in untraced[0].wall:
        values = [r.wall[name] for r in untraced]
        if name == "setup_s":
            metrics[name] = median(values)
        else:
            metrics[name] = max(values) if better.get(name) == "higher" else min(values)
    first = untraced[0]
    metrics["wire_bytes_per_op"] = first.deterministic["wire_bytes_per_op"]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = {name: sum(r.samples[name] for r in untraced) for name in first.samples}
    samples["rounds"] = len(untraced)
    if traced:
        # the layer split of the fastest traced round; its overhead
        # against the fastest untraced round
        best = min(traced, key=lambda r: r.timed_s)
        metrics.update(layers.layer_metrics(best.tracer, *best.counters, best.calls))
        metrics["bench.trace_overhead"] = best.timed_s / min(r.timed_s for r in untraced)
    return Run(metrics, samples, first.deterministic,
               sum(r.calls for r in untraced + traced))


def report(run: Run, wanted: list[dict]) -> dict[str, dict]:
    """The metrics ``wanted`` (a BENCHMARK.json list) with their units."""
    return {m["name"]: {"value": run.metrics[m["name"]], "unit": m["unit"]} for m in wanted}


def run_one(args, spec: dict) -> int:
    from benchmarks.request.workloads import WORKLOADS
    from benchmarks.request.world import GateFailure

    try:
        run = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, spec)
    except GateFailure as exc:
        print(f"{args.workload}: correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    reported = report(run, spec["per_layer" if args.trace else "end_to_end"])
    for name, entry in reported.items():
        print(f"{args.workload} {name} {entry['value']:.6g} {entry['unit']}")
    # a full request exists only on the request workloads, so its
    # latency is reported beside the end-to-end metrics, not among them
    extended = {} if args.trace else {
        name: run.metrics[name] for name in ("request_us_p50",) if name in run.metrics
    }
    for name, value in extended.items():
        print(f"{args.workload} {name} {value:.6g} us")
    for name, value in run.deterministic.items():
        print(f"{args.workload} {name} {value} (deterministic)")
    counts = " ".join(f"{name}={count}" for name, count in run.samples.items())
    print(f"{args.workload} samples {counts}")
    if args.out:
        _append(args.out, {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "metrics": {name: entry["value"] for name, entry in reported.items()},
            "extended": extended, "samples": run.samples,
            "deterministic": run.deterministic,
        })
    print(json.dumps({"correct": True, "attempted": run.attempted, "failed": 0,
                      "metrics": reported}))
    return 0


def _append(path: str, record: dict) -> None:
    out = Path(path)
    runs = json.loads(out.read_text())["runs"] if out.exists() else []
    runs.append(record)
    out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


def run_all(args, spec: dict) -> int:
    status, attempted, failed, metrics = 0, 0, 0, {}
    for workload in spec["workloads"]:
        name = workload["name"]
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.out:
            command += ["--out", args.out]
        child = subprocess.run(command, capture_output=True, text=True)
        lines = child.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(child.stderr)
        result = json.loads(lines[-1]) if lines else {}
        if child.returncode != 0 or not result.get("correct"):
            status = 1
        attempted += result.get("attempted", 0)
        failed += result.get("failed", 1)
        for metric, entry in result.get("metrics", {}).items():
            metrics[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": status == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append run records to this JSON file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    return run_one(args, spec) if args.workload else run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
