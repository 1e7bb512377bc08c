"""Summarise or compare sets of request-benchmark runs.

    python3 benchmarks/request/compare.py A.json [B.json]

Each file holds the run records ``run.py --out`` appends.  With one file
this prints, per workload and metric, the median and quartiles over its
runs as JSON (the form of ``baseline.json``).  With two it prints each
side's median and quartiles, checks every end-to-end metric of B against
A's median within its bound from ``BENCHMARK.json``, and requires the
deterministic metrics of runs with the same seed to be exactly equal.
The exit code is non-zero if any check fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[2]


def _quartiles(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3, "runs": len(values)}


def summarise(runs: list[dict]) -> dict:
    """workload -> {"end_to_end" | "per_layer": metric -> quartiles,
    "deterministic": seed -> the distinct deterministic records (one
    when every run of the seed agreed)}."""
    out: dict = {}
    for record in runs:
        section = "per_layer" if record["trace"] else "end_to_end"
        workload = out.setdefault(record["workload"], {})
        values = {**record["metrics"], **record.get("extended", {})}
        for name, value in values.items():
            workload.setdefault(section, {}).setdefault(name, []).append(value)
        seen = workload.setdefault("deterministic", {}).setdefault(str(record["seed"]), [])
        if record["deterministic"] not in seen:
            seen.append(record["deterministic"])
    for workload in out.values():
        for section in ("end_to_end", "per_layer"):
            for name, values in workload.get(section, {}).items():
                workload[section][name] = _quartiles(values)
    return out


def compare(a: dict, b: dict, spec: dict) -> list[str]:
    """Print the side-by-side table; return the failed checks."""
    failures = []
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':<20} {'metric':<24} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'worse by':>9} {'bound':>6}")
    for workload in sorted(set(a) | set(b)):
        sides = a.get(workload, {}), b.get(workload, {})
        names = sorted(set(sides[0].get("end_to_end", {})) | set(sides[1].get("end_to_end", {})))
        for name in names:
            qa = sides[0].get("end_to_end", {}).get(name)
            qb = sides[1].get("end_to_end", {}).get(name)
            cells = [
                f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]" if q else "-"
                for q in (qa, qb)
            ]
            line = f"{workload:<20} {name:<24} {cells[0]:>32} {cells[1]:>32}"
            spec_entry = bounds.get(name)
            if qa and qb and spec_entry:
                change = (qb["median"] - qa["median"]) / qa["median"]
                worse = change if spec_entry["better"] == "lower" else -change
                line += f" {worse:>+9.1%} {spec_entry['bound']:>6.0%}"
                if worse > spec_entry["bound"]:
                    line += "  REGRESSION"
                    failures.append(f"{workload} {name} worse by {worse:.1%}")
            elif spec_entry:
                failures.append(f"{workload} {name} missing on one side")
            print(line)
        det_a, det_b = sides[0].get("deterministic", {}), sides[1].get("deterministic", {})
        for seed in sorted(set(det_a) | set(det_b)):
            records = det_a.get(seed, []) + det_b.get(seed, [])
            for name in sorted(set.intersection(*(set(r) for r in records))):
                values = {r[name] for r in records}
                if len(values) > 1:
                    failures.append(
                        f"{workload} {name} at seed {seed} differs: {sorted(values)}"
                    )
    return failures


def _load(path: str) -> list[dict]:
    return json.loads(Path(path).read_text())["runs"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    if len(argv) == 1:
        print(json.dumps(summarise(_load(argv[0])), indent=1))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = compare(summarise(_load(argv[0])), summarise(_load(argv[1])), spec)
    for failure in failures:
        print(f"FAIL {failure}")
    print("same within bounds" if not failures else f"{len(failures)} check(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
