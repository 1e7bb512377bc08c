"""Run the request benchmark in alternating parent/change pairs.

    python3 benchmarks/ab_pairs.py PARENT_REV --workload W [--seed N] [--pairs N]
        [--out-dir DIR] [--parent-dir DIR]

The *change* is the checkout this script lives in, as it stands on disk;
the *parent* is ``PARENT_REV``.  Both sides run from sibling directories
of one temporary root (made where ``tempfile`` puts temporary
directories, ``$TMPDIR`` if set, and removed at the end), so neither
side runs from a path of its own: ``ROOT/parent`` is a ``git worktree``
of ``PARENT_REV``, or a copy of ``--parent-dir`` (an existing checkout of
the parent, such as a ``git archive`` copy, which is left in place), and
``ROOT/change`` is a copy of this checkout's working tree.  Copies skip
``.git`` and every cache directory, so both sides compile from source.

Each pair runs ``benchmarks/request/run.py --workload W --seed N`` once
on each side, with the benchmark's own settings; odd pairs run the
parent first, even pairs the change, so a slow stretch of the machine
does not always land on the same side.  Records go to
``DIR/<workload>-s<seed>-parent.json`` and ``...-change.json`` (the
``--out`` files ``compare.py`` reads; both must not exist yet).  At the
end this prints ``compare.py``'s table (parent as A, change as B) and,
for every end-to-end metric, the number of pairs the change won, which
``compare.py`` does not count.  The exit code is ``compare.py``'s.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                               ".benchmarks")


def _run(side: Path, workload: str, seed: int, out: Path) -> None:
    command = [sys.executable, str(side / "benchmarks" / "request" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--out", str(out)]
    child = subprocess.run(command, cwd=side, capture_output=True, text=True)
    if child.returncode != 0:
        sys.stderr.write(child.stdout[-2000:] + child.stderr[-2000:])
        raise SystemExit(f"run failed in {side} (exit {child.returncode})")


def _wins(parent: list[dict], change: list[dict], spec: dict) -> list[str]:
    """One line per end-to-end metric: pairs won by the change, and the
    median per-pair change relative to the parent."""
    lines = []
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        wins = ties = 0
        deltas = []
        for a, b in zip(parent, change):
            va, vb = a["metrics"][name], b["metrics"][name]
            deltas.append((vb - va) / va if va else 0.0)
            if va == vb:
                ties += 1
            elif (vb < va) == lower:
                wins += 1
        lines.append(f"{name:<20} change won {wins}/{len(parent)} pairs"
                     f" ({ties} tied), median pair delta {median(deltas):+.1%}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git rev of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--parent-dir", default=None,
                        help="an existing checkout of the parent, copied (no worktree)")
    args = parser.parse_args(argv)

    stem = Path(args.out_dir) / f"{args.workload}-s{args.seed}"
    outs = {"parent": Path(f"{stem}-parent.json"), "change": Path(f"{stem}-change.json")}
    for out in outs.values():
        if out.exists():
            parser.error(f"{out} exists; pairs are read back by position")
    root = Path(tempfile.mkdtemp(prefix="ab-pairs-"))
    sides = {"parent": root / "parent", "change": root / "change"}
    worktree = False
    try:
        if args.parent_dir is not None:
            shutil.copytree(Path(args.parent_dir).resolve(), sides["parent"], ignore=_SKIP)
        else:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                            str(sides["parent"]), args.parent], check=True)
            worktree = True
        shutil.copytree(ROOT, sides["change"], ignore=_SKIP)
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                _run(sides[side], args.workload, args.seed, outs[side].resolve())
            print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)", flush=True)
    finally:
        if worktree:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(sides["parent"])], check=False)
            subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], check=False)
        shutil.rmtree(root, ignore_errors=True)

    compared = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "request" / "compare.py"),
         str(outs["parent"]), str(outs["change"])], capture_output=True, text=True)
    sys.stdout.write(compared.stdout)
    sys.stderr.write(compared.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {side: json.loads(out.read_text())["runs"] for side, out in outs.items()}
    print(f"\nper-pair wins of the change ({args.workload}, seed {args.seed}):")
    for line in _wins(runs["parent"], runs["change"], spec):
        print(f"  {line}")
    return compared.returncode


if __name__ == "__main__":
    sys.exit(main())
