"""Run the request benchmark in alternating parent/change pairs.

    python3 benchmarks/ab_pairs.py PARENT_REV --workload W [--seed N] [--pairs N]
        [--out-dir DIR] [--parent-dir DIR]

The *change* is the checkout this script lives in, as it stands on disk;
the *parent* is ``PARENT_REV``, checked out into a temporary
``git worktree`` (made where ``tempfile`` puts temporary directories,
``$TMPDIR`` if set) that is removed at the end.  ``--parent-dir`` runs
an existing checkout of the parent instead, such as a ``git archive``
copy, and leaves it in place.

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
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]


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
                        help="an existing checkout of the parent (no worktree)")
    args = parser.parse_args(argv)

    stem = Path(args.out_dir) / f"{args.workload}-s{args.seed}"
    outs = {"parent": Path(f"{stem}-parent.json"), "change": Path(f"{stem}-change.json")}
    for out in outs.values():
        if out.exists():
            parser.error(f"{out} exists; pairs are read back by position")
    worktree = None
    try:
        if args.parent_dir is not None:
            parent_root = Path(args.parent_dir).resolve()
        else:
            worktree = parent_root = Path(tempfile.mkdtemp(prefix="ab-parent-"))
            subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                            str(worktree), args.parent], check=True)
        sides = {"parent": parent_root, "change": ROOT}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                _run(sides[side], args.workload, args.seed, outs[side].resolve())
            print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)", flush=True)
    finally:
        if worktree is not None:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(worktree)], check=False)
            subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], check=False)
            if worktree.exists() and not any(worktree.iterdir()):
                worktree.rmdir()   # the add itself failed

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
