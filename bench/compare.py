"""A/B comparison of benchmark runs: parent commit against a change.

Post-process result files written by ``run.py -o``::

    python3 bench/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

or run the pairs first, then post-process them::

    python3 bench/compare.py --run PARENT_CHECKOUT CHANGE_CHECKOUT --out DIR

``--run`` makes ``PAIRS`` pairs of runs of every workload in
``BENCHMARK.json``, seed i for pair i on both sides, alternating which side
runs first, and writes every result under ``DIR/{parent,change}/``.

For every workload and end-to-end metric it prints each side's median and
quartiles, the change in the median and a verdict, using the bounds in
``BENCHMARK.json``:

* ``better``: the change wins at least 9 of 10 pairs (pair i is the i-th
  run of each side by seed; ties count for neither) and the medians differ
  by more than the parent's interquartile range;
* ``unresolved``: either side's interquartile range exceeds the bound (as a
  share of its median), unless every change run reads better than every
  parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``unchanged``: otherwise.

Exit status 1 when any pairing is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "BENCHMARK.json"

#: Pairs of runs per workload; the ``better`` rule needs 9 of 10 won.
PAIRS = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Dict[str, Any]:
    """Compare two sides' values of one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) > 0 is worse
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    worse_by = sign * (c_med - p_med) / p_med
    spread = max((p3 - p1) / p_med, (c3 - c1) / c_med)
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p3 - p1:
        label = "better"
    elif spread > bound and not all_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    else:
        label = "unchanged"
    return {
        "parent": (p1, p_med, p3),
        "change": (c1, c_med, c3),
        "delta": (c_med - p_med) / p_med,
        "wins": wins,
        "pairs": len(pairs),
        "spread": spread,
        "verdict": label,
    }


def load(paths: Sequence[str]) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced results by workload, each list ordered by seed."""
    by_workload: Dict[str, List[Dict[str, Any]]] = {}
    for path in paths:
        result = json.loads(Path(path).read_text())
        if not result["trace"]:
            by_workload.setdefault(result["workload"], []).append(result)
    for results in by_workload.values():
        results.sort(key=lambda result: result["provenance"]["seed"])
    return by_workload


def compare(parent: Dict[str, List[Dict[str, Any]]], change: Dict[str, List[Dict[str, Any]]],
            spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload in ``spec`` and end-to-end metric; every
    workload must have results on both sides."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for side, results in (("parent", parent), ("change", change)):
            if not results.get(workload):
                raise ValueError(f"no {side} results for workload {workload!r}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [result["metrics"][name]["value"] for result in parent[workload]],
                [result["metrics"][name]["value"] for result in change[workload]],
                metric["better"],
                metric["bound"],
            )
            row.update(workload=workload, metric=name, unit=metric["unit"], bound=metric["bound"])
            rows.append(row)
    return rows


def format_rows(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<10} {'metric':<12} {'parent median [q1, q3]':<34} "
             f"{'change median [q1, q3]':<34} {'delta':>8} {'wins':>6}  verdict"]
    for row in rows:
        parent, change = (
            "{1:.4g} [{0:.4g}, {2:.4g}] ".format(*row[side]) + row["unit"]
            for side in ("parent", "change")
        )
        lines.append(
            f"{row['workload']:<10} {row['metric']:<12} {parent:<34} {change:<34} "
            f"{row['delta']:>+8.1%} {row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}"
        )
    return "\n".join(lines)


def run_pairs(parent_root: Path, change_root: Path, out: Path,
              spec: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    """Run ``PAIRS`` pairs per workload, alternating which side goes first."""
    files: Dict[str, List[str]] = {"parent": [], "change": []}
    for side in files:
        (out / side).mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in range(PAIRS):
            sides = [("parent", parent_root), ("change", change_root)]
            for side, root in sides if seed % 2 == 0 else sides[::-1]:
                target = out / side / f"{workload}_{seed}.json"
                subprocess.run(
                    [sys.executable, "bench/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                     "--trace", "0", "-o", str(target.resolve())],
                    cwd=root, check=True, stdout=subprocess.DEVNULL,
                )
                files[side].append(str(target))
    return files["parent"], files["change"]


def main(argv: Sequence[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", default=[], help="parent result files")
    parser.add_argument("--change", nargs="+", default=[], help="change result files")
    parser.add_argument("--run", nargs=2, metavar=("PARENT_CHECKOUT", "CHANGE_CHECKOUT"))
    parser.add_argument("--out", type=Path, help="where --run writes its results")
    args = parser.parse_args(argv)
    if args.run:
        if args.out is None:
            parser.error("--run needs --out")
        args.parent, args.change = run_pairs(
            Path(args.run[0]), Path(args.run[1]), args.out, spec
        )
    if not args.parent or not args.change:
        parser.error("give --parent and --change result files, or --run")
    try:
        rows = compare(load(args.parent), load(args.change), spec)
    except ValueError as exc:
        parser.error(str(exc))
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
