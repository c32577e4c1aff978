"""Compare two sets of benchmark results by the paired rule.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result documents written by ``run.py --out``
(one workload or all of them per file).  Runs of the two sets pair up
by (workload, seed); run the pairs alternating which side goes first.
For each (workload, end-to-end metric):

* **improved** -- at least 10 pairs, the change wins at least 9 in 10
  of them (ties count for neither side), and the medians differ by
  more than the parent's quartile spread;
* **unresolved** -- the parent's own spread (quartile distance over
  median) is wider than the metric's bound and the change does not
  read better on every run;
* **worse** -- the change's median is worse than the parent's by more
  than the metric's bound;
* **within bound** -- everything else.

Each workload also gets a row with its failed share (failed over
attempted operations, all runs together) on both sides; it reads
**more failures** when the change's share is higher.

Comparing two sets of runs of the same code checks the benchmark
itself: every row should read "within bound".  The exit status is 1
when any metric reads worse or unresolved, or any workload has more
failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load(directory: Path):
    """``(workload, metric) -> {seed: value}`` and ``workload ->
    [attempted, failed]`` over every document."""
    values: Dict[Tuple[str, str], Dict[int, float]] = defaultdict(dict)
    operations: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        runs = doc["workloads"].values() if "workloads" in doc else [doc]
        for run in runs:
            for name, metric in run["metrics"].items():
                values[(run["workload"], name)][run["seed"]] = metric["value"]
            operations[run["workload"]][0] += run["attempted"]
            operations[run["workload"]][1] += run["failed"]
    return values, operations


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, _, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(parent: List[float], change: List[float], pairs: List[Tuple[float, float]],
            bound: float, higher_is_better: bool) -> str:
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_mid, c_mid = median(parent), median(change)
    q1, _, q3 = quartiles(parent)
    if (len(pairs) >= 10 and wins >= 0.9 * (wins + losses) and wins
            and sign * (c_mid - p_mid) > q3 - q1):
        return "improved"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread(parent) > bound and not all_better:
        return "unresolved"
    if sign * (c_mid - p_mid) < -bound * abs(p_mid):
        return "worse"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in contract["end_to_end"]}
    (parent, p_ops), (change, c_ops) = load(args.parent), load(args.change)

    rows: Dict[str, Dict[str, List[str]]] = defaultdict(lambda: defaultdict(list))
    print(f"{'workload':<15} {'metric':<16} {'pairs':>5} {'parent median':>14} "
          f"{'spread':>7} {'change median':>14} {'spread':>7} {'delta':>8}  verdict")
    for (workload, name), p_runs in sorted(parent.items()):
        spec = specs.get(name)
        c_runs = change.get((workload, name))
        if spec is None or not c_runs:
            continue
        seeds = sorted(set(p_runs) & set(c_runs))
        pairs = [(p_runs[s], c_runs[s]) for s in seeds]
        p_vals, c_vals = list(p_runs.values()), list(c_runs.values())
        result = verdict(p_vals, c_vals, pairs, spec["bound"], spec["better"] == "higher")
        p_mid, c_mid = median(p_vals), median(c_vals)
        delta = (c_mid - p_mid) / abs(p_mid) if p_mid else 0.0
        print(f"{workload:<15} {name:<16} {len(pairs):>5} {p_mid:>14.6g} "
              f"{spread(p_vals):>7.1%} {c_mid:>14.6g} {spread(c_vals):>7.1%} "
              f"{delta:>+8.1%}  {result}")
        rows[workload][result].append(name)

    print()
    for workload in rows:
        (p_tried, p_failed), (c_tried, c_failed) = p_ops[workload], c_ops[workload]
        result = "more failures" if c_failed * p_tried > p_failed * c_tried else "within bound"
        print(f"{workload:<15} failed share {p_failed}/{p_tried} -> {c_failed}/{c_tried}  {result}")
        rows[workload][result].append("failed share")

    print()
    for workload, groups in rows.items():
        parts = [f"{v}: {', '.join(names)}" for v, names in sorted(groups.items())]
        print(f"{workload:<15} " + "; ".join(parts))
    bad = any(groups.get("worse") or groups.get("unresolved") or groups.get("more failures")
              for groups in rows.values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
