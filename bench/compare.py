"""``python -m bench compare PARENT.jsonl CHANGE.jsonl``.

Both files are ``--out`` files: one JSON record per run, runs of the two
sides made in alternating pairs (the i-th run of a workload in one file
pairs with the i-th in the other).  One row per workload x end-to-end
metric gives each side's median and quartiles, the change in the median
and a verdict, following choosing-metrics sections 6-8:

* ``unresolved`` -- the run-to-run spread (quartile distance over the
  median, the wider side) exceeds the metric's bound, unless every run
  of one side beats every run of the other;
* ``worse`` -- the change's median is worse by more than the bound;
* ``better`` -- the change wins at least 9/10 of the pairs and the
  medians differ by more than the parent's own quartile distance;
* ``unchanged`` -- anything else.

The exit status is 1 on any ``worse`` row, on more failed operations in
the change than in the parent, or on a digest that differs between runs
of the same workload and seed (estimates must not move), else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

from bench.run import ROOT


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """The verdict for one metric on one workload (see module doc)."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    all_better = all(sign * (y - x) > 0 for x in parent for y in change)
    all_worse = all(sign * (y - x) < 0 for x in parent for y in change)
    if spread > bound:
        if all_better:
            return "better"
        return "worse" if all_worse and gain < -bound else "unresolved"
    if gain < -bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if gain > 0 and wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        return "better"
    return "unchanged"


def load(path: str) -> dict[str, list[dict]]:
    """Untraced run records per workload, in file order."""
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if not record["trace"]:
            runs[record["workload"]].append(record)
    return runs


def digest_differences(parent: list[dict], change: list[dict]) -> list[str]:
    seen: dict[tuple, str] = {}
    problems = []
    for record in parent + change:
        for name, value in record["digests"].items():
            key = (record["seed"], record["smoke"], name)
            if seen.setdefault(key, value) != value:
                problems.append(f"seed {record['seed']} {name}: "
                                f"{seen[key]} != {value}")
    return problems


def compare(parent: dict, change: dict, declared: dict) -> tuple[list, list]:
    """Rows ``(workload, metric, verdict, text)`` and blocking problems."""
    rows, problems = [], []
    for workload in sorted(set(parent) | set(change)):
        a, b = parent.get(workload, []), change.get(workload, [])
        if not a or not b:
            problems.append(f"{workload}: runs on one side only")
            continue
        failed_a = sum(r["failed"] for r in a)
        failed_b = sum(r["failed"] for r in b)
        if failed_b > failed_a:
            problems.append(f"{workload}: {failed_b} failed operations "
                            f"(parent {failed_a})")
        problems += [f"{workload}: digest differs, {p}"
                     for p in digest_differences(a, b)]
        for metric in declared["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name][0] for r in a]
            vb = [r["metrics"][name][0] for r in b]
            result = verdict(va, vb, metric["better"], metric["bound"])
            (a1, am, a3), (b1, bm, b3) = quartiles(va), quartiles(vb)
            text = (f"{workload:<11} {name:<12} "
                    f"{am:>12.5g} [{a1:.5g}, {a3:.5g}]  "
                    f"{bm:>12.5g} [{b1:.5g}, {b3:.5g}]  "
                    f"{100 * (bm - am) / am:+7.2f}%  "
                    f"bound {100 * metric['bound']:.0f}%  {result}")
            rows.append((workload, name, result, text))
    return rows, problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="--out file of the parent commit")
    parser.add_argument("change", help="--out file of the change")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    rows, problems = compare(parent, change, declared)
    print(f"{'workload':<11} {'metric':<12} {'parent median [q1, q3]':>32}  "
          f"{'change median [q1, q3]':>32}  {'delta':>8}")
    for *_, text in rows:
        print(text)
    for problem in problems:
        print(f"problem: {problem}")
    worse = [r for r in rows if r[2] == "worse"]
    return 1 if worse or problems else 0
