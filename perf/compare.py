#!/usr/bin/env python3
"""Compare two benchmark summaries: ``python3 perf/compare.py A B``.

``A`` is the parent, ``B`` the change.  Each is a summary written by
``perf/run.py --repeat N``, or a directory of them whose samples are
joined in file-name order (to pair runs made alternately on the two
commits).  For every (metric, workload) both hold, the comparison prints
both medians, the change, the parent's spread and a verdict:

``ok``
    B's median is no worse than A's by more than the metric's bound.
``worse``
    B's median is worse than A's by more than the bound.
``unresolved``
    A's own inter-quartile spread is wider than the bound, so "no worse"
    cannot be shown -- unless every B sample beats every A sample.
``gain``
    The rule for claiming a gain: at least 10 pairs (sample i of A with
    sample i of B), B better in at least 9 of every 10 (ties count for
    neither), and a median gap wider than A's inter-quartile distance.

Bounds come from ``BENCHMARK.json`` and ``perf/metrics.py``.  Per-layer
metrics of traced runs are listed after, without verdicts.  The exit
status is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import metrics as declared
from stats import quartiles


def load(path: Path) -> dict:
    """``{workload: {"metrics": {name: [samples]}, "layers": {name: value}}}``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    merged: dict = {}
    for file in files:
        for workload, block in json.loads(file.read_text())["workloads"].items():
            entry = merged.setdefault(workload, {"metrics": {}, "layers": {}})
            for name, row in block["metrics"].items():
                entry["metrics"].setdefault(name, []).extend(row["values"])
            entry["layers"].update(block.get("layers", {}))
    return merged


def verdict(declaration: dict, parent: list[float], change: list[float]) -> str:
    """The verdict for one metric on one workload (see the module docstring)."""
    sign = 1.0 if declaration["better"] == "lower" else -1.0
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    limit = declaration["bound"] * (1.0 if declaration["absolute"] else abs(parent_median))
    worsening = sign * (change_median - parent_median)
    pairs = list(zip(parent, change))
    wins = sum(sign * (after - before) < 0 for before, after in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and -worsening > q3 - q1:
        return "gain"
    every_run_better = max(sign * value for value in change) < min(sign * value for value in parent)
    if q3 - q1 > limit and not every_run_better:
        return "unresolved"
    return "worse" if worsening > limit else "ok"


def compare(parent: dict, change: dict, declarations: dict[str, dict]) -> list[dict]:
    """One row per (workload, metric) present on both sides and declared."""
    rows = []
    for workload in parent.keys() & change.keys():
        before, after = parent[workload]["metrics"], change[workload]["metrics"]
        for name, declaration in declarations.items():
            if name not in before or name not in after:
                continue
            q1, median, q3 = quartiles(before[name])
            new_median = quartiles(after[name])[1]
            rows.append({
                "workload": workload,
                "metric": name,
                "parent": median,
                "change": new_median,
                "delta": (new_median - median) / abs(median) if median else 0.0,
                "spread": (q3 - q1) / abs(median) if median else q3 - q1,
                "bound": declaration["bound"],
                "absolute": declaration["absolute"],
                "verdict": verdict(declaration, before[name], after[name]),
            })
    return sorted(rows, key=lambda row: (row["workload"], row["metric"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="summary (or directory) of the parent")
    parser.add_argument("change", type=Path, help="summary (or directory) of the change")
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    rows = compare(parent, change, declared.end_to_end())
    print(f"{'workload':<11}{'metric':<16}{'parent':>12}{'change':>12}{'delta':>9}"
          f"{'spread':>9}{'bound':>9}  verdict")
    for row in rows:
        bound = f"{row['bound']:g} abs" if row["absolute"] else f"{row['bound']:.0%}"
        print(f"{row['workload']:<11}{row['metric']:<16}{row['parent']:>12.5g}"
              f"{row['change']:>12.5g}{row['delta']:>+9.2%}{row['spread']:>9.2%}"
              f"{bound:>9}  {row['verdict']}")
    for workload in sorted(parent.keys() & change.keys()):
        before, after = parent[workload]["layers"], change[workload]["layers"]
        shared = [name for name in before if name in after]
        if shared:
            print(f"\n{workload} layers (one traced run each):")
            for name in shared:
                print(f"  {name:<40}{before[name]:>14.6g}{after[name]:>14.6g}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
