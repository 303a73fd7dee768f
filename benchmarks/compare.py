"""Compare two sets of benchmark results per workload and metric, or summarize one set.

    python3 benchmarks/compare.py BASE_DIR NEW_DIR   # verdict per workload and metric
    python3 benchmarks/compare.py RUNS_DIR           # one set: median, quartiles, spread

A set is a directory holding the standard output of ``run.py`` runs, one file
per run.  Runs are matched into pairs in file-name order, so name them by run
index and, when measuring two commits, alternate which commit runs first.

Verdicts for end-to-end metrics, with the bounds in BENCHMARK.json:

* ``gain``: the new side wins at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ by more than the base's own spread,
  its interquartile range.
* ``REGRESSION``: the new median is worse than the base median by more than
  the metric's bound.
* ``unresolved``: either side's spread (IQR / median) is wider than the
  bound, unless every new run beats every base run.
* ``no change``: none of the above; the medians agree within the bound.

Per-layer metrics have no bound; they are listed with both medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: Path) -> dict:
    """{(workload, trace): {metric: [values in file-name order]}}."""
    runs = defaultdict(lambda: defaultdict(list))
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        lines = path.read_text().strip().splitlines()
        info = next((json.loads(line.split(": ", 1)[1]) for line in lines if line.startswith("provenance: ")), None)
        if info is None or not lines:
            print(f"skipping {path}: not a run.py output", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            runs[(info["workload"], info["trace"])][name].append(metric["value"])
    return runs


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: list, new: list, better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    pairs = min(len(base), len(new))
    bq1, bmed, bq3 = quartiles(base)
    nmed = quartiles(new)[1]
    if pairs and wins >= 0.9 * pairs and sign * (nmed - bmed) > bq3 - bq1:
        return f"gain ({wins}/{pairs} pairs)"
    if sign * (nmed - bmed) < -bound * abs(bmed):
        return f"REGRESSION (beyond bound {bound:g})"
    every_run_better = all(sign * (n - b) > 0 for n in new for b in base)
    if max(spread(base), spread(new)) > bound and not every_run_better:
        return f"unresolved (spread wider than bound {bound:g})"
    return f"no change ({wins}/{pairs} pairs won)"


def describe(values: list) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", type=Path, help="one or two directories of run outputs")
    parser.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"), help="bounds and directions")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two directories")
    spec = json.loads(args.benchmark.read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(d) for d in args.sets]
    keys = sorted(set().union(*sets))
    for workload, trace in keys:
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'})")
        metrics = sorted(set().union(*(s[(workload, trace)] for s in sets)))
        for name in metrics:
            columns = [s[(workload, trace)].get(name) for s in sets]
            if any(not c for c in columns):
                print(f"  {name}: missing from a set")
                continue
            text = "  vs  ".join(describe(c) for c in columns)
            bound = end_to_end.get(name, {}).get("bound")
            if len(columns) == 1 and bound is not None:
                s = spread(columns[0])
                state = "steady" if s < bound / 3 else "within bound" if s <= bound else "TOO WIDE"
                text += f"  spread {s:.3f} of bound {bound:g}: {state}"
            elif len(columns) == 2 and bound is not None:
                text += "  -> " + verdict(columns[0], columns[1], end_to_end[name]["better"], bound)
            print(f"  {name}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
