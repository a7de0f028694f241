#!/usr/bin/env python3
"""Diff two benchmark result files, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that `run.py --out FILE` appended, ideally
several runs per workload with different seeds.  For every end-to-end metric
(BENCHMARK.json's, plus the harness-only ones in run.EXTRA_METRICS) it
prints each side's median, the run-to-run spread (interquartile range over
median, or the range when a side has fewer than four runs) and a verdict
against the metric's bound:

  worse       the new median is worse by more than the bound
  improved    the new median is better by more than the bound
  unchanged   the medians differ by no more than the bound
  unresolved  a side's spread is wider than the bound (or it has one run),
              so no difference within the bound can be told apart, unless
              every new run is better than every base run ("improved")

Exit status 1 if any metric is worse, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import EXTRA_METRICS

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def spread(values):
    """Run-to-run spread as a share of the median; None if unknowable."""
    if len(values) < 2:
        return None
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1, q3 = min(values), max(values)
    mid = statistics.median(values)
    if mid == 0:
        return 0.0 if q1 == q3 == 0 else float("inf")
    return (q3 - q1) / abs(mid)


def verdict(base, new, better, bound):
    """(verdict, relative change with positive meaning worse)."""
    sign = 1.0 if better == "lower" else -1.0
    b_mid, n_mid = statistics.median(base), statistics.median(new)
    if b_mid == 0:
        change = 0.0 if n_mid == 0 else sign * float("inf")
    else:
        change = sign * (n_mid - b_mid) / abs(b_mid)
    all_better = (max(new) < min(base) if better == "lower"
                  else min(new) > max(base))
    if all_better:
        return "improved", change
    spreads = [spread(base), spread(new)]
    if any(s is None or s > bound for s in spreads):
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "improved", change
    return "unchanged", change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["unit"], m["better"], m["bound"])
              for m in spec["end_to_end"]}
    bounds.update(EXTRA_METRICS)
    base, new = load(args.base), load(args.new)
    any_worse = False
    for workload in sorted(set(base) | set(new)):
        b_runs, n_runs = base.get(workload, []), new.get(workload, [])
        print(f"{workload}: {len(b_runs)} base runs, {len(n_runs)} new runs;"
              f" failed/attempted {sum(r['failed'] for r in b_runs)}/"
              f"{sum(r['attempted'] for r in b_runs)} ->"
              f" {sum(r['failed'] for r in n_runs)}/"
              f"{sum(r['attempted'] for r in n_runs)}")
        if not (b_runs and n_runs):
            print("  (missing on one side)")
            continue
        print(f"  {'metric':<20}{'unit':<7}{'base':>12}{'spread':>9}"
              f"{'new':>12}{'spread':>9}{'change':>9}{'bound':>7}  verdict")
        for name, (unit, better, bound) in bounds.items():
            b_vals = [r["metrics"][name]["value"] for r in b_runs
                      if name in r["metrics"]]
            n_vals = [r["metrics"][name]["value"] for r in n_runs
                      if name in r["metrics"]]
            if not (b_vals and n_vals):
                continue
            word, change = verdict(b_vals, n_vals, better, bound)
            any_worse |= word == "worse"
            b_sp, n_sp = spread(b_vals), spread(n_vals)
            print(f"  {name:<20}{unit:<7}{statistics.median(b_vals):>12.6g}"
                  f"{pct(b_sp):>9}{statistics.median(n_vals):>12.6g}"
                  f"{pct(n_sp):>9}{pct(change, signed=True):>9}"
                  f"{pct(bound):>7}  {word}")
    return 1 if any_worse else 0


def pct(value, signed=False):
    if value is None:
        return "n/a"
    if value in (float("inf"), float("-inf")):
        return "inf"
    return f"{100 * value:+.1f}%" if signed else f"{100 * value:.1f}%"


if __name__ == "__main__":
    sys.exit(main())
