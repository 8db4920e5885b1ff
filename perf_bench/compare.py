#!/usr/bin/env python3
"""Compare two sets of perf_bench result files, metric by workload.

Usage:

    python3 perf_bench/compare.py <base> <change>

<base> and <change> are directories of result files written by
perf_bench (<workload>-seed<n>.json, and <workload>-seed<n>-layers.json
for traced runs), or single files. For every metric and workload the
table shows each side's median and interquartile range (IQR) over its
runs, the change of the medians, and a mark:

  improved    better by more than the metric's bound
  regressed   worse by more than the bound
  unchanged   within the bound either way
  unresolved  either side's IQR is wider than the bound (unless every
              change run reads better than every base run)

Bounds are the end_to_end bounds of BENCHMARK.json; per-layer metrics
have none and get no mark. Exits 1 when any metric regressed or any
change run failed a check, else 0.
"""

import glob
import json
import os
import statistics
import sys

MANIFEST = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load(path):
    """{(workload, traced): {"runs", "failed", "metrics": {name: [v]}}}."""
    if os.path.isdir(path):
        files = sorted(f for f in glob.glob(os.path.join(path, "*.json"))
                       if not f.endswith(".trace.json"))
    else:
        files = [path]
    groups = {}
    for name in files:
        with open(name) as f:
            result = json.load(f)
        group = groups.setdefault((result["workload"], result["trace"]),
                                  {"runs": 0, "failed": 0, "metrics": {}})
        group["runs"] += 1
        group["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            group["metrics"].setdefault(metric, []).append(entry["value"])
    if not groups:
        sys.exit(f"compare.py: no result files in {path}")
    return groups


def summary(values):
    """(median, q1, q3) of values; q1 = q3 = the value for one run."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def mark(base, change, better, bound):
    if bound is None:
        return ""
    b_med, b_q1, b_q3 = summary(base)
    c_med, c_q1, c_q3 = summary(change)
    sign = 1 if better == "lower" else -1
    worse = sign * (c_med - b_med) / b_med if b_med else 0.0
    spread = max((b_q3 - b_q1) / b_med if b_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(MANIFEST) as f:
        manifest = json.load(f)
    declared = {m["name"]: m for m in
                manifest["end_to_end"] + manifest["per_layer"]}
    base, change = load(argv[0]), load(argv[1])

    regressed = False
    print(f"{'workload':<11} {'metric':<26} {'base median [IQR]':>30} "
          f"{'change median [IQR]':>30} {'delta':>8}  mark")
    for key in sorted(base.keys() & change.keys()):
        workload = key[0]
        b_group, c_group = base[key], change[key]
        for metric, b_values in b_group["metrics"].items():
            c_values = c_group["metrics"].get(metric)
            info = declared.get(metric)
            if not c_values or info is None:
                continue
            b_med, b_q1, b_q3 = summary(b_values)
            c_med, c_q1, c_q3 = summary(c_values)
            delta = (c_med - b_med) / b_med * 100 if b_med else 0.0
            verdict = mark(b_values, c_values, info["better"],
                           info.get("bound"))
            regressed = regressed or verdict == "regressed"
            print(f"{workload:<11} {metric:<26} "
                  f"{f'{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]':>30} "
                  f"{f'{c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]':>30} "
                  f"{delta:>+7.1f}%  {verdict}")
        print(f"{workload:<11} runs: base {b_group['runs']} "
              f"({b_group['failed']} failed), change {c_group['runs']} "
              f"({c_group['failed']} failed)")
        regressed = regressed or c_group["failed"] > 0
    for key in sorted(base.keys() ^ change.keys()):
        side = "base" if key in base else "change"
        print(f"{key[0]} ({'traced' if key[1] else 'end-to-end'}): "
              f"only in {side}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
