#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/compare.py --base BASE.out [...] --new NEW.out [...]

Each file holds one run's standard output (its last line is the result
JSON). Per end-to-end metric, the medians of the two sets are compared:
a metric whose new median is worse than the base median by more than its
bound is a regression. Also prints each set's quartile spread, as a share
of its median (statistics.quantiles, n=4). Exits 1 when any metric
regressed or any run failed a check.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def parse_result(text):
    """The result object: the last non-empty line of a run's output."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty benchmark output")
    return json.loads(lines[-1])


def load_result(path):
    with open(path) as f:
        return parse_result(f.read())


def spread(values):
    """Quartile distance over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(base, new, better):
    """How much worse \p new is than \p base, as a share of \p base."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(base_results, new_results, metrics):
    """Rows (name, base median, new median, worse-by, bound, regressed)."""
    rows = []
    for m in metrics:
        name = m["name"]
        base = [r["metrics"][name]["value"] for r in base_results]
        new = [r["metrics"][name]["value"] for r in new_results]
        b, n = statistics.median(base), statistics.median(new)
        w = worse_by(b, n, m["better"])
        rows.append({"name": name, "base": b, "new": n, "worse": w,
                     "bound": m["bound"], "regressed": w > m["bound"],
                     "base_spread": spread(base), "new_spread": spread(new)})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--benchmark", default=BENCHMARK_JSON)
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    base = [load_result(p) for p in args.base]
    new = [load_result(p) for p in args.new]
    bad = [p for p, r in zip(args.base + args.new, base + new)
           if not r["correct"] or r["failed"]]
    rows = compare(base, new, spec["end_to_end"])
    print("%-16s %14s %14s %8s %6s %7s %7s" % (
        "metric", "base median", "new median", "worse", "bound",
        "spread", "spread'"))
    for r in rows:
        print("%-16s %14.6g %14.6g %7.1f%% %5.0f%% %6.1f%% %6.1f%%%s" % (
            r["name"], r["base"], r["new"], 100 * r["worse"],
            100 * r["bound"], 100 * r["base_spread"], 100 * r["new_spread"],
            "  REGRESSION" if r["regressed"] else ""))
    for p in bad:
        print("failed checks in " + p)
    sys.exit(1 if bad or any(r["regressed"] for r in rows) else 0)


if __name__ == "__main__":
    main()
