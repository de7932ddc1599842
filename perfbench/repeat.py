#!/usr/bin/env python3
"""Run one workload several times, each with its own seed, and summarise.

Usage (from the repository root):

    python3 perfbench/repeat.py --workload syncdense --runs 10 \
        --seconds 25 --out DIR [--first-seed 101]

Saves each run's standard output as DIR/<workload>-<seed>.out and prints,
per metric, the median and quartiles of the runs and their quartile
spread as a share of the median (statistics.quantiles, n=4), beside the
metric's bound from BENCHMARK.json. Two such directories are compared
with compare.py. Exits 1 when a run fails or fails a check.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    bad = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        path = os.path.join(args.out, "%s-%d.out" % (args.workload, seed))
        with open(path, "w") as out:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", repr(args.seconds), "--trace",
                 str(args.trace)], cwd=ROOT, stdout=out)
        if proc.returncode != 0:
            print("seed %d: exit %d" % (seed, proc.returncode))
            bad += 1
            continue
        result = compare.load_result(path)
        if not result["correct"] or result["failed"]:
            print("seed %d: %d of %d operations failed" % (
                seed, result["failed"], result["attempted"]))
            bad += 1

    with open(compare.BENCHMARK_JSON) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = [compare.load_result(p) for p in sorted(glob.glob(
        os.path.join(args.out, "%s-*.out" % args.workload)))]
    print("%d runs of %s" % (len(results), args.workload))
    print("%-26s %14s %14s %14s %8s %6s" % (
        "metric", "q1", "median", "q3", "spread", "bound"))
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4)
                     if len(values) > 1 else (med, med, med))
        bound = bounds.get(name)
        print("%-26s %14.6g %14.6g %14.6g %7.1f%% %6s %s" % (
            name, q1, med, q3, 100 * compare.spread(values),
            "%.0f%%" % (100 * bound) if bound is not None else "-",
            first["unit"]))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
