#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the repository root:

    python3 perfbench/tests/selftest.py

1. Builds and runs perfbench_stats_test (quantile and tail-percentile
   edge cases: tiny samples, ties, empty and zero-median samples).
2. Delay detection: for each case, runs the workload once as it is and
   once with a busy-wait injected on the benchmark's side of every timed
   launch call, sized to twice the metric's bound, and checks that
   compare.py's rule flags the metric as a regression.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import run  # noqa: E402

SECONDS = 4

# (workload, metric, launches per unit the metric is measured over)
CASES = [
    ("table1-serve", "launch_p50_us", 1),
    ("table1", "verdict_s", 26),
    ("syncdense", "heavy_p50_ms", 1),
]


def bench_run(workload, seed, inject_us=0.0):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    if inject_us:
        cmd += ["--inject-delay-us", repr(inject_us)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    if out.returncode != 0:
        sys.exit("benchmark run failed:\n" + out.stderr[-2000:])
    return compare.parse_result(out.stdout)


def metric_spec(name):
    with open(compare.BENCHMARK_JSON) as f:
        spec = json.load(f)
    return next(m for m in spec["end_to_end"] if m["name"] == name)


def to_microseconds(value, unit):
    return value * {"us": 1.0, "ms": 1e3, "s": 1e6}[unit]


def main():
    bdir = run.build("perfbench_stats_test")
    test = subprocess.run([os.path.join(bdir, "perfbench_stats_test")])
    if test.returncode != 0:
        sys.exit("perfbench_stats_test failed")

    failures = 0
    for workload, name, per_unit in CASES:
        spec = metric_spec(name)
        base = bench_run(workload, seed=11)
        value = base["metrics"][name]["value"]
        # Twice the bound, spread over the launches the metric covers.
        inject = 2 * spec["bound"] * to_microseconds(value, spec["unit"])
        inject /= per_unit
        slow = bench_run(workload, seed=11, inject_us=inject)
        row = compare.compare([base], [slow], [spec])[0]
        verdict = "detected" if row["regressed"] else "MISSED"
        print("%s %s: injected %.1f us per launch; %.6g -> %.6g "
              "(%.1f%% worse, bound %.0f%%): %s" % (
                  workload, name, inject, row["base"], row["new"],
                  100 * row["worse"], 100 * spec["bound"], verdict))
        failures += not row["regressed"]
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
