#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload table1|table1-serve|syncdense|relaunch|serve-mixed \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the library sources come
from src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later runs rebuild only what changed. The build log goes to standard error;
standard output is the benchmark's own, whose last line is the result JSON.
Exits non-zero without a result when the sources are missing, the build
fails, or the run fails or overruns.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1", "table1-serve", "syncdense", "relaunch",
             "serve-mixed")
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    if shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, timeout):
    """Runs a build step, its output to stderr; False on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out: " + " ".join(cmd), file=sys.stderr)
        return False
    return proc.returncode == 0


def build(target="perfbench"):
    """Configures (once) and builds \p target; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", bdir,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                          BUILD_TIMEOUT_S):
            fail("configure failed")
    jobs = str(os.cpu_count() or 2)
    if not run_logged(["cmake", "--build", bdir, "--target", target,
                       "-j", jobs], BUILD_TIMEOUT_S):
        fail("build failed")
    return bdir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-delay-us", type=float, default=0,
                        help="self-test: busy-wait this long after every "
                             "timed launch call")
    args = parser.parse_args()

    binary = os.path.join(build(), "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.inject_delay_us:
        cmd += ["--inject-delay-us", repr(args.inject_delay_us)]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
