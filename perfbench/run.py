#!/usr/bin/env python3
"""Builds and runs one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark binary (stetho_perfbench.cc) is built
from source into $CARGO_TARGET_DIR (default .bench_build) on first use, then
runs in a fresh process per workload, so process-wide singletons (profile
store, layout cache, progress-model cache, worker pool, metrics registry)
never carry state from one workload to the next. The last line of standard
output is the result object; the line before it records the host (nproc,
load average) and the sample counts behind each percentile.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "record", "monitor", "explore")

# Environment knobs that would change what the program does under the
# benchmark (persisted profiles, postmortem files, cache sizes, admission
# budget, scheduler self-checks). A run refuses to start while one is set.
HYGIENE_VARS = (
    "STETHO_PROFILE_DIR",
    "STETHO_FLIGHT_DIR",
    "STETHO_FLIGHT_RING",
    "STETHO_LAYOUT_CACHE",
    "STETHO_MEM_BUDGET",
    "STETHO_SCHED_SELFCHECK",
)

RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    subprocess.run(
        ["cmake", "--build", out, "--target", "stetho_perfbench", "-j", "4"],
        check=True, stdout=log, stderr=log)
    return os.path.join(out, "stetho_perfbench")


def check_hygiene():
    bad = [name for name in HYGIENE_VARS if os.environ.get(name)]
    if bad:
        sys.exit("perfbench: refusing to run with %s set; unset it first"
                 % ", ".join(bad))


def run_binary(binary, extra):
    """Runs the benchmark binary and returns its stdout lines."""
    proc = subprocess.run([binary] + extra, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, check=True, text=True)
    return proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    check_hygiene()
    try:
        binary = build()
        lines = run_binary(binary, [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: %s" % e)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
