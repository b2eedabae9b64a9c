#!/usr/bin/env python3
"""Build and run the device benchmark from a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the repository's src/
libraries) into .bench_build/perfbench under the checkout root, runs the
oracle self-test, then runs one benchmark pass. The last line of standard
output is the pass's result object; build output, the run report and
diagnostics go to standard error, and the report is also kept under
.bench_build/perfbench/runs/. Exits nonzero when the build, the oracle
self-test or the pass fails, and prints no result line when the build
cannot start (no sources).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("small-serial", "attack-parallel")
BUILD_TIMEOUT_S = 840
# A pass must end within 180 s; the binary's own 165 s deadline fails it
# first.
PASS_BUDGET_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout).returncode


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
               "-DSDMMON_OBS=ON"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_quiet(cmd, BUILD_TIMEOUT_S) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target",
                      "sdmmon_perfbench", "sdmmon_perfbench_oracle_test"],
                     BUILD_TIMEOUT_S) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 2
    start = time.monotonic()

    test = subprocess.run([os.path.join(BUILD, "sdmmon_perfbench_oracle_test")],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=60)
    if test.returncode != 0:
        sys.stderr.write(test.stdout)
        log("oracle self-test failed")
        return 2

    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    report = os.path.join(
        runs, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [os.path.join(BUILD, "sdmmon_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--report", report]
    try:
        budget = PASS_BUDGET_S - (time.monotonic() - start)
        bench = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=sys.stderr, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        log("benchmark pass outlived its own deadline; killed")
        return 3
    lines = bench.stdout.strip().splitlines()
    if not lines:
        log(f"benchmark printed no result (exit {bench.returncode})")
        return bench.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    print(lines[-1], flush=True)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
