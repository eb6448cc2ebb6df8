#!/usr/bin/env python3
"""Builds the benchmark runner and runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the ADE libraries from src/ in the fixed
Release configuration, the runner and the native-reference tests) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, runs the reference
tests, then runs the workload. The last line of standard output is the
runner's JSON result; build output and progress go to standard error. A
traced run (--trace 1) also writes its spans as Chrome trace JSON to
perfbench/out/trace-<workload>-seed<N>.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite-dense", "suite-translate", "serve-mixed")
# The runner measures for --seconds, then finishes its last round and
# checks the outputs; this much longer and it is stopped.
RUN_MARGIN_S = 120
MAX_SECONDS = 600


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ADE sources next to perfbench/ (expected src/CMakeLists.txt)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= MAX_SECONDS:
        fail("--seed must be >= 0 and --seconds in [1, %d]" % MAX_SECONDS)
    handler = os.path.join(ROOT, "examples", "serve.memoir")
    if not os.path.isfile(handler):
        fail("no @serve handler at examples/serve.memoir")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        build(build_dir)
        subprocess.run([os.path.join(build_dir, "perfbench_refs_test")],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build or reference tests failed: %s" % e)

    cmd = [os.path.join(build_dir, "perfbench_run"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--handler", handler]
    if a.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-seed%d.json" % (a.workload, a.seed))]
    timeout = a.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (a.workload, timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("runner exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("perfbench: %s: outputs were NOT correct" % a.workload,
              file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
