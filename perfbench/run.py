#!/usr/bin/env python3
"""Builds and runs the repo benchmark for one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: online-planetlab-2k, replay-planetlab-1k, serve-churn-2k (see
perfbench/src/main.cpp for what each runs and why).

The first call configures and builds perfbench/ (the system's sources from
src/ plus the benchmark program) in Release mode under $CARGO_TARGET_DIR
(default .bench_build) inside the checkout; later calls reuse the build.
The benchmark then runs for --seconds and prints, as its last stdout line,
one JSON object with the keys correct, attempted, failed and metrics:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The
traced run also leaves a Chrome trace_event JSON of its spans under
<build dir>/perfbench-out/. Exit code 0 means the run finished and every
correctness check passed; any other code means it did not.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("online-planetlab-2k", "replay-planetlab-1k", "serve-churn-2k")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "sim", "sharded_sim.hpp")):
        fail("the system's sources (src/) are missing from this checkout", 2)
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", src, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
        if rc != 0:
            sys.stderr.write(open(log).read()[-4000:])
            fail("configure failed", 3)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_logged(["cmake", "--build", build_dir, "-j", jobs], log,
                    max(1.0, deadline - time.monotonic()))
    if rc != 0:
        sys.stderr.write(open(log).read()[-4000:])
        fail("build failed", 3)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    build_dir = os.path.join(build_dir, "perfbench")
    binary = build(root, build_dir)

    out_dir = os.path.join(os.path.dirname(build_dir), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        fail(f"no result line (exit code {proc.returncode})", 5)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(proc.returncode if proc.returncode != 0 else
             (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
