#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload bcast_wan|churn|durable \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark program (perfbench/main.ml)
is built from source with dune into .bench_build/, then run once; its
standard output is passed through, and its last line is the JSON result.
--trace 1 sets ATUM_PROF_WALL=1 so the engine records per-label wall time,
and writes the traced run's spans to perfbench/_out/ as Chrome trace_event
JSON.  METRICS.md describes the workloads and every metric.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["bcast_wan", "churn", "durable"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    # The shared dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    env.pop("ATUM_PROF_WALL", None)
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")

    if args.trace:
        env["ATUM_PROF_WALL"] = "1"
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join("perfbench", "_out")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
