#!/usr/bin/env python3
"""soctest benchmark: builds the program and the benchmark runner from this
checkout, runs one workload and prints its result as the last stdout line.

    python3 perfbench/run.py --workload sweep|cold|service|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) inside the checkout; the first run builds, later runs
only re-check the build. All output other than the result line goes to
stderr. Exits non-zero without a result line when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TARGETS = ["perfbench_runner", "soctest_serve_tool", "soctest_frontdoor_tool",
           "soctest_perf_tool"]


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    # Configuring every time keeps an existing build tree in step with the
    # build file (a renamed target is unknown to an old Makefile).
    subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", "4", "--target"]
                   + TARGETS, check=True, stdout=sys.stderr, timeout=900)
    return os.path.join(cmake_dir, "bin")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "cold", "service", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        bin_dir = build(build_dir)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [os.path.join(bin_dir, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "run"), "--bin-dir", bin_dir]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: runner timed out", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"perfbench: runner exited with {run.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
