#!/usr/bin/env python3
"""Builds and runs the hatkv benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the hatkv library from src/ plus the hatbench program) in Release
mode under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; later calls only rebuild what changed. hatbench's
output is passed through; its last line, one JSON object with the keys
correct, attempted, failed and metrics, is checked and printed last. The
exit code is nonzero when the build fails, a correctness check fails, or
hatbench prints no valid result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds hatbench; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "hatbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            return None
    return os.path.join(out, "hatbench")


def parse_result(line):
    """hatbench's result object, or None if `line` is not a valid one."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict):
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(result["correct"], bool):
        return None
    if not isinstance(result["metrics"], dict) or not result["metrics"]:
        return None
    for metric in result["metrics"].values():
        if set(metric) != {"value", "unit"}:
            return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: hatbench timed out", file=sys.stderr)
        return 1

    lines = proc.stdout.rstrip("\n").split("\n")
    result = parse_result(lines[-1]) if lines else None
    for line in lines[:-1]:
        print(line)
    if result is None:
        if lines:
            print(lines[-1])
        print("run.py: hatbench printed no valid result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    print(json.dumps(result))
    sys.stdout.flush()
    if not result["correct"]:
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
