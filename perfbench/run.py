#!/usr/bin/env python3
"""Builds the provisioning benchmark from source and runs one workload.

    python3 perfbench/run.py --workload nginx-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to perfbench/ under
$CARGO_TARGET_DIR (default .bench_build); traces and scratch state stay beside
it. The benchmark's self-tests run before every measurement. The last stdout
line is the perfbench binary's JSON result; build output goes to stderr.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = Path.cwd()
    source = Path(__file__).resolve().parent
    build = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    work = build / "work"
    traces = build / "traces"
    for directory in (work, traces):
        directory.mkdir(parents=True, exist_ok=True)

    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(source), "-B", str(build / "cmake"),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build / "cmake"), "-j", jobs],
        [str(build / "cmake" / "perfbench_selftest")],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print(f"run.py: '{' '.join(step)}' failed", file=sys.stderr)
            return 1

    command = [str(build / "cmake" / "perfbench"),
               "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--trace-dir", str(traces), "--work-dir", str(work)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
