#!/usr/bin/env python3
"""Build and run the SERENITY compile-and-serve benchmark.

    python3 perfbench/run.py --workload zoo|stacked --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library and the benchmark binary in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only check that the build is current. Build output goes to standard error.
The binary's last line of standard output is the run's JSON result. A traced
run (--trace 1) also writes its spans, one JSON object per line, to
<build dir>/traces/<workload>-seed<N>.jsonl.

Exits non-zero, without a result, when the build fails, for instance in a
directory that holds the benchmark but not the SERENITY sources.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (out / "build.ninja").exists() and not (out / "Makefile").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), *generator,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if configure.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_ = subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return compile_.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["zoo", "stacked"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds within 1..60")

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [str(out / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
