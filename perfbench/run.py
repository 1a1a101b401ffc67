#!/usr/bin/env python3
"""Build and run the paxoscp benchmark (see README.md).

    python3 perfbench/run.py --workload paper-cp --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (an optimized build of the repository's
src/ plus the benchmark binary) under .bench_build/perfbench at the root of
the checkout, then runs the binary. Build output goes to stderr, so the
last line of stdout is the binary's JSON result. With --trace 1 the Chrome trace
is written next to the build, as trace-<workload>-seed<seed>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# A run measures for --seconds, plus its traced run and layer passes with
# --trace 1; anything far beyond that is a hang.
RUN_TIMEOUT_S = 170


def build() -> bool:
    jobs = str(min(os.cpu_count() or 1, 4))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="paper-cp, cross-multihome or outage-cp")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    command = [str(BUILD / "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        trace = BUILD / f"trace-{args.workload}-seed{args.seed}.json"
        command += ["--trace-out", str(trace)]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
