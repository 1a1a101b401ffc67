#!/usr/bin/env python3
"""Golden-output check for the fixed-seed bench and example binaries.

Runs each given binary with no arguments and byte-compares its stdout
with `<golden-dir>/<binary name>.txt`. Every bench and example is seeded,
so its output is a pure function of the code: any difference is a change
in behaviour. A change that is meant to move a figure regenerates the golden
file and explains the new numbers in CHANGES.md:

    ./build/bench/fig4_replicas > tests/golden/fig4_replicas.txt

    golden_outputs.py tests/golden ./build/bench/fig4_replicas ...

The binary must also exit 0 (the benches gate their own headline shape,
the examples their audits).
Every golden file must be claimed by one of the given binaries, so a
golden cannot go stale unnoticed when a bench is renamed or dropped.

Exit status: 0 identical, 1 difference or bench failure, 2 structural
(missing binary or golden file).
"""

import argparse
import difflib
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("golden_dir")
    parser.add_argument("binaries", nargs="+")
    args = parser.parse_args()

    goldens = {name[:-len(".txt")] for name in os.listdir(args.golden_dir)
               if name.endswith(".txt")}
    names = [os.path.basename(binary) for binary in args.binaries]
    unclaimed = sorted(goldens - set(names))
    missing = sorted(set(names) - goldens)
    if unclaimed or missing:
        for name in unclaimed:
            print(f"error: golden {name}.txt has no binary", file=sys.stderr)
        for name in missing:
            print(f"error: {name} has no golden file", file=sys.stderr)
        return 2

    failed = []
    for binary, name in zip(args.binaries, names):
        if not os.access(binary, os.X_OK):
            print(f"error: {binary} is not an executable", file=sys.stderr)
            return 2
        with open(os.path.join(args.golden_dir, name + ".txt"),
                  encoding="utf-8") as f:
            expected = f.read()
        run = subprocess.run([binary], capture_output=True, text=True,
                             check=False)
        if run.returncode != 0:
            print(f"FAIL {name}: exit status {run.returncode}")
            sys.stdout.write(run.stderr)
            failed.append(name)
            continue
        if run.stdout != expected:
            print(f"FAIL {name}: stdout differs from its golden file")
            sys.stdout.writelines(difflib.unified_diff(
                expected.splitlines(keepends=True),
                run.stdout.splitlines(keepends=True),
                fromfile=f"golden/{name}.txt", tofile=name))
            failed.append(name)
            continue
        print(f"ok   {name}")
    if failed:
        print(f"{len(failed)} of {len(names)} outputs differ: "
              + ", ".join(failed))
        return 1
    print(f"all {len(names)} outputs match their golden files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
