#!/usr/bin/env python3
"""Load time of the benchmark's system files, one source tree against
another.

    python3 tools/load_cost.py PARENT CHANGE [--seed 7] [--rounds 10]
                               [--repeats 10]

PARENT and CHANGE are source checkouts, each with its `src/`. The files
are those of the three benchmark workloads at `--seed`, written once by
CHANGE's `bench/workloads.py` (imported, not changed). Every round runs
both sides, the side that goes first alternating from round to round,
each in a fresh interpreter that imports the program from that side's
`src/`. It times `sysfile.read_system_file` over each workload's files:
the best of `--repeats` passes, after one untimed pass, divided by the
file count. The output is one JSON object: per workload the file count,
each side's median over the rounds of the ms a load and the ratio
change/parent.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

PROBE = """
import glob, json, os, sys, time
sys.path.insert(0, sys.argv[1])
from normality_lab import sysfile
out = {}
for directory in sys.argv[3:]:
    paths = sorted(glob.glob(os.path.join(directory, "*.system")))
    for path in paths:
        sysfile.read_system_file(path)
    best = float("inf")
    for _ in range(int(sys.argv[2])):
        start = time.perf_counter()
        for path in paths:
            sysfile.read_system_file(path)
        best = min(best, time.perf_counter() - start)
    out[os.path.basename(directory)] = [len(paths), best / len(paths) * 1e3]
print(json.dumps(out))
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=10)
    args = parser.parse_args(argv)
    change = os.path.abspath(args.change)
    sys.path.insert(0, os.path.join(change, "bench"))
    import workloads
    sides = {"parent": os.path.abspath(args.parent), "change": change}
    times, counts = {side: {} for side in sides}, {}
    with tempfile.TemporaryDirectory() as workdir:
        directories = [os.path.join(workdir, w) for w in workloads.WORKLOADS]
        for workload, directory in zip(workloads.WORKLOADS, directories):
            workloads.write_workload(workload, args.seed, directory)
        for r in range(args.rounds):
            for side in list(sides)[::1 if r % 2 else -1]:
                done = subprocess.run(
                    [sys.executable, "-c", PROBE,
                     os.path.join(sides[side], "src"), str(args.repeats),
                     *directories],
                    capture_output=True, text=True, check=True, timeout=900)
                for name, (files, ms) in json.loads(done.stdout).items():
                    times[side].setdefault(name, []).append(ms)
                    counts[name] = files
    out = {"seed": args.seed, "rounds": args.rounds,
           "repeats": args.repeats}
    for name in workloads.WORKLOADS:
        parent, change_ms = (statistics.median(times[side][name])
                             for side in sides)
        out[name] = {"files": counts[name], "parent_ms": parent,
                     "change_ms": change_ms, "ratio": change_ms / parent}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
