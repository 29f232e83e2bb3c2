#!/usr/bin/env python3
"""Scaling of the default checks in n, one source tree against another.

    python3 tools/scaling.py PARENT CHANGE [--samples 64] [--rounds 5]

PARENT and CHANGE are source checkouts, each with its `src/`. The
systems are the fixtures cubic (n = 2), cylindrical3 (3), pullback4,
pullback4_newton (4) and family3 (3), read from CHANGE, and one
coupled-cubic file a dimension n = 2..5 drawn by
`bench/workloads.cubic_family` with seed n (the benchmark's module,
imported and not changed). Every round times each system on both
sides, the side that goes first alternating from round to round, in
fresh interpreters that import the program from that side's `src/`:

- `check_ms`: the median of REPEATS runs of `cli.run_checks` with the
  default checks at `--samples` points, after one untimed run;
- `cli_s`: the wall time of `python -m normality_lab check FILE
  --samples N`, interpreter start and imports included.

The output is one JSON object: per system its n, each side's median
over the rounds and the ratio change/parent of each (below 1 means the
change is faster).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

FIXTURES = ("cubic", "cylindrical3", "pullback4", "pullback4_newton",
            "family3")
REPEATS = 3

PROBE = """
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
from normality_lab import cli
cfg = cli.RunConfig(path=sys.argv[2], samples=int(sys.argv[3]))
cli.run_checks(cfg)
times = []
for _ in range(int(sys.argv[4])):
    start = time.perf_counter()
    cli.run_checks(cfg)
    times.append(time.perf_counter() - start)
print(statistics.median(times))
"""


def _systems(change, directory):
    """(name, n, path) of every system the harness times."""
    out = [(name, None, os.path.join(change, "tests", "fixtures",
                                     f"{name}.system"))
           for name in FIXTURES]
    sys.path.insert(0, os.path.join(change, "bench"))
    import workloads
    for n in range(2, 6):
        path = os.path.join(directory, f"coupled{n}.system")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(workloads.cubic_family(np.random.default_rng(n), n))
        out.append((f"coupled{n}", n, path))
    return out


def _time(tree, path, samples):
    src = os.path.join(tree, "src")
    check = float(subprocess.run(
        [sys.executable, "-c", PROBE, src, path, str(samples), str(REPEATS)],
        capture_output=True, text=True, check=True).stdout)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "normality_lab", "check", path,
                    "--samples", str(samples)],
                   env=dict(os.environ, PYTHONPATH=src),
                   stdout=subprocess.DEVNULL, check=False)
    return check * 1e3, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--samples", type=int, default=64)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with tempfile.TemporaryDirectory() as directory:
        systems = _systems(sides["change"], directory)
        times = {}
        for r in range(args.rounds):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for name, _, path in systems:
                for side in order:
                    times.setdefault((name, side), []).append(
                        _time(sides[side], path, args.samples))
    out = {"samples": args.samples, "rounds": args.rounds,
           "repeats": REPEATS, "systems": {}}
    for name, n, path in systems:
        if n is None:
            with open(path, encoding="utf-8") as handle:
                n = int(next(line for line in handle
                             if line.startswith("n =")).split("=")[1])
        entry = {"n": n}
        for k, metric in enumerate(("check_ms", "cli_s")):
            medians = {side: statistics.median(t[k] for t in times[name, side])
                       for side in sides}
            entry[metric] = medians
            entry[f"{metric}_ratio"] = medians["change"] / medians["parent"]
        out["systems"][name] = entry
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
