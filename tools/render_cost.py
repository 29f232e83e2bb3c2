#!/usr/bin/env python3
"""Time and size of JSON reports, one source tree against another.

    python3 tools/render_cost.py PARENT CHANGE [--rounds 5]

PARENT and CHANGE are source checkouts, each with its `src/`. Two sets
of reports are built once a side, in a fresh interpreter that imports
the program from that side's `src/`:

- `sweep-lowdim`: the 22 jobs of the benchmark workload at seed 7
  (`bench/workloads.py` of CHANGE, imported and not changed), each a
  `cli.run_checks` of one check;
- `fixtures`: every `tests/fixtures/*.system` of CHANGE at the default
  100 samples and default checks.

For each set, `render_ms` is the best of `--rounds` runs of three
`cli.render_json` passes over the whole set, divided by three, and
`bytes` the length of one pass's output. The output is one JSON object:
per set each side's figures, and `<set>_ratio`, the render time
change/parent (below 1 means the change renders faster).
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
from normality_lab import cli
import workloads
_, jobs = workloads.write_workload("sweep-lowdim", 7, sys.argv[3])
sets = {
    "sweep-lowdim": [cli.RunConfig(path=j.path, checks=(j.check,),
                                   samples=j.samples, seed=j.seed)
                     for j in jobs],
    "fixtures": [cli.RunConfig(path=p) for p in sys.argv[5:]],
}
out = {}
for name, configs in sets.items():
    reports = [cli.run_checks(cfg)[0] for cfg in configs]
    best = float("inf")
    for _ in range(int(sys.argv[4])):
        start = time.perf_counter()
        for _ in range(3):
            texts = [cli.render_json(r) for r in reports]
        best = min(best, (time.perf_counter() - start) / 3)
    out[name] = {"reports": len(reports), "render_ms": best * 1e3,
                 "bytes": sum(len(t.encode()) for t in texts)}
print(json.dumps(out))
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    change = os.path.abspath(args.change)
    fixtures = sorted(glob.glob(os.path.join(change, "tests", "fixtures",
                                             "*.system")))
    out = {"rounds": args.rounds}
    with tempfile.TemporaryDirectory() as directory:
        for side, root in (("parent", args.parent), ("change", change)):
            done = subprocess.run(
                [sys.executable, "-c", PROBE,
                 os.path.join(os.path.abspath(root), "src"),
                 os.path.join(change, "bench"), directory, str(args.rounds),
                 *fixtures],
                capture_output=True, text=True, check=True, timeout=900)
            out[side] = json.loads(done.stdout)
    for name in out["change"]:
        out[f"{name}_ratio"] = (out["change"][name]["render_ms"]
                                / out["parent"][name]["render_ms"])
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
