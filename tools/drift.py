#!/usr/bin/env python3
"""Report drift, one source tree against another.

    python3 tools/drift.py PARENT CHANGE [--samples 1 5 20] [--seeds 7 11]
                           [--shift-seeds 1 2 ...] [--fixtures NAME ...]

PARENT and CHANGE are source checkouts, each with its `src/`. The
reports are those of `normality-lab check`:

- every fixture of CHANGE's `tests/fixtures` (or those named with
  `--fixtures`) at each `--samples`, each with and without
  `--connection-free`, in JSON and in CSV;
- every job of the three benchmark workloads at each `--seeds`, and of
  `shift-fronts` alone at each `--shift-seeds`, in JSON: the job's file,
  check, samples and seed, as `bench/run.py` runs it. The files are
  written once by CHANGE's `bench/workloads.py` (imported, not changed).

Each side runs every report in one fresh interpreter that imports the
program from that side's `src/`, through `cli.main` with the same argv.
The output is one JSON document: the count of reports whose bytes,
exit status and standard error are identical, and for each other
report its largest row move, absolute and relative to the row's
tolerance, with every move of an exit status, standard error, verdict,
pass flag, point or error record. The exit status is 1 when any report
differs, else 0.
"""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile

# the moves beyond a residual's, each listed where a report has one
MOVES = ("status", "stderr", "error", "verdict", "pass", "points")

PROBE = """
import contextlib, io, json, os, sys
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
from normality_lab import cli
assert cli.__file__.startswith(os.path.join(sys.argv[1], "src")), cli.__file__
results = []
for argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as e:
            status = e.code
    results.append([status, err.getvalue()])
print(json.dumps(results))
"""


def reports(change, workdir, samples, seeds, shift_seeds, fixtures):
    """(name, argv without --out) of every report."""
    out = []
    fixture_dir = os.path.join(change, "tests", "fixtures")
    names = fixtures or sorted(f[:-len(".system")] for f in
                               os.listdir(fixture_dir) if f.endswith(".system"))
    for name in names:
        path = os.path.join(fixture_dir, f"{name}.system")
        for count in samples:
            for free in ([], ["--connection-free"]):
                for fmt in ("json", "csv"):
                    out.append((" ".join([name, f"--samples {count}", *free,
                                          f"--format {fmt}"]),
                                ["check", path, "--samples", str(count), *free,
                                 "--format", fmt]))
    sys.path.insert(0, os.path.join(change, "bench"))
    import workloads
    runs = [(w, s) for s in seeds for w in workloads.WORKLOADS]
    runs += [("shift-fronts", s) for s in shift_seeds if s not in seeds]
    for workload, seed in runs:
        directory = os.path.join(workdir, "jobs", f"{workload}-{seed}")
        _, jobs = workloads.write_workload(workload, seed, directory)
        for job in jobs:
            out.append((f"{workload}@{seed} {job.system} {job.check}",
                        ["check", job.path, "--checks", job.check,
                         "--samples", str(job.samples), "--seed",
                         str(job.seed)]))
    return out


def run_side(tree, items, directory):
    """(exit status, stderr, report bytes) of each item, from one fresh
    interpreter importing tree's src/."""
    os.makedirs(directory)
    paths = [os.path.join(directory, f"{k}.out") for k in range(len(items))]
    argvs = [argv + ["--out", path] for (_, argv), path in zip(items, paths)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "-c", PROBE, os.path.abspath(tree)],
                          input=json.dumps(argvs), capture_output=True,
                          text=True, env=env, check=True)
    results = json.loads(done.stdout)
    out = []
    for (status, err), path in zip(results, paths):
        try:
            with open(path, "rb") as handle:
                out.append((status, err, handle.read()))
        except FileNotFoundError:
            out.append((status, err, None))
    return out


def _move(a, b):
    """|a - b| of two residuals, infinite where one is not a number."""
    if a == b:
        return 0.0
    try:
        return abs(float(a) - float(b))
    except (TypeError, ValueError):
        return float("inf")


def _json_moves(a, b, moves):
    """The largest row move of two JSON reports, as (absolute, relative,
    check, equation); other moves go into moves."""
    a, b = json.loads(a), json.loads(b)
    if a.get("error") != b.get("error"):
        moves["error"].append([a.get("error"), b.get("error")])
    largest = (0.0, 0.0, None, None)
    checks_a, checks_b = a.get("checks", []), b.get("checks", [])
    if [c["id"] for c in checks_a] != [c["id"] for c in checks_b]:
        moves["error"].append("the reports hold other checks")
        return largest
    for ca, cb in zip(checks_a, checks_b):
        name = ca["id"]
        if ca.get("error") != cb.get("error"):
            moves["error"].append([name, ca.get("error"), cb.get("error")])
        if ca["summary"]["passed"] != cb["summary"]["passed"]:
            moves["verdict"].append([name, ca["summary"]["passed"],
                                     cb["summary"]["passed"]])
        if ca["points"] != cb["points"]:
            moves["points"].append(name)
        if len(ca["rows"]) != len(cb["rows"]):
            moves["pass"].append([name, "row count", len(ca["rows"]),
                                  len(cb["rows"])])
            continue
        for ra, rb in zip(ca["rows"], cb["rows"]):
            index, equation, residual, passed = ra
            if [index, equation, passed] != [rb[0], rb[1], rb[3]]:
                moves["pass"].append([name, ra, rb])
            move = _move(residual, rb[2])
            tolerance = ca["equations"][equation]["tolerance"]
            if move > largest[0]:
                largest = (move, move / tolerance, name, equation)
    return largest


def _csv_moves(a, b, moves):
    """As _json_moves, over the rows of two CSV reports."""
    rows_a, rows_b = (list(csv.DictReader(io.StringIO(t.decode())))
                      for t in (a, b))
    largest = (0.0, 0.0, None, None)
    if len(rows_a) != len(rows_b):
        moves["pass"].append(["row count", len(rows_a), len(rows_b)])
        return largest
    for ra, rb in zip(rows_a, rows_b):
        fixed = [k for k in ra if k != "residual" and ra[k] != rb.get(k)]
        if fixed:
            moves["points" if set(fixed) <= {"x", "fiber", "t"} else
                  "pass"].append([ra["check"], ra["equation"], ra["index"],
                                  fixed])
        move = _move(ra["residual"], rb["residual"])
        if move > largest[0]:
            largest = (move, move / float(ra["tolerance"]), ra["check"],
                       ra["equation"])
    return largest


def compare(name, parent, change):
    """None where the two (status, stderr, bytes) are identical, else a
    record of the report's moves."""
    if parent == change:
        return None
    moves = {kind: [] for kind in MOVES}
    if parent[0] != change[0]:
        moves["status"].append([parent[0], change[0]])
    if parent[1] != change[1]:
        moves["stderr"].append([parent[1], change[1]])
    largest = (0.0, 0.0, None, None)
    if None in (parent[2], change[2]):
        if parent[2] != change[2]:
            moves["error"].append("a report is missing")
    elif parent[2] != change[2]:
        parse = _csv_moves if "--format csv" in name else _json_moves
        largest = parse(parent[2], change[2], moves)
    record = {"report": name, "largest_move": largest[0],
              "largest_relative_move": largest[1], "check": largest[2],
              "equation": largest[3]}
    record.update({k: v for k, v in moves.items() if v})
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--samples", type=int, nargs="*", default=[1, 5, 20])
    parser.add_argument("--seeds", type=int, nargs="*", default=[7, 11])
    parser.add_argument("--shift-seeds", type=int, nargs="*", default=[])
    parser.add_argument("--fixtures", nargs="*")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        items = reports(args.change, workdir, args.samples, args.seeds,
                        args.shift_seeds, args.fixtures)
        sides = [run_side(tree, items, os.path.join(workdir, side))
                 for side, tree in (("parent", args.parent),
                                    ("change", args.change))]
    changed = [record for (name, _), p, c in zip(items, *sides)
               if (record := compare(name, p, c)) is not None]
    summary = {"parent": args.parent, "change": args.change,
               "options": {"samples": args.samples, "seeds": args.seeds,
                           "shift_seeds": args.shift_seeds,
                           "fixtures": args.fixtures},
               "reports": len(items),
               "byte_identical": len(items) - len(changed),
               "largest_move": max([r["largest_move"] for r in changed],
                                   default=0.0),
               "reports_with": {kind: sum(kind in r for r in changed)
                                for kind in MOVES},
               "changed": changed}
    json.dump(summary, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
