#!/usr/bin/env python3
"""What of the package the CLI's runs reach, statement by statement.

    python3 tools/reach.py TREE [--seeds 7 11] [--fixtures NAME ...]

TREE is a source checkout with its `src/`. The runs are those of
`normality-lab check`:

- every fixture of TREE's `tests/fixtures` (or those named with
  `--fixtures`) at `--samples 5` in JSON, in CSV and with
  `--connection-free`, and at `--samples 1`;
- every job of the three benchmark workloads at each `--seeds`, as
  `bench/run.py` runs it and `tools/drift.py` lists it, from TREE's
  `bench/workloads.py`.

All of them run in one fresh interpreter that imports the package from
TREE's `src/` under sys.settrace, which follows the package's own
frames only and records each line executed there and the line that
frame executed next. The output is one JSON document listing, per
module of the package, the statements never executed and the `if`
statements taken one way only, each with its line and the way taken.
A statement counts as executed when a line of its own (its header, for
a compound statement) is; an `if` whose test shares a line with its
body is not judged.
"""

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import types

import drift

PROBE = """
import contextlib, io, json, os, sys
package = os.path.join(sys.argv[1], "src", "normality_lab") + os.sep
lines, arcs = {}, {}


def trace(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(package):
        return None
    seen = lines.setdefault(path, set())
    follow = arcs.setdefault(path, set())
    last = None

    def local(frame, event, arg):
        # an arc (line, 0) leaves the frame; an exception ends no arc
        nonlocal last
        if event == "line":
            seen.add(frame.f_lineno)
            if last is not None:
                follow.add((last, frame.f_lineno))
            last = frame.f_lineno
        elif event == "return" and last is not None:
            follow.add((last, 0))
        elif event == "exception":
            last = None
        return local
    return local


sys.path.insert(0, os.path.join(sys.argv[1], "src"))
sys.settrace(trace)
from normality_lab import cli
assert cli.__file__.startswith(package), cli.__file__
for argv in json.load(sys.stdin):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
sys.settrace(None)
print(json.dumps({path: [sorted(lines[path]), sorted(arcs[path])]
                  for path in lines}))
"""


def runs(tree, workdir, seeds, fixtures):
    """The argv of every run, without --out: the fixture runs, then the
    workload jobs as tools/drift.py lists them."""
    fixture_dir = os.path.join(tree, "tests", "fixtures")
    names = fixtures or sorted(f[:-len(".system")] for f in
                               os.listdir(fixture_dir) if f.endswith(".system"))
    out = []
    for name in names:
        path = os.path.join(fixture_dir, f"{name}.system")
        out += [["check", path, "--samples", "5", *extra] for extra in
                ([], ["--format", "csv"], ["--connection-free"])]
        out.append(["check", path, "--samples", "1"])
    jobs = drift.reports(tree, workdir, [], seeds, [], fixtures)
    return out + [argv for _, argv in jobs]


def _executable(code):
    """The lines with bytecode of a code object and of those it nests."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            out |= _executable(const)
    return out


def _own(node):
    """The lines a statement runs itself: all of a simple statement's,
    the header of a compound one."""
    if isinstance(node, (ast.If, ast.While)):
        return range(node.test.lineno, node.test.end_lineno + 1)
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return range(node.lineno, node.iter.end_lineno + 1)
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return range(node.lineno, node.items[-1].context_expr.end_lineno + 1)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        start = min([d.lineno for d in node.decorator_list] + [node.lineno])
        return range(start, node.body[0].lineno)
    if isinstance(node, ast.Try):
        return range(node.lineno, node.lineno + 1)
    return range(node.lineno, node.end_lineno + 1)


def module_reach(path, seen, arcs):
    """(never executed, taken one way) of one module, given its executed
    lines and arcs."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    text = source.splitlines()
    executable = _executable(compile(source, path, "exec"))
    seen = set(seen)
    after = {}
    for a, b in arcs:
        after.setdefault(a, set()).add(b)
    never, one_way = [], []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        own = set(_own(node))
        if not own & executable:
            continue
        entry = {"line": node.lineno, "source": text[node.lineno - 1].strip()}
        if not own & seen:
            never.append(entry)
            continue
        if not isinstance(node, ast.If) or node.body[0].lineno in own:
            continue
        body = range(node.body[0].lineno, node.body[-1].end_lineno + 1)
        nxt = {b for a in own for b in after.get(a, ()) if b not in own}
        ways = {"true" if b in body else "false" for b in nxt}
        if len(ways) == 1:
            one_way.append({**entry, "taken": ways.pop()})
    return (sorted(never, key=lambda e: e["line"]),
            sorted(one_way, key=lambda e: e["line"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree")
    parser.add_argument("--seeds", type=int, nargs="*", default=[7, 11])
    parser.add_argument("--fixtures", nargs="*")
    args = parser.parse_args(argv)
    tree = os.path.abspath(args.tree)
    with tempfile.TemporaryDirectory() as workdir:
        argvs = runs(tree, workdir, args.seeds, args.fixtures)
        out = os.path.join(workdir, "report")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, "-c", PROBE, tree],
            input=json.dumps([a + ["--out", out] for a in argvs]),
            capture_output=True, text=True, env=env, check=True)
    traced = json.loads(done.stdout)
    package = os.path.join(tree, "src", "normality_lab")
    modules = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            never, one_way = module_reach(path, *traced.get(path, ([], [])))
            modules[name] = {"never_executed": never, "one_way_ifs": one_way}
    json.dump({"tree": args.tree,
               "options": {"seeds": args.seeds, "fixtures": args.fixtures},
               "runs": len(argvs), "modules": modules}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
