"""tools/reach.py on one fixture and no workload jobs: four default runs
of identity2, and what of the package they leave unreached."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reach_lists_unexecuted_statements_and_one_way_ifs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach.py"), str(ROOT),
         "--seeds", "--fixtures", "identity2"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    reach = json.loads(done.stdout)
    assert reach["runs"] == 4
    modules = reach["modules"]
    assert sorted(modules) == sorted(
        p.name for p in (ROOT / "src" / "normality_lab").glob("*.py"))
    cli = modules["cli.py"]
    # every run takes the default checks, and no batch of them raises
    taken = {e["source"]: e["taken"] for e in cli["one_way_ifs"]}
    assert taken["if cfg.checks is not None:"] == "false"
    never = {e["source"] for e in cli["never_executed"]}
    assert "half = len(points) // 2" in never
    # identity2 has no surface, so the shift's integrator never runs
    assert modules["dop853.py"]["never_executed"]
    for entries in modules.values():
        lines = [e["line"] for e in entries["never_executed"]]
        assert lines == sorted(set(lines))
