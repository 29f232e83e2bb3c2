"""tools/load_cost.py: the working tree against itself, one round of one
repeat, times the load of every benchmark workload's files."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_working_tree_against_itself_times_every_workload(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "load_cost.py"), str(ROOT),
         str(ROOT), "--rounds", "1", "--repeats", "1"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert sorted(out) == sorted(("seed", "rounds", "repeats")
                                 + workloads.WORKLOADS)
    assert (out["seed"], out["rounds"], out["repeats"]) == (7, 1, 1)
    for name in workloads.WORKLOADS:
        entry = out[name]
        assert entry["files"] > 0, name
        assert 0.0 < entry["parent_ms"] < math.inf, name
        assert 0.0 < entry["change_ms"] < math.inf, name
        assert entry["ratio"] == entry["change_ms"] / entry["parent_ms"]
