"""tools/drift.py: the working tree against itself moves no report, and
a moved residual, pass flag, verdict or exit status is reported."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _drift(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import drift
    return drift


def test_the_working_tree_against_itself_is_byte_identical():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "drift.py"), str(ROOT), str(ROOT),
         "--fixtures", "cubic_shift", "--samples", "1", "--seeds"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout)
    assert (summary["reports"], summary["byte_identical"]) == (4, 4)
    assert summary["changed"] == [] and summary["largest_move"] == 0.0


def _report(residual, passed, verdict):
    return json.dumps({"schema": 2, "checks": [{
        "id": "shift", "points": [{"t": 0.0}],
        "equations": {"shift-start": {"tolerance": 1e-10}},
        "rows": [[0, "shift-start", residual, passed]],
        "summary": {"passed": verdict}}]}).encode()


def test_a_move_is_reported(monkeypatch):
    drift = _drift(monkeypatch)
    same = (0, "", _report(1e-16, True, True))
    assert drift.compare("r", same, same) is None
    moved = drift.compare("r", same, (0, "", _report(3e-16, True, True)))
    assert moved["largest_move"] == 2e-16
    assert moved["largest_relative_move"] == 2e-16 / 1e-10
    assert not any(kind in moved for kind in drift.MOVES)
    flipped = drift.compare("r", same, (1, "", _report(1e-9, False, False)))
    assert flipped["status"] == [[0, 1]]
    assert flipped["verdict"] == [["shift", True, False]]
    assert flipped["pass"] == [["shift", [0, "shift-start", 1e-16, True],
                                [0, "shift-start", 1e-9, False]]]
