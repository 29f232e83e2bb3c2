"""The schema-2 report layout: helpers.expand gives back the schema-1
report, and the CSV holds the expanded rows, one a line."""

import csv
import io
import json
from pathlib import Path

import pytest

import helpers
from normality_lab.cli import (CSV_COLUMNS, RunConfig, render_csv, render_json,
                               run_checks)

ROOT = Path(__file__).parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

# schema-1 reports of `check tests/fixtures/<name>.system --samples 2`,
# run from the root of the checkout before the layout changed
SCHEMA1 = ROOT / "tests" / "schema1"


def _without_new_keys(report):
    """The report without `schema` and the summary keys schema 2 added."""
    out = {k: v for k, v in report.items() if k != "schema"}
    out["checks"] = [{**r, "summary": {k: v for k, v in r["summary"].items()
                                       if k not in ("decisive_max", "worst")}}
                     for r in report["checks"]]
    return out


@pytest.mark.parametrize("name", ["cubic", "cubic_shift"])
def test_expand_gives_the_schema_1_report(monkeypatch, name):
    want = json.loads((SCHEMA1 / f"{name}-samples-2.json").read_text())
    monkeypatch.chdir(ROOT)
    report, status = run_checks(RunConfig(f"tests/fixtures/{name}.system",
                                          samples=2))
    assert status == 1
    got = helpers.expand(json.loads(render_json(report)))
    assert (got["schema"], want["schema"]) == (2, 1)
    assert _without_new_keys(got) == {k: v for k, v in want.items()
                                      if k != "schema"}


def _csv_cells(row):
    """A schema-1 row as the CSV writes it, by column."""
    point = row["point"]
    return {
        "check": row["check"], "equation": row["equation"],
        "index": str(row["index"]), "rep": point.get("rep", ""),
        "x": " ".join(repr(c) for c in point.get("x", ())),
        "fiber": " ".join(repr(c) for c in point.get("fiber", ())),
        "t": repr(point["t"]) if "t" in point else "",
        "residual": "" if row["residual"] is None else repr(row["residual"]),
        "tolerance": repr(row["tolerance"]),
        "verdict": "pass" if row["pass"] else "fail",
        "decisive": str(row["decisive"]).lower() if "decisive" in row else "",
        "conditional": "true" if row.get("conditional") else "",
        "requires": ";".join(row.get("requires", ())),
    }


@pytest.mark.parametrize("samples", [1, 5, 20])
def test_the_csv_rows_are_the_expanded_rows(samples):
    for path in sorted(FIXTURES.glob("*.system")):
        report, _ = run_checks(RunConfig(str(path), samples=samples))
        expanded = helpers.expand(json.loads(render_json(report)))
        want = [_csv_cells(row) for record in expanded["checks"]
                for row in record["rows"]]
        table = csv.DictReader(io.StringIO(render_csv(report)))
        assert tuple(table.fieldnames) == CSV_COLUMNS
        assert list(table) == want, path.stem
