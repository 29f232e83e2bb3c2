import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import helpers
from normality_lab import calculus, cli, experiments, expr, sysfile, system
from normality_lab.cli import RunConfig, render_csv, render_json, run_checks
from normality_lab.errors import (AsymmetricGauge, DegeneratePoint, EvalError,
                                  ExprSyntaxError, SingularMetric,
                                  SystemFileError, ValidationError)
from normality_lab.sysfile import read_system_file

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name):
    return str(FIXTURES / f"{name}.system")


def write_system(tmp_path, body):
    path = tmp_path / "case.system"
    path.write_text(body, encoding="utf-8")
    return str(path)


def test_load_identity():
    sysdef = read_system_file(fixture("identity2")).sysdef
    assert sysdef.n == 2
    assert sysdef.v_inverse is None and sysdef.gauge is None


def test_load_full_sections():
    doc = read_system_file(fixture("identity_full"))
    assert doc.sysdef.gauge is not None
    assert len(doc.surface) == 2
    assert doc.nu == -1.0
    assert doc.options["periodic"] is True
    assert doc.options["u_samples"] == 32


def test_load_lagrangian_generator():
    sysdef = read_system_file(fixture("lagrangian")).sysdef
    env = {"x1": 0.3, "x2": -0.2, "v1": 1.1, "v2": 0.8}
    # d/dv1 of the generating scalar
    want = env["v1"] + 0.2 * env["v1"] * env["v2"] ** 2
    assert abs(sysdef.legendre[0].evaluate(env) - want) < 1e-12


def test_load_closed_form_inverse():
    sysdef = read_system_file(fixture("linear_mode_a")).sysdef
    assert sysdef.v_inverse is not None


def test_asymmetric_connection_rejected(tmp_path):
    path = write_system(tmp_path, """
[system]
n = 2
[legendre]
L1 = "v1"
L2 = "v2"
[connection]
Gamma_1_12 = "0.1*v1"
""")
    with pytest.raises(ValidationError, match="asymmetric"):
        read_system_file(path).sysdef


def test_inconsistent_inverse_rejected(tmp_path):
    path = write_system(tmp_path, """
[system]
n = 2
[legendre]
L1 = "v1"
L2 = "v2"
[inverse]
V1 = "p1 + 0.3"
V2 = "p2"
""")
    with pytest.raises(ValidationError, match="inverse disagrees"):
        read_system_file(path).sysdef


IDENTITY = '[system]\nn = 2\n[legendre]\nL1 = "v1"\nL2 = "v2"\n'


# One file per kind of structural fault, with exact-valued components
# so that every evaluation path gives the same bits. The messages name
# the first failing sample of the validation plan and, for symmetry,
# its largest gap; the zero and inverse faults first fail past sample 0.
@pytest.mark.parametrize("body, error, message", [
    (IDENTITY + '[connection]\nGamma_1_12 = "v1"\nGamma_2_12 = "3*v2"\n'
     'Gamma_2_21 = "x1"\n', ValidationError,
     "connection is asymmetric in its lower pair at [1][0][1]: "
     "1.5495829065855873 vs 0.2739233746429086"),
    (IDENTITY + '[gauge]\nT_1_12 = "x1 + x2"\nT_1_21 = "x1"\n',
     AsymmetricGauge,
     "gauge tensor is asymmetric in its lower pair at [0][0][1]: "
     "-0.28683030956701416 vs -0.7298069899551776"),
    ('[system]\nn = 2\n[legendre]\nL1 = "v1 + 1e-9*(x1 + 1)"\nL2 = "v2"\n',
     ValidationError,
     "fiber map does not send v=0 to p=0 at "
     "x=[0.050708644951451776, -0.3795162488820887]: "
     "[1.0507086449514518e-09, 0.0]"),
    (IDENTITY + '[inverse]\nV1 = "p1"\nV2 = "p2 + 1e-8*(x1 + 1)"\n',
     ValidationError,
     "closed-form inverse disagrees with the fiber map at "
     "x=[0.14305966145952187, -0.3562612178481157], "
     "p=[1.0943000301996968, 0.8379112255071333] (residual 1.14e-08)"),
    # inf - inf makes a nan, which does not compare within a tolerance
    ('[system]\nn = 2\n[legendre]\n'
     'L1 = "v1 + 1e200*1e200*x1 - 1e200*1e200*x1"\nL2 = "v2"\n',
     ValidationError,
     "fiber map does not send v=0 to p=0 at "
     "x=[-0.7298069899551776, 0.4429766803881634]: [nan, 0.0]"),
    (IDENTITY + '[inverse]\nV1 = "p1 + 1e200*1e200*x1 - 1e200*1e200*x1"\n'
     'V2 = "p2"\n',
     ValidationError,
     "closed-form inverse disagrees with the fiber map at "
     "x=[-0.7298069899551776, 0.4429766803881634], "
     "p=[1.0253543224757258, 0.8102418755589557] (residual nan)"),
])
def test_structural_fault_messages(tmp_path, body, error, message):
    # the message keeps its type, after the file it comes from
    path = write_system(tmp_path, body)
    with pytest.raises(error) as info:
        read_system_file(path).sysdef
    assert str(info.value) == f"{path}: {message}"


def test_asymmetric_gauge_file_exits_2(tmp_path, capsys):
    path = write_system(tmp_path, IDENTITY + '[gauge]\nT_1_12 = "0.1*v1"\n')
    assert cli.main(["check", path]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "AsymmetricGauge"
    assert error["message"].startswith(f"{path}: gauge tensor is asymmetric")


ONE_DIMENSIONAL = """[system]
n = 1
[legendre]
L1 = "2*v1 + 0.1*v1^3"
[force]
Phi1 = "0.3*v1"
[gauge]
T_1_11 = "0.2*x1"
"""


def test_default_checks_at_n_1_are_metric_and_transport(tmp_path, capsys):
    # the cross, normality and gauge fields need n >= 2
    path = write_system(tmp_path, ONE_DIMENSIONAL)
    assert cli.main(["check", path, "--samples", "3"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["id"] for c in checks] == ["metric", "transport"]
    assert all(c["summary"]["passed"] for c in checks)
    # asked for, a check that needs n >= 2 keeps its error record
    assert cli.main(["check", path, "--samples", "3", "--checks", "cross"]) == 1
    cross, = json.loads(capsys.readouterr().out)["checks"]
    assert cross["error"] == {"type": "DimensionError",
                              "message": "normality fields need n >= 2"}


def test_cli_gauge_check_validates_its_tensor_once(monkeypatch, tmp_path):
    calls = []
    real = system._check_symmetric

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(system, "_check_symmetric", counting)
    status = cli.main(["check", fixture("identity_full"), "--checks", "gauge",
                       "--samples", "5", "--out", str(tmp_path / "r.json")])
    assert status == 0
    # loading checks both tensors; the gauge check reads the loaded one
    assert calls == ["connection", "gauge tensor"]


@pytest.mark.parametrize("section, entries, error, what", [
    ("gauge", 'T_1_11 = "1e200*x1*x1*1e200"\n', AsymmetricGauge,
     "gauge tensor"),
    ("connection", 'Gamma_1_11 = "1e200*x1*x1*1e200"\n', ValidationError,
     "connection"),
], ids=["gauge", "connection"])
def test_non_finite_tensor_fails_at_load(tmp_path, section, entries, error,
                                         what):
    # inf - inf is a nan gap, which once passed the symmetry check
    path = write_system(tmp_path, IDENTITY + f"[{section}]\n" + entries)
    with pytest.raises(error) as info:
        read_system_file(path).sysdef
    assert str(info.value).startswith(
        f"{path}: {what} is not finite at [0][0][0], x=")
    assert str(info.value).endswith(": inf vs inf")


def cubic_with(tmp_path, old, new):
    """The cubic fixture with one line replaced, or with its [gauge]
    section replaced when old is "[gauge]"."""
    text = (FIXTURES / "cubic.system").read_text(encoding="utf-8")
    if old == "[gauge]":
        text = text[:text.index(old)] + new
    else:
        assert old in text
        text = text.replace(old, new)
    return write_system(tmp_path, text)


def run_module(*args):
    """The CLI through the module entry point with every warning an
    error: (exit status, stdout, stderr)."""
    root = Path(__file__).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "normality_lab", *args],
        capture_output=True, text=True, env=env, timeout=300)
    return done.returncode, done.stdout, done.stderr


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_non_finite_rows_fail_and_are_written_as_null():
    for flags in ({}, {"conditional": True}, {"decisive": False}):
        row = cli._row("eq", float("nan"), 1.0)
        assert row == ["eq", None, False]
        record = {"equations": {"ok": {"tolerance": 1.0},
                                "eq": {"tolerance": 1.0, **flags}},
                  "rows": [[0, *cli._row("ok", 0.5, 1.0)], [0, *row]]}
        summary = cli._summarize(record, 0)
        assert summary["max"] is None and summary["mean"] is None
        assert summary["pass_count"] == 1 and not summary["passed"]
    with pytest.raises(ValueError):
        render_json({"residual": float("inf")})


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Every fixture's report at 5 samples, with and without its
    connection, and the CLI's error record, by name."""
    out = {}
    for path in sorted(FIXTURES.glob("*.system")):
        for free in (False, True):
            out[path.stem, free], _ = run_checks(
                RunConfig(str(path), samples=5, connection_free=free))
    error = tmp_path_factory.mktemp("error") / "error.json"
    assert cli.main(["check", fixture("cubic"), "--samples", "0",
                     "--out", str(error)]) == 2
    out["error"] = json.loads(error.read_text(encoding="utf-8"))
    assert out["error"]["error"]["type"] == "ValidationError"
    return out


def test_render_json_writes_what_json_dumps_writes(reports):
    for name, report in reports.items():
        text = render_json(report)
        assert text == json.dumps(
            report, sort_keys=True, allow_nan=False, separators=(",", ":"),
            check_circular=False) + "\n", name
        assert strict_json(text) == report, name
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            render_json({"x": [bad]})
        with pytest.raises(ValueError):
            render_json({"rows": [{"point": {"x": [0.25, bad]}}]})


def _leaves(node, where="report"):
    """(where, leaf) of every leaf under node; a container other than a
    dict with str keys or a list fails."""
    if type(node) is dict:
        for key, value in node.items():
            assert type(key) is str, (where, key)
            yield from _leaves(value, f"{where}.{key}")
    elif type(node) is list:
        for k, value in enumerate(node):
            yield from _leaves(value, f"{where}[{k}]")
    else:
        yield where, node


def test_reports_hold_plain_json_values(reports):
    # json.dumps writes a tuple, a numpy scalar or an int key without
    # complaint, and CSV reprs a numpy float as np.float64(...), so the
    # reports themselves must hold plain values only
    for name, report in reports.items():
        for where, leaf in _leaves(report):
            assert type(leaf) in (str, int, float, bool, type(None)), (
                name, where, type(leaf))
            assert type(leaf) is not float or math.isfinite(leaf), (
                name, where)


def test_an_unwritable_report_exits_2(tmp_path):
    out = tmp_path / "missing" / "report.json"
    for args in ((), ("--samples", "0")):
        status, stdout, err = run_module("check", fixture("identity2"),
                                         "--checks", "metric", *args,
                                         "--out", str(out))
        assert (status, stdout) == (2, "")
        assert err.count("\n") == 1 and str(out) in err, err
        assert "Traceback" not in err


def test_overflowing_gauge_rows_fail(tmp_path):
    # at T = 1e200 these six deviations are nan; a one-point aggregator
    # once turned each into a passing 0.0
    path = cubic_with(tmp_path, "[gauge]", '[gauge]\nT_1_11 = "1e200"\n')
    report, status = run_checks(RunConfig(path, checks=("gauge",), samples=2))
    assert status == 1
    record = helpers.expand(strict_json(render_json(report)))["checks"][0]
    assert record["summary"]["max"] is None
    assert not record["summary"]["passed"]
    for index in range(2):
        rows = {r["equation"]: r for r in record["rows"]
                if r["index"] == index}
        assert len(rows) == 13
        for name in ("rule-R", "rule-C", "rule-beta", "rule-eta",
                     "residual-weak-eta", "residual-skew-C"):
            assert rows[name]["residual"] is None, name
            assert rows[name]["pass"] is False, name


def test_the_summary_names_the_worst_decisive_row(tmp_path):
    # cubic's largest gauge row is a conditional weak-eta norm, which
    # does not decide the check; its worst decisive row is a weak-alpha
    # norm at round-off
    report, status = run_checks(RunConfig(fixture("cubic"), checks=("gauge",),
                                          samples=5, seed=0))
    assert status == 0
    record, = report["checks"]
    summary = record["summary"]
    assert 0.17 < summary["max"] < 0.18
    big, = (row for row in record["rows"] if row[2] == summary["max"])
    assert big[1] == "residual-weak-eta"
    assert record["equations"]["residual-weak-eta"]["conditional"]
    assert summary["decisive_max"] == 8.881784197001252e-16
    assert summary["worst"] == {"row": 21, "equation": "residual-weak-alpha",
                                "index": 1}
    assert record["rows"][21] == [1, "residual-weak-alpha",
                                  summary["decisive_max"], True]
    # of equal residuals the first row is the worst
    report, _ = run_checks(RunConfig(fixture("cubic"), checks=("metric",),
                                     samples=5, seed=0))
    record, = report["checks"]
    assert [row[2] for row in record["rows"]].count(
        record["summary"]["decisive_max"]) > 1
    assert record["summary"]["worst"] == {"row": 0, "index": 0,
                                          "equation": "metric-product"}
    # a non-finite decisive row is worse than any finite one, and the
    # first of them is the worst
    path = cubic_with(tmp_path, "[gauge]", '[gauge]\nT_1_11 = "1e200"\n')
    report, status = run_checks(RunConfig(path, checks=("gauge",), samples=2))
    assert status == 1
    record, = report["checks"]
    assert record["rows"][0][2] > 0.9 and record["rows"][3][2] is None
    assert record["summary"]["decisive_max"] is None
    assert record["summary"]["worst"] == {"row": 3, "equation": "rule-R",
                                          "index": 0}
    # no row decides an error record
    report, _ = run_checks(RunConfig(fixture("identity2"), checks=("gauge",),
                                     samples=2))
    summary = report["checks"][0]["summary"]
    assert (summary["decisive_max"], summary["worst"]) == (0.0, None)


def test_overflowing_connection_writes_strict_json_without_warnings(
        tmp_path):
    path = cubic_with(tmp_path, 'Gamma_2_11 = "0.15*x1"',
                      'Gamma_2_11 = "1e200*x1"')
    status, out, err = run_module("check", path, "--checks",
                                  "cross,normality,gauge", "--samples", "2")
    assert (status, err) == (1, "")
    records = helpers.expand(strict_json(out))["checks"]
    assert [r["id"] for r in records] == ["cross", "normality", "gauge"]
    for record in records:
        assert "error" not in record
        assert record["summary"]["max"] is None, record["id"]
        assert not record["summary"]["passed"]
        assert any(row["residual"] is None and not row["pass"]
                   for row in record["rows"])


def test_syntax_error_carries_location(tmp_path):
    path = write_system(tmp_path, """
[system]
n = 2
[legendre]
L1 = "v1 +"
L2 = "v2"
""")
    with pytest.raises(ExprSyntaxError, match=r":5: in l1"):
        read_system_file(path).sysdef


@pytest.mark.parametrize("body, line, key, message", [
    ('[legendre]\nL1 = "v3"\nL2 = "v2"', 5, "l1",
     "variable v3 out of range for dimension 2 (line 1, column 1)"),
    ('[legendre]\nL1 = "v1"\nL2 = "v2"\n[surface]\nx1 = "cos(u1)"\n'
     'x2 = "sin(u1)*u2"', 9, "x2",
     "variable u2 out of range for dimension 1 (line 1, column 9)"),
], ids=["legendre", "surface"])
def test_every_parse_error_names_its_file_line_and_key(tmp_path, capsys,
                                                       body, line, key,
                                                       message):
    # a variable out of range is a parse error like a syntax error, and
    # its record names the file, line and key too
    path = write_system(tmp_path, "\n[system]\nn = 2\n" + body + "\n")
    assert cli.main(["check", path, "--samples", "1"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "DimensionError",
        "message": f"{path}:{line}: in {key}: {message}"}


def test_a_non_finite_newton_guess_fails_at_load(tmp_path):
    # a NaN guess starts Newton at NaN, where the metric check's error
    # record would blame L1; the file's line names the guess instead
    path = write_system(tmp_path, '[system]\nn = 2\n[legendre]\n'
                        'L1 = "v1 + 0.1*v1^3"\nL2 = "v2"\n[options]\n'
                        'newton_guess = nan, 1\n')
    with pytest.raises(SystemFileError,
                       match=f"^{re.escape(path)}:7: newton_guess must be "
                             f"finite$"):
        read_system_file(path)
    fiber_map = helpers.parse_all(["v1", "v2"], 2)
    for guess in ([np.nan, 1.0], [0.0, -np.inf]):
        with pytest.raises(ValidationError, match="must be finite"):
            system.SystemDef(2, fiber_map, newton_guess=guess)


def test_overflowing_literal_fails_at_load(tmp_path):
    path = write_system(tmp_path, """[system]
n = 2
[legendre]
L1 = "v1"
L2 = "v2"
[force]
Phi1 = "0.5*v2 + 1e400*v1"
""")
    with pytest.raises(ExprSyntaxError) as err:
        read_system_file(path)
    assert str(err.value) == (f"{path}:7: in phi1: number 1e400 overflows "
                              f"(line 1, column 10)")
    assert (err.value.line, err.value.column) == (1, 10)


@pytest.mark.parametrize("body, match", [
    ('[legendre]\nL1 = "v1"', r"missing \[system\]"),
    ('[system]\nn = 2', r"missing \[legendre\]"),
    ('[system]\nn = two', "must be an integer"),
    ('[system]\nn = 2\n[bogus]\nk = "1"', "unknown section"),
    ('k = "1"\n[system]\nn = 2', "before any section"),
    ('[system]\nn = 2\nn = 3', "duplicate key"),
    ('[system]\nn = 2\n[system]\nn = 2', "duplicate section"),
    ('[system]\nn = 2\n[legendre]\nL1 = "v1"', "missing l2"),
    ('[system]\nn = 2\n[legendre]\nL1 = "v1"\nL2 = "v2"\nlagrangian = "v1^2"',
     "excludes explicit"),
    ('[system]\nn = 2\n[legendre]\nL1 = "v1"\nL2 = "v2"\n'
     '[connection]\nGamma_1_13 = "0"', r"outside 1\.\.2"),
    ('[system]\nn = 2\n[legendre]\nL1 = "v1"\nL2 = "v2"\n'
     '[options]\nwhatever = 1', "unknown option"),
    ('[system]\nn = 2\n[legendre]\nL1 = "v1"\nL2 = "v2"\n'
     '[options]\nmutate = nonsense', "unknown mutation"),
    ('[system]\nn = 2\n[legendre]\nL1 = "v1"\nL2 = "v2"\n'
     '[options]\nnewton_guess = 1.0', "needs 2 values"),
    ('[system]\nn = 2\n[legendre]\nL1 = "v1"\nL2 = "v2"\n'
     '[options]\nu_samples = many', "bad value"),
    # the shift's settings need a surface, at n = 1 too, and a shift
    # option names its own line
    ('[system]\nn = 1\n[legendre]\nL1 = "v1"\n[nu]\nnu = "2"',
     r":6: \[nu\] needs a \[surface\]$"),
    ('[system]\nn = 2\n[legendre]\nL1 = "v1"\nL2 = "v2"\n'
     '[options]\nmutate = flip-beta-term\nu_samples = 5',
     r":8: u_samples needs a \[surface\]$"),
])
def test_malformed_files_rejected(tmp_path, body, match):
    path = write_system(tmp_path, body)
    with pytest.raises(SystemFileError, match=match):
        read_system_file(path).sysdef


def test_duplicate_keys_name_the_key(tmp_path):
    base = '[system]\nn = 2\n[legendre]\nL1 = "v1"\nL2 = "v2"\n'
    for body, line, key in [
            ('[surface]\nx1(u1) = "u1"\nx2 = "0"\nX1 = "1"', 9, "x1"),
            ('[surface]\nx1 = "u1"\nx2 = "0"\nx1 (u1, u2) = "1"', 9, "x1"),
            ('[nu] = "1"\nnu = "2"', 7, "nu")]:
        path = write_system(tmp_path, base + body)
        with pytest.raises(SystemFileError,
                           match=f":{line}: duplicate key '{key}'$"):
            read_system_file(path)


def test_a_file_parses_each_source_once(tmp_path):
    path = write_system(tmp_path, """
[system]
n = 2
[legendre]
L1 = "v1 + 0.1*x1*v2"
L2 = "v2"
[connection]
Gamma_1_12 = "0.1*v1"
Gamma_1_21 = 0.1*v1
Gamma_2_11 = "x1"
[force]
Phi2 = x1
[inverse]
V1 = "p1 - 0.1*x1*p2"
V2 = "p2"
[gauge]
T_1_12 = "0.1*v1"
T_1_21 = "0.1*v1"
T_2_11 = "x1"
""")
    doc = read_system_file(path)
    gamma, gauge = doc.sysdef.connection, doc.sysdef.gauge
    # mirrored entries, and equal sources in any section, share one
    # expression
    assert gamma[0, 0, 1] is gamma[0, 1, 0] is gauge[0, 0, 1] is gauge[0, 1, 0]
    assert gamma[1, 0, 0] is gauge[1, 0, 0] is doc.sysdef.force[1]
    # nothing is kept from one read to the next
    again = read_system_file(path).sysdef.connection
    assert again[0, 0, 1] == gamma[0, 0, 1]
    assert again[0, 0, 1] is not gamma[0, 0, 1]


def test_nu_forms(tmp_path):
    base = ('[system]\nn = 2\n[legendre]\nL1 = "v1"\nL2 = "v2"\n'
            '[surface]\nx1 = "u1"\nx2 = "0"\n')
    doc = read_system_file(write_system(tmp_path, base + '[nu] = "2.5"'))
    assert doc.nu == 2.5
    doc = read_system_file(write_system(tmp_path, base + '[nu]\nnu = "1 + u1"'))
    assert abs(doc.nu.evaluate({"u1": 0.25}) - 1.25) < 1e-15


def test_run_checks_full_fixture_passes():
    report, status = run_checks(RunConfig(fixture("identity_full"),
                                          samples=3, seed=42))
    assert status == 0
    assert [c["id"] for c in report["checks"]] == list(cli.CHECK_IDS)
    assert all(c["summary"]["passed"] for c in report["checks"])
    assert report["schema"] == 2
    assert report["system"]["gauge"] and report["system"]["surface"]


def test_report_rows_are_complete():
    report, _ = run_checks(RunConfig(fixture("identity_full"),
                                     samples=2, seed=1))
    for record in report["checks"]:
        assert record["rows"], record["id"]
        assert record["points"], record["id"]
        for entry in record["equations"].values():
            assert type(entry["tolerance"]) is float, record["id"]
        for row in record["rows"]:
            index, equation, residual, passed = row
            assert 0 <= index < len(record["points"]), (record["id"], row)
            assert equation in record["equations"], (record["id"], row)
            assert residual is None or type(residual) is float, row
            assert type(passed) is bool, (record["id"], row)
        summary = record["summary"]
        assert summary["rows"] == len(record["rows"])
        assert summary["pass_count"] <= summary["rows"]


def test_reports_are_byte_deterministic():
    cfg = RunConfig(fixture("identity_full"), samples=3, seed=9)
    first, _ = run_checks(cfg)
    second, _ = run_checks(cfg)
    assert render_json(first) == render_json(second)
    assert render_csv(first) == render_csv(second)


def test_mutation_fixture_fails_cross():
    report, status = run_checks(RunConfig(fixture("mutated"),
                                          checks=("cross",),
                                          samples=3, seed=5))
    assert status == 1
    failing = {row["equation"] for c in helpers.expand(report)["checks"]
               for row in c["rows"] if not row["pass"]}
    assert "cross-beta" in failing
    assert report["system"]["mutation"] == "flip-beta-term"


def test_shear_fixture_fails_normality_and_shift():
    report, status = run_checks(RunConfig(fixture("shear"),
                                          checks=("normality", "shift"),
                                          samples=3, seed=5))
    assert status == 1
    assert not any(c["summary"]["passed"] for c in report["checks"])


def test_cubic_shift_fixture_fails_the_shift_after_newton():
    # the coupled cubic map needs several Newton steps at the start, and
    # its generic force bends the momenta off the moving normals
    report, status = run_checks(RunConfig(fixture("cubic_shift"),
                                          checks=("shift",)))
    assert status == 1
    shift = helpers.expand(report)["checks"][0]
    assert "error" not in shift and not shift["summary"]["passed"]
    assert shift["rows"][0]["pass"] and len(shift["rows"]) == 6


@pytest.mark.parametrize("nu", ["inf", "nan", "-1e300*1e300*(1 + u1)"])
def test_non_finite_shift_scale_is_a_validation_error(tmp_path, nu):
    text = Path(fixture("identity_full")).read_text(encoding="utf-8")
    path = write_system(tmp_path, text.replace('[nu] = "-1"', f'[nu] = "{nu}"'))
    report, status = run_checks(RunConfig(path, checks=("shift",)))
    assert status == 1
    error = report["checks"][0]["error"]
    assert error["type"] == "ValidationError"
    assert "nu" in error["message"] and "u=[0.0]" in error["message"]


def test_shift_rtol_below_the_integrator_floor_is_rejected(tmp_path, capsys):
    # 32 nodes: the per-node rtol 1e-13/sqrt(32) is below 100 eps, which
    # the integrator would clamp with a warning; the file fails at load,
    # on the rtol line, as a rule across the grid's options
    text = Path(fixture("identity_full")).read_text(encoding="utf-8")
    path = write_system(tmp_path, text + "rtol = 1e-13\n")
    status = cli.main(["check", path, "--checks", "shift",
                       "--out", str(tmp_path / "r.json")])
    assert status == 2
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    lineno = text.count("\n") + 1
    assert report["error"] == {
        "type": "SystemFileError",
        "message": f"{path}:{lineno}: rtol 1e-13 is below 1.256e-13, the "
                   f"smallest allowed for 32 nodes (100 eps sqrt(nodes))"}


def test_no_check_imports_scipy():
    # the point checks, then the shift, which integrates with dop853
    root = Path(__file__).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    script = (
        "import sys\n"
        "from normality_lab import cli\n"
        f"status = cli.main(['check', {fixture('cubic')!r}, '--checks',\n"
        "    'metric,transport,cross,normality,gauge', '--samples', '2',\n"
        f"    '--out', {os.devnull!r}])\n"
        "assert status in (0, 1), status\n"
        "assert 'scipy' not in sys.modules\n"
        f"report, _ = cli.run_checks(cli.RunConfig({fixture('cubic_shift')!r},\n"
        "    checks=('shift',)))\n"
        "assert 'error' not in report['checks'][0], report['checks'][0]\n"
        "assert 'scipy' not in sys.modules\n")
    done = subprocess.run([sys.executable, "-W", "error", "-c", script],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr


def test_connection_free_flag():
    cfg = RunConfig(fixture("cubic"), checks=("cross",), samples=3,
                    seed=2, connection_free=True)
    report, status = run_checks(cfg)
    assert status == 0
    assert report["config"]["connection_free"] is True


def test_gauge_without_tensor_is_structured_error():
    report, status = run_checks(RunConfig(fixture("identity2"),
                                          checks=("gauge",),
                                          samples=2, seed=0))
    assert status == 1
    record = report["checks"][0]
    assert record["error"] == {
        "type": "MissingGaugeTensor",
        "message": "the gauge check needs a [gauge] section in the file"}
    assert not record["summary"]["passed"]


def test_conditional_gauge_rows_do_not_fail_the_check():
    # on this system the conditional residual rows move a lot, but the
    # check verdict comes from the invariants and rules alone
    report, status = run_checks(RunConfig(fixture("cubic"),
                                          checks=("gauge",),
                                          samples=3, seed=11))
    assert status == 0
    rows = helpers.expand(report)["checks"][0]["rows"]
    conditional = [r for r in rows if r.get("conditional")]
    assert conditional and any(not r["pass"] for r in conditional)
    assert all(r["requires"] for r in conditional)


def test_config_validation():
    good = fixture("identity2")
    with pytest.raises(ValidationError, match="unknown checks"):
        run_checks(RunConfig(good, checks=("bogus",)))
    with pytest.raises(ValidationError, match="samples"):
        run_checks(RunConfig(good, samples=0))
    with pytest.raises(ValidationError, match="seed"):
        run_checks(RunConfig(good, seed=-1))
    with pytest.raises(ValidationError, match="tolerance"):
        run_checks(RunConfig(good, samples=1, tolerances={"cross": 0.0}))
    with pytest.raises(ValidationError, match="unknown tolerances: Cross"):
        run_checks(RunConfig(good, samples=1, tolerances={"Cross": 1e9}))
    # wrong types are configuration errors, not bare Python errors
    with pytest.raises(ValidationError, match="samples must be an integer"):
        run_checks(RunConfig(good, checks=("metric",), samples=2.5))
    with pytest.raises(ValidationError, match="seed must be an integer"):
        run_checks(RunConfig(good, checks=("metric",), samples=2, seed=1.5))
    with pytest.raises(ValidationError, match="string 'metric'"):
        run_checks(RunConfig(good, checks="metric", samples=2))
    with pytest.raises(ValidationError, match="unknown report format 'xml'"):
        run_checks(RunConfig(good, checks=("metric",), samples=2, fmt="xml"))
    # non-finite or non-numeric settings are rejected before sampling
    for tol in (float("inf"), float("nan"), "1e-9", None, [1e-9], True):
        with pytest.raises(ValidationError, match="'metric' must be a positive"):
            run_checks(RunConfig(good, checks=("metric",), samples=2,
                                 tolerances={"metric": tol}))
    # the report names the one sampling box
    report, status = run_checks(RunConfig(good, checks=("metric",), samples=2))
    assert status == 0
    config = json.loads(render_json(report))["config"]
    assert config["x_box"] == [-1.0, 1.0]
    assert config["fiber_box"] == [0.5, 1.5]


def test_numpy_integer_samples_and_seed_render_like_plain_ints():
    def rendered(samples, seed):
        report, _ = run_checks(RunConfig(fixture("identity2"),
                                         checks=("metric",), samples=samples,
                                         seed=seed))
        return render_json(report), render_csv(report)

    assert rendered(np.int64(3), np.int64(4)) == rendered(3, 4)


def test_degenerate_points_are_resampled(monkeypatch):
    real = cli._BUILDERS["metric"]
    first = set()

    def flaky(sysdef, doc, x, v, draws, tol):
        # every first draw degenerates, so the batch splits down to lone
        # points, and each point degenerates exactly once and then
        # succeeds on its next draw
        if x.ndim > 1:
            first.update(p.tobytes() for p in x)
            raise DegeneratePoint("synthetic")
        if x.tobytes() in first:
            raise DegeneratePoint("synthetic")
        return real(sysdef, doc, x, v, draws, tol)

    monkeypatch.setitem(cli._BUILDERS, "metric", flaky)
    report, status = run_checks(RunConfig(fixture("identity2"),
                                          checks=("metric",),
                                          samples=4, seed=6))
    assert status == 0
    summary = report["checks"][0]["summary"]
    assert summary["resampled"] == 4
    assert summary["rows"] == 8


def test_resample_budget_exhaustion_is_structured(monkeypatch):
    def hopeless(sysdef, doc, x, v, draws, tol):
        raise DegeneratePoint("synthetic")

    monkeypatch.setitem(cli._BUILDERS, "metric", hopeless)
    report, status = run_checks(RunConfig(fixture("identity2"),
                                          checks=("metric",),
                                          samples=2, seed=6))
    assert status == 1
    assert report["checks"][0]["error"]["type"] == "DegeneratePoint"


def test_main_writes_report_and_exits_clean(tmp_path):
    out = tmp_path / "report.json"
    status = cli.main(["check", fixture("identity2"), "--samples", "2",
                       "--seed", "3", "--out", str(out)])
    assert status == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema"] == 2 and doc["config"]["samples"] == 2


def test_main_reports_load_failures(tmp_path):
    out = tmp_path / "error.json"
    status = cli.main(["check", str(tmp_path / "missing.system"),
                       "--out", str(out)])
    assert status == 2
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["error"]["type"] == "SystemFileError"


def test_main_tolerance_override(tmp_path):
    out = tmp_path / "report.json"
    status = cli.main(["check", fixture("identity2"), "--checks", "metric",
                       "--samples", "2", "--tol-metric", "1e-3",
                       "--out", str(out)])
    assert status == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["config"]["tolerances"]["metric"] == 1e-3


def test_a_check_flag_leaves_the_secondary_tolerances_alone(tmp_path):
    # roundtrip, gauge-exact and shift-start have no flag of their own
    out = tmp_path / "report.json"
    status = cli.main(["check", fixture("identity2"), "--checks", "metric",
                       "--samples", "2", "--tol-metric", "1e-3",
                       "--out", str(out)])
    assert status == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["config"]["tolerances"]["roundtrip"] == 1e-10
    assert doc["config"]["tolerances"] == {**cli.DEFAULT_TOLERANCES,
                                           "metric": 1e-3}
    metric, = doc["checks"]
    assert metric["equations"]["fiber-roundtrip"] == {"tolerance": 1e-10}


def test_main_rejects_a_non_finite_tolerance(tmp_path):
    # an infinite tolerance once passed every row and was written as
    # Infinity, which is not JSON
    out = tmp_path / "error.json"
    status = cli.main(["check", fixture("identity2"), "--checks", "metric",
                       "--samples", "2", "--tol-metric", "inf",
                       "--out", str(out)])
    assert status == 2
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["error"]["type"] == "ValidationError"


def test_lagrangian_with_terms_free_of_v_loads_and_passes(tmp_path):
    # ln(x1) is undefined on half the x box, but it does not enter the
    # fiber map v1, v2: only the derivatives by v are evaluated
    path = write_system(tmp_path, """
[system]
n = 2

[legendre]
lagrangian = "0.5*v1^2 + 0.5*v2^2 - ln(x1)"
""")
    report, status = run_checks(RunConfig(path, samples=3))
    assert status == 0
    assert all(record["summary"]["passed"] for record in report["checks"])


def test_lagrangian_with_an_infinite_constant_exponent_exits_2(tmp_path,
                                                               capsys):
    # the exponent once folded to inf: the fiber map printed as
    # inf*v1^inf, which does not reparse, and the file loaded and ended
    # in error records; the error names the file, line and key
    for exponent, message in [
            ("exp(400)*exp(400)",
             "non-finite constant exponent exp(400)*exp(400)"),
            ("2^2000", "non-finite power result for base 2.0")]:
        path = write_system(tmp_path, f"""
[system]
n = 1

[legendre]
lagrangian = "0.5*v1^2 + v1^({exponent})"
""")
        assert cli.main(["check", path]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "EvalError",
                         "message": f"{path}:6: in lagrangian: {message}"}


@pytest.mark.parametrize("extra, status", [(96, 0), (97, 2)])
def test_a_lagrangian_at_the_depth_bound_is_checked(tmp_path, capsys, extra,
                                                    status):
    # a flat fiber map under a left-deep sum: 96 more terms make a tree
    # MAX_DEPTH levels deep, whose every check passes; one more passes
    # the bound, which the last term's last token closes
    lagrangian = "0.5*v1^2+0.5*v2^2" + "+0*x1" * extra
    path = write_system(tmp_path, f"""
[system]
n = 2

[legendre]
lagrangian = "{lagrangian}"
""")
    assert cli.main(["check", path, "--samples", "1"]) == status
    out = capsys.readouterr()
    assert out.err == ""
    if status == 2:
        assert json.loads(out.out)["error"] == {
            "type": "ExprSyntaxError",
            "message": f"{path}:6: in lagrangian: expression nests deeper "
                       f"than 100 levels (line 1, column {len(lagrangian) - 1})"}


@pytest.mark.parametrize("source, column", [
    ("v1" + "+0*x1" * 2999, 498),           # a 3,000-term sum
    ("(" * 400 + "v1" + ")" * 400, 100),    # 400 parentheses deep
])
def test_a_deep_expression_is_a_syntax_error_record(tmp_path, capsys, source,
                                                    column):
    # both ended the CLI in a RecursionError traceback with status 1
    path = write_system(tmp_path, f"""
[system]
n = 2

[legendre]
L1 = "{source}"
L2 = "v2"
""")
    assert cli.main(["check", path, "--samples", "1"]) == 2
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["error"] == {
        "type": "ExprSyntaxError",
        "message": f"{path}:6: in l1: expression nests deeper than 100 "
                   f"levels (line 1, column {column})"}


def test_overflow_in_a_component_is_a_structured_error(tmp_path):
    # sin of an overflowed argument once escaped as a bare ValueError;
    # the argument is 0 at the load plan's v = 0 and inf in the box
    path = write_system(tmp_path, """
[system]
n = 1

[legendre]
L1 = "v1 + 0.1*sin(1e200*v1*1e200)*v1"
""")
    report, status = run_checks(RunConfig(path, checks=("metric",),
                                          samples=2, seed=1))
    assert status == 1
    assert report["checks"][0]["error"]["type"] == "EvalError"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_in_jet_arithmetic_is_an_eval_error(tmp_path):
    # the cube of 1e104*v1 overflows in the jets of L1 inside the box
    # (it is 0 at the load plan's v = 0), and 0*inf turns derivatives
    # into nan; this once printed numpy warnings and ended as a
    # SingularMetric record
    path = write_system(tmp_path, """
[system]
n = 2

[legendre]
L1 = "v1 + 1e104*v1*1e104*v1*1e104*v1"
L2 = "v2"
""")
    report, status = run_checks(RunConfig(path, checks=("metric",),
                                          samples=2))
    assert status == 1
    error = report["checks"][0]["error"]
    assert error["type"] == "EvalError"
    assert "of L1 at x=" in error["message"]


@pytest.mark.parametrize("section, entries, name, message", [
    ("legendre", 'L1 = "v1 + 0*ln(x1 - 5)"\nL2 = "v2"\n', "L1",
     "ln of non-positive value"),
    ("connection", 'Gamma_1_11 = "sqrt(x1 - 5)"\n', "Gamma_1_11",
     "sqrt of negative value"),
    ("gauge", 'T_1_11 = "ln(x1 - 5)"\n', "T_1_11", "ln of non-positive value"),
    ("inverse", 'V1 = "p1"\nV2 = "p2 + 0*sqrt(x2 - 5)"\n', "V2",
     "sqrt of negative value"),
], ids=["legendre", "connection", "gauge", "inverse"])
def test_component_raising_at_load_names_file_and_component(
        tmp_path, capsys, section, entries, name, message):
    # the evaluator raises on the first sample of the validation plan
    body = (IDENTITY if section != "legendre"
            else '[system]\nn = 2\n') + f"[{section}]\n" + entries
    path = write_system(tmp_path, body)
    assert cli.main(["check", path]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "EvalError"
    assert error["message"].startswith(f"{path}: in {name}: {message} ")
    assert error["message"].endswith(" (node 0)")


SURFACE3 = '[surface]\nx1(u1) = "3*cos(u1)"\nx2(u1) = "3*sin(u1)"\n'
CIRCLE3 = (SURFACE3 + '[options]\nu_stop = 6.283185307179586\n'
           'u_samples = 8\nperiodic = true\n')


@pytest.mark.parametrize("body, check, message", [
    # load: the fiber map at v = 0, the closed-form inverse in the round
    # trip and a connection entry shared by its mirror in the symmetry
    # check, each at the first sample of its block of the plan
    ('[system]\nn = 2\n[legendre]\nL1 = "v1 + 0*sqrt(x1 - 5)"\nL2 = "v2"\n',
     None, "in L1: sqrt of negative value -5.729806989955177 at "
     "x=[-0.7298069899551776, 0.4429766803881634], v=[0.0, 0.0] (node 0)"),
    (IDENTITY + '[inverse]\nV1 = "p1 + 0*sqrt(x2 - 5)"\nV2 = "p2"\n', None,
     "in V1: sqrt of negative value -4.557023319611837 at "
     "x=[-0.7298069899551776, 0.4429766803881634], "
     "p=[1.0253543224757258, 0.8102418755589557] (node 0)"),
    (IDENTITY + '[connection]\nGamma_1_12 = "sqrt(x2 - 5)"\n'
     'Gamma_1_21 = "sqrt(x2 - 5)"\n', None,
     "in Gamma_1_12: sqrt of negative value -5.46042657247226 at "
     "x=[0.2739233746429086, -0.4604265724722594], "
     "v=[0.5409735239361947, 0.5165276355285291] (node 0)"),
    # the shift's start: nu at the nodes, and the closed-form inverse,
    # which loads in the sampling box, at the seeded covectors
    (IDENTITY + CIRCLE3 + '[nu] = "sqrt(u1 - 0.5)"\n', "shift",
     "in nu: sqrt of negative value -0.5 at u=[0.0] (node 0)"),
    (IDENTITY + '[inverse]\nV1 = "p1 + 0*sqrt(2 - x1)"\nV2 = "p2"\n'
     + CIRCLE3 + '[nu] = "2"\n', "shift",
     "in V1: sqrt of negative value -1.0 at x=[3.0, 0.0], p=[-2.0, -0.0] "
     "(node 0)"),
], ids=["load L", "load V", "load Gamma", "shift nu", "shift V"])
def test_an_evaluation_failure_names_its_component_and_point(
        tmp_path, body, check, message):
    path = write_system(tmp_path, body)
    if check is None:
        with pytest.raises(EvalError) as info:
            read_system_file(path)
        assert str(info.value) == f"{path}: {message}"
    else:
        report, status = run_checks(RunConfig(path, checks=(check,)))
        assert status == 1
        assert report["checks"][0]["error"] == {"type": "EvalError",
                                                "message": message}


@pytest.mark.parametrize("line, message", [
    ("u_start = nan", "u_start and u_stop must be finite"),
    ("u_start = 7.0", "u_stop must exceed u_start"),
    ("rtol = 1e-15", "rtol 1e-15 is below 1.256e-13, the smallest allowed "
                     "for 32 nodes (100 eps sqrt(nodes))"),
    ("u_stop = inf", "u_start and u_stop must be finite"),
    ("u_samples = 2", "tangent stencils need u_samples >= 3"),
    ("time_steps = 0", "time_steps must be positive and finite, got 0"),
    ("t_final = nan", "t_final must be positive and finite, got nan"),
    ("t_final = -0.5", "t_final must be positive and finite, got -0.5"),
    ("rtol = -1", "rtol must be positive and finite, got -1.0"),
    ("rtol = inf", "rtol must be positive and finite, got inf"),
])
def test_a_shift_option_breaking_its_own_rule_fails_at_load(
        tmp_path, capsys, line, message):
    # every rule of the shift's options holds at load, as SystemFileError
    # and exit 2, never as a failed certificate: the rule of one option
    # on its line, and a rule across the grid's options (u_stop above
    # u_start, the rtol floor for the node count) on the last line of
    # them, here the one option line
    path = write_system(tmp_path, IDENTITY + SURFACE3 + f"[options]\n{line}\n")
    assert cli.main(["check", path, "--checks", "shift"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "SystemFileError",
                     "message": f"{path}:10: {message}"}


# a value meeting its own rule for each shift option
SHIFT_VALUES = {"u_start": "0.5", "u_stop": "2.0", "u_samples": "5",
                "periodic": "true", "t_final": "0.5", "time_steps": "4",
                "rtol": "1e-9"}


@pytest.mark.parametrize("key", ["[nu]", *sysfile.SHIFT_OPTIONS])
def test_a_shift_setting_without_a_surface_fails_at_load(tmp_path, capsys,
                                                         key):
    # a file without [surface] runs no shift, so its [nu] and shift
    # options would be silently ignored; each fails on its own line
    body = ('[nu] = "2"' if key == "[nu]"
            else f"[options]\n{key} = {SHIFT_VALUES[key]}")
    path = write_system(tmp_path, IDENTITY + body + "\n")
    line = 6 if key == "[nu]" else 7
    assert cli.main(["check", path, "--samples", "1"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "SystemFileError",
        "message": f"{path}:{line}: {key} needs a [surface]"}


def test_a_shift_job_builds_its_grid_once():
    # the load checks the run's grid and the CLI integrates that run,
    # so the grid's rules and arrays are worked out once a job; every
    # call of the function is counted, under whatever name it is bound
    calls, code = [], experiments._axes.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(event)

    sys.setprofile(profile)
    try:
        report, status = run_checks(RunConfig(fixture("cubic_shift"),
                                              checks=("shift",)))
    finally:
        sys.setprofile(None)
    # the file's force breaks normality, so its shift fails by design
    record, = report["checks"]
    assert status == 1 and "error" not in record and len(record["rows"]) == 6
    assert len(calls) == 1


@pytest.mark.parametrize("body, message", [
    # the surface overflows at its last node
    (IDENTITY + '[surface]\nx1(u1) = "exp(400*u1)*exp(400*u1)"\n'
     'x2(u1) = "u1"\n[options]\nu_samples = 5\n',
     "non-finite value or derivatives of x1 at u=[1.0] (node 4)"),
    # the closed-form inverse overflows on a front near x1 = 2, outside
    # the box of the load checks
    ('[system]\nn = 2\n[legendre]\nL1 = "v1*exp(-200*x1)*exp(-200*x1)"\n'
     'L2 = "v2"\n[inverse]\nV1 = "p1*exp(200*x1)*exp(200*x1)"\n'
     'V2 = "p2"\n[surface]\nx1(u1) = "2 + 0.1*cos(u1)"\n'
     'x2(u1) = "0.1*sin(u1)"\n[options]\nu_stop = 6.283185307179586\n'
     'u_samples = 16\nperiodic = true\n',
     "non-finite value or derivatives of V1 at x=[2.1, 0.0], "
     "p=[-1.0, -0.0] (node 0)"),
    # the surface raises at its fourth node
    (IDENTITY + '[surface]\nx1(u1) = "sqrt(0.5 - u1)"\nx2(u1) = "u1"\n'
     '[options]\nu_samples = 5\n',
     "in x1: sqrt of negative value -0.25 at u=[0.75] (node 3)"),
    # the force raises at the fourth node of a circle at the start
    ('[system]\nn = 2\n[legendre]\nL1 = "exp((0.111448)*x1)*v1"\n'
     'L2 = "exp((-0.094289)*x2)*v2 + (0.070409)*x1*v1"\n'
     '[force]\nPhi1 = "sqrt(x1 + 0.3)"\n'
     'Phi2 = "(-0.289922)*sin(x1)*v2 + (-0.195405)*v1^2"\n'
     '[inverse]\nV1 = "p1*exp(-(0.111448)*x1)"\n'
     'V2 = "(p2 - (0.070409)*x1*p1*exp(-(0.111448)*x1))*exp(-(-0.094289)*x2)"'
     '\n[surface]\nx1(u1) = "(0.040200) + (1.106796)*cos(u1)"\n'
     'x2(u1) = "(0.089333) + (1.106796)*sin(u1)"\n[nu] = "-1"\n'
     '[options]\nu_stop = 6.283185307179586\nu_samples = 8\n'
     'periodic = true\nt_final = 0.5\ntime_steps = 4\n',
     "in Phi1: sqrt of negative value -0.44242295699014594 at t=0.0, "
     "x=[-0.7424229569901459, 0.871955956990146], "
     "v=[-0.7681025419606183, 0.7241070716883361] "
     "(node 3, u=[2.356194490192345])"),
], ids=["surface", "inverse", "raising surface", "raising force"])
def test_non_finite_shift_start_is_an_error_record(tmp_path, body, message):
    # both once ended in a traceback from the integrator, or from numpy
    # under -W error, with the exit status of a failed certificate
    status, out, err = run_module("check", write_system(tmp_path, body),
                                  "--checks", "shift")
    assert (status, err) == (1, "")
    record, = strict_json(out)["checks"]
    assert record["error"] == {"type": "EvalError", "message": message}


def test_component_raising_in_a_sweep_names_component_and_point(tmp_path):
    # Phi1 loads, since no load sample has x1 < -0.9, and raises at the
    # first sampled point of each check that has one
    path = write_system(tmp_path, IDENTITY + '[force]\nPhi1 = "sqrt(x1 + 0.9)"'
                                             '\nPhi2 = "0"\n')
    report, status = run_checks(RunConfig(path, checks=("normality", "cross"),
                                          samples=20))
    assert status == 1
    for record in report["checks"]:
        error = record["error"]
        assert error["type"] == "EvalError"
        assert re.fullmatch(r"in Phi1: sqrt of negative value -\S+ at "
                            r"x=\[-0\.9\d*, \S+\], v=\[\S+, \S+\]",
                            error["message"]), error["message"]


def test_fiber_map_raising_in_newton_names_component_and_point(tmp_path):
    # the metric check's round trip starts Newton cold, at the guess
    # v = (-1, 0), where L1's sqrt argument is -0.5; the transport
    # check's Newton starts at the sampled v, a preimage already
    path = write_system(tmp_path, '[system]\nn = 2\n[legendre]\n'
                        'L1 = "v1 + 0.1*v1^3 + 0*sqrt(v1 + 0.5)"\n'
                        'L2 = "v2"\n[options]\nnewton_guess = -1, 0\n')
    report, status = run_checks(RunConfig(path, checks=("metric",),
                                          samples=3))
    assert status == 1
    error = report["checks"][0]["error"]
    assert error["type"] == "EvalError"
    assert re.fullmatch(r"in L1: sqrt of negative value -0\.5 at "
                        r"x=\[\S+, \S+\], v=\[-1\.0, 0\.0\]",
                        error["message"]), error["message"]
    report, status = run_checks(RunConfig(path, checks=("transport",),
                                          samples=3))
    assert status == 0 and "error" not in report["checks"][0]


def test_format_example_of_the_docstring_loads(tmp_path):
    # the example block of the module docstring, written out as it reads
    doc = sysfile.__doc__
    block = doc[doc.index("    [system]"):doc.index("\nOmitted")]
    path = tmp_path / "example.system"
    path.write_text(textwrap.dedent(block), encoding="utf-8")
    loaded = read_system_file(path)
    assert loaded.sysdef.n == 2
    assert loaded.sysdef.v_inverse is not None
    assert loaded.sysdef.gauge is not None
    assert len(loaded.surface) == 2 and loaded.nu == 1.0
    assert loaded.options == {"u_stop": 6.283185307179586, "u_samples": 32,
                              "periodic": True, "mutate": "flip-beta-term"}


def test_module_entry_point_runs_the_shift_check():
    root = Path(__file__).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "normality_lab",
         "check", fixture("identity_full"), "--checks", "shift"],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    report = json.loads(done.stdout)
    assert report["checks"][0]["id"] == "shift"
    assert report["checks"][0]["summary"]["passed"]


def test_csv_shape():
    report, _ = run_checks(RunConfig(fixture("identity2"),
                                     checks=("metric",), samples=2, seed=0))
    lines = render_csv(report).splitlines()
    assert lines[0].split(",")[:3] == ["check", "equation", "index"]
    assert len(lines) == 1 + 4    # header + 2 points x 2 equations


def _parsed_scalar(rng, n, kind):
    """The transport draw as source text, parsed: the reference that
    helpers.random_scalar builds without the parser."""
    a, b = (int(i) + 1 for i in rng.integers(0, n, size=2))
    c = [f"({w:.6f})" for w in rng.uniform(-1.0, 1.0, size=4)]
    source = (f"{c[0]} + {c[1]}*x{a}*{kind}{b} + {c[2]}*{kind}{a}^2"
              f" + {c[3]}*sin(x{b})")
    return expr.parse(source, n)


def _assert_same_draw(built, parsed, kind):
    assert built == parsed
    assert built.fiber_kind == parsed.fiber_kind == kind
    assert built.kinds == parsed.kinds


def test_random_scalars_are_the_parsed_sources():
    for seed in range(500):
        built_rng = np.random.default_rng(seed)
        parsed_rng = np.random.default_rng(seed)
        for n in (2, 3, 4, 5):
            for kind in ("v", "p"):
                _assert_same_draw(helpers.random_scalar(built_rng, n, kind),
                                  _parsed_scalar(parsed_rng, n, kind), kind)
                assert (built_rng.bit_generator.state
                        == parsed_rng.bit_generator.state)


def test_random_scalar_keeps_the_sign_of_a_negative_zero():
    class Fixed:
        """Fixed draws: indices 1 and 0, one at a time or as one size=2
        draw, and the first coefficient rounds to -0.000000."""

        def __init__(self):
            self.indices = [1, 0]

        def integers(self, low, high, size=None):
            return np.array(self.indices) if size else self.indices.pop(0)

        def uniform(self, low, high, size):
            return np.array([-1e-7, 0.25, -0.5, 4e-7])

    built = helpers.random_scalar(Fixed(), 2, "p")
    _assert_same_draw(built, _parsed_scalar(Fixed(), 2, "p"), "p")
    assert built.root.left.left.left == expr.Unary(expr.Num(0.0))


def test_transport_resample_draws_the_next_point_after_the_scalars(monkeypatch):
    """A singular metric found while building the transport contexts
    resamples the point from where the draws of its random scalars
    left the point's substream."""
    seed, n = 5, 2
    check_index = cli.CHECK_IDS.index("transport")
    replay = np.random.default_rng([seed, check_index, 1])
    first_x = replay.uniform(-1.0, 1.0, n)
    calls = []

    class SingularAtFirstDraw(calculus.PContext):
        """Singular wherever point 1's first draw is, alone or in a
        batch."""

        def __init__(self, sysdef, x, p, order=2, vctx=None):
            calls.append(np.shape(x))
            if any(np.array_equal(row, first_x) for row in np.atleast_2d(x)):
                raise SingularMetric("synthetic")
            super().__init__(sysdef, x, p, order, vctx)

    monkeypatch.setattr(calculus, "PContext", SingularAtFirstDraw)
    report, status = run_checks(RunConfig(fixture("cubic"),
                                          checks=("transport",),
                                          samples=2, seed=seed))
    assert status == 0
    # the batch of both points, then point 0 alone, then point 1 alone,
    # once at its first draw and once at its second
    assert calls == [(2, n), (n,), (n,), (n,)]
    record = helpers.expand(report)["checks"][0]
    assert record["summary"]["resampled"] == 1

    replay.uniform(0.5, 1.5, n)
    for _ in range(2 + 2 * n):
        replay.integers(0, n, size=2)
        replay.uniform(-1.0, 1.0, size=4)
    x, v = replay.uniform(-1.0, 1.0, n), replay.uniform(0.5, 1.5, n)
    points = [row["point"] for row in record["rows"] if row["index"] == 1]
    assert len(points) == 6
    for point in points:
        assert point == {"rep": "v", "x": x.tolist(), "fiber": v.tolist()}


def test_a_random_scalars_index_draws_are_those_of_one_size_2_draw():
    # two scalar rng.integers calls get the two halves of the word one
    # size=2 call takes: three scalars a seed, their uniform draws between
    for seed in range(300):
        for n in (2, 3, 4, 5, 7):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for kind in ("v", "p", "v"):
                a, b = (int(i) + 1 for i in ref.integers(0, n, size=2))
                c = [float(f"{w:.6f}") for w in ref.uniform(-1.0, 1.0, size=4)]
                assert cli._scalar_draw(rng, n, kind) == (kind, a, b, c)


def test_a_fiber_map_error_of_a_paired_check_names_l_and_its_point(tmp_path):
    # the transport and cross checks take p from the velocity context,
    # whose evaluation names the component and the point, as the
    # normality check's does
    path = write_system(tmp_path, """
        [system]
        n = 2

        [legendre]
        L1 = "v1 + 0.1*v1^3 + 0*sqrt(x1 + 0.9)"
        L2 = "v2"
    """)
    report, status = run_checks(RunConfig(
        path, checks=("transport", "cross", "normality"), samples=20))
    assert status == 1          # a check record with an error fails
    for record in report["checks"]:
        assert record["error"]["type"] == "EvalError"
        assert re.fullmatch(r"in L1: sqrt of negative value -0\.\d+ at "
                            r"x=\[-0\.9\d*, -?0\.\d+\], v=\[\d\.\d+, \d\.\d+\]",
                            record["error"]["message"]), record["error"]
