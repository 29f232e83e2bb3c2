import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from normality_lab import calculus, cli, experiments, expr
from normality_lab.cli import RunConfig, render_csv, render_json, run_checks
from normality_lab.errors import (AsymmetricGauge, DegeneratePoint,
                                  ExprSyntaxError, SingularMetric,
                                  SystemFileError, ValidationError)
from normality_lab.sysfile import load_system_file, read_system_file

FIXTURES = Path(__file__).parent / "fixtures"


def fixture(name):
    return str(FIXTURES / f"{name}.system")


def write_system(tmp_path, body):
    path = tmp_path / "case.system"
    path.write_text(body, encoding="utf-8")
    return str(path)


def test_load_identity():
    sysdef = load_system_file(fixture("identity2"))
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
    sysdef = load_system_file(fixture("lagrangian"))
    env = {"x1": 0.3, "x2": -0.2, "v1": 1.1, "v2": 0.8}
    # d/dv1 of the generating scalar
    want = env["v1"] + 0.2 * env["v1"] * env["v2"] ** 2
    assert abs(sysdef.legendre[0].evaluate(env) - want) < 1e-12


def test_load_closed_form_inverse():
    sysdef = load_system_file(fixture("linear_mode_a"))
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
        load_system_file(path)


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
        load_system_file(path)


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
])
def test_structural_fault_messages(tmp_path, body, error, message):
    with pytest.raises(error) as info:
        load_system_file(write_system(tmp_path, body))
    assert str(info.value) == message


def test_asymmetric_gauge_file_exits_2(tmp_path, capsys):
    path = write_system(tmp_path, IDENTITY + '[gauge]\nT_1_12 = "0.1*v1"\n')
    assert cli.main(["check", path]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "AsymmetricGauge"
    assert error["message"].startswith("gauge tensor is asymmetric")


def test_cli_gauge_check_validates_its_tensor_once(monkeypatch, tmp_path):
    calls = []
    real = experiments._check_symmetric

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(experiments, "_check_symmetric", counting)
    status = cli.main(["check", fixture("identity_full"), "--checks", "gauge",
                       "--samples", "5", "--out", str(tmp_path / "r.json")])
    assert status == 0
    assert calls == ["gauge tensor"]


def test_syntax_error_carries_location(tmp_path):
    path = write_system(tmp_path, """
[system]
n = 2
[legendre]
L1 = "v1 +"
L2 = "v2"
""")
    with pytest.raises(ExprSyntaxError, match=r":5: in l1"):
        load_system_file(path)


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
])
def test_malformed_files_rejected(tmp_path, body, match):
    path = write_system(tmp_path, body)
    with pytest.raises(SystemFileError, match=match):
        load_system_file(path)


def test_nu_forms(tmp_path):
    base = '[system]\nn = 2\n[legendre]\nL1 = "v1"\nL2 = "v2"\n'
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
    assert report["schema"] == 1
    assert report["system"]["gauge"] and report["system"]["surface"]


def test_report_rows_are_complete():
    report, _ = run_checks(RunConfig(fixture("identity_full"),
                                     samples=2, seed=1))
    for record in report["checks"]:
        assert record["rows"], record["id"]
        for row in record["rows"]:
            for key in ("check", "equation", "index", "point", "residual",
                        "tolerance", "pass"):
                assert key in row, (record["id"], key)
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
    failing = {row["equation"] for c in report["checks"]
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
    shift = report["checks"][0]
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
    # the integrator would clamp with a warning
    text = Path(fixture("identity_full")).read_text(encoding="utf-8")
    path = write_system(tmp_path, text + "rtol = 1e-13\n")
    status = cli.main(["check", path, "--checks", "shift",
                       "--out", str(tmp_path / "r.json")])
    assert status == 1
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    error = report["checks"][0]["error"]
    assert error["type"] == "ValidationError"
    assert "rtol" in error["message"] and "32 nodes" in error["message"]


def test_point_checks_do_not_import_scipy():
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
    assert record["error"]["type"] == "MissingGaugeTensor"
    assert not record["summary"]["passed"]


def test_conditional_gauge_rows_do_not_fail_the_check():
    # on this system the conditional residual rows move a lot, but the
    # check verdict comes from the invariants and rules alone
    report, status = run_checks(RunConfig(fixture("cubic"),
                                          checks=("gauge",),
                                          samples=3, seed=11))
    assert status == 0
    rows = report["checks"][0]["rows"]
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
    with pytest.raises(ValidationError, match="exclude zero"):
        run_checks(RunConfig(good, checks=("normality",), samples=1,
                             fiber_box=(-0.5, 1.5)))
    with pytest.raises(ValidationError, match="box is empty"):
        run_checks(RunConfig(good, samples=1, x_box=(1.0, -1.0)))
    with pytest.raises(ValidationError, match="scalars or have 2 entries"):
        run_checks(RunConfig(good, checks=("metric",), samples=2,
                             x_box=([-1, -1, -1], [1, 1, 1])))
    with pytest.raises(ValidationError, match="fiber sampling box bounds"):
        run_checks(RunConfig(good, checks=("metric",), samples=2,
                             fiber_box=(0.5, [1.5])))
    with pytest.raises(ValidationError, match="unknown tolerances: Cross"):
        run_checks(RunConfig(good, samples=1, tolerances={"Cross": 1e9}))
    # wrong types are configuration errors, not bare Python errors
    for box in ((1.0,), ([0, [1]], [1, 2]), 1.0):
        with pytest.raises(ValidationError, match="x sampling box must be"):
            run_checks(RunConfig(good, checks=("metric",), samples=2,
                                 x_box=box))
    with pytest.raises(ValidationError, match="fiber sampling box must be"):
        run_checks(RunConfig(good, checks=("metric",), samples=2,
                             fiber_box=(0.5,)))
    with pytest.raises(ValidationError, match="samples must be an integer"):
        run_checks(RunConfig(good, checks=("metric",), samples=2.5))
    with pytest.raises(ValidationError, match="seed must be an integer"):
        run_checks(RunConfig(good, checks=("metric",), samples=2, seed=1.5))
    with pytest.raises(ValidationError, match="string 'metric'"):
        run_checks(RunConfig(good, checks="metric", samples=2))
    # non-finite or non-numeric settings are rejected before sampling
    for tol in (float("inf"), float("nan"), "1e-9", None, [1e-9]):
        with pytest.raises(ValidationError, match="'metric' must be a positive"):
            run_checks(RunConfig(good, checks=("metric",), samples=2,
                                 tolerances={"metric": tol}))
    for box in ((-np.inf, 1.0), (np.nan, 1.0), ([-1.0, np.inf], 1.0)):
        with pytest.raises(ValidationError, match="x sampling box bounds must be finite"):
            run_checks(RunConfig(good, checks=("metric",), samples=2,
                                 x_box=box))
    with pytest.raises(ValidationError, match="fiber sampling box bounds must be finite"):
        run_checks(RunConfig(good, checks=("metric",), samples=2,
                             fiber_box=(0.5, np.inf)))
    # one bound per variable is accepted
    _, status = run_checks(RunConfig(good, checks=("metric",), samples=2,
                                     x_box=([-1, -2], [1, 2])))
    assert status == 0
    # the metric check alone has no fiber-origin hazard
    _, status = run_checks(RunConfig(good, checks=("metric",), samples=2,
                                     fiber_box=(-0.5, 1.5)))
    assert status == 0


def test_a_box_mixing_a_scalar_and_a_per_variable_bound_is_reported():
    report, status = run_checks(RunConfig(fixture("identity2"),
                                          checks=("metric",), samples=2,
                                          x_box=(-1.0, [1.0, 2.0])))
    assert status == 0
    assert json.loads(render_json(report))["config"]["x_box"] == [-1.0, [1.0, 2.0]]
    assert report["config"]["fiber_box"] == [0.5, 1.5]


def test_numpy_integer_samples_and_seed_render_like_plain_ints():
    def rendered(samples, seed):
        report, _ = run_checks(RunConfig(fixture("identity2"),
                                         checks=("metric",), samples=samples,
                                         seed=seed))
        return render_json(report), render_csv(report)

    assert rendered(np.int64(3), np.int64(4)) == rendered(3, 4)


def test_degenerate_points_are_resampled(monkeypatch):
    real = cli._BUILDERS["metric"]
    calls = iter(range(10 ** 6))

    def flaky(sysdef, doc, pt, rng, tol):
        # serial sweep: odd calls are the retries, so every index
        # degenerates exactly once and then succeeds
        if next(calls) % 2 == 0:
            raise DegeneratePoint("synthetic")
        return real(sysdef, doc, pt, rng, tol)

    monkeypatch.setitem(cli._BUILDERS, "metric", flaky)
    report, status = run_checks(RunConfig(fixture("identity2"),
                                          checks=("metric",),
                                          samples=4, seed=6))
    assert status == 0
    summary = report["checks"][0]["summary"]
    assert summary["resampled"] == 4
    assert summary["rows"] == 8


def test_resample_budget_exhaustion_is_structured(monkeypatch):
    def hopeless(sysdef, doc, pt, rng, tol):
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
    assert doc["schema"] == 1 and doc["config"]["samples"] == 2


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


def test_overflow_in_a_component_is_a_structured_error(tmp_path):
    # sin of an overflowed argument once escaped as a bare ValueError
    path = write_system(tmp_path, """
[system]
n = 1

[legendre]
L1 = "v1 + 0.1*sin(x1*x1)*v1"
""")
    report, status = run_checks(RunConfig(path, checks=("metric",),
                                          samples=2, seed=1,
                                          x_box=(1e200, 2e200)))
    assert status == 1
    assert report["checks"][0]["error"]["type"] == "EvalError"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_in_jet_arithmetic_is_an_eval_error(tmp_path):
    # x1^3 overflows in the jets of L1, and 0*inf turns its derivatives
    # into nan; this once printed numpy warnings and ended as a
    # SingularMetric record
    path = write_system(tmp_path, """
[system]
n = 2

[legendre]
L1 = "v1 + x1*x1*x1*v1"
L2 = "v2"
""")
    report, status = run_checks(RunConfig(path, checks=("metric",),
                                          samples=2, x_box=(1e150, 2e150)))
    assert status == 1
    error = report["checks"][0]["error"]
    assert error["type"] == "EvalError"
    assert "of L1 at x=" in error["message"]


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
    cli._random_scalar builds without the parser."""
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
                _assert_same_draw(cli._random_scalar(built_rng, n, kind),
                                  _parsed_scalar(parsed_rng, n, kind), kind)
                assert (built_rng.bit_generator.state
                        == parsed_rng.bit_generator.state)


def test_random_scalar_keeps_the_sign_of_a_negative_zero():
    class Fixed:
        """Fixed draws: the first coefficient rounds to -0.000000."""

        def integers(self, low, high, size):
            return np.array([1, 0])

        def uniform(self, low, high, size):
            return np.array([-1e-7, 0.25, -0.5, 4e-7])

    built = cli._random_scalar(Fixed(), 2, "p")
    _assert_same_draw(built, _parsed_scalar(Fixed(), 2, "p"), "p")
    assert built.root.left.left.left == expr.Unary(expr.Num(0.0))


def test_transport_resample_draws_the_next_point_after_the_scalars(monkeypatch):
    """A singular metric found while building the transport contexts
    resamples the point from where the draws of its random scalars
    left the point's substream."""
    calls = []

    class SingularOnce(calculus.PContext):
        def __init__(self, *args):
            calls.append(args)
            if len(calls) == 2:       # the first attempt at point 1
                raise SingularMetric("synthetic")
            super().__init__(*args)

    monkeypatch.setattr(calculus, "PContext", SingularOnce)
    seed, n = 5, 2
    report, status = run_checks(RunConfig(fixture("cubic"),
                                          checks=("transport",),
                                          samples=2, seed=seed))
    assert status == 0
    assert len(calls) == 3
    record = report["checks"][0]
    assert record["summary"]["resampled"] == 1

    check_index = cli.CHECK_IDS.index("transport")
    replay = np.random.default_rng([seed, check_index, 1])
    replay.uniform(-1.0, 1.0, n)
    replay.uniform(0.5, 1.5, n)
    for _ in range(2 + 2 * n):
        replay.integers(0, n, size=2)
        replay.uniform(-1.0, 1.0, size=4)
    x, v = replay.uniform(-1.0, 1.0, n), replay.uniform(0.5, 1.5, n)
    points = [row["point"] for row in record["rows"] if row["index"] == 1]
    assert len(points) == 6
    for point in points:
        assert point == {"rep": "v", "x": x.tolist(), "fiber": v.tolist()}
