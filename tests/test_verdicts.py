"""The verdict of every check on every fixture, and the n = 3 and
n = 4 fixtures whose additional normality equations decide their
check."""

import inspect
from pathlib import Path

import numpy as np
import pytest

import helpers
from normality_lab import calculus, jets, normality
from normality_lab.cli import RunConfig, run_checks
from normality_lab.experiments import gauge_invariance_report
from normality_lab.normality import (bundle_at, cross_check_all,
                                     normality_residuals, residual_norms)
from normality_lab.phase import PhasePoint
from normality_lab.sysfile import read_system_file

FIXTURES = Path(__file__).parent / "fixtures"

# run_checks(RunConfig(fixture, samples=5)), seed 0: the checks each
# fixture selects and whether each passed
VERDICTS = {
    "coupled": dict(metric=True, transport=True, cross=True, normality=False,
                    gauge=True),
    "cubic": dict(metric=True, transport=True, cross=True, normality=False,
                  gauge=True),
    "cubic3": dict(metric=True, transport=True, cross=True, normality=False),
    "cubic_shift": dict(metric=True, transport=True, cross=True,
                        normality=False, shift=False),
    "cylindrical3": dict(metric=True, transport=True, cross=True,
                         normality=True, gauge=True),
    "family3": dict(metric=True, transport=True, cross=True, normality=True),
    "identity2": dict(metric=True, transport=True, cross=True, normality=True),
    "identity_full": dict(metric=True, transport=True, cross=True,
                          normality=True, gauge=True, shift=True),
    "lagrangian": dict(metric=True, transport=True, cross=True,
                       normality=False),
    "linear_mode_a": dict(metric=True, transport=True, cross=True,
                          normality=False),
    "mutated": dict(metric=True, transport=True, cross=False, normality=False),
    "parallel": dict(metric=True, transport=True, cross=True, normality=True),
    "pullback4": dict(metric=True, transport=True, cross=True, normality=True,
                      gauge=True),
    "pullback4_newton": dict(metric=True, transport=True, cross=True,
                             normality=True, gauge=True),
    "shear": dict(metric=True, transport=True, cross=True, normality=False,
                  shift=False),
}

EXTRA_EQUATIONS = ("skew-A", "trace-B", "skew-C")

# normal fixtures at n >= 3, where every normality row is decisive
DECISIVE = ("cylindrical3", "pullback4", "pullback4_newton")
# normal fixtures at n >= 3 with a force not parallel to v, of the
# explicit force family, where P^T C P has a symmetric part
FAMILY = ("family3",)


def fixture(name):
    return str(FIXTURES / f"{name}.system")


def _passed(report):
    return {record["id"]: record["summary"]["passed"]
            for record in report["checks"]}


def test_every_fixture_gives_its_verdicts():
    assert sorted(p.stem for p in FIXTURES.glob("*.system")) == sorted(VERDICTS)
    for name, verdicts in VERDICTS.items():
        report, status = run_checks(RunConfig(fixture(name), samples=5))
        assert _passed(report) == verdicts, name
        assert status == (0 if all(verdicts.values()) else 1), name


@pytest.mark.parametrize("name", DECISIVE + FAMILY)
def test_the_additional_normality_rows_decide_and_pass(name):
    report, status = run_checks(RunConfig(fixture(name), samples=12))
    assert status == 0
    rows, = (r["rows"] for r in helpers.expand(report)["checks"]
             if r["id"] == "normality")
    extra = [row for row in rows if row["equation"] in EXTRA_EQUATIONS]
    assert len(extra) == 3 * 12
    assert all(row["decisive"] and row["pass"] for row in extra)


def _flipped_connection_square(spec, *operands):
    """calculus's einsum kernel, with the G.G term of
    calculus.curvature negated."""
    out = jets.c_einsum(spec, *operands)
    return -out if spec == "...kim,...mjr->...krij" else out


@pytest.mark.parametrize("name", DECISIVE)
def test_a_flipped_curvature_term_fails_the_normality(monkeypatch, name):
    # both routes of the transport and cross checks read the same
    # flipped curvature, so only the normality equations can see it
    monkeypatch.setattr(calculus, "c_einsum", _flipped_connection_square)
    report, status = run_checks(RunConfig(
        fixture(name), checks=("transport", "cross", "normality"),
        samples=12))
    assert status == 1
    assert _passed(report) == dict(transport=True, cross=True, normality=False)


@pytest.mark.parametrize("name", FAMILY)
def test_a_symmetrized_skew_c_fails_the_normality(monkeypatch, name):
    # the skew-C residual with C - C^T flipped to C + C^T: the family's
    # C has a projected symmetric part, so the flip must fail the check
    source = inspect.getsource(normality.residual_arrays)
    assert source.count("bundle.C - _T(bundle.C)") == 1
    flipped = {}
    exec(source.replace("bundle.C - _T(bundle.C)", "bundle.C + _T(bundle.C)"),
         vars(normality), flipped)
    monkeypatch.setattr(normality, "residual_arrays",
                        flipped["residual_arrays"])
    report, status = run_checks(RunConfig(fixture(name),
                                          checks=("normality",), samples=12))
    assert status == 1
    rows, = (r["rows"] for r in helpers.expand(report)["checks"])
    failing = {row["equation"] for row in rows if not row["pass"]}
    assert failing == {"skew-C"}


def test_an_ill_conditioned_fiber_map_passes_the_gauge_check():
    # the coupled map's metric is nearly singular at some of the default
    # points, where the residual norms exceed 1e5; the gauge check
    # compares them relative to their size, as every other row compares
    report, status = run_checks(RunConfig(fixture("coupled"),
                                          checks=("gauge",)))
    assert status == 0
    rows, = (r["rows"] for r in helpers.expand(report)["checks"])
    points = {row["index"]: row["point"] for row in rows}
    pt = PhasePoint.velocity([points[k]["x"] for k in sorted(points)],
                             [points[k]["fiber"] for k in sorted(points)])
    sysdef = read_system_file(fixture("coupled")).sysdef
    assert np.max(residual_norms(bundle_at(sysdef, pt))["weak-alpha"]) > 1e5


# bounds on the largest row of a paired check at the default 100 points,
# seed 0. The momentum route's Newton starts at the velocity point, a
# preimage already, so the rows carry the formulas' round-off and not
# Newton's stopping error: with a preimage within NEWTON_TOL they read
# 4.9e-13 and 5.4e-13 on cubic and 3.1e-9 on coupled. These are test
# bounds; the check tolerances are 1e-7 and 1e-6.
MARGINS = {("cubic", "transport"): 1e-13, ("cubic", "cross"): 1e-13,
           ("coupled", "transport"): 1e-11}


@pytest.mark.parametrize("name, check", sorted(MARGINS))
def test_paired_checks_read_round_off(name, check):
    report, status = run_checks(RunConfig(fixture(name), checks=(check,),
                                          seed=0))
    assert status == 0
    rows, = (r["rows"] for r in helpers.expand(report)["checks"])
    assert len(rows) > 100
    assert max(row["residual"] for row in rows) < MARGINS[name, check]


def test_the_cylindrical_helper_is_the_fixture():
    # the same components give the same bits at a batch of points, and
    # the system is normal there with every n = 3 equation decisive; the
    # gauge tensors give the same report
    from_file = read_system_file(fixture("cylindrical3")).sysdef
    built = helpers.sys_cylindrical()
    rng = np.random.default_rng(17)
    pt = PhasePoint.velocity(rng.uniform(-1.0, 1.0, (6, 3)),
                             rng.uniform(0.5, 1.5, (6, 3)))
    a, b = cross_check_all(from_file, pt), cross_check_all(built, pt)
    for field, check in a.items():
        assert np.array_equal(check.velocity, b[field].velocity), field
        assert np.array_equal(check.momentum, b[field].momentum), field
        assert np.all(check.deviation < 1e-12), field
    for r, s in zip(normality_residuals(from_file, pt),
                    normality_residuals(built, pt)):
        assert r.check_id == s.check_id and np.array_equal(r.norm, s.norm)
        assert r.decisive and np.all(r.passed), r.check_id
    points = [PhasePoint.velocity(x, v) for x, v in zip(pt.x, pt.fiber)]
    assert (gauge_invariance_report(from_file, points)
            == gauge_invariance_report(built, points))
