"""End-to-end acceptance sweep, one test per criterion.

Each test prints one `criterion NN PASS/FAIL` line with the measured
extremes, then asserts. Run with `-v -s` to see the full scoreboard.
"""

import numpy as np
import pytest

import helpers
from normality_lab import cli, expr
from normality_lab.calculus import (LOWER, curvature_relation,
                                    dynamic_curvature_relation,
                                    horizontal_transport_momentum,
                                    horizontal_transport_velocity,
                                    vertical_transport_momentum,
                                    vertical_transport_velocity)
from normality_lab.experiments import ShiftRun, gauge_invariance_report, shift_integrate
from normality_lab.normality import (CROSS_FIELDS, bundle_at, cross_check_all,
                                     normality_residuals)
from normality_lab.phase import PhasePoint
from normality_lab.system import SystemDef, legendre_forward, legendre_inverse, metric


def _line(number, name, ok, detail):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def sys_pure_cubic():
    return SystemDef(2, helpers.parse_all(["v1 + 0.1*v1^3",
                                           "v2 + 0.1*v2^3"], 2))


def metric_trio():
    return [("identity", helpers.sys_identity()),
            ("pure-cubic", sys_pure_cubic()),
            ("lagrangian", helpers.sys_lagrangian())]


def all_fixtures():
    return metric_trio() + [("cubic", helpers.sys_cubic()),
                            ("cubic3", helpers.sys_cubic3()),
                            ("mode-a", helpers.sys_linear_mode_a())]


def sample(rng, sysdef):
    x, v = helpers.random_box_point(rng, sysdef.n)
    return PhasePoint.velocity(x, v)


def random_gauge(rng, n):
    entries = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                c = rng.uniform(-0.3, 0.3, 3).round(6)
                a, b = rng.integers(1, n + 1, size=2)
                entries[(k, i, j)] = f"({c[0]}) + ({c[1]})*x{a} + ({c[2]})*v{b}"
    return helpers.make_connection(n, entries)


def test_criterion_01_metric_duality():
    rng = np.random.default_rng(101)
    worst_product, worst_trip = 0.0, 0.0
    for name, sysdef in metric_trio():
        for _ in range(200):
            pt = sample(rng, sysdef)
            worst_product = max(worst_product,
                                metric(sysdef, pt).product_deviation)
            image = legendre_forward(sysdef, pt)
            back = legendre_inverse(sysdef, image).point
            worst_trip = max(worst_trip,
                             float(np.max(np.abs(back.fiber - pt.fiber))))
    _line(1, "metric duality", worst_product < 1e-9 and worst_trip < 1e-10,
          f"metric product {worst_product:.2e}, round trip {worst_trip:.2e}")


def test_criterion_02_transport_identities():
    rng = np.random.default_rng(102)
    worst = 0.0
    systems = metric_trio() + [("cubic", helpers.sys_cubic())]
    for name, sysdef in systems:
        n = sysdef.n
        for _ in range(5):
            pt = sample(rng, sysdef)
            sv = expr.parse(helpers.random_source(rng, n, ("x", "v")), n)
            sp = expr.parse(helpers.random_source(rng, n, ("x", "p")), n)
            cv = [expr.parse(helpers.random_source(rng, n, ("x", "v")), n)
                  for _ in range(n)]
            cp = [expr.parse(helpers.random_source(rng, n, ("x", "p")), n)
                  for _ in range(n)]
            worst = max(
                worst,
                vertical_transport_velocity(sysdef, pt, sv),
                vertical_transport_momentum(sysdef, pt, sp),
                horizontal_transport_velocity(sysdef, pt, cv, (LOWER,)),
                horizontal_transport_momentum(sysdef, pt, cp, (LOWER,)))
    _line(2, "transport identities", worst < 1e-7, f"max deviation {worst:.2e}")


def test_criterion_03_curvature_relations():
    rng = np.random.default_rng(103)
    sysdef = helpers.sys_cubic()      # fiber-dependent connection
    worst = 0.0
    for _ in range(100):
        pt = sample(rng, sysdef)
        worst = max(worst,
                    dynamic_curvature_relation(sysdef, pt).deviation,
                    curvature_relation(sysdef, pt).deviation)
    _line(3, "curvature relations", worst < 1e-7, f"max deviation {worst:.2e}")


def test_criterion_04_cross_representation():
    rng = np.random.default_rng(104)
    worst = 0.0
    for name, sysdef in all_fixtures():
        for _ in range(100):
            out = cross_check_all(sysdef, sample(rng, sysdef))
            worst = max(worst, *(out[f].deviation for f in CROSS_FIELDS))
    mutated = 0.0
    sysdef = helpers.sys_cubic()
    for _ in range(5):
        out = cross_check_all(sysdef, sample(rng, sysdef),
                              mutate="flip-beta-term")
        mutated = max(mutated, out["beta"].deviation)
    _line(4, "cross-representation", worst < 1e-6 and mutated > 1e-2,
          f"max dual-route {worst:.2e}, mutation detected at {mutated:.2e}")


def test_criterion_05_projector_laws():
    rng = np.random.default_rng(105)
    worst = 0.0
    for name, sysdef in all_fixtures():
        for _ in range(50):
            bundle = bundle_at(sysdef, sample(rng, sysdef))
            P, W = bundle.P, bundle.W
            worst = max(worst,
                        float(np.max(np.abs(P @ P - P))),
                        abs(float(np.trace(P)) - (sysdef.n - 1)),
                        float(np.max(np.abs(P @ W))))
    _line(5, "projector laws", worst < 1e-9, f"max law residual {worst:.2e}")


def test_criterion_06_trivial_normality():
    rng = np.random.default_rng(106)
    flat = helpers.sys_identity()
    worst = 0.0
    for _ in range(200):
        for res in normality_residuals(flat, sample(rng, flat)):
            worst = max(worst, res.norm)
    sheared = 0.0
    shear = helpers.sys_shear()
    for _ in range(50):
        sheared = max(sheared, max(
            res.norm for res in normality_residuals(shear, sample(rng, shear))))
    _line(6, "trivial normality", worst < 1e-10 and sheared > 1e-3,
          f"flat max {worst:.2e}, shear max {sheared:.2e}")


def test_criterion_07_gauge_theorems():
    rng = np.random.default_rng(107)
    worst_exact, worst_rule = 0.0, 0.0
    for name, sysdef in all_fixtures():
        points = [sample(rng, sysdef) for _ in range(50)]
        report = gauge_invariance_report(sysdef, points,
                                         gauge=random_gauge(rng, sysdef.n))
        worst_exact = max(worst_exact, report.worst("invariant"))
        worst_rule = max(worst_rule, report.worst("rule"))
    flat = helpers.sys_identity()
    points = [sample(rng, flat) for _ in range(50)]
    report = gauge_invariance_report(flat, points, gauge=random_gauge(rng, 2))
    residual_shift = max(r.deviation for r in report.rows
                         if r.kind == "residual")
    ok = worst_exact < 1e-7 and worst_rule < 1e-6 and residual_shift < 1e-7
    _line(7, "gauge theorems", ok,
          f"invariants {worst_exact:.2e}, rules {worst_rule:.2e}, "
          f"geodesic residual shift {residual_shift:.2e}")


def test_criterion_08_ad_kernel():
    rng = np.random.default_rng(108)
    n = 2
    worst_grad, worst_hess = 0.0, 0.0
    for _ in range(1000):
        src = helpers.random_source(rng, n, ("x", "v"), depth=3)
        e = expr.parse(src, n)
        x = rng.uniform(-1, 1, n)
        v = rng.uniform(0.5, 1.5, n)

        def f(z):
            return e.evaluate(helpers.float_env(z[:n], z[n:]))

        z0 = np.concatenate([x, v])
        j = helpers.jet_at(e, x, v)
        worst_grad = max(worst_grad,
                         helpers.rel_err(j.grad, helpers.fd_gradient(f, z0)))
        worst_hess = max(worst_hess,
                         helpers.rel_err(j.hess, helpers.fd_hessian(f, z0)))
    _line(8, "derivative kernel", worst_grad < 1e-5 and worst_hess < 1e-4,
          f"gradient {worst_grad:.2e}, hessian {worst_hess:.2e}")


def test_criterion_09_normal_shift():
    flat = helpers.sys_identity()
    circle = ShiftRun(surface=helpers.parse_surface(["cos(u1)", "sin(u1)"]),
                      nu=-1.0, u_stop=2 * np.pi, u_samples=32, periodic=True,
                      t_final=1.0, time_steps=10)
    plane = ShiftRun(surface=helpers.parse_surface(["u1", "0"]), nu=1.0,
                     u_start=-1.0, u_stop=1.0, u_samples=9, t_final=1.0,
                     time_steps=10)
    starts, worst = 0.0, 0.0
    for run in (circle, plane):
        result = shift_integrate(flat, run)
        starts = max(starts, float(result.deviations[0]))
        worst = max(worst, float(np.max(result.deviations)))
    _line(9, "normal shift", worst < 1e-6 and starts < 1e-10,
          f"max collinearity {worst:.2e}, start {starts:.2e}")


def test_criterion_10_determinism(tmp_path):
    import pathlib
    fixture = str(pathlib.Path(__file__).parent
                  / "fixtures" / "identity_full.system")
    outs = []
    for stem in ("a", "b"):
        for fmt in ("json", "csv"):
            out = tmp_path / f"{stem}.{fmt}"
            status = cli.main(["check", fixture, "--samples", "20",
                               "--seed", "42", "--format", fmt,
                               "--out", str(out)])
            assert status == 0
            outs.append(out.read_bytes())
    ok = outs[0] == outs[2] and outs[1] == outs[3]
    _line(10, "report determinism", ok,
          f"json {len(outs[0])} bytes, csv {len(outs[1])} bytes, "
          "repeated runs identical" if ok else "reports differ")
