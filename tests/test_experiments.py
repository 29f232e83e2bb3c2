import numpy as np
import pytest

import helpers
from normality_lab import experiments
from normality_lab.errors import (AsymmetricGauge, DegeneratePoint,
                                  DegenerateSurface, DimensionError,
                                  IntegrationFailure, MissingGaugeTensor,
                                  MixedRepresentationError, ValidationError)
from normality_lab.experiments import (GaugeReport, ShiftRun, apply_gauge,
                                       connection_free_mode,
                                       gauge_invariance_report,
                                       hypersurface_normal, shift_integrate)
from normality_lab.normality import normality_residuals
from normality_lab.phase import PhasePoint
from normality_lab.system import SystemDef, VContext


def flat_system():
    return SystemDef(2, helpers.parse_all(["v1", "v2"], 2),
                     helpers.parse_all(["0.2*x1", "x2"], 2),
                     helpers.make_connection(2))


def gauge_2d():
    return helpers.make_connection(2, {
        (0, 0, 0): "0.3 + 0.1*x1",
        (0, 0, 1): "0.05*v2",
        (0, 1, 1): "0.2*x2",
        (1, 0, 0): "0.1*v1",
        (1, 0, 1): "-0.04*x1",
        (1, 1, 1): "0.15 + 0.06*v2",
    })


def circle_run(**overrides):
    kw = dict(surface=helpers.parse_surface(["cos(u1)", "sin(u1)"]),
              nu=-1.0, u_stop=2 * np.pi, u_samples=32, periodic=True,
              t_final=1.0, time_steps=10)
    kw.update(overrides)
    return ShiftRun(**kw)


def velocity_points(rng, n, count):
    return [PhasePoint.velocity(*helpers.random_box_point(rng, n))
            for _ in range(count)]


def test_apply_gauge_validation():
    sysdef = flat_system()
    with pytest.raises(MissingGaugeTensor):
        apply_gauge(sysdef)
    lopsided = helpers.make_connection(2)
    lopsided[0][0][1] = helpers.parse_all(["v1"], 2)[0]
    with pytest.raises(AsymmetricGauge):
        apply_gauge(sysdef, lopsided)


def test_gauge_tensor_is_validated_once_per_report(monkeypatch):
    calls = []
    real = experiments._check_symmetric

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "_check_symmetric", counting)
    rng = np.random.default_rng(2)
    gauge_invariance_report(helpers.sys_cubic(), velocity_points(rng, 2, 2),
                            gauge=gauge_2d())
    assert calls == ["gauge tensor"]
    # a direct call still validates its tensor
    apply_gauge(helpers.sys_cubic(), gauge_2d())
    assert len(calls) == 2


def test_apply_gauge_shifts_force_quadratically():
    # constant tensor on a flat system: the full force vector gains
    # exactly the quadratic fiber term, the plain components stay
    sysdef = flat_system()
    tensor = helpers.make_connection(2, {(0, 0, 1): "0.4", (1, 0, 0): "-0.3"})
    gauged = apply_gauge(sysdef, tensor)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x, v = helpers.random_box_point(rng, 2)
        ctx = VContext(gauged, x, v)
        got = ctx.phi.val + np.einsum("ijk,j,k->i", ctx.gamma.val, v, v)
        want = np.array([0.2 * x[0] + 0.8 * v[0] * v[1],
                         x[1] - 0.3 * v[0] * v[0]])
        assert np.max(np.abs(got - want)) < 1e-12


def test_apply_gauge_round_trip():
    sysdef = flat_system()
    tensor = gauge_2d()
    undo = [[[helpers.NegFunc(tensor[k][i][j]) for j in range(2)]
             for i in range(2)] for k in range(2)]
    back = apply_gauge(apply_gauge(sysdef, tensor), undo)
    env = {"x1": 0.3, "x2": -0.7, "v1": 1.1, "v2": 0.4}
    for k in range(2):
        for i in range(2):
            for j in range(2):
                a = back.connection[k, i, j].evaluate(env)
                b = sysdef.connection[k, i, j].evaluate(env)
                assert abs(a - b) < 1e-15


def test_gauge_rows_conform():
    # the heart of the gauge story: every invariant holds and every
    # recomputed field lands on its transformation rule
    rng = np.random.default_rng(5)
    report = gauge_invariance_report(helpers.sys_cubic(),
                                     velocity_points(rng, 2, 5),
                                     gauge=gauge_2d())
    assert isinstance(report, GaugeReport) and report.points == 5
    for name in experiments.INVARIANT_ROWS:
        row = report.row(name)
        assert row.kind == "invariant" and row.deviation < 1e-7, name
    for name in experiments.RULE_ROWS:
        row = report.row(name)
        assert row.kind == "rule" and row.deviation < 1e-6, name
    assert report.worst("rule") < 1e-6
    with pytest.raises(KeyError):
        report.row("nonsense")


def test_gauge_rules_at_n3():
    rng = np.random.default_rng(9)
    tensor = helpers.make_connection(3, {
        (0, 0, 1): "0.2 + 0.05*x1",
        (1, 1, 2): "0.1*v3",
        (2, 0, 0): "0.12*x2",
    })
    report = gauge_invariance_report(helpers.sys_cubic3(),
                                     velocity_points(rng, 3, 4),
                                     gauge=tensor)
    for name in experiments.INVARIANT_ROWS:
        assert report.row(name).deviation < 1e-7, name
    for name in experiments.RULE_ROWS:
        assert report.row(name).deviation < 1e-6, name


def test_residual_rows_move_only_with_their_conditions():
    # this fixture violates the weak equations and the trace equation
    # leans on the skew one, so the conditional rows shift while the
    # unconditional rows stay pinned
    rng = np.random.default_rng(9)
    tensor = helpers.make_connection(3, {
        (0, 0, 1): "0.2 + 0.05*x1",
        (1, 1, 2): "0.1*v3",
        (2, 0, 0): "0.12*x2",
    })
    report = gauge_invariance_report(helpers.sys_cubic3(),
                                     velocity_points(rng, 3, 4),
                                     gauge=tensor)
    assert report.row("weak-alpha").deviation < 1e-9
    assert report.row("weak-alpha").requires == ()
    assert report.row("skew-A").deviation < 1e-9
    assert report.row("skew-A").requires == ()
    assert report.row("weak-eta").deviation > 1e-3
    assert report.row("weak-eta").requires == ("weak-alpha",)
    assert report.row("trace-B").deviation > 1e-4
    assert report.row("trace-B").requires == ("skew-A",)
    assert report.row("skew-C").requires == ("skew-A", "trace-B")


def test_conditional_weak_eta_row_on_planar_fixture():
    sysdef = helpers.sys_cubic()
    tensor = helpers.make_connection(2, {(0, 0, 1): "0.3*x1", (1, 1, 1): "0.2"})
    pts = [PhasePoint.velocity([0.2, -0.3], [1.1, 0.8]),
           PhasePoint.velocity([-0.4, 0.1], [0.7, 1.2])]
    report = gauge_invariance_report(sysdef, pts, gauge=tensor)
    assert report.row("weak-alpha").deviation < 1e-9
    assert report.row("weak-eta").deviation > 1e-3


def test_gauge_on_flat_identity_system():
    rng = np.random.default_rng(13)
    tensor = helpers.make_connection(3, {
        (0, 0, 1): "0.4", (1, 2, 2): "-0.3", (2, 0, 0): "0.25"})
    report = gauge_invariance_report(helpers.sys_identity(3),
                                     velocity_points(rng, 3, 4),
                                     gauge=tensor)
    assert report.row("alpha").deviation < 1e-10
    assert report.row("A").deviation < 1e-10


def test_eta_invariance_on_weakly_normal_system():
    # with the weak equations satisfied the eta shift term dies, so
    # eta itself and its residual norm are both invariant
    rng = np.random.default_rng(17)
    tensor = helpers.make_connection(2, {(0, 0, 1): "0.3*x1", (1, 1, 1): "0.2"})
    report = gauge_invariance_report(helpers.sys_parallel(),
                                     velocity_points(rng, 2, 4),
                                     gauge=tensor)
    assert report.row("eta").deviation < 1e-8
    assert report.row("weak-eta").deviation < 1e-8
    assert report.worst() < 1e-6


def test_gauge_report_validation():
    sysdef = flat_system()
    tensor = gauge_2d()
    with pytest.raises(MixedRepresentationError):
        gauge_invariance_report(
            sysdef, [PhasePoint.momentum([0.1, 0.2], [1.0, 0.5])],
            gauge=tensor)
    with pytest.raises(ValidationError):
        gauge_invariance_report(sysdef, [], gauge=tensor)


def test_connection_free_matches_gauging_to_zero():
    # dropping the connection is reachable as a gauge change, so both
    # routes must report the same residual norms; the weak-alpha norm
    # is invariant outright and has to match the original as well
    sysdef = helpers.sys_cubic()
    n = sysdef.n
    undo = [[[helpers.NegFunc(sysdef.connection[k, i, j]) for j in range(n)]
             for i in range(n)] for k in range(n)]
    free = connection_free_mode(sysdef)
    gauged = apply_gauge(sysdef, undo)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x, v = helpers.random_box_point(rng, n)
        pt = PhasePoint.velocity(x, v)
        orig = {r.check_id: r.norm for r in normality_residuals(sysdef, pt)}
        a = {r.check_id: r.norm for r in normality_residuals(free, pt)}
        b = {r.check_id: r.norm for r in normality_residuals(gauged, pt)}
        assert max(abs(a[k] - b[k]) for k in a) < 1e-12
        assert abs(a["weak-alpha"] - orig["weak-alpha"]) < 1e-9


def test_connection_free_is_noop_without_connection():
    sysdef = helpers.sys_identity(2)
    assert connection_free_mode(sysdef) is sysdef


def test_plane_normal():
    run = ShiftRun(surface=helpers.parse_surface(["u1", "0"]))
    normal = hypersurface_normal(run, [0.3])
    assert np.allclose(normal, [0.0, 1.0], atol=1e-14)


def test_circle_normal_orientation():
    run = circle_run()
    for u in (0.0, 0.7, 2.1, 4.4):
        normal = hypersurface_normal(run, [u])
        tangent = np.array([-np.sin(u), np.cos(u)])
        # tangent row followed by the normal is positively oriented,
        # which points the covector toward the circle's center
        assert np.allclose(normal, [-np.cos(u), -np.sin(u)], atol=1e-12)
        assert abs(normal @ tangent) < 1e-12
        assert abs(np.linalg.norm(normal) - 1.0) < 1e-12
        assert np.linalg.det(np.vstack([tangent, normal])) > 0.0


def test_patch_normal_orthogonality():
    run = ShiftRun(surface=helpers.parse_surface(
        ["u1", "u2", "0.3*sin(u1)*u2"]))
    rng = np.random.default_rng(23)
    for _ in range(10):
        u = rng.uniform(-1.0, 1.0, 2)
        normal = hypersurface_normal(run, u)
        _, tangents = experiments._surface_frame(run, u)
        for tau in tangents:
            assert abs(normal @ tau) < 1e-10
        assert abs(np.linalg.norm(normal) - 1.0) < 1e-12
        assert np.linalg.det(np.vstack([tangents, normal])) > 0.0


def test_degenerate_surface_rejected():
    run = ShiftRun(surface=helpers.parse_surface(
        ["u1 + u2", "u1 + u2", "0"]))
    with pytest.raises(DegenerateSurface):
        hypersurface_normal(run, [0.2, 0.5])


def test_shift_plane_under_geodesic_flow():
    run = ShiftRun(surface=helpers.parse_surface(["u1", "0"]), nu=1.0,
                   u_start=-1.0, u_stop=1.0, u_samples=9, t_final=1.0,
                   time_steps=5)
    result = shift_integrate(helpers.sys_identity(2), run)
    assert result.deviations[0] < 1e-10
    assert np.max(result.deviations) < 1e-8


def test_shift_circle_under_geodesic_flow():
    # free flow pushes the circle through concentric circles; nu = -1
    # sends the shift outward under the inward normal convention
    result = shift_integrate(helpers.sys_identity(2), circle_run())
    assert result.deviations[0] < 1e-10
    assert np.max(result.deviations) < 1e-6
    radii = np.linalg.norm(result.points[-1], axis=-1)
    assert np.max(np.abs(radii - 2.0)) < 1e-8


def test_shift_collapse_is_detected():
    # with nu = +1 the same run moves inward and the front shrinks to
    # a point at t = 1, where tangent estimates lose rank
    with pytest.raises(DegenerateSurface):
        shift_integrate(helpers.sys_identity(2),
                        circle_run(nu=1.0, time_steps=4))


def test_shift_detects_broken_normality():
    result = shift_integrate(helpers.sys_shear(), circle_run())
    assert result.deviations[0] < 1e-10
    assert result.deviations[-1] > 1e-2
    assert np.all(result.deviations <= 1.0)


def test_shift_routes_agree():
    run = circle_run(u_samples=8, t_final=0.5, time_steps=5)
    closed = shift_integrate(helpers.sys_linear_mode_a(True), run)
    newton = shift_integrate(helpers.sys_linear_mode_a(False), run)
    assert np.max(np.abs(closed.points - newton.points)) < 1e-8
    assert np.max(np.abs(closed.covectors - newton.covectors)) < 1e-8
    assert np.max(np.abs(closed.deviations - newton.deviations)) < 1e-8


def test_shift_integration_failure():
    blow = SystemDef(2, helpers.parse_all(["v1", "v2"], 2),
                     helpers.parse_all(["0", "v2^3"], 2),
                     helpers.make_connection(2))
    run = ShiftRun(surface=helpers.parse_surface(["u1", "0"]), nu=1.0,
                   u_samples=3, t_final=1.0, time_steps=4)
    with pytest.raises(IntegrationFailure):
        shift_integrate(blow, run)


def test_shift_run_validation():
    ident = helpers.sys_identity(2)
    run = circle_run()
    with pytest.raises(ValidationError):
        shift_integrate(ident, ShiftRun(
            surface=helpers.parse_surface(["u1", "u2", "0"])))
    with pytest.raises(ValidationError):
        shift_integrate(ident, circle_run(u_samples=2))
    zero_nu = helpers.parse_surface(["0*u1", "0*u1"])[0]
    with pytest.raises(ValidationError):
        shift_integrate(ident, circle_run(nu=zero_nu))
    with pytest.raises(DimensionError):
        hypersurface_normal(run, [0.1, 0.2])
    # bad time grid and integrator settings name their option
    for option, value in (("time_steps", -3), ("time_steps", 0),
                          ("time_steps", 2.5), ("time_steps", True),
                          ("time_steps", 10.0), ("u_samples", 8.7),
                          ("u_samples", [8.0]), ("u_samples", True),
                          ("t_final", 0.0), ("t_final", np.inf),
                          ("rtol", 0.0), ("rtol", -1e-8), ("rtol", np.nan),
                          ("rtol", 1.2e-13),
                          ("u_start", -np.inf), ("u_stop", np.nan)):
        with pytest.raises(ValidationError, match=option):
            shift_integrate(ident, circle_run(**{option: value}))
    # the floor 100 eps sqrt(32) is 1.256e-13: just above it, the
    # integrator takes rtol as given, with no warning
    shift_integrate(ident, circle_run(rtol=1.3e-13, t_final=0.1,
                                      time_steps=1))
    # numpy integers are integers
    assert len(shift_integrate(ident, circle_run(
        u_samples=np.int64(8), time_steps=np.int32(2))).times) == 3
    # a scale that is, or evaluates to, inf or nan names nu and the node;
    # the expression overflows from the second node on
    overflow = helpers.parse_surface(["-1 - 1e300*u1*u1*1e300", "0*u1"])[0]
    for nu, where in ((np.inf, r"u=\[0\.0\]"), (np.nan, r"u=\[0\.0\]"),
                      (overflow, r"-inf at u=\[0\.196")):
        with pytest.raises(ValidationError, match=r"nu .*" + where):
            shift_integrate(ident, circle_run(nu=nu))


def test_shift_tolerance_refinement():
    # halving the integrator tolerance must not move the reported
    # trace by more than an integrator-sized amount
    base = circle_run(u_samples=16, time_steps=5)
    finer = circle_run(u_samples=16, time_steps=5, rtol=5e-11)
    a = shift_integrate(helpers.sys_shear(), base)
    b = shift_integrate(helpers.sys_shear(), finer)
    assert np.max(np.abs(a.deviations - b.deviations)) < 1e-9
