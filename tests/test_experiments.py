import numpy as np
import pytest

import helpers
from normality_lab import calculus, experiments, normality
from normality_lab.errors import (AsymmetricGauge, DegeneratePoint,
                                  DegenerateSurface, IntegrationFailure,
                                  MissingGaugeTensor, MixedRepresentationError,
                                  ValidationError)
from normality_lab import expr, system
from normality_lab.experiments import (GaugeReport, ShiftRun,
                                       connection_free_mode,
                                       gauge_invariance_report,
                                       shift_integrate)
from normality_lab.normality import residual_arrays, velocity_bundle
from normality_lab.phase import PhasePoint
from normality_lab.system import ConstFunc, SystemDef, VContext


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


def gauge_3d():
    return helpers.make_connection(3, {
        (0, 0, 1): "0.2 + 0.05*x1",
        (1, 1, 2): "0.1*v3",
        (2, 0, 0): "0.12*x2",
    })


def velocity_points(rng, n, count):
    return [PhasePoint.velocity(*helpers.random_box_point(rng, n))
            for _ in range(count)]


def summed_system(sysdef, tensor):
    """The gauged system built independently of VContext.gauged: each
    connection entry parsed from "(Gamma source) + (T source)"."""
    def source(f):
        return "0" if isinstance(f, ConstFunc) else expr.to_source(f)

    n = sysdef.n
    conn = [[[expr.parse(f"({source(sysdef.connection[k, i, j])}) + "
                         f"({source(tensor[k][i][j])})", n, kinds=("x", "v"))
              for j in range(n)] for i in range(n)] for k in range(n)]
    return SystemDef(n, sysdef.legendre, sysdef.force, conn)


class Counted:
    """A component that counts its evaluations under a name."""

    __slots__ = ("inner", "name", "calls")

    def __init__(self, inner, name, calls):
        self.inner, self.name, self.calls = inner, name, calls

    @property
    def dimension(self):
        return self.inner.dimension

    @property
    def fiber_kind(self):
        return self.inner.fiber_kind

    def evaluate(self, env):
        self.calls[self.name] = self.calls.get(self.name, 0) + 1
        return self.inner.evaluate(env)


def test_gauge_tensor_validation():
    sysdef = flat_system()
    pts = [PhasePoint.velocity([0.1, 0.2], [1.0, 0.5])]
    with pytest.raises(MissingGaugeTensor):
        gauge_invariance_report(sysdef, pts)
    lopsided = helpers.make_connection(2)
    lopsided[0][0][1] = helpers.parse_all(["v1"], 2)[0]
    with pytest.raises(AsymmetricGauge):
        gauge_invariance_report(sysdef, pts, gauge=lopsided)


def test_gauge_tensor_is_validated_once_per_report(monkeypatch):
    calls = []
    real = system._check_symmetric

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(system, "_check_symmetric", counting)
    rng = np.random.default_rng(2)
    gauge_invariance_report(helpers.sys_cubic(), velocity_points(rng, 2, 2),
                            gauge=gauge_2d())
    assert calls == ["gauge tensor"]
    # the next report validates its tensor again
    gauge_invariance_report(helpers.sys_cubic(), velocity_points(rng, 2, 1),
                            gauge=gauge_2d())
    assert len(calls) == 2


def test_gauged_context_shifts_force_quadratically():
    # constant tensor on a flat system: the full force vector gains
    # exactly the quadratic fiber term, the plain components stay
    sysdef = flat_system()
    tensor = helpers.make_connection(2, {(0, 0, 1): "0.4", (1, 0, 0): "-0.3"})
    rng = np.random.default_rng(2)
    for _ in range(5):
        x, v = helpers.random_box_point(rng, 2)
        ctx = VContext(sysdef, x, v)
        gauged = ctx.gauged(ctx.eval_native(tensor))
        got = gauged.phi.val + np.einsum("ijk,j,k->i", gauged.gamma.val, v, v)
        want = np.array([0.2 * x[0] + 0.8 * v[0] * v[1],
                         x[1] - 0.3 * v[0] * v[0]])
        assert np.max(np.abs(got - want)) < 1e-12


def test_gauged_context_round_trip():
    # the connection is first order; the second-order data the bundles
    # differentiate twice, the fiber map, comes back bit for bit
    sysdef = helpers.sys_cubic()
    ctx = VContext(sysdef, [0.3, -0.7], [1.1, 0.4])
    shift = ctx.eval_native(gauge_2d())
    back = ctx.gauged(shift).gauged(-shift)
    assert back.gamma.order == 1
    for part in ("val", "grad"):
        gap = getattr(back.gamma, part) - getattr(ctx.gamma, part)
        assert np.max(np.abs(gap)) < 1e-15, part
    assert back.L_dense.order == 2
    for part in ("val", "grad", "hess"):
        assert np.array_equal(getattr(back.L_dense, part),
                              getattr(ctx.L_dense, part)), part


@pytest.mark.parametrize("sysdef, tensor", [
    (helpers.sys_cubic(), gauge_2d()),
    (helpers.sys_cubic3(), gauge_3d()),
], ids=["cubic", "cubic3"])
def test_gauged_context_matches_summed_system(sysdef, tensor):
    # shifting the evaluated connection gives, bit for bit, what a
    # system with the summed connection entries gives
    reference = summed_system(sysdef, tensor)
    rng = np.random.default_rng(31)
    for _ in range(4):
        x, v = helpers.random_box_point(rng, sysdef.n)
        ctx = VContext(sysdef, x, v)
        velocity_bundle(ctx)
        gauged = ctx.gauged(ctx.eval_native(tensor))
        want = VContext(reference, x, v)
        got_b, want_b = velocity_bundle(gauged), velocity_bundle(want)
        for name in ("W", "Omega", "P", "U", "alpha", "beta", "eta", "A",
                     "B", "C", "lam", "D", "R"):
            assert np.array_equal(getattr(got_b, name),
                                  getattr(want_b, name)), name
        for a, b in ((gauged.gamma, want.gamma), (gauged.phi, want.phi)):
            for part in ("val", "grad", "hess"):
                assert np.array_equal(getattr(a, part), getattr(b, part))


@pytest.mark.parametrize("sysdef, tensor", [
    (helpers.sys_cubic(), gauge_2d()),
    (helpers.sys_cubic3(), gauge_3d()),
], ids=["cubic", "cubic3"])
def test_gauged_context_drops_the_fiber_correction(sysdef, tensor):
    # a context keeps the fiber correction of its connection; the
    # gauged copy must take its own from gamma + T, not the stale one
    reference = summed_system(sysdef, tensor)
    n = sysdef.n
    x, v = helpers.random_box_point(np.random.default_rng(37), n)

    def fields(ctx):
        return [calculus.field_of(ctx, sysdef.legendre[0]),
                calculus.FieldValue(ctx, ctx.L_dense, (calculus.LOWER,)),
                calculus.field_of(ctx, sysdef.force, (calculus.UPPER,))]

    ctx = VContext(sysdef, x, v)
    for field in fields(ctx):
        calculus.horizontal_derivative(field)
    assert {"N", "dN"} <= set(ctx.__dict__)
    gauged = ctx.gauged(ctx.eval_native(tensor))
    want = VContext(reference, x, v)
    for got, exp in zip(fields(gauged), fields(want)):
        got = calculus.horizontal_derivative(got).data
        exp = calculus.horizontal_derivative(exp).data
        assert got.order == exp.order
        assert np.array_equal(got.val, exp.val)
        assert (got.grad is None and exp.grad is None
                or np.array_equal(got.grad, exp.grad))
    assert not np.array_equal(gauged.N, ctx.N)


def test_gauge_point_evaluates_each_component_once():
    # the report evaluates its points as one batch: L, Phi and Gamma
    # are evaluated once for the plain batch, the gauged one shares
    # them, and T is evaluated once for the batch plus once for the
    # report's symmetry check
    calls = {}
    plain = helpers.sys_cubic()
    n = plain.n

    def wrap(f, name):
        return f if isinstance(f, ConstFunc) else Counted(f, name, calls)

    def tensor(arr, what):
        return [[[wrap(arr[k][i][j], f"{what}{k}{i}{j}") for j in range(n)]
                 for i in range(n)] for k in range(n)]

    sysdef = SystemDef(
        n, [wrap(f, f"L{i}") for i, f in enumerate(plain.legendre)],
        [wrap(f, f"Phi{i}") for i, f in enumerate(plain.force)],
        tensor(plain.connection, "Gamma"))
    gauge = tensor(gauge_2d(), "T")
    rng = np.random.default_rng(4)
    points = 3
    gauge_invariance_report(sysdef, velocity_points(rng, n, points),
                            gauge=gauge)
    # every parsed slot: 2 of L, 2 of Phi, 4 of Gamma and 8 of T
    assert len(calls) == 16
    assert sum(calls.values()) - 8 == 16
    for name, count in calls.items():
        assert count == 1 + name.startswith("T"), (name, count)


def test_gauge_point_computes_each_curvature_once_per_context(monkeypatch):
    # the D and R rules read the curvatures the two bundles keep, so
    # the report's batch of points computes each for the plain and the
    # gauged context alone
    calls = {"curvature": 0, "dynamic_curvature": 0}

    def counting(name):
        real = getattr(calculus, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    for module in (normality, experiments):
        for name in calls:
            monkeypatch.setattr(module, name, counting(name), raising=False)
    points = 3
    gauge_invariance_report(helpers.sys_cubic(),
                            velocity_points(np.random.default_rng(6), 2,
                                            points), gauge=gauge_2d())
    assert calls == {"curvature": 2, "dynamic_curvature": 2}


def test_non_finite_gauge_rows_reach_the_report():
    # T = 1e200 overflows the rules and residuals that multiply T by
    # itself or by the fiber map; their deviations are nan and stay nan
    # as the worst over the points
    tensor = helpers.make_connection(2, {(0, 0, 0): "1e200"})
    with np.errstate(all="ignore"):
        report = gauge_invariance_report(
            helpers.sys_cubic(),
            velocity_points(np.random.default_rng(8), 2, 2), gauge=tensor)
    for name in ("R", "C", "beta", "eta", "weak-eta", "skew-C"):
        assert np.isnan(report.row(name).deviation), name
    assert np.isnan(report.worst()) and np.isnan(report.worst("rule"))


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
    tensor = gauge_3d()
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
    tensor = gauge_3d()
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
    assert report.row("alpha").kind == "invariant"
    assert report.row("alpha").deviation < 1e-10
    for name in experiments.RULE_ROWS:
        assert report.row(name).deviation < 1e-10, name


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
    # routes must give the same residuals; the weak-alpha norm is
    # invariant outright and has to match the original as well
    sysdef = helpers.sys_cubic()
    n = sysdef.n
    free = connection_free_mode(sysdef)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x, v = helpers.random_box_point(rng, n)
        ctx = VContext(sysdef, x, v)
        orig = residual_arrays(velocity_bundle(ctx))
        a = residual_arrays(velocity_bundle(VContext(free, x, v)))
        b = residual_arrays(velocity_bundle(ctx.gauged(-ctx.gamma)))
        for rid in a:
            assert np.max(np.abs(a[rid] - b[rid])) < 1e-12, rid
        assert abs(np.max(np.abs(a["weak-alpha"]))
                   - np.max(np.abs(orig["weak-alpha"]))) < 1e-9


def test_connection_free_is_noop_without_connection():
    sysdef = helpers.sys_identity(2)
    assert connection_free_mode(sysdef) is sysdef


def normal_at(run, u):
    """The unit normal covector at the surface parameters u: the one
    node of a front_geometry call."""
    return experiments._front_geometry(run, np.array([u], dtype=float))[1][0]


def test_plane_normal():
    run = ShiftRun(surface=helpers.parse_surface(["u1", "0"]))
    normal = normal_at(run, [0.3])
    assert np.allclose(normal, [0.0, 1.0], atol=1e-14)


def test_circle_normal_orientation():
    run = circle_run()
    for u in (0.0, 0.7, 2.1, 4.4):
        normal = normal_at(run, [u])
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
        normal = normal_at(run, u)
        _, tangents = helpers.surface_frame(run, u)
        for tau in tangents:
            assert abs(normal @ tau) < 1e-10
        assert abs(np.linalg.norm(normal) - 1.0) < 1e-12
        assert np.linalg.det(np.vstack([tangents, normal])) > 0.0


def test_shift_degeneracies_name_where_they_happen():
    # the tangent of (u1^2, u1^3) vanishes at the middle node
    cusp = ShiftRun(surface=helpers.parse_surface(["u1^2", "u1^3"]),
                    u_start=-1.0, u_stop=1.0, u_samples=5, time_steps=2)
    with pytest.raises(DegenerateSurface,
                       match=r"^tangent directions collapse at u=\[0\.0\] "
                             r"\(smallest singular value 0\.000e\+00\)$"):
        shift_integrate(helpers.sys_identity(2), cusp)
    # the circle moving inward collapses to its center at t = 1
    with pytest.raises(DegenerateSurface,
                       match=r"^moved surface loses rank at t=1\.0, along "
                             r"parameter axis u1$"):
        shift_integrate(helpers.sys_identity(2),
                        circle_run(nu=1.0, time_steps=4))


def test_degenerate_surface_rejected():
    run = ShiftRun(surface=helpers.parse_surface(
        ["u1 + u2", "u1 + u2", "0"]))
    with pytest.raises(DegenerateSurface):
        normal_at(run, [0.2, 0.5])


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
    with pytest.raises(ValidationError):
        shift_integrate(ident, ShiftRun(
            surface=helpers.parse_surface(["u1", "u2", "0"])))
    with pytest.raises(ValidationError):
        shift_integrate(ident, circle_run(u_samples=2))
    zero_nu = helpers.parse_surface(["0*u1", "0*u1"])[0]
    with pytest.raises(ValidationError):
        shift_integrate(ident, circle_run(nu=zero_nu))
    # a parameter count that is not the surface's
    with pytest.raises(ValidationError, match="one entry per parameter axis"):
        shift_integrate(ident, circle_run(u_start=[0.1, 0.2]))
    # bad time grid and integrator settings name their option
    for option, value in (("time_steps", -3), ("time_steps", 0),
                          ("time_steps", 2.5), ("time_steps", True),
                          ("time_steps", 10.0), ("u_samples", 8.7),
                          ("u_samples", [8.0]), ("u_samples", True),
                          ("t_final", 0.0), ("t_final", np.inf),
                          ("rtol", 0.0), ("rtol", -1e-8), ("rtol", np.nan),
                          ("rtol", 1.2e-13),
                          ("u_start", -np.inf), ("u_stop", np.nan),
                          ("periodic", "no"), ("periodic", 2),
                          ("periodic", None),
                          ("u_start", "0.5"), ("u_start", [0.0j]),
                          ("u_start", np.array(0.0)),
                          ("u_stop", True), ("u_stop", None),
                          ("t_final", True), ("t_final", "1"),
                          ("rtol", True), ("rtol", np.bool_(True))):
        with pytest.raises(ValidationError, match=option):
            shift_integrate(ident, circle_run(**{option: value}))
    # numpy bools are bools, numpy numbers and per-axis lists are numbers
    short = dict(u_samples=8, t_final=0.2, time_steps=2)
    plain = shift_integrate(ident, circle_run(**short))
    for option, value in (("periodic", np.bool_(True)), ("periodic", [True]),
                          ("u_start", np.float32(0.0)), ("u_start", [0]),
                          ("t_final", np.float64(0.2))):
        got = shift_integrate(ident, circle_run(**{**short, option: value}))
        assert np.array_equal(got.deviations, plain.deviations), option
    # the seeded momenta have norm |nu|, so a |nu| the trace would call
    # a vanishing momentum is rejected up front, naming nu and the node
    with pytest.raises(ValidationError, match=r"nu .* -1e-13 at u=\[0\.0\]"):
        shift_integrate(ident, circle_run(nu=-1e-13, u_samples=8))
    tiny = shift_integrate(ident, circle_run(nu=-2e-12, u_samples=8))
    assert tiny.deviations[0] < 1e-10
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
    # numpy numbers are numbers; a bool, a string or an expression in
    # other variables is neither a number nor an expression in u
    plain = shift_integrate(ident, circle_run(nu=-2.0, **short))
    for nu in (np.int64(-2), np.float32(-2.0), -2):
        got = shift_integrate(ident, circle_run(nu=nu, **short))
        assert np.array_equal(got.points, plain.points)
        assert np.array_equal(got.deviations, plain.deviations)
    for nu in (True, np.bool_(True), "2", None, 2j, [1.0],
               helpers.parse_all(["x1"], 1)[0],
               helpers.parse_surface(["u1", "u2", "0"])[0]):
        with pytest.raises(ValidationError, match=r"^nu must be a number or "
                                                  r"an expression in u1\.\.u1"):
            shift_integrate(ident, circle_run(nu=nu, **short))


def test_shift_tolerance_refinement():
    # halving the integrator tolerance must not move the reported
    # trace by more than an integrator-sized amount
    base = circle_run(u_samples=16, time_steps=5)
    finer = circle_run(u_samples=16, time_steps=5, rtol=5e-11)
    a = shift_integrate(helpers.sys_shear(), base)
    b = shift_integrate(helpers.sys_shear(), finer)
    assert np.max(np.abs(a.deviations - b.deviations)) < 1e-9
