import numpy as np
import pytest

import helpers
from normality_lab import calculus, expr, jets
from normality_lab.errors import NonConvergence, SingularMetric, ValidationError
from normality_lab.phase import PhasePoint
from normality_lab.system import (ConstFunc, PContext, SystemDef, VContext,
                                  lagrangian_to_legendre, legendre_forward,
                                  legendre_inverse, metric, theta_from_phi,
                                  validate_system, _newton, _samples)


def fixtures():
    return [helpers.sys_cubic(), helpers.sys_lagrangian(),
            helpers.sys_linear_mode_a()]


def test_forward_inverse_roundtrip():
    rng = np.random.default_rng(7)
    for sysdef in fixtures():
        for _ in range(25):
            x, v = helpers.random_box_point(rng, sysdef.n)
            pt = PhasePoint.velocity(x, v)
            image = legendre_forward(sysdef, pt)
            back = legendre_inverse(sysdef, image)
            assert np.max(np.abs(back.point.fiber - v)) < 1e-10
            assert np.array_equal(back.point.x, x)


def test_metric_pair_inverse_and_values():
    rng = np.random.default_rng(8)
    sysdef = helpers.sys_cubic()
    for _ in range(20):
        x, v = helpers.random_box_point(rng, 2)
        pair = metric(sysdef, PhasePoint.velocity(x, v))
        assert pair.product_deviation < 1e-12
        # diagonal map: dL_i/dv^i in closed form
        assert pair.lower[0, 0] == pytest.approx(1 + 0.3 * v[0] ** 2 + 0.05 * x[0], abs=1e-14)
        assert pair.lower[1, 1] == pytest.approx(1 + 0.3 * v[1] ** 2 - 0.04 * x[1], abs=1e-14)
        assert pair.lower[0, 1] == 0.0 and pair.lower[1, 0] == 0.0


def test_metric_at_momentum_point_matches_preimage():
    sysdef = helpers.sys_lagrangian()
    x = np.array([0.3, -0.4])
    v = np.array([0.9, 1.1])
    at_v = metric(sysdef, PhasePoint.velocity(x, v))
    at_p = metric(sysdef, legendre_forward(sysdef, PhasePoint.velocity(x, v)))
    assert np.max(np.abs(at_v.lower - at_p.lower)) < 1e-9
    assert np.max(np.abs(at_v.upper - at_p.upper)) < 1e-9


def test_lagrangian_components_match_hand_gradient():
    sysdef = helpers.sys_lagrangian()
    by_hand = helpers.parse_all(["v1 + 0.2*v1*v2^2",
                                 "v2 + 0.2*v1^2*v2 + 0.4*sin(x1)*v2"], 2)
    rng = np.random.default_rng(9)
    for _ in range(10):
        x, v = helpers.random_box_point(rng, 2)
        ctx = VContext(sysdef, x, v)
        for built, expected in zip(sysdef.legendre, by_hand):
            a = ctx.eval_native(built)
            b = ctx.eval_native(expected)
            assert a.val == pytest.approx(b.val, abs=1e-13)
            assert np.allclose(a.grad, b.grad, atol=1e-13)
            assert np.allclose(a.hess, b.hess, atol=1e-13)


def test_lagrangian_metric_is_symmetric():
    sysdef = helpers.sys_lagrangian()
    rng = np.random.default_rng(10)
    for _ in range(10):
        x, v = helpers.random_box_point(rng, 2)
        g = VContext(sysdef, x, v).g_values
        assert np.max(np.abs(g - g.T)) < 1e-13


def test_inverse_jets_match_finite_differences():
    # pure Newton solves at displaced points are the oracle for the
    # implicit first-order jets; the second-order block is checked as a
    # finite difference of first-order jets at displaced points
    sysdef = helpers.sys_cubic()
    x = np.array([0.4, -0.2])
    v = np.array([0.8, 1.2])
    p = legendre_forward(sysdef, PhasePoint.velocity(x, v)).fiber
    ctx = PContext(sysdef, x, p)
    assert np.max(np.abs(ctx.inner.v - v)) < 1e-10

    def newton_at(xi):
        return _newton(sysdef, xi[:2], xi[2:])

    xi0 = np.concatenate([x, p])
    for s in range(2):
        grad_fd = helpers.fd_gradient(lambda z: newton_at(z)[s], xi0)
        assert helpers.rel_err(grad_fd, ctx.V.grad[s]) < 1e-6

    def grad_at(xi):
        c = PContext(sysdef, xi[:2], xi[2:])
        return c.V.grad

    h = helpers.FD_STEP
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = h
        column = (grad_at(xi0 + e) - grad_at(xi0 - e)) / (2 * h)
        for s in range(2):
            assert helpers.rel_err(column[s], ctx.V.hess[s, mu]) < 1e-5


def test_closed_form_inverse_matches_newton_jets():
    with_inv = helpers.sys_linear_mode_a(with_inverse=True)
    without = helpers.sys_linear_mode_a(with_inverse=False)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, 2)
        p = rng.uniform(0.5, 1.5, 2)
        a = PContext(with_inv, x, p)
        b = PContext(without, x, p)
        for s in range(2):
            assert a.V.val[s] == pytest.approx(b.V.val[s], abs=1e-11)
            assert np.allclose(a.V.grad[s], b.V.grad[s], atol=1e-9)
            assert np.allclose(a.V.hess[s], b.V.hess[s], atol=1e-8)


def test_theta_values_against_finite_differences():
    sysdef = helpers.sys_cubic()
    rng = np.random.default_rng(12)
    for _ in range(10):
        x, v = helpers.random_box_point(rng, 2)
        got = theta_from_phi(sysdef, PhasePoint.velocity(x, v))
        env = {"x1": x[0], "x2": x[1], "v1": v[0], "v2": v[1]}
        phi = np.array([f.evaluate(env) for f in sysdef.force])
        expected = np.zeros(2)
        for i in range(2):
            def L_i(xi, i=i):
                e = {"x1": xi[0], "x2": xi[1], "v1": xi[2], "v2": xi[3]}
                return sysdef.legendre[i].evaluate(e)
            grad = helpers.fd_gradient(L_i, np.concatenate([x, v]))
            expected[i] = grad[:2] @ v + grad[2:] @ phi
        assert helpers.rel_err(got, expected) < 1e-8


def test_theta_and_q_jets_against_finite_differences():
    # oracle route recomputes values from scratch (Newton + one-shot
    # evaluations) at displaced points, no chain-rule transport involved
    sysdef = helpers.sys_cubic()
    x = np.array([0.1, 0.5])
    v = np.array([1.1, 0.7])
    p = legendre_forward(sysdef, PhasePoint.velocity(x, v)).fiber
    ctx = PContext(sysdef, x, p)
    xi0 = np.concatenate([x, p])

    def theta_at(xi):
        w = _newton(sysdef, xi[:2], xi[2:])
        return theta_from_phi(sysdef, PhasePoint.velocity(xi[:2], w))

    def q_at(xi):
        return PContext(sysdef, xi[:2], xi[2:]).Q.val

    for i in range(2):
        fd = helpers.fd_gradient(lambda z: theta_at(z)[i], xi0)
        assert helpers.rel_err(fd, ctx.theta.grad[i]) < 1e-6
        assert ctx.theta.val[i] == pytest.approx(theta_at(xi0)[i], abs=1e-10)
        fd = helpers.fd_gradient(lambda z: q_at(z)[i], xi0)
        assert helpers.rel_err(fd, ctx.Q.grad[i]) < 1e-6


def test_q_reduces_to_theta_without_connection():
    sysdef = helpers.sys_shear()
    x = np.array([0.2, -0.3])
    v = np.array([0.6, 1.4])
    p = legendre_forward(sysdef, PhasePoint.velocity(x, v)).fiber
    ctx = PContext(sysdef, x, p)
    for i in range(2):
        assert ctx.Q.val[i] == pytest.approx(ctx.theta.val[i], abs=1e-14)
    got = ctx.Q.val
    want = theta_from_phi(sysdef, PhasePoint.velocity(x, v))
    assert helpers.rel_err(got, want) < 1e-10


def test_connection_correction_in_q():
    sysdef = helpers.sys_cubic()
    x = np.array([-0.6, 0.1])
    v = np.array([1.3, 0.9])
    vpt = PhasePoint.velocity(x, v)
    p = legendre_forward(sysdef, vpt).fiber
    theta = theta_from_phi(sysdef, vpt)
    env = {"x1": x[0], "x2": x[1], "v1": v[0], "v2": v[1]}
    expected = theta.copy()
    for i in range(2):
        for j in range(2):
            for k in range(2):
                expected[i] -= (sysdef.connection[k, i, j].evaluate(env)
                                * v[j] * p[k])
    got = PContext(sysdef, x, p).Q.val
    assert helpers.rel_err(got, expected) < 1e-10


def test_momentum_native_composition():
    sysdef = helpers.sys_cubic()
    ctx = VContext(sysdef, np.array([0.2, 0.4]), np.array([1.0, 0.6]))
    func = expr.parse("p1^2 + 0.5*p2", 2, kinds=("x", "p"))
    composed = ctx.eval_momentum_native(func)
    direct = ctx.L[0] * ctx.L[0] + 0.5 * ctx.L[1]
    assert composed.val == pytest.approx(direct.val, abs=1e-13)
    assert np.allclose(composed.grad, direct.grad, atol=1e-13)
    assert np.allclose(composed.hess, direct.hess, atol=1e-13)


def test_momentum_connection_matches_entrywise_composition():
    # the batched chain rule behind gamma_p against jets.compose, entry
    # by entry, with both the closed-form and the Newton inverse
    rng = np.random.default_rng(9)
    for sysdef in (helpers.sys_cubic3(), helpers.sys_linear_mode_a()):
        x, v = helpers.random_box_point(rng, sysdef.n)
        image = legendre_forward(sysdef, PhasePoint.velocity(x, v))
        ctx = PContext(sysdef, image.x, image.fiber)
        inner, got = ctx.inner.gamma, ctx.gamma_p
        for idx in np.ndindex(got.val.shape):
            entry = jets.Dense(2, inner.val[idx], inner.grad[idx],
                               inner.hess[idx])
            want = jets.compose(entry, ctx.transform)
            assert got.val[idx] == want.val
            assert np.allclose(got.grad[idx], want.grad, rtol=1e-13, atol=1e-14)
            assert np.allclose(got.hess[idx], want.hess, rtol=1e-13, atol=1e-14)


def test_newton_cycle_raises_and_guess_recovers():
    # classic two-cycle of the plain Newton iteration
    L = [expr.parse("v1^3 - 2*v1", 1, kinds=("x", "v"))]
    cycling = SystemDef(1, L, newton_guess=[0.0])
    with pytest.raises(NonConvergence):
        PContext(cycling, np.array([0.0]), np.array([-2.0]))
    recovered = SystemDef(1, L, newton_guess=[-2.0])
    ctx = PContext(recovered, np.array([0.0]), np.array([-2.0]))
    root = ctx.inner.v[0]
    assert root ** 3 - 2 * root == pytest.approx(-2.0, abs=1e-11)


def test_singular_fiber_jacobian():
    L = helpers.parse_all(["v1 + v2", "v1 + v2"], 2)
    degenerate = SystemDef(2, L)
    with pytest.raises(SingularMetric):
        VContext(degenerate, np.zeros(2), np.array([0.5, 0.5])).g_inv_values
    with pytest.raises(SingularMetric):
        PContext(degenerate, np.zeros(2), np.array([1.0, 1.0]))


def test_validation_blocks_match_per_sample_draws():
    # the reference: one rng.uniform call per vector, sample by sample
    for n in range(1, 6):
        for parts in ((2, 2, 1), (2, 2, 2), (2, 1), (2, 2)):
            rng, ref = np.random.default_rng(0), np.random.default_rng(0)
            for width in parts:
                box = ((-1.0, 1.0), (0.5, 1.5))[:width]
                want = np.array([[ref.uniform(lo, hi, n) for lo, hi in box]
                                 for _ in range(8)])
                got = np.array(_samples(rng, n, width))
                assert got.tobytes() == want.transpose(1, 2, 0).tobytes()


def test_validation_catches_structural_faults():
    n = 2
    with pytest.raises(ValidationError):
        SystemDef(n, helpers.parse_all(["v1"], n))
    with pytest.raises(ValidationError):
        SystemDef(n, helpers.parse_all(["p1", "p2"], n, kinds=("x", "p")))

    shifted = SystemDef(n, helpers.parse_all(["v1 + 0.5", "v2"], n))
    with pytest.raises(ValidationError):
        validate_system(shifted)

    conn = helpers.make_connection(n)
    conn[0][0][1] = expr.parse("v1", n, kinds=("x", "v"))
    conn[0][1][0] = ConstFunc(0.0, n)
    lopsided = SystemDef(n, helpers.parse_all(["v1", "v2"], n), connection=conn)
    with pytest.raises(ValidationError):
        validate_system(lopsided)

    wrong_inverse = SystemDef(
        n, helpers.parse_all(["v1", "v2"], n),
        v_inverse=helpers.parse_all(["2*p1", "p2"], n, kinds=("x", "p")))
    with pytest.raises(ValidationError):
        validate_system(wrong_inverse)

    for sysdef in fixtures():
        validate_system(sysdef)


def test_generated_fiber_map_round_trips_under_newton():
    sysdef = helpers.sys_lagrangian()
    rng = np.random.default_rng(14)
    for _ in range(10):
        x, v = helpers.random_box_point(rng, 2)
        p = legendre_forward(sysdef, PhasePoint.velocity(x, v)).fiber
        w = _newton(sysdef, x, p)
        assert np.max(np.abs(w - v)) < 1e-10


def test_the_calls_of_the_benchmark_probes():
    # the per-layer probes of bench/layers.py reach into the package
    # through exactly these calls
    sysdef = helpers.sys_cubic3()
    n = sysdef.n
    x, v = np.array([0.3, -0.4, 0.1]), np.array([0.9, 1.2, 0.7])
    ctx = VContext(sysdef, x, v)
    assert len(ctx.L) == n
    assert all(isinstance(u, jets.Dense) for u in ctx.L)
    product = ctx.L[0] * ctx.L[1]
    assert isinstance(product, jets.Dense)
    assert product.val == pytest.approx(ctx.L_dense.val[0] * ctx.L_dense.val[1])

    image = legendre_forward(sysdef, PhasePoint.velocity(x, v))
    pctx = PContext(sysdef, image.x, image.fiber)
    composed = jets.compose(pctx.inner.L[0], pctx.transform)
    want = pctx.eval_velocity_native(sysdef.legendre[0])
    assert np.allclose(composed.grad, want.grad, rtol=1e-13, atol=1e-14)
    assert np.allclose(composed.hess, want.hess, rtol=1e-13, atol=1e-14)
    inverse = jets.invert_matrix(ctx.g_jets)
    assert np.allclose(inverse.val, ctx.g_inv_values, rtol=1e-13, atol=1e-14)

    scalar = calculus.FieldValue(ctx, ctx.L[0], ())
    vector = calculus.FieldValue(ctx, np.array(ctx.L, dtype=object),
                                 (calculus.LOWER,))
    assert np.shape(scalar.values()) == ()
    assert vector.values().shape == (n,)
    assert np.array_equal(vector.data.grad, ctx.L_dense.grad)
    assert np.array_equal(vector.data.hess, ctx.L_dense.hess)
    native = calculus.FieldValue(ctx, ctx.eval_native(sysdef.legendre[0]))
    assert np.array_equal(calculus.horizontal_derivative(scalar).values(),
                          calculus.horizontal_derivative(native).values())
    assert calculus.horizontal_derivative(vector).values().shape == (n, n)
    tensor = calculus.field_of(ctx, sysdef.connection[0],
                               (calculus.LOWER, calculus.LOWER))
    assert calculus.horizontal_derivative(tensor).values().shape == (n, n, n)

    parsed = [f for f in sysdef.connection.flat if not isinstance(f, ConstFunc)]
    assert parsed
    for f in list(sysdef.legendre) + list(sysdef.force) + parsed:
        assert isinstance(f.evaluate(ctx.env), jets.Dense)
