import numpy as np
import pytest

import helpers
from normality_lab import expr, jets
from normality_lab.calculus import (LOWER, UPPER, FieldValue, curvature,
                                    curvature_relation, dynamic_curvature,
                                    dynamic_curvature_relation, field_of,
                                    horizontal_derivative,
                                    horizontal_transport_momentum,
                                    horizontal_transport_velocity,
                                    tensor_product, vertical_derivative,
                                    vertical_transport_momentum,
                                    vertical_transport_velocity)
from normality_lab.errors import MissingJets
from normality_lab.phase import PhasePoint
from normality_lab.system import PContext, VContext, legendre_forward, _newton_solve


def paired(sysdef, x, v):
    vctx = VContext(sysdef, x, v)
    image = legendre_forward(sysdef, PhasePoint.velocity(x, v))
    return vctx, PContext(sysdef, image.x, image.fiber)


def test_vertical_derivative_marks_and_values():
    sysdef = helpers.sys_cubic()
    x = np.array([0.3, -0.5])
    v = np.array([1.2, 0.7])
    vctx, pctx = paired(sysdef, x, v)

    f = expr.parse("v1^2*x2", 2, kinds=("x", "v"))
    vd = vertical_derivative(field_of(vctx, f))
    assert vd.variance == (LOWER,)
    assert np.allclose(vd.values(), [2 * v[0] * x[1], 0.0], atol=1e-13)

    g = expr.parse("p1*p2", 2, kinds=("x", "p"))
    pd = vertical_derivative(field_of(pctx, g))
    assert pd.variance == (UPPER,)
    p = pctx.p
    assert np.allclose(pd.values(), [p[1], p[0]], atol=1e-13)


def test_horizontal_scalar_against_finite_differences():
    sysdef = helpers.sys_cubic()
    x = np.array([0.4, 0.1])
    v = np.array([0.9, 1.3])
    vctx, pctx = paired(sysdef, x, v)
    n = 2

    src = "sin(x1)*v2^2 + x2*v1"
    f = expr.parse(src, n, kinds=("x", "v"))

    def f_at(xi):
        return helpers.python_eval(src, {"x1": xi[0], "x2": xi[1],
                                         "v1": xi[2], "v2": xi[3]})

    grad = helpers.fd_gradient(f_at, np.concatenate([x, v]))
    env = {"x1": x[0], "x2": x[1], "v1": v[0], "v2": v[1]}
    expected = np.zeros(n)
    for m in range(n):
        expected[m] = grad[m]
        for a in range(n):
            for b in range(n):
                expected[m] -= (v[a] * sysdef.connection[b, a, m].evaluate(env)
                                * grad[n + b])
    got = horizontal_derivative(field_of(vctx, f)).values()
    assert helpers.rel_err(got, expected) < 1e-9

    psrc = "p1^2*x2 + cos(p2)"
    pf = expr.parse(psrc, n, kinds=("x", "p"))
    p = pctx.p

    def pf_at(xi):
        return helpers.python_eval(psrc, {"x1": xi[0], "x2": xi[1],
                                          "p1": xi[2], "p2": xi[3]})

    pgrad = helpers.fd_gradient(pf_at, np.concatenate([x, p]))
    venv = {"x1": x[0], "x2": x[1], "v1": vctx.v[0], "v2": vctx.v[1]}
    pexpected = np.zeros(n)
    for m in range(n):
        pexpected[m] = pgrad[m]
        for a in range(n):
            for b in range(n):
                pexpected[m] += (p[a] * sysdef.connection[a, m, b].evaluate(venv)
                                 * pgrad[n + b])
    pgot = horizontal_derivative(field_of(pctx, pf)).values()
    assert helpers.rel_err(pgot, pexpected) < 1e-8


def test_index_corrections_cancel_in_full_contraction():
    # the covariant derivative of a scalar built as X_q Y^q must equal
    # the contraction of the corrected derivatives; a wrong sign on
    # either index correction breaks this exactly
    sysdef = helpers.sys_cubic()
    x = np.array([-0.2, 0.6])
    v = np.array([1.1, 0.8])
    vctx, pctx = paired(sysdef, x, v)
    n = 2

    for ctx, kinds in ((vctx, ("x", "v")), (pctx, ("x", "p"))):
        fib = kinds[1]
        cov_src = [f"sin(x1)*{fib}2", f"x2 + {fib}1^2"]
        vec_src = [f"{fib}1*{fib}2", f"cos(x2) + {fib}2"]
        cov = field_of(ctx, helpers.parse_all(cov_src, n, kinds=kinds), (LOWER,))
        vec = field_of(ctx, helpers.parse_all(vec_src, n, kinds=kinds), (UPPER,))
        scalar_src = " + ".join(f"({c})*({w})" for c, w in zip(cov_src, vec_src))
        scalar = field_of(ctx, expr.parse(scalar_src, n, kinds=kinds))

        lhs = horizontal_derivative(scalar).values()
        dcov = horizontal_derivative(cov).values()
        dvec = horizontal_derivative(vec).values()
        cv, vv = cov.values(), vec.values()
        rhs = np.array([dcov[:, m] @ vv + cv @ dvec[:, m] for m in range(n)])
        assert helpers.rel_err(lhs, rhs) < 1e-12


def test_derivatives_obey_leibniz_on_tensor_products():
    sysdef = helpers.sys_cubic()
    x = np.array([0.5, -0.1])
    v = np.array([0.7, 1.4])
    vctx, _ = paired(sysdef, x, v)
    n = 2
    X = field_of(vctx, helpers.parse_all(["v1 + x2^2", "sin(v2)"], n), (LOWER,))
    Y = field_of(vctx, helpers.parse_all(["x1*v2", "v1*v1"], n), (UPPER,))
    Z = tensor_product(X, Y)

    for deriv in (horizontal_derivative, vertical_derivative):
        dZ = deriv(Z).values()
        dX, dY = deriv(X).values(), deriv(Y).values()
        Xv, Yv = X.values(), Y.values()
        want = np.zeros_like(dZ)
        for q in range(n):
            for r in range(n):
                for m in range(n):
                    want[q, r, m] = dX[q, m] * Yv[r] + Xv[q] * dY[r, m]
        assert helpers.rel_err(dZ, want) < 1e-12


def test_repeated_horizontal_derivative_demotes_to_order_zero():
    sysdef = helpers.sys_cubic()
    vctx = VContext(sysdef, np.array([0.1, 0.2]), np.array([1.0, 1.1]))
    L_field = FieldValue(vctx, np.array(vctx.L, dtype=object), (LOWER,))
    once = horizontal_derivative(L_field)
    assert once.data.order == 1
    twice = horizontal_derivative(once)
    assert twice.data.order == 0 and twice.data.grad is None
    assert np.all(np.isfinite(twice.values()))
    with pytest.raises(MissingJets):
        vertical_derivative(twice)


def test_dynamic_curvature_against_finite_differences():
    sysdef = helpers.sys_cubic()
    x = np.array([0.25, -0.4])
    v = np.array([1.3, 0.6])
    vctx, pctx = paired(sysdef, x, v)
    n = 2
    h = helpers.FD_STEP

    got_v = dynamic_curvature(vctx)
    for k in range(n):
        for r in range(n):
            for i in range(n):
                for j in range(n):
                    def gamma_at(w, k=k, r=r, i=i):
                        env = {"x1": x[0], "x2": x[1], "v1": w[0], "v2": w[1]}
                        return sysdef.connection[k, i, r].evaluate(env)
                    fd = helpers.fd_gradient(gamma_at, v)[j]
                    assert got_v[k, r, i, j] == pytest.approx(-fd, abs=1e-9)
    # symmetric in the pair coming from the connection's lower indices
    assert np.allclose(got_v, np.transpose(got_v, (0, 2, 1, 3)), atol=1e-13)

    got_p = dynamic_curvature(pctx)
    p = pctx.p
    for k in range(n):
        for r in range(n):
            for i in range(n):
                for j in range(n):
                    def gamma_p_at(q, k=k, i=i, j=j):
                        w = _newton_solve(sysdef, x, q)
                        env = {"x1": x[0], "x2": x[1], "v1": w[0], "v2": w[1]}
                        return sysdef.connection[k, i, j].evaluate(env)
                    e = np.zeros(n)
                    e[r] = h
                    fd = (gamma_p_at(p + e) - gamma_p_at(p - e)) / (2 * h)
                    assert got_p[k, r, i, j] == pytest.approx(-fd, abs=1e-7)


def test_curvature_structure():
    sysdef = helpers.sys_cubic()
    x = np.array([0.3, 0.2])
    v = np.array([0.8, 1.2])
    vctx, pctx = paired(sysdef, x, v)
    for ctx in (vctx, pctx):
        R = curvature(ctx)
        assert np.allclose(R, -np.transpose(R, (0, 1, 3, 2)), atol=1e-12)

    flat = helpers.sys_identity(2)
    fctx = VContext(flat, x, v)
    assert np.allclose(curvature(fctx), 0.0)
    assert np.allclose(dynamic_curvature(fctx), 0.0)


def test_curvature_velocity_form_against_finite_differences():
    # same formula assembled from plain finite differences and floats;
    # catches wiring mistakes in the jet-based assembly
    sysdef = helpers.sys_cubic()
    x = np.array([-0.35, 0.15])
    v = np.array([1.1, 0.9])
    vctx = VContext(sysdef, x, v)
    n = 2
    xi0 = np.concatenate([x, v])

    def gamma_val(k, i, j, xi):
        env = {"x1": xi[0], "x2": xi[1], "v1": xi[2], "v2": xi[3]}
        return sysdef.connection[k, i, j].evaluate(env)

    G = np.zeros((n, n, n))
    dG = np.zeros((n, n, n, 2 * n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                G[k, i, j] = gamma_val(k, i, j, xi0)
                dG[k, i, j] = helpers.fd_gradient(
                    lambda z, k=k, i=i, j=j: gamma_val(k, i, j, z), xi0)

    want = np.zeros((n, n, n, n))
    for k in range(n):
        for r in range(n):
            for i in range(n):
                for j in range(n):
                    acc = dG[k, j, r, i] - dG[k, i, r, j]
                    for m in range(n):
                        acc += G[k, i, m] * G[m, j, r] - G[k, j, m] * G[m, i, r]
                        for s in range(n):
                            acc -= v[s] * G[m, i, s] * dG[k, j, r, n + m]
                            acc += v[s] * G[m, j, s] * dG[k, i, r, n + m]
                    want[k, r, i, j] = acc
    got = curvature(vctx)
    assert helpers.rel_err(got, want) < 1e-8


def test_dynamic_curvature_cross_relation():
    rng = np.random.default_rng(21)
    sysdef = helpers.sys_cubic()
    for _ in range(10):
        x, v = helpers.random_box_point(rng, 2)
        check = dynamic_curvature_relation(sysdef, PhasePoint.velocity(x, v))
        assert check.deviation < 1e-7


def test_curvature_cross_relation():
    rng = np.random.default_rng(22)
    for sysdef in (helpers.sys_cubic(), helpers.sys_lagrangian()):
        for _ in range(10):
            x, v = helpers.random_box_point(rng, 2)
            check = curvature_relation(sysdef, PhasePoint.velocity(x, v))
            assert check.deviation < 1e-7


def test_vertical_transport_both_directions():
    rng = np.random.default_rng(23)
    sysdef = helpers.sys_cubic()
    for _ in range(20):
        x, v = helpers.random_box_point(rng, 2)
        pt = PhasePoint.velocity(x, v)
        vf = expr.parse(helpers.random_source(rng, 2, kinds=("x", "v")), 2,
                        kinds=("x", "v"))
        assert vertical_transport_velocity(sysdef, pt, vf) < 1e-7
        pf = expr.parse(helpers.random_source(rng, 2, kinds=("x", "p")), 2,
                        kinds=("x", "p"))
        assert vertical_transport_momentum(sysdef, pt, pf) < 1e-7


def test_horizontal_transport_both_directions():
    rng = np.random.default_rng(24)
    sysdef = helpers.sys_cubic()
    for _ in range(8):
        x, v = helpers.random_box_point(rng, 2)
        pt = PhasePoint.velocity(x, v)

        vf = expr.parse(helpers.random_source(rng, 2, kinds=("x", "v")), 2,
                        kinds=("x", "v"))
        assert horizontal_transport_velocity(sysdef, pt, vf) < 1e-7
        pf = expr.parse(helpers.random_source(rng, 2, kinds=("x", "p")), 2,
                        kinds=("x", "p"))
        assert horizontal_transport_momentum(sysdef, pt, pf) < 1e-7

        vfield = [expr.parse(helpers.random_source(rng, 2, kinds=("x", "v")), 2,
                             kinds=("x", "v")) for _ in range(2)]
        for variance in ((UPPER,), (LOWER,)):
            assert horizontal_transport_velocity(sysdef, pt, vfield, variance) < 1e-7
        pfield = [expr.parse(helpers.random_source(rng, 2, kinds=("x", "p")), 2,
                             kinds=("x", "p")) for _ in range(2)]
        for variance in ((UPPER,), (LOWER,)):
            assert horizontal_transport_momentum(sysdef, pt, pfield, variance) < 1e-7


def _connection_values(sysdef, x, v):
    n = sysdef.n
    env = {}
    for i in range(n):
        env[f"x{i + 1}"] = x[i]
        env[f"v{i + 1}"] = v[i]
    return np.array([[[float(sysdef.connection[k, i, j].evaluate(env))
                       for j in range(n)] for i in range(n)] for k in range(n)])


def _momentum_connection_at(sysdef, z):
    # connection at the preimage of the momentum point z = (x, p), with
    # the inverse map solved by Newton on the float fiber map
    n = sysdef.n
    x, p = z[:n], z[n:]
    return _connection_values(sysdef, x, _newton_solve(sysdef, x, p))


@pytest.mark.parametrize("make", [helpers.sys_cubic, helpers.sys_cubic3])
def test_curvature_momentum_form_against_finite_differences(make):
    # momentum-form formula assembled from plain floats, with the
    # connection over (x, p) differentiated through Newton solves
    sysdef = make()
    n = sysdef.n
    rng = np.random.default_rng(25)
    x, v = helpers.random_box_point(rng, n)
    image = legendre_forward(sysdef, PhasePoint.velocity(x, v))
    pctx = PContext(sysdef, image.x, image.fiber)
    p = pctx.p
    z0 = np.concatenate([pctx.x, p])

    G = _momentum_connection_at(sysdef, z0)
    dG = helpers.fd_jacobian(lambda z: _momentum_connection_at(sysdef, z), z0)
    want = np.zeros((n, n, n, n))
    for k in range(n):
        for r in range(n):
            for i in range(n):
                for j in range(n):
                    acc = dG[k, j, r, i] - dG[k, i, r, j]
                    for m in range(n):
                        acc += G[k, i, m] * G[m, j, r] - G[k, j, m] * G[m, i, r]
                        for s in range(n):
                            acc += p[s] * G[s, m, i] * dG[k, j, r, n + m]
                            acc -= p[s] * G[s, m, j] * dG[k, i, r, n + m]
                    want[k, r, i, j] = acc
    assert np.max(np.abs(want)) > 1e-3
    assert helpers.rel_err(curvature(pctx), want) < 1e-8


def _covariant_at(sysdef, fiber_kind, components, variance, z):
    # D_m X at the phase point z = (x, fiber) from floats: first
    # derivatives of the components from order-1 Dense data at z, connection
    # values by plain evaluation (through Newton for momenta)
    n = sysdef.n
    momentum = fiber_kind == "p"
    G = (_momentum_connection_at(sysdef, z) if momentum
         else _connection_values(sysdef, z[:n], z[n:]))
    seeded = jets.seeds(z, order=1)
    env = {}
    for i in range(n):
        env[f"x{i + 1}"] = seeded[i]
        env[f"{fiber_kind}{i + 1}"] = seeded[n + i]
    shape = (n,) * len(variance)
    X = np.zeros(shape)
    dX = np.zeros(shape + (2 * n,))
    for idx in np.ndindex(shape):
        comp = components
        for t in idx:
            comp = comp[t]
        dense = comp.evaluate(env)
        X[idx], dX[idx] = dense.val, dense.grad
    out = np.zeros(shape + (n,))
    for idx in np.ndindex(shape):
        for m in range(n):
            acc = dX[idx][m]
            for a in range(n):
                for b in range(n):
                    if momentum:
                        acc += z[n + a] * G[a, m, b] * dX[idx][n + b]
                    else:
                        acc -= z[n + a] * G[b, a, m] * dX[idx][n + b]
            for t, mark in enumerate(variance):
                k = idx[t]
                for a in range(n):
                    swapped = idx[:t] + (a,) + idx[t + 1:]
                    if mark == UPPER:
                        acc += G[k, m, a] * X[swapped]
                    else:
                        acc -= G[a, m, k] * X[swapped]
            out[idx + (m,)] = acc
    return out


@pytest.mark.parametrize("fiber_kind", ["v", "p"])
@pytest.mark.parametrize("variance", [(), (UPPER,), (LOWER,)])
def test_horizontal_derivative_gradient_against_finite_differences(
        fiber_kind, variance):
    # the order-1 jets of a once-applied horizontal derivative are what
    # the bundles read as fiber derivatives; check their full gradient
    sysdef = helpers.sys_cubic()
    n = 2
    x = np.array([0.35, -0.25])
    v = np.array([1.05, 0.75])
    vctx, pctx = paired(sysdef, x, v)
    ctx = pctx if fiber_kind == "p" else vctx
    kinds = ("x", fiber_kind)
    f = fiber_kind
    if variance:
        components = helpers.parse_all(
            [f"sin(x1)*{f}2^2 + x2*{f}1", f"{f}1*{f}2*x1 + cos(x2)*{f}1^2"],
            n, kinds=kinds)
    else:
        components = expr.parse(f"{f}1^2*x2 + sin({f}2)*x1 + {f}1*{f}2", n,
                                kinds=kinds)

    got = horizontal_derivative(field_of(ctx, components, variance))
    assert got.data.order == 1
    grad = got.data.grad

    z0 = np.concatenate([ctx.x, ctx.p if fiber_kind == "p" else ctx.v])
    assert helpers.rel_err(
        got.values(), _covariant_at(sysdef, f, components, variance, z0)) < 1e-10
    want = helpers.fd_jacobian(
        lambda z: _covariant_at(sysdef, f, components, variance, z), z0)
    assert np.max(np.abs(want[..., n:])) > 1e-2
    assert helpers.rel_err(grad, want) < 1e-8
