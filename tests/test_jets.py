"""Jet kernel against the finite-difference oracle."""

import numpy as np
import pytest

from normality_lab import expr, jets
from normality_lab.errors import EvalError, MissingJets
from normality_lab.phase import PhasePoint

from helpers import fd_gradient, fd_hessian, random_source, rel_err


def test_seed_and_basic_arithmetic():
    v, w = jets.seeds([3.0, 4.0])
    q = v * v
    assert q.value == 9.0
    assert np.allclose(q.grad, [6.0, 0.0])
    assert np.allclose(q.hess, [[2.0, 0.0], [0.0, 0.0]])

    s = v * w + 2.0 * v
    assert s.value == 18.0
    assert np.allclose(s.grad, [6.0, 3.0])
    assert np.allclose(s.hess, [[0.0, 1.0], [1.0, 0.0]])

    r = 1.0 / w
    assert r.value == 0.25
    assert np.allclose(r.grad, [0.0, -1.0 / 16.0])
    assert np.allclose(r.hess, [[0.0, 0.0], [0.0, 2.0 / 64.0]])


def test_division_and_power_edges():
    (v,) = jets.seeds([2.0])
    with pytest.raises(EvalError):
        v / (v - 2.0)
    with pytest.raises(EvalError):
        jets.power(v - 3.0, 0.5)       # negative base, fractional power
    neg = v - 3.0
    cube = jets.power(neg, 3)          # integer powers of negatives are fine
    assert cube.value == -1.0
    assert np.allclose(cube.grad, [3.0])
    with pytest.raises(EvalError):
        jets.power(v - 3.0, v)         # jet exponent needs positive base
    pw = jets.power(v, v)              # 2^2 with full derivative structure
    assert pw.value == pytest.approx(4.0)
    assert np.allclose(pw.grad, [4.0 * (np.log(2.0) + 1.0)])


def test_order_demotion_and_extraction():
    v, w = jets.seeds([1.0, 2.0])
    d = jets.derivative(v * w * w, 1)      # d/dw (v w^2) = 2 v w, first order
    assert isinstance(d, jets.Jet)
    assert d.order == 1
    assert d.value == 4.0
    assert np.allclose(d.grad, [4.0, 2.0])  # grad of 2vw
    dd = jets.derivative(d, 0)
    assert dd.order == 0 and dd.value == 4.0
    with pytest.raises(MissingJets):
        jets.derivative(dd, 0)
    # mixing a lower-order jet into arithmetic demotes the result, but
    # plain numbers are constants and do not
    assert (d * v).order == 1
    assert (d + 1.0).order == 1
    assert (dd * v).order == 0
    assert (v * w + dd).order == 0
    assert jets.value_of(dd * v + 3.0) == pytest.approx(7.0)
    with pytest.raises(MissingJets):
        jets.derivative(dd * v, 0)


def test_hessian_exact_symmetry():
    rng = np.random.default_rng(7)
    n = 3
    for _ in range(50):
        src = random_source(rng, n, depth=3)
        e = expr.parse(src, n)
        pt = PhasePoint.velocity(rng.uniform(-1, 1, n), rng.uniform(0.5, 1.5, n))
        j = expr.eval_jet(e, pt)
        assert np.array_equal(j.hess, j.hess.T), src


def test_jets_match_finite_differences():
    rng = np.random.default_rng(42)
    n = 2
    checked = 0
    while checked < 80:
        src = random_source(rng, n, depth=3)
        e = expr.parse(src, n)
        x = rng.uniform(-1, 1, n)
        v = rng.uniform(0.5, 1.5, n)
        pt = PhasePoint.velocity(x, v)

        def f(z):
            return expr.eval_scalar(e, PhasePoint.velocity(z[:n], z[n:]))

        z0 = np.concatenate([x, v])
        j = expr.eval_jet(e, pt)
        assert rel_err(j.grad, fd_gradient(f, z0)) < 1e-5, src
        assert rel_err(j.hess, fd_hessian(f, z0)) < 1e-4, src
        checked += 1


def test_compose_equals_direct_substitution():
    a, b = 0.7, -0.3
    outer = jets.seeds([a, b])
    t1 = jets.power(outer[0], 2)            # y1 = x1^2
    t2 = outer[0] + outer[1]                # y2 = x1 + x2
    inner = jets.seeds([a * a, a + b])
    h = jets.sin(inner[0]) * inner[1]       # f(y1,y2) = sin(y1) y2
    composed = jets.compose(h, [t1, t2])
    direct = jets.sin(t1) * t2
    assert composed.value == pytest.approx(direct.value, rel=1e-14)
    assert np.allclose(composed.grad, direct.grad, rtol=1e-13, atol=1e-13)
    assert np.allclose(composed.hess, direct.hess, rtol=1e-13, atol=1e-13)


def test_stack_orders_constants_and_round_trip():
    x = jets.seeds([0.4, -1.2])
    arr = np.array([[x[0] * x[1], 2.5], [jets.sin(x[0]), x[1]]], dtype=object)
    order, val, grad, hess = jets.stack(arr, 2)
    assert order == 2 and val.shape == (2, 2)
    assert grad.shape == (2, 2, 2) and hess.shape == (2, 2, 2, 2)
    # a plain float is an exact constant
    assert val[0, 1] == 2.5 and not grad[0, 1].any() and not hess[0, 1].any()
    back = jets.from_dense(val, grad, hess)
    for u, w in zip(arr.flat, back.flat):
        assert w.order == 2 and w.value == jets.value_of(u)
    assert np.array_equal(back[0, 0].hess, arr[0, 0].hess)

    # the lowest order over the entries wins
    arr[1, 1] = jets.derivative(arr[1, 1], 0)
    assert jets.stack(arr, 2)[0] == 1 and jets.stack(arr, 2)[3] is None
    arr[1, 1] = jets.derivative(arr[1, 1], 0)
    order, val, grad, hess = jets.stack(arr, 2)
    assert order == 0 and grad is None and hess is None
    assert all(w.order == 0 for w in jets.from_dense(val).flat)


def test_matrix_inverse_values_and_derivative():
    (t,) = jets.seeds([0.4])
    A = np.empty((2, 2), dtype=object)
    A[0, 0] = 1.0 + t * t
    A[0, 1] = t
    A[1, 0] = 0.5 * t
    A[1, 1] = jets.constant(2.0, 1)
    Ainv = jets.invert_matrix(A)

    def inv_at(tv):
        M = np.array([[1.0 + tv * tv, tv], [0.5 * tv, 2.0]])
        return np.linalg.inv(M)

    assert np.allclose(jets.values(Ainv), inv_at(0.4), rtol=1e-12)
    step = 1e-6
    d_fd = (inv_at(0.4 + step) - inv_at(0.4 - step)) / (2 * step)
    d_jet = np.array([[Ainv[i, j].grad[0] for j in range(2)] for i in range(2)])
    assert np.allclose(d_jet, d_fd, atol=1e-8)


def test_dual_lift_gives_exact_gradient_jets():
    # d/dv1 of (0.25 v1^4 + x1 v1^2) is v1^3 + 2 x1 v1; the dual lift of
    # the scalar must reproduce the hand-written gradient's full jet.
    lag = expr.parse("0.25*v1^4 + x1*v1^2", 1)
    hand = expr.parse("v1^3 + 2*x1*v1", 1)
    pt = PhasePoint.velocity([0.8], [1.3])
    seeded = jets.seeds([0.8, 1.3])
    env = {"x1": jets.Dual(seeded[0], 0.0), "v1": jets.Dual(seeded[1], 1.0)}
    lifted = lag.evaluate(env).du
    want = expr.eval_jet(hand, pt)
    assert lifted.value == pytest.approx(want.value, rel=1e-14)
    assert np.allclose(lifted.grad, want.grad, rtol=1e-13, atol=1e-13)
    assert np.allclose(lifted.hess, want.hess, rtol=1e-13, atol=1e-13)
