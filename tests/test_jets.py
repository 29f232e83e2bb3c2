"""Dense derivative data against the finite-difference oracle."""

import numpy as np
import pytest

from normality_lab import expr, jets
from normality_lab.errors import EvalError, MissingJets, SingularMetric
from normality_lab.phase import PhasePoint

from helpers import fd_gradient, fd_hessian, random_source, rel_err


def test_seed_and_basic_arithmetic():
    v, w = jets.seeds([3.0, 4.0])
    q = v * v
    assert q.val == 9.0
    assert np.allclose(q.grad, [6.0, 0.0])
    assert np.allclose(q.hess, [[2.0, 0.0], [0.0, 0.0]])

    s = v * w + 2.0 * v
    assert s.val == 18.0
    assert np.allclose(s.grad, [6.0, 3.0])
    assert np.allclose(s.hess, [[0.0, 1.0], [1.0, 0.0]])

    r = 1.0 / w
    assert r.val == 0.25
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
    assert cube.val == -1.0
    assert np.allclose(cube.grad, [3.0])
    with pytest.raises(EvalError):
        jets.power(v - 3.0, v)         # a Dense exponent needs a positive base
    pw = jets.power(v, v)              # 2^2 with full derivative structure
    assert pw.val == pytest.approx(4.0)
    assert np.allclose(pw.grad, [4.0 * (np.log(2.0) + 1.0)])


def test_order_demotion_and_extraction():
    v, w = jets.seeds([1.0, 2.0])
    # d/dw (v w^2) = 2 v w, first order
    dense = jets.derivative(v * w * w, 1)
    assert dense.order == 1 and dense.hess is None
    assert dense.val == 4.0
    assert np.allclose(dense.grad, [4.0, 2.0])  # grad of 2vw
    ddense = jets.derivative(dense, 0)
    assert ddense.order == 0 and ddense.val == 4.0 and ddense.grad is None
    with pytest.raises(MissingJets):
        jets.derivative(ddense, 0)
    # mixing lower-order data into arithmetic demotes the result, but
    # plain numbers are constants and do not
    d = jets.Dense(1, 4.0, np.array([4.0, 2.0]))
    dd = jets.Dense(0, 4.0)
    assert (d * v).order == 1 and (d * v).hess is None
    assert (d + 1.0).order == 1
    assert (dd * v).order == 0 and (dd * v).grad is None
    assert (v * w + dd).order == 0
    assert (jets.sin(d).order, jets.sin(dd).order) == (1, 0)
    assert (dd * v + 3.0).val == pytest.approx(7.0)
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
    composed = jets.compose(h, jets.stack([t1, t2], 2))
    direct = jets.sin(t1) * t2
    assert composed.val == pytest.approx(direct.val, rel=1e-14)
    assert np.allclose(composed.grad, direct.grad, rtol=1e-13, atol=1e-13)
    assert np.allclose(composed.hess, direct.hess, rtol=1e-13, atol=1e-13)


def _stacked(arr, m):
    """Dense data of an object array of scalar Dense entries and numbers."""
    return jets.stack(list(arr.flat), m).reshape(arr.shape)


def test_stack_orders_and_constants():
    x = jets.seeds([0.4, -1.2])
    arr = np.array([[x[0] * x[1], 2.5], [jets.sin(x[0]), x[1]]], dtype=object)
    assert arr.shape == (2, 2)          # numpy keeps Dense whole
    order, val, grad, hess = _stacked(arr, 2)
    assert order == 2 and val.shape == (2, 2)
    assert grad.shape == (2, 2, 2) and hess.shape == (2, 2, 2, 2)
    # a plain float is an exact constant
    assert val[0, 1] == 2.5 and not grad[0, 1].any() and not hess[0, 1].any()
    for idx in ((0, 0), (1, 0), (1, 1)):
        u = arr[idx]
        assert val[idx] == u.val
        assert np.array_equal(grad[idx], u.grad)
        assert np.array_equal(hess[idx], u.hess)

    # the lowest order over the entries wins
    arr[1, 1] = jets.Dense(1, x[1].val, x[1].grad)
    cut = _stacked(arr, 2)
    assert cut.order == 1 and cut.hess is None
    arr[1, 1] = jets.Dense(0, x[1].val)
    order, val, grad, hess = _stacked(arr, 2)
    assert order == 0 and grad is None and hess is None
    assert val[1, 1] == arr[1, 1].val

    # entries over a batch lead their derivative axes; constants are
    # broadcast over the batch
    a, b = jets.seeds([[0.5, 1.0, 2.0], [1.5, -1.0, 0.2]], order=1)
    order, val, grad, hess = jets.stack([a * b, 3.0, np.ones(3), b], 2, (3,))
    assert order == 1 and hess is None
    assert val.shape == (4, 3) and grad.shape == (4, 3, 2)
    assert np.array_equal(val[1], [3.0] * 3) and not grad[1:3].any()
    assert np.array_equal(grad[3], np.tile([0.0, 1.0], (3, 1)))


def test_einsum_follows_the_product_rule():
    # entrywise jet arithmetic is the oracle for the dense contraction
    x = jets.seeds([0.4, -1.2, 0.7])
    A = np.array([[x[0] * x[1], jets.sin(x[2])], [x[1], 2.5]], dtype=object)
    b = np.array([x[2] * x[2], jets.cos(x[0])], dtype=object)
    C = np.array([[0.3, -1.1], [2.0, 0.5]])
    got = jets.einsum("ij,j,jk->ik", _stacked(A, 3), _stacked(b, 3), C)
    want = np.empty((2, 2), dtype=object)
    for i in range(2):
        for k in range(2):
            want[i, k] = A[i, 0] * b[0] * C[0, k] + A[i, 1] * b[1] * C[1, k]
    want = _stacked(want, 3)
    # first order at most, even over second-order operands
    assert got.order == 1 and got.hess is None
    for a, w in zip((got.val, got.grad), (want.val, want.grad)):
        assert np.allclose(a, w, rtol=1e-14, atol=1e-14)

    # a first-order operand demotes the result, sums take the lower order
    first = jets.derivative(_stacked(b, 3), 0)
    assert jets.einsum("ij,i->j", _stacked(A, 3), first).order == 1
    assert (_stacked(b, 3) - first).order == 1
    assert (-jets.derivative(first, 0)).grad is None
    cut = _stacked(b, 3).truncated(1)
    assert cut.order == 1 and cut.hess is None
    assert jets.einsum("ij,j->i", _stacked(A, 3), cut).order == 1


def test_matrix_inverse_values_and_derivative():
    (t,) = jets.seeds([0.4])
    A = np.empty((2, 2), dtype=object)
    A[0, 0] = 1.0 + t * t
    A[0, 1] = t
    A[1, 0] = 0.5 * t
    A[1, 1] = 2.0
    Ainv = jets.invert_matrix(_stacked(A, 1))
    assert Ainv.order == 1 and Ainv.hess is None

    def inv_at(tv):
        M = np.array([[1.0 + tv * tv, tv], [0.5 * tv, 2.0]])
        return np.linalg.inv(M)

    assert np.allclose(Ainv.val, inv_at(0.4), rtol=1e-12)
    step = 1e-6
    d_fd = (inv_at(0.4 + step) - inv_at(0.4 - step)) / (2 * step)
    assert np.allclose(Ainv.grad[..., 0], d_fd, atol=1e-8)

    singular = np.array([[t, 2.0 * t], [2.0 * t, 4.0 * t]], dtype=object)
    with pytest.raises(SingularMetric):
        jets.invert_matrix(_stacked(singular, 1))
