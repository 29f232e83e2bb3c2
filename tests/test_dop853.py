"""scipy as the oracle of dop853: the port must give the bits, the call
count and the verdict of solve_ivp(method="DOP853", t_eval=...) on every
[surface] fixture's front, on random fronts of the property tests'
systems and on a blow-up that ends below the smallest step; its tableau
must be scipy's. Skipped where scipy cannot be imported."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from normality_lab import dop853, experiments
from normality_lab.errors import EvalError
from test_batched import SURFACE_FIXTURES, _fixture_shift
from test_properties import PROPERTY_SETTINGS, systems_at_points

scipy_integrate = pytest.importorskip("scipy.integrate")


def _reference(fun, t_span, y0, t_eval, rtol, atol):
    return scipy_integrate.solve_ivp(fun, t_span, y0, method="DOP853",
                                     rtol=rtol, atol=atol, t_eval=t_eval)


def _assert_same(sol, ref, size):
    assert (sol.success, sol.message, sol.nfev) == \
        (ref.success, ref.message, ref.nfev)
    # solve_ivp's y is (state, times reached), or [] before the first
    want = np.reshape(ref.y, (size, len(ref.t))).T
    assert sol.y.shape == want.shape
    assert sol.y.tobytes() == want.tobytes()


def test_the_tableau_is_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref

    for name in ("A", "B", "C", "E3", "E5", "D"):
        assert np.array_equal(getattr(dop853, name), getattr(ref, name)), name
    assert len(dop853.STAGES) + 1 == ref.N_STAGES
    assert [s for s, _, _ in dop853.EXTRA] == \
        list(range(ref.N_STAGES + 1, ref.N_STAGES_EXTENDED))


@pytest.mark.parametrize("name", SURFACE_FIXTURES)
def test_a_fixture_front_gives_solve_ivps_bits(monkeypatch, name):
    # each integration of the shift runs both, on the same right-hand
    # side, inside the same trap scope
    port, fronts = dop853.solve, []

    def both(fun, t_span, y0, t_eval, rtol, atol):
        sol = port(fun, t_span, y0, t_eval, rtol, atol)
        _assert_same(sol, _reference(fun, t_span, y0, t_eval, rtol, atol),
                     y0.size)
        fronts.append(sol)
        return sol
    monkeypatch.setattr(dop853, "solve", both)
    experiments.shift_integrate(*_fixture_shift(name))
    assert len(fronts) == 1 and fronts[0].success


def _outcome(solve, *args):
    try:
        return solve(*args), None
    except EvalError as e:
        return None, str(e)


@PROPERTY_SETTINGS
@given(systems_at_points(), st.integers(0, 2**32 - 1),
       st.integers(1, 5), st.integers(1, 6),
       st.sampled_from([1e-4, 1e-6, 1e-8, 1e-10]))
def test_a_random_front_gives_solve_ivps_bits(case, seed, count, steps, rtol):
    sysdef, _ = case
    n, rng = sysdef.n, np.random.default_rng(seed)
    nodes = np.linspace(0.0, 1.0, count)[:, None]
    y0 = np.concatenate([np.concatenate(helpers.random_box_point(rng, n))
                         for _ in range(count)])
    t_final = float(rng.uniform(0.25, 1.5))
    args = ((0.0, t_final), y0, np.linspace(0.0, t_final, steps + 1), rtol,
            1e-12)
    # the checked right-hand side names a non-finite state or force
    fun = experiments._rhs(sysdef.force, nodes, False)
    with np.errstate(all="ignore"):
        sol, error = _outcome(dop853.solve, fun, *args)
        ref, ref_error = _outcome(_reference, fun, *args)
    assert error == ref_error
    if error is None:
        _assert_same(sol, ref, y0.size)


def test_a_blow_up_fails_as_solve_ivp_fails():
    # y' = y^2, y(0) = 1 has the pole t = 1, inside [0, 2]
    def fun(t, y):
        return y * y
    args = ((0.0, 2.0), np.array([1.0]), np.linspace(0.0, 2.0, 5), 1e-6,
            1e-12)
    with np.errstate(all="ignore"):
        sol, ref = dop853.solve(fun, *args), _reference(fun, *args)
    assert not sol.success and not ref.success
    assert sol.message == dop853.TOO_SMALL_STEP
    _assert_same(sol, ref, 1)
