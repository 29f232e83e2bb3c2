"""Parser and evaluator behavior, checked against Python's own eval."""

import numpy as np
import pytest

from normality_lab import expr
from normality_lab.errors import (DimensionError, EvalError, ExprSyntaxError,
                                  MixedRepresentationError)
from normality_lab.phase import PhasePoint

from helpers import python_eval, random_source


def test_number_and_variable():
    e = expr.parse("v1", 2)
    pt = PhasePoint.velocity([0.0, 0.0], [3.0, 4.0])
    assert expr.eval_scalar(e, pt) == 3.0
    assert expr.eval_scalar(expr.parse("2.5", 1), PhasePoint.velocity([0.0], [0.0])) == 2.5


def test_precedence_and_associativity():
    pt = PhasePoint.velocity([2.0], [3.0])
    cases = {
        "1+2*3": 7.0,
        "2*3^2": 18.0,          # ^ over *
        "-3^2": -9.0,           # ^ over unary minus
        "2^3^2": 512.0,         # right associative
        "10-4-3": 3.0,          # left associative
        "24/4/2": 3.0,
        "x1^-2": 0.25,
        "-x1*v1": -6.0,
    }
    for src, want in cases.items():
        got = expr.eval_scalar(expr.parse(src, 1), pt)
        assert got == pytest.approx(want), src


def test_functions():
    pt = PhasePoint.velocity([0.5], [1.0])
    assert expr.eval_scalar(expr.parse("sin(x1)", 1), pt) == pytest.approx(np.sin(0.5))
    assert expr.eval_scalar(expr.parse("ln(exp(x1))", 1), pt) == pytest.approx(0.5)
    assert expr.eval_scalar(expr.parse("sqrt(v1)", 1), pt) == 1.0
    assert expr.eval_scalar(expr.parse("tanh(0)", 1), pt) == 0.0


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse("v1 + + v2", 2)
    assert err.value.line == 1
    assert err.value.column == 6
    with pytest.raises(ExprSyntaxError):
        expr.parse("sin v1", 2)
    with pytest.raises(ExprSyntaxError):
        expr.parse("(v1", 2)
    with pytest.raises(ExprSyntaxError):
        expr.parse("v1 @ v2", 2)
    with pytest.raises(ExprSyntaxError):
        expr.parse("bogus(v1)", 2)


def test_dimension_error():
    with pytest.raises(DimensionError):
        expr.parse("v3", 2)
    with pytest.raises(DimensionError):
        expr.parse("x0", 2)
    expr.parse("v3", 3)  # fine at dimension 3


def test_mixed_representation_rejected():
    with pytest.raises(MixedRepresentationError):
        expr.parse("v1 + p1", 2)
    e = expr.parse("x1 + v1", 2)
    assert e.fiber_kind == "v"
    with pytest.raises(MixedRepresentationError):
        expr.eval_scalar(e, PhasePoint.momentum([0.0, 0.0], [1.0, 1.0]))


def test_eval_domain_errors():
    pt = PhasePoint.velocity([0.0], [1.0])
    with pytest.raises(EvalError):
        expr.eval_scalar(expr.parse("ln(x1)", 1), pt)
    with pytest.raises(EvalError):
        expr.eval_scalar(expr.parse("sqrt(0-v1)", 1), pt)
    with pytest.raises(EvalError):
        expr.eval_scalar(expr.parse("v1/x1", 1), pt)
    with pytest.raises(EvalError):
        expr.eval_scalar(expr.parse("(0-v1)^0.5", 1), pt)


@pytest.mark.parametrize("source", [
    "sin(x1*x1)", "cos(x1*x1)", "ln(x1*x1)", "sqrt(x1*x1)", "exp(x1*x1)",
    "tanh(x1*x1)", "(x1*x1)^2", "(x1*x1)^(0-1)"])
def test_overflowed_arguments_raise_eval_error(source):
    # x1*x1 overflows to inf; no function may turn that into a value or
    # fail with anything but EvalError, on floats or on jets
    pt = PhasePoint.velocity([1e200], [1.0])
    e = expr.parse(source, 1)
    with pytest.raises(EvalError):
        expr.eval_scalar(e, pt)
    with pytest.raises(EvalError):
        expr.eval_jet(e, pt)


def test_u_kind_for_surface_parameters():
    e = expr.parse("cos(u1)", 1, kinds=("u",))
    assert e.evaluate({"u1": 0.0}) == 1.0
    with pytest.raises(ExprSyntaxError):
        expr.parse("v1", 1, kinds=("u",))


def test_round_trip_is_structural():
    sources = [
        "v1+v2*x1",
        "-(v1*v2)",
        "(v1+v2)^2",
        "v1^v2^x1",
        "v1-(v2-x1)",
        "sin(v1)/(1.5+0.5*tanh(x2))",
        "-v1^2",
        "2^-x1",
    ]
    for src in sources:
        e = expr.parse(src, 2)
        printed = expr.to_source(e)
        again = expr.parse(printed, 2)
        assert again == e, f"{src!r} -> {printed!r}"
        assert expr.to_source(again) == printed


def test_round_trip_fuzz_and_eval_fuzz():
    rng = np.random.default_rng(20260818)
    n = 3
    for _ in range(300):
        src = random_source(rng, n, kinds=("x", "v"), depth=3)
        e = expr.parse(src, n)
        # structural round trip
        assert expr.parse(expr.to_source(e), n) == e
        # value agreement with the independent interpreter
        x = rng.uniform(-1.0, 1.0, n)
        v = rng.uniform(0.5, 1.5, n)
        env = {f"x{i+1}": x[i] for i in range(n)}
        env.update({f"v{i+1}": v[i] for i in range(n)})
        mine = expr.eval_scalar(e, PhasePoint.velocity(x, v))
        ref = python_eval(src, env)
        assert mine == pytest.approx(ref, rel=1e-12, abs=1e-12), src


def test_variables_listing():
    e = expr.parse("x1*v2 + sin(v1)", 2)
    assert e.variables() == {"x1", "v1", "v2"}


def test_derivative_gives_exact_gradient_jets():
    # d/dv1 of (0.25 v1^4 + x1 v1^2) is v1^3 + 2 x1 v1; the derivative
    # tree must reproduce the hand-written gradient's full jet.
    lag = expr.parse("0.25*v1^4 + x1*v1^2", 1)
    hand = expr.parse("v1^3 + 2*x1*v1", 1)
    pt = PhasePoint.velocity([0.8], [1.3])
    got = expr.eval_jet(expr.derivative(lag, "v1"), pt)
    want = expr.eval_jet(hand, pt)
    assert got.val == pytest.approx(want.val, rel=1e-14)
    assert np.allclose(got.grad, want.grad, rtol=1e-13, atol=1e-13)
    assert np.allclose(got.hess, want.hess, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("source", [
    "2.5",                          # Num
    "v1", "x1",                     # Var, the variable and another
    "-(v1*v2)",                     # Unary
    "v1 + x1*v2", "x1 - v1*v2", "v1*v2*x2", "v2/v1", "(x1 + v1)/(2 - v2)",
    "v1^3", "v1^(1+1)", "v1^-2", "v1^0.5", "v1^0", "v1^1",
    "v1^x1", "2^v2", "v1^v2",
    "sin(v1*v2)", "cos(v1 - x2)", "exp(v1*v2)", "ln(v1 + v2)",
    "sqrt(v1 + x1)", "tanh(v1*x1)",
])
def test_derivative_matches_central_differences(source):
    x, v = np.array([0.4, -0.3]), np.array([1.2, 0.7])
    e = expr.parse(source, 2)
    h = 1e-6
    for k, name in enumerate(("v1", "v2")):
        d = expr.derivative(e, name)
        assert expr.parse(expr.to_source(d), 2) == d, expr.to_source(d)
        step = h * np.eye(2)[k]
        fd = (expr.eval_scalar(e, PhasePoint.velocity(x, v + step))
              - expr.eval_scalar(e, PhasePoint.velocity(x, v - step))) / (2 * h)
        got = expr.eval_scalar(d, PhasePoint.velocity(x, v))
        assert got == pytest.approx(fd, rel=1e-8, abs=1e-8), (name, expr.to_source(d))
