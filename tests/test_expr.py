"""Parser and evaluator behavior, checked against Python's own eval."""

import copy
import pickle
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from normality_lab import expr, jets, system
from normality_lab.errors import (DimensionError, EvalError, ExprSyntaxError,
                                  MixedRepresentationError)
from normality_lab.sysfile import read_system_file

import reference_parser
from helpers import float_env, jet_at, python_eval, random_source, walk_eval

FIXTURES = Path(__file__).parent / "fixtures"


def test_number_and_variable():
    e = expr.parse("v1", 2)
    assert e.evaluate(float_env([0.0, 0.0], [3.0, 4.0])) == 3.0
    assert expr.parse("2.5", 1).evaluate(float_env([0.0], [0.0])) == 2.5


def test_precedence_and_associativity():
    env = float_env([2.0], [3.0])
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
        got = expr.parse(src, 1).evaluate(env)
        assert got == pytest.approx(want), src


def test_functions():
    env = float_env([0.5], [1.0])
    assert expr.parse("sin(x1)", 1).evaluate(env) == pytest.approx(np.sin(0.5))
    assert expr.parse("ln(exp(x1))", 1).evaluate(env) == pytest.approx(0.5)
    assert expr.parse("sqrt(v1)", 1).evaluate(env) == 1.0
    assert expr.parse("tanh(0)", 1).evaluate(env) == 0.0


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


# every message keeps its text, line and column; positions count from
# 1, and a column restarts after each newline
BAD_SOURCES = [
    ("v1 + + v2", ExprSyntaxError, "unexpected '+' (line 1, column 6)"),
    ("sin v1", ExprSyntaxError,
     "function sin needs an argument list (line 1, column 1)"),
    ("(v1", ExprSyntaxError, "expected ')' (line 1, column 4)"),
    ("v1 @ v2", ExprSyntaxError, "unexpected character '@' (line 1, column 4)"),
    ("bogus(v1)", ExprSyntaxError,
     "unknown identifier 'bogus' (line 1, column 1)"),
    ("", ExprSyntaxError, "unexpected end of input (line 1, column 1)"),
    ("   ", ExprSyntaxError, "unexpected end of input (line 1, column 4)"),
    ("v1 v2", ExprSyntaxError, "unexpected 'v2' (line 1, column 4)"),
    ("1.5.2", ExprSyntaxError, "unexpected '.2' (line 1, column 4)"),
    (")", ExprSyntaxError, "unexpected ')' (line 1, column 1)"),
    ("v1 +", ExprSyntaxError, "unexpected end of input (line 1, column 5)"),
    ("2 ^ ^ 3", ExprSyntaxError, "unexpected '^' (line 1, column 5)"),
    ("v1 + é", ExprSyntaxError, "unexpected character 'é' (line 1, column 6)"),
    # a bad character is reported before any parse error
    ("v1 + + @", ExprSyntaxError,
     "unexpected character '@' (line 1, column 8)"),
    ("v1 +\n  * v2", ExprSyntaxError, "unexpected '*' (line 2, column 3)"),
    ("v1\n+ v2\n+ $", ExprSyntaxError,
     "unexpected character '$' (line 3, column 3)"),
    ("v1\t+\r\n\tsin(v2", ExprSyntaxError, "expected ')' (line 2, column 8)"),
    ("v1 +\n\n  (v2 * )", ExprSyntaxError, "unexpected ')' (line 3, column 9)"),
    ("v1\n\n\n#", ExprSyntaxError, "unexpected character '#' (line 4, column 1)"),
    ("x1 * \n  2 @ (", ExprSyntaxError,
     "unexpected character '@' (line 2, column 5)"),
    ("\n\nexp", ExprSyntaxError,
     "function exp needs an argument list (line 3, column 1)"),
    ("x0", DimensionError,
     "variable x0 out of range for dimension 2 (line 1, column 1)"),
    ("x1 +\n v3", DimensionError,
     "variable v3 out of range for dimension 2 (line 2, column 2)"),
    ("v1 +\n p2", MixedRepresentationError,
     "expression mixes v and p variables (line 2, column 2)"),
    # a literal that overflows would print as inf, which does not reparse
    ("1e400*v1", ExprSyntaxError, "number 1e400 overflows (line 1, column 1)"),
]


@pytest.mark.parametrize("source, error, message", BAD_SOURCES)
def test_bad_source_messages(source, error, message):
    with pytest.raises(error) as err:
        expr.parse(source, 2)
    assert str(err.value) == message
    if error is ExprSyntaxError:
        line, column = map(int, re.findall(r"\d+", message)[-2:])
        assert (err.value.line, err.value.column) == (line, column)


def test_parser_gives_the_reference_trees_on_every_file_source(tmp_path,
                                                               monkeypatch):
    # every source of every fixture and of the benchmark's workload files
    # parses to the tree and fiber kind of the reference parser
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    import workloads
    paths = sorted(FIXTURES.glob("*.system"))
    for workload in workloads.WORKLOADS:
        workloads.write_workload(workload, 7, str(tmp_path / workload))
        paths += sorted((tmp_path / workload).glob("*.system"))
    calls, parse = [], expr.parse
    monkeypatch.setattr(expr, "parse", lambda source, dimension, kinds: (
        calls.append((source, dimension, kinds)) or parse(source, dimension,
                                                          kinds)))
    for path in paths:
        read_system_file(str(path))
    assert len(calls) > 400
    for source, dimension, kinds in calls:
        got = parse(source, dimension, kinds)
        want = reference_parser.parse(source, dimension, kinds)
        assert (got, got.kinds, got.fiber_kind) == (
            want, want.kinds, want.fiber_kind), source


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
    # at a momentum point only p1.. are bound
    with pytest.raises(EvalError, match="unbound variable v1"):
        e.evaluate(float_env([0.0, 0.0], [1.0, 1.0], kind="p"))


def test_eval_domain_errors():
    env = float_env([0.0], [1.0])
    with pytest.raises(EvalError):
        expr.parse("ln(x1)", 1).evaluate(env)
    with pytest.raises(EvalError):
        expr.parse("sqrt(0-v1)", 1).evaluate(env)
    with pytest.raises(EvalError):
        expr.parse("v1/x1", 1).evaluate(env)
    with pytest.raises(EvalError):
        expr.parse("(0-v1)^0.5", 1).evaluate(env)


@pytest.mark.parametrize("source", [
    "sin(x1*x1)", "cos(x1*x1)", "ln(x1*x1)", "sqrt(x1*x1)", "exp(x1*x1)",
    "tanh(x1*x1)", "(x1*x1)^2", "(x1*x1)^(0-1)"])
def test_overflowed_arguments_raise_eval_error(source):
    # x1*x1 overflows to inf; no function may turn that into a value or
    # fail with anything but EvalError, on floats or on jets
    e = expr.parse(source, 1)
    with pytest.raises(EvalError):
        e.evaluate(float_env([1e200], [1.0]))
    with pytest.raises(EvalError):
        jet_at(e, [1e200], [1.0])


@pytest.mark.parametrize("source, x1", [
    ("x1^2", 1e200), ("x1^3.5", 1e100), ("exp(x1)*exp(x1)", 400.0),
    ("exp(x1)+exp(x1)", 709.7), ("sin(x1)*1e308*10", 1.0)])
def test_overflow_inside_an_expression_raises_eval_error(source, x1):
    # the arguments are finite and the overflow happens in a power or
    # in arithmetic on function values, which numpy evaluates for
    # floats too. On floats no finite value comes out: a power raises
    # EvalError and arithmetic gives inf, which float callers check
    # with numpy's warnings silenced; on jets it must be an EvalError
    # and no RuntimeWarning
    e = expr.parse(source, 1)
    with np.errstate(all="ignore"):
        try:
            value = e.evaluate(float_env([x1], [1.0]))
        except EvalError:
            value = np.inf
    assert not np.isfinite(value)
    with pytest.raises(EvalError):
        jet_at(e, [x1], [1.0])


def test_constant_exponent_folds_without_warnings():
    # derivative folds a constant exponent to a float, as load does for
    # a Lagrangian's fiber map
    # an exponent that folds to inf would print as inf, which does not
    # reparse
    with pytest.raises(EvalError, match="non-finite constant exponent"):
        expr.derivative(expr.parse("x1^(exp(400)*exp(400))", 1), "x1")
    with pytest.raises(EvalError, match="power result"):
        expr.derivative(expr.parse("x1^(2^2000)", 1), "x1")


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
        env = float_env(x, v)
        mine = e.evaluate(env)
        ref = python_eval(src, env)
        assert mine == pytest.approx(ref, rel=1e-12, abs=1e-12), src


def test_derivative_gives_exact_gradient_jets():
    # d/dv1 of (0.25 v1^4 + x1 v1^2) is v1^3 + 2 x1 v1; the derivative
    # tree must reproduce the hand-written gradient's full jet.
    lag = expr.parse("0.25*v1^4 + x1*v1^2", 1)
    hand = expr.parse("v1^3 + 2*x1*v1", 1)
    got = jet_at(expr.derivative(lag, "v1"), [0.8], [1.3])
    want = jet_at(hand, [0.8], [1.3])
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
        fd = (e.evaluate(float_env(x, v + step))
              - e.evaluate(float_env(x, v - step))) / (2 * h)
        got = d.evaluate(float_env(x, v))
        assert got == pytest.approx(fd, rel=1e-8, abs=1e-8), (name, expr.to_source(d))


# The compiled closures against the tree walk they replaced: the same
# bits, or the same error, in every algebra the evaluator takes

def _bits(value):
    if value.__class__ is jets.Dense:
        return ("Dense", value.order) + tuple(
            None if a is None else _bits(a)
            for a in (value.val, value.grad, value.hess))
    return (value.__class__.__name__, np.shape(value),
            np.asarray(value).tobytes())


def _outcome(evaluate, env):
    try:
        with np.errstate(all="ignore"):     # float callers check the values
            return _bits(evaluate(env))
    except EvalError as e:
        return type(e), str(e)


def _envs(e, rng, **fixed):
    """Bindings of every variable e may read, x in [-1, 1] and the rest
    in [0.5, 1.5] (`fixed` overrides a variable at every node): floats,
    float arrays over 8 nodes, and jets.seeds data at orders 0, 1 and 2,
    for a lone point and for a batch of 8."""
    names = [f"{k}{i + 1}" for k in e.kinds for i in range(e.dimension)]
    lo = np.array([[-1.0] if name[0] == "x" else [0.5] for name in names])
    batch = lo + rng.random((len(names), 8)) * np.where(lo < 0.0, 2.0, 1.0)
    for name, value in fixed.items():
        batch[names.index(name)] = value
    point = batch[:, 3]
    envs = [dict(zip(names, map(float, point))), dict(zip(names, batch))]
    for order in (0, 1, 2):
        for values in (point, batch):
            envs.append(dict(zip(names, jets.seeds(values, order))))
    return envs


def _assert_same_as_walk(e, envs):
    for env in envs:
        assert _outcome(e.evaluate, env) == _outcome(
            lambda env: walk_eval(e.root, env), env), expr.to_source(e)


def _fixture_components():
    for path in sorted(FIXTURES.glob("*.system")):
        doc = read_system_file(str(path))
        sd = doc.sysdef
        yield from (f for f in (*sd.legendre, *sd.force, *sd.connection.flat,
                                *(sd.v_inverse or ()),
                                *(() if sd.gauge is None else sd.gauge.flat),
                                *(doc.surface or ()), doc.nu)
                    if isinstance(f, expr.Expression))


def test_compiled_evaluation_has_the_bits_of_the_tree_walk():
    rng = np.random.default_rng(20261019)
    for _ in range(150):
        e = expr.parse(random_source(rng, 3, kinds=("x", "v"), depth=3), 3)
        _assert_same_as_walk(e, _envs(e, rng))
    components = list(_fixture_components())
    assert len(components) > 100
    for e in components:
        _assert_same_as_walk(e, _envs(e, rng))


@pytest.mark.parametrize("source, fixed, message", [
    ("x1 + v2*v3", {}, "unbound variable v3"),
    ("v1 + ln(x1)", {"x1": -0.5}, "ln of non-positive"),
    ("v1/(x1 - x1)", {}, "division by zero"),
    ("v2*x1^400", {"x1": 10.0}, "non-finite power result"),
])
def test_compiled_evaluation_raises_what_the_tree_walk_raises(source, fixed,
                                                              message):
    e = expr.parse(source, 3)
    # no environment binds v3
    envs = [{name: value for name, value in env.items() if name != "v3"}
            for env in _envs(e, np.random.default_rng(7), **fixed)]
    _assert_same_as_walk(e, envs)
    for env in envs:
        with pytest.raises(EvalError, match=message):
            with np.errstate(all="ignore"):
                e.evaluate(env)


def test_the_compiled_form_stays_out_of_equality_repr_pickles_and_copies():
    source = "sin(x1)*v2 - 0.5*v1^2/(1 + x2*x2)"
    env = float_env([0.3, -0.2], [1.1, 0.9])
    e = expr.parse(source, 2)
    value, raw = e.evaluate(env), e.evaluate_raw(env)
    fresh = expr.parse(source, 2)
    for other in (e, pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
        assert other == fresh and fresh == other
        assert hash(other) == hash(fresh)
        assert repr(other) == repr(fresh)
        assert other.evaluate(env) == value == raw == other.evaluate_raw(env)
    # nodes compare, hash and print by their fields, as frozen
    # dataclasses did
    root = expr.parse("-x1^2 + sin(v1)", 1).root
    assert repr(root) == (
        "Binary(op='+', left=Unary(operand=Binary(op='^', left=Var(kind='x',"
        " index=1), right=Num(value=2.0))), right=Call(fn='sin',"
        " arg=Var(kind='v', index=1)))")
    assert hash(root.right.arg) == hash(("v", 1))
    assert root.right == expr.Call("sin", expr.Var("v", 1)) != root.left


# The raw form: bare numpy ufuncs, checked by floating-point traps

TRAPS = dict(over="raise", divide="raise", invalid="raise", under="ignore")


def _raw_outcome(e, env):
    """"trap", or the shape and bits of the raw value under TRAPS."""
    try:
        with np.errstate(**TRAPS):
            value = e.evaluate_raw(env)
    except FloatingPointError:
        return "trap"
    return np.shape(value), np.asarray(value, dtype=float).tobytes()


def _checked_outcome(e, env):
    """None where the checked form raises, else its shape and bits."""
    try:
        with np.errstate(all="ignore"):
            value = e.evaluate(env)
    except EvalError:
        return None
    return np.shape(value), np.asarray(value, dtype=float).tobytes()


# the last four hide their fault in a finite value without the traps;
# the constants are np.float64, so that 1e308*1e308 traps too
@pytest.mark.parametrize("source, hidden", [
    ("(x1-x1)^-1", False), ("(x1-2)^0.5", False), ("2^1024", False),
    ("tanh(exp(800*x1))", True), ("exp(-exp(1000*x1))", True),
    ("1/(1/(x1-x1))", True), ("x1*tanh(1e308*1e308)", True)])
def test_raw_form_traps_where_the_checked_form_raises(source, hidden):
    e = expr.parse(source, 1)
    for x1 in (np.float64(1.0), np.linspace(0.5, 1.0, 8)):
        env = {"x1": x1}
        assert _checked_outcome(e, env) is None
        assert _raw_outcome(e, env) == "trap"
        with np.errstate(all="ignore"):
            untrapped = e.evaluate_raw(env)
        assert np.all(np.isfinite(untrapped)) == hidden


def test_raw_form_has_the_bits_of_the_checked_form():
    # random sources and every fixture component at np.float64 points
    # and over float arrays, in the box and far outside it
    rng = np.random.default_rng(20261020)
    sources = [expr.parse(random_source(rng, 3, depth=3), 3)
               for _ in range(150)]
    traps = 0
    for e in sources + list(_fixture_components()):
        names = [f"{k}{i + 1}" for k in e.kinds for i in range(e.dimension)]
        for scale in (1.0, 1e3, 1e200):
            batch = scale * rng.uniform(-1.0, 1.0, (len(names), 8))
            for values in (batch[:, 0], batch):
                env = dict(zip(names, values))
                raw, checked = _raw_outcome(e, env), _checked_outcome(e, env)
                if raw == "trap":
                    traps += 1
                else:
                    assert raw == checked, expr.to_source(e)
    assert traps > 100


# Sources whose tree is `depth` levels deep, by shape: the left-deep
# spines of a sum, a product and a quotient, a power tower, nested
# calls, parenthesized groups and unary minus
DEEP = {
    "sum": lambda depth: "v1" + "+x1" * (depth - 1),
    "product": lambda depth: "v1" + "*v1" * (depth - 1),
    "quotient": lambda depth: "v1" + "/v1" * (depth - 1),
    "power": lambda depth: "^".join(["v1"] * depth),
    "calls": lambda depth: "sin(" * (depth - 1) + "v1" + ")" * (depth - 1),
    "groups": lambda depth: "(" * (depth - 1) + "v1" + ")" * (depth - 1),
    "minus": lambda depth: "-" * (depth - 1) + "v1",
}
# the column where each shape one level deeper passes the bound: the
# last token of a spine, or the ^, the call's "(", the "(" or the "-"
# that opens a level too many
PASSED_AT = {"sum": 301, "product": 301, "quotient": 301, "power": 300,
             "calls": 400, "groups": 100, "minus": 100}


@pytest.mark.parametrize("shape", DEEP)
def test_a_tree_at_the_depth_bound_derives_evaluates_and_prints(shape):
    # under Python's default recursion limit: the tree, and its
    # derivative as a Lagrangian's fiber map, compile, evaluate in every
    # algebra and print; one level more is a syntax error
    assert sys.getrecursionlimit() == 1000
    source = DEEP[shape](expr.MAX_DEPTH)
    e = expr.parse(source, 1, kinds=("x", "v"))
    assert expr.parse(expr.to_source(e), 1, kinds=("x", "v")) == e
    fiber_map, = system.lagrangian_to_legendre(e)
    dense = dict(zip(("x1", "v1"), jets.seeds(np.array([0.3, 1.2]), order=2)))
    for tree in (e, fiber_map):
        assert expr.to_source(tree)
        value = tree.evaluate({"x1": 0.3, "v1": 1.2})
        assert np.isfinite(value)
        with np.errstate(all="raise"):
            assert tree.evaluate_raw({"x1": np.float64(0.3),
                                      "v1": np.float64(1.2)}) == value
        jet = tree.evaluate(dense)      # a number, for a constant tree
        assert getattr(jet, "val", jet) == value
    with pytest.raises(ExprSyntaxError,
                       match="nests deeper than 100 levels") as err:
        expr.parse(DEEP[shape](expr.MAX_DEPTH + 1), 1, kinds=("x", "v"))
    assert (err.value.line, err.value.column) == (1, PASSED_AT[shape])


def test_the_depth_bound_names_where_it_is_passed():
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse("(" * 150 + "v1" + ")" * 150, 1)
    assert (err.value.line, err.value.column) == (1, expr.MAX_DEPTH)
    # a character that starts no token is reported first, as for any
    # other error
    with pytest.raises(ExprSyntaxError, match="unexpected character '@'"):
        expr.parse("v1" + "+x1" * 200 + "@", 1)


def test_the_first_error_in_token_order_is_reported():
    # one pass over the tokens, whatever the length of the source: an
    # unknown name before the bound is passed is reported, and the
    # hundredth open group passes the bound before the input ends
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse("foo" + "+x1" * 200, 1)
    assert str(err.value) == "unknown identifier 'foo' (line 1, column 1)"
    with pytest.raises(ExprSyntaxError) as err:
        expr.parse("(" * 100, 1)
    assert str(err.value) == ("expression nests deeper than 100 levels "
                              "(line 1, column 100)")
