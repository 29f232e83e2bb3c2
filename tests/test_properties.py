"""Property tests: both computation routes agree on generated systems.

Each drawn system has a fiber map v_i + 0.1*v_i*r_i(x, v), a symmetric
connection and a force, all built from helpers.random_source, and no
closed-form inverse, so the momentum route runs through Newton and
implicit differentiation. A change that lets one route borrow the
other's formulas, or that breaks one of them, shows up as a
disagreement on some draw, and the flip-beta-term mutation must keep
failing the beta cross check wherever it changes beta at all. The
transport check's six relations and the gauge report's invariant and
rule rows must hold on every draw at the CLI's tolerances.

The raw form of an expression, evaluated under floating-point traps at
finite np.float64 points or over finite float arrays, must trap, give a
non-finite value or give the checked form's bits, and never a finite
value where the checked form raises.

expr.parse must give the trees of the reference parser
(tests/reference_parser.py) on generated sources, valid or broken, or
raise its exception with its message, line and column.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
import reference_parser
from normality_lab import cli, expr
from normality_lab.calculus import relative_deviation
from normality_lab.errors import (DegeneratePoint, DimensionError, EvalError,
                                  ExprSyntaxError, MixedRepresentationError,
                                  NonConvergence, SingularMetric)
from normality_lab.experiments import gauge_invariance_report
from normality_lab.normality import CROSS_FIELDS, cross_check_all
from normality_lab.phase import PhasePoint
from normality_lab.system import SystemDef

CROSS_TOLERANCE = 1e-6
SKIPPED = (DegeneratePoint, SingularMetric, NonConvergence)
# the mutation counts as visible once it moves the velocity-route beta
# by this much, far above the route disagreement allowed above
VISIBLE_SHIFT = 1e-4

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40,
                             database=None)


def _symmetric_connection(rng, n):
    entries = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    source = helpers.random_source(rng, n, depth=1)
                    entries[(k, i, j)] = f"0.2*({source})"
    return helpers.make_connection(n, entries)


@st.composite
def systems_at_points(draw):
    """(SystemDef, velocity point) for n = 2..4, from a drawn seed."""
    n = draw(st.integers(min_value=2, max_value=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    legendre = helpers.parse_all(
        [f"v{i + 1} + 0.1*v{i + 1}*({helpers.random_source(rng, n, depth=2)})"
         for i in range(n)], n)
    force = helpers.parse_all(
        [f"0.3*({helpers.random_source(rng, n, depth=2)})" for _ in range(n)], n)
    connection = _symmetric_connection(rng, n)
    sysdef = SystemDef(n, legendre, force=force, connection=connection)
    x, v = helpers.random_box_point(rng, n)
    return sysdef, PhasePoint.velocity(x, v)


def _cross(sysdef, pt, mutate=None):
    try:
        return cross_check_all(sysdef, pt, mutate=mutate)
    except SKIPPED:
        assume(False)


@PROPERTY_SETTINGS
@given(systems_at_points())
def test_routes_agree_on_every_field(case):
    sysdef, pt = case
    out = _cross(sysdef, pt)
    for field in CROSS_FIELDS:
        assert out[field].deviation < CROSS_TOLERANCE, field


@PROPERTY_SETTINGS
@given(systems_at_points())
def test_flipped_beta_term_fails_beta_when_it_matters(case):
    sysdef, pt = case
    clean = _cross(sysdef, pt)
    mutated = _cross(sysdef, pt, mutate="flip-beta-term")
    shift = relative_deviation(clean["beta"].velocity,
                               mutated["beta"].velocity)
    if shift > VISIBLE_SHIFT:
        assert mutated["beta"].deviation > CROSS_TOLERANCE
    # the mutation touches the velocity route's beta and nothing else
    for field in CROSS_FIELDS:
        if field not in ("beta", "eta"):
            assert np.array_equal(clean[field].velocity,
                                  mutated[field].velocity), field


@PROPERTY_SETTINGS
@given(systems_at_points(), st.integers(0, 2**32 - 1))
def test_transport_relations_hold(case, seed):
    # the transport check's own rows: its random scalars, one context
    # pair, the four transport identities and two curvature relations
    sysdef, pt = case
    draws = cli._transport_draws(np.random.default_rng(seed), sysdef.n)
    try:
        _, (rows,) = cli._transport_rows(sysdef, None, pt.x, pt.fiber,
                                         [draws], cli.DEFAULT_TOLERANCES)
    except SKIPPED:
        assume(False)
    assert len(rows) == 6
    for row in rows:
        assert row[2], row


@PROPERTY_SETTINGS
@given(systems_at_points(), st.integers(0, 2**32 - 1))
def test_gauge_invariants_and_rules_hold(case, seed):
    sysdef, pt = case
    tensor = _symmetric_connection(np.random.default_rng(seed), sysdef.n)
    try:
        report = gauge_invariance_report(sysdef, [pt], gauge=tensor)
    except SKIPPED:
        assume(False)
    tol = cli.DEFAULT_TOLERANCES
    for row in report.rows:
        if row.kind == "invariant":
            assert row.deviation <= tol["gauge-exact"], row
        elif row.kind == "rule":
            assert row.deviation <= tol["gauge"], row


# Sources in x1, x2, v1, v2: helpers.random_source from a drawn seed, which
# is finite on the sampling box, or any tree of the language, which
# takes ln, sqrt, / and ^ of anything
_NAMES = ("x1", "x2", "v1", "v2")
_LEAVES = st.sampled_from([*_NAMES, "0", "0.5", "2", "700", "1e308"])
_ANY_SOURCE = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from("+-*/^"), inner).map(
        lambda t: f"({t[0]}{t[1]}{t[2]})"),
    st.tuples(st.sampled_from(sorted(expr._FUNCTION_NAMES)), inner).map(
        lambda t: f"{t[0]}({t[1]})"),
    inner.map(lambda a: f"(-{a})")), max_leaves=8)
_SOURCES = st.one_of(_ANY_SOURCE, st.integers(0, 2**32 - 1).map(
    lambda seed: helpers.random_source(np.random.default_rng(seed), 2,
                                       depth=3)))
_FINITE = st.one_of(st.floats(-3.0, 3.0),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 1.0, -1.0]))
TRAPS = dict(over="raise", divide="raise", invalid="raise", under="ignore")


@st.composite
def finite_envs(draw):
    """x1, x2, v1, v2 as np.float64 scalars, or as float arrays of one
    length."""
    size = draw(st.sampled_from([None, 1, 3, 6]))
    if size is None:
        return {name: np.float64(draw(_FINITE)) for name in _NAMES}
    return {name: np.array(draw(st.lists(_FINITE, min_size=size,
                                         max_size=size)))
            for name in _NAMES}


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(_SOURCES, finite_envs())
def test_raw_form_traps_or_gives_the_checked_bits(source, env):
    e = expr.parse(source, 2)
    try:
        with np.errstate(all="ignore"):
            want = e.evaluate(env)
    except EvalError:
        want = None
    try:
        with np.errstate(**TRAPS):
            got = e.evaluate_raw(env)
    except FloatingPointError:
        return
    if not np.all(np.isfinite(got)):
        return
    assert want is not None, source
    assert np.shape(got) == np.shape(want), source
    assert np.array_equal(got, want), source
    assert (np.asarray(got, dtype=float).tobytes()
            == np.asarray(want, dtype=float).tobytes()), source


# Sources over the variables of drawn kinds: a tree of the language,
# its x and v renamed to the kinds, then up to four edits, each an
# insertion of blanks, a stray character or a token, a dropped character
# or parenthesis, a doubled operator, or a second tree in p joined on
_INSERTS = st.sampled_from([
    " ", "  ", "\n", "\t", "\r\n", " \n\n  ", "@", "\u00e9", "#", "$", ".",
    "(", ")", "((", "))", "+", "-", "*", "/", "^", "**", "--", "1.5.2",
    "1e400", "2.", ".5e3", "1e", "007", "x0", "x3", "v3", "p1", "p2", "v1",
    "u1", "x", "_1", "sin", "bogus", "2x1"])
_KINDS = st.sampled_from([("x", "v", "p")] * 3 + [("x", "v"), ("x", "p"),
                                                  ("u",)])


@st.composite
def sources_and_kinds(draw):
    kinds = draw(_KINDS)
    source = draw(_ANY_SOURCE)
    if "v" not in kinds:
        source = re.sub(r"[xv](?=\d)",
                        lambda m: kinds[-1] if m[0] == "v" else kinds[0],
                        source)
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(["insert", "drop", "drop paren",
                                     "double op", "join p"]))
        if edit == "insert":
            at = draw(st.integers(0, len(source)))
            source = source[:at] + draw(_INSERTS) + source[at:]
        elif edit == "join p":
            other = re.sub(r"v(?=\d)", "p", draw(_ANY_SOURCE))
            source += draw(st.sampled_from("+-*/^")) + other
        else:
            chars = {"drop": "", "drop paren": "()",
                     "double op": "+-*/^"}[edit]
            spots = [i for i, c in enumerate(source)
                     if not chars or c in chars]
            if spots:
                at = draw(st.sampled_from(spots))
                put = source[at] * 2 if edit == "double op" else ""
                source = source[:at] + put + source[at + 1:]
    return source, draw(st.integers(1, 3)), kinds


def _parsed(parse, source, dimension, kinds):
    """The tree and fields of the parse, or the error it raises."""
    try:
        e = parse(source, dimension, kinds)
    except (ExprSyntaxError, DimensionError, MixedRepresentationError) as err:
        return (type(err), str(err), getattr(err, "line", None),
                getattr(err, "column", None))
    return e.root, e.dimension, e.kinds, e.fiber_kind


@settings(derandomize=True, deadline=None, max_examples=1000, database=None)
@given(sources_and_kinds())
def test_parser_gives_the_reference_trees_and_errors(case):
    assert (_parsed(expr.parse, *case)
            == _parsed(reference_parser.parse, *case))


def _reference_depth(tokens):
    """The depth of the tree parse builds from tokens, counting each
    parenthesized group: a recursive descent of parse's grammar."""
    tokens = tokens + [""]
    pos = 0

    def spine(operators, operand):
        nonlocal pos
        depth = operand()
        while tokens[pos] in operators:
            pos += 1
            depth = max(depth, operand()) + 1
        return depth

    def expression():
        return spine(("+", "-"), lambda: spine(("*", "/"), factor))

    def factor():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "-":
            return factor() + 1
        depth = 1
        if tok == "(" or tok in expr._FUNCTION_NAMES:
            pos += tok != "("
            depth = expression() + 1
            assert tokens[pos] == ")"
            pos += 1
        if tokens[pos] == "^":
            pos += 1
            depth = max(depth, factor()) + 1
        return depth

    depth = expression()
    assert tokens[pos] == ""
    return depth


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(st.lists(_ANY_SOURCE, min_size=1, max_size=5),
       st.lists(st.sampled_from("+-*/^"), min_size=4, max_size=4),
       st.booleans())
def test_the_depth_check_gives_the_depth_of_the_tree(parts, operators,
                                                     printed):
    # sources joined by operators, as drawn (every group parenthesized)
    # or as printed (the parentheses precedence needs only)
    if printed:
        parts = [expr.to_source(expr.parse(part, 2)) for part in parts]
    source = parts[0] + "".join(op + part
                                for op, part in zip(operators, parts[1:]))
    depth = _reference_depth(expr._TOKEN_RE.findall(source))
    # in one group under minuses up to MAX_DEPTH levels it parses; one
    # more minus passes the bound
    bounded = "-" * (expr.MAX_DEPTH - 1 - depth) + f"({source})"
    expr.parse(bounded, 2)
    with pytest.raises(ExprSyntaxError, match="nests deeper than 100 levels"):
        expr.parse("-" + bounded, 2)
