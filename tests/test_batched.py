"""Batched Dense data, the batched Newton solve, the point functions
over a batched PhasePoint and the batched shift, each against its
scalar counterpart evaluated node by node."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import helpers
from normality_lab import experiments, expr, jets
from normality_lab import system as system_module
from normality_lab.calculus import (_curvature_relation,
                                    _dynamic_curvature_relation,
                                    _paired_contexts, relative_deviation)
from normality_lab.errors import (DegeneratePoint, DegenerateSurface,
                                  EvalError, IntegrationFailure,
                                  NonConvergence, SingularMetric,
                                  ValidationError)
from normality_lab.experiments import (ShiftRun, gauge_invariance_report,
                                       shift_integrate)
from normality_lab.normality import (CROSS_FIELDS, cross_check_all,
                                     momentum_bundle, normality_residuals,
                                     velocity_bundle)
from normality_lab.phase import PhasePoint
from normality_lab.sysfile import SHIFT_OPTIONS, read_system_file
from normality_lab.system import (NEWTON_TOL, PContext, SystemDef, VContext,
                                  _newton, lagrangian_to_legendre,
                                  legendre_forward, legendre_inverse, metric)

# every operator and function of the expression language; a and b are
# Dense data, c a constant (a float, or a float array over nodes)
OPERATIONS = {
    "a+b": lambda a, b, c: a + b,
    "a-b": lambda a, b, c: a - b,
    "a*b": lambda a, b, c: a * b,
    "a/b": lambda a, b, c: jets.true_div(a, b),
    "-a": lambda a, b, c: -a,
    "a+c": lambda a, b, c: a + c,
    "c+a": lambda a, b, c: c + a,
    "a-c": lambda a, b, c: a - c,
    "c-a": lambda a, b, c: c - a,
    "a*c": lambda a, b, c: a * c,
    "c*a": lambda a, b, c: c * a,
    "a/c": lambda a, b, c: jets.true_div(a, c),
    "c/a": lambda a, b, c: jets.true_div(c, a),
    "a^3": lambda a, b, c: jets.power(a, 3),
    "a^0.5": lambda a, b, c: jets.power(a, 0.5),
    "a^-1.5": lambda a, b, c: jets.power(a, -1.5),
    "a^b": lambda a, b, c: jets.power(a, b),
    "c^a": lambda a, b, c: jets.power(c, a),
    "c^2.5": lambda a, b, c: jets.power(c, 2.5),
    **{f"{name}(a)": (lambda fn: lambda a, b, c: fn(a))(fn)
       for name, fn in jets.FUNCTIONS.items()},
    **{f"{name}(c)": (lambda fn: lambda a, b, c: fn(c))(fn)
       for name, fn in jets.FUNCTIONS.items()},
}


def _parts(u):
    """(val, grad, hess) of Dense data; a constant has no derivatives."""
    if isinstance(u, jets.Dense):
        return np.asarray(u.val), u.grad, u.hess
    return np.asarray(u), None, None


def _assert_node_matches(got, want, k, nodes, what, tol):
    """Node k of batched parts against the parts of a single point; a
    constant result may come back unbatched."""
    for g, w in zip(got, want):
        if w is None:
            assert g is None, what
        else:
            g = np.broadcast_to(g, (nodes,) + w.shape)[k]
            assert helpers.rel_err(g, w) < tol, what


def test_array_jets_match_scalar_jets_elementwise():
    # one batched Dense against the same operation node by node, at
    # both orders: the batch axis leads the derivative axes
    rng = np.random.default_rng(31)
    nodes = 7
    values = rng.uniform(0.5, 1.5, (2, nodes))
    const = rng.uniform(0.5, 1.5, nodes)
    for order in (1, 2):
        a, b = jets.seeds(values, order=order)
        assert a.val.shape == (nodes,) and a.grad.shape == (nodes, 2)
        assert order == 1 or a.hess.shape == (nodes, 2, 2)
        for name, op in OPERATIONS.items():
            got = _parts(op(a, b, const))
            assert got[0].shape == (nodes,), name
            for k in range(nodes):
                sa, sb = jets.seeds(values[:, k], order=order)
                want = _parts(op(sa, sb, float(const[k])))
                _assert_node_matches(got, want, k, nodes,
                                     f"{name}, order {order}", 1e-15)


def test_expressions_over_array_jets_match_scalar_evaluation():
    rng = np.random.default_rng(32)
    nodes = 5
    for _ in range(40):
        source = helpers.random_source(rng, 2)
        e = expr.parse(source, 2, kinds=("x", "v"))
        x = rng.uniform(-1.0, 1.0, (2, nodes))
        v = rng.uniform(0.5, 1.5, (2, nodes))
        for order in (1, 2):
            seeded = jets.seeds(np.concatenate([x, v]), order=order)
            env = {"x1": seeded[0], "x2": seeded[1],
                   "v1": seeded[2], "v2": seeded[3]}
            got = _parts(e.evaluate(env))
            for k in range(nodes):
                s = jets.seeds(np.concatenate([x[:, k], v[:, k]]), order=order)
                want = _parts(e.evaluate(
                    {"x1": s[0], "x2": s[1], "v1": s[2], "v2": s[3]}))
                _assert_node_matches(got, want, k, nodes, source, 1e-14)


def test_numpy_never_builds_object_arrays_of_jets():
    (a,) = jets.seeds(np.array([[0.5, 1.0, 2.0]]), order=1)
    const = np.array([1.0, 2.0, 3.0])
    for out in (const + a, const * a, const - a, const / a,
                np.float64(2.0) * a, np.float64(2.0) - a):
        assert isinstance(out, jets.Dense)
        assert out.val.dtype == float and out.grad.dtype == float
        assert out.grad.shape == (3, 1)
    # nor takes Dense for a sequence: an object array keeps it whole
    (s,) = jets.seeds([0.5])
    assert isinstance(np.float64(2.0) * s, jets.Dense)
    assert np.array((s, s, s), dtype=object).shape == (3,)


def test_batch_with_one_bad_entry_raises():
    (a,) = jets.seeds(np.array([[0.5, 1.0, -0.3, 2.0]]), order=1)
    for fn in (jets.ln, jets.sqrt, lambda u: jets.power(u, 0.5),
               lambda u: jets.power(u, a)):
        with pytest.raises(EvalError, match="node 2"):
            fn(a)
    with pytest.raises(EvalError, match="node 1"):
        jets.true_div(1.0, a - 1.0)
    with pytest.raises(EvalError, match="node 1"):
        jets.true_div(a, a - 1.0)
    with pytest.raises(EvalError, match="node 3"):
        jets.exp(a * 400.0)
    with pytest.raises(EvalError, match="node 0"):
        jets.power(a - 0.5, -1.0)
    bad = np.array([0.1, 0.2, np.inf, 0.3])
    for name, fn in jets.FUNCTIONS.items():
        with pytest.raises(EvalError, match="node 2"):
            fn(bad)
        with pytest.raises(EvalError, match="node 2"):
            fn(jets.Dense(1, bad, np.ones((4, 1))))
    with pytest.raises(EvalError, match="node 2"):
        jets.power(bad, 2.0)
    with pytest.raises(EvalError, match="node 1"):
        jets.true_div(1.0, np.array([1.0, 0.0]))


def _momenta(sysdef, x, v):
    return np.stack([legendre_forward(sysdef, PhasePoint.velocity(
        x[k], v[k])).fiber for k in range(x.shape[0])])


@pytest.mark.parametrize("make", [helpers.sys_cubic, helpers.sys_lagrangian,
                                  helpers.sys_cubic3])
def test_batched_newton_agrees_with_scalar_solves(make, monkeypatch):
    # and evaluates the fiber map at a node exactly as often as the node
    # alone, the whole batch ungathered while every node iterates
    sysdef = make()
    n, nodes = sysdef.n, 9
    rng = np.random.default_rng(33)
    x = rng.uniform(-1.0, 1.0, (n, nodes)).T      # (nodes, n)
    v = rng.uniform(0.5, 1.5, (n, nodes)).T
    v[0] = 1e-3           # near the default guess p: converges first
    p = _momenta(sysdef, x, v)
    evaluated = []
    fiber_jets = system_module._fiber_jets

    def counted(sysdef, at, w, where=None):
        evaluated.append((len(np.atleast_2d(w)), np.shares_memory(at, x)))
        return fiber_jets(sysdef, at, w, where)

    monkeypatch.setattr(system_module, "_fiber_jets", counted)
    batched = _newton(sysdef, x, p)
    in_batch, evaluated[:] = list(evaluated), []
    assert batched.shape == (nodes, n)
    residual = np.abs(_momenta(sysdef, x, batched) - p)
    assert np.max(residual) <= NEWTON_TOL
    for k in range(nodes):
        alone = _newton(sysdef, x[k], p[k])
        assert np.max(np.abs(batched[k] - alone)) < 1e-12
    assert sum(count for count, _ in in_batch) == len(evaluated)
    assert all(shared == (count == nodes) for count, shared in in_batch)
    assert in_batch[0] == (nodes, True) and in_batch[-1][0] < nodes


def test_batched_newton_names_the_failing_node():
    # node 1 sits on the classic two-cycle of v^3 - 2v from guess 0
    L = [expr.parse("v1^3 - 2*v1", 1, kinds=("x", "v"))]
    cycling = SystemDef(1, L, newton_guess=[0.0])
    x = np.array([[0.3], [0.7], [-0.1]])
    p = np.array([[4.0], [-2.0], [5.0]])
    with pytest.raises(NonConvergence, match=r"x=\[0\.7\], p=\[-2\.0\] \(node 1\)"):
        _newton(cycling, x, p)

    degenerate = SystemDef(2, helpers.parse_all(
        ["v1 + v2*x1", "v1*x2 + v2"], 2))
    x = np.array([[0.5, 0.3], [1.0, 1.0], [0.2, 0.4]])  # node 1: x1*x2 = 1
    p = np.ones((3, 2))
    with pytest.raises(SingularMetric, match=r"x=\[1\.0, 1\.0\].*\(node 1\)"):
        _newton(degenerate, x, p)


def test_newton_names_a_raising_node_among_all_nodes():
    # node 0 converges at once; node 1 steps to v1 < -1, where the sqrt
    # raises while node 1 iterates alone
    L = helpers.parse_all(["v1 - 0.3*v1^3 + 0*sqrt(v1 + 1)", "v2"], 2)
    p = np.array([[0.0, 1.0], [-0.8, 1.0]])
    with pytest.raises(EvalError, match=r"^in L1: sqrt of negative value .* at "
                                        r"x=\[0\.0, 0\.0\], v=\[-1\.16\d*, 1\.0\]"
                                        r" \(node 1\)$"):
        _newton(SystemDef(2, L), np.zeros((2, 2)), p)


def _fixture(name):
    path = Path(__file__).parent / "fixtures" / f"{name}.system"
    return read_system_file(str(path)).sysdef


def _equal(a, b):
    return np.array_equal(a, b, equal_nan=True)


def _box(sysdef, count, seed):
    """count velocity points of the sampling box, (count, n) arrays, or
    one point, (n,) arrays, with count None."""
    rng = np.random.default_rng(seed)
    shape = (sysdef.n,) if count is None else (count, sysdef.n)
    return rng.uniform(-1.0, 1.0, shape), rng.uniform(0.5, 1.5, shape)


def _counting_fiber_jets(monkeypatch):
    """The node count of each evaluation of the fiber map in Newton."""
    counts = []
    fiber_jets = system_module._fiber_jets

    def counted(sysdef, at, w, where=None):
        counts.append(len(np.atleast_2d(w)))
        return fiber_jets(sysdef, at, w, where)

    monkeypatch.setattr(system_module, "_fiber_jets", counted)
    return counts


@pytest.mark.parametrize("count", [None, 16])
def test_newton_started_at_a_preimage_evaluates_the_map_once(monkeypatch,
                                                              count):
    sysdef = _fixture("cubic")
    x, v = _box(sysdef, count, 45)
    p = legendre_forward(sysdef, PhasePoint.velocity(x, v)).fiber
    counts = _counting_fiber_jets(monkeypatch)
    got = _newton(sysdef, x, p, start=v)
    assert counts == [1 if count is None else count]
    assert np.array_equal(got, v) and not np.shares_memory(got, v)


@pytest.mark.parametrize("count", [None, 16])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name", ["cubic", "cubic3", "pullback4_newton"])
def test_a_newton_pair_shares_its_velocity_context(name, order, count):
    # order 1 is the transport check's pair, order 2 the cross check's
    sysdef = _fixture(name)
    x, v = _box(sysdef, count, 46)
    vctx, pctx = _paired_contexts(sysdef, PhasePoint.velocity(x, v), order)
    assert pctx.inner is vctx


@pytest.mark.parametrize("count", [None, 16])
def test_a_closed_form_pair_keeps_its_own_inner_context(count):
    sysdef = _fixture("linear_mode_a")
    x, v = _box(sysdef, count, 47)
    vctx, pctx = _paired_contexts(sysdef, PhasePoint.velocity(x, v), 2)
    assert pctx.inner is not vctx
    assert np.array_equal(pctx.inner.fiber, pctx.V.val)


def _pair_rows(vctx, pctx):
    """The rows of a context pair: the two curvature relations at order
    1, the cross fields and their deviations at order 2."""
    if vctx.order == 1:
        return [relation(vctx, pctx).deviation for relation in
                (_dynamic_curvature_relation, _curvature_relation)]
    vb, pb = velocity_bundle(vctx), momentum_bundle(pctx)
    return [value for field in CROSS_FIELDS for value in (
        getattr(pb, field),
        relative_deviation(getattr(vb, field), getattr(pb, field),
                           vctx.batch))]


@pytest.mark.parametrize("order", [1, 2])
def test_a_node_past_the_tolerance_steps_and_gets_a_fresh_inner(monkeypatch,
                                                               order):
    sysdef = _fixture("cubic")
    count, bad = 16, 5
    x, v = _box(sysdef, count, 48)
    p = legendre_forward(sysdef, PhasePoint.velocity(x, v)).fiber.copy()
    p[bad, 0] += 1e3 * NEWTON_TOL
    counts = _counting_fiber_jets(monkeypatch)
    vctx = VContext(sysdef, x, v, order)
    pctx = PContext(sysdef, x, p, order, vctx)
    # the first evaluation over every node, then node `bad` alone
    assert counts[0] == count and len(counts) > 1
    assert all(c == 1 for c in counts[1:])
    assert pctx.inner is not vctx
    others = np.arange(count) != bad
    assert np.array_equal(pctx.inner.fiber[others], v[others])
    assert not np.array_equal(pctx.inner.fiber[bad], v[bad])
    rows = _pair_rows(vctx, pctx)
    for k in range(count):
        lone_v = VContext(sysdef, x[k], v[k], order)
        lone_p = PContext(sysdef, x[k], p[k], order, lone_v)
        assert (lone_p.inner is lone_v) == (k != bad)
        for got, alone in zip(rows, _pair_rows(lone_v, lone_p)):
            assert _equal(got[k], alone), k


@pytest.mark.parametrize("name", ["cubic", "cubic3", "lagrangian",
                                  "linear_mode_a", "identity_full"])
def test_point_functions_give_a_batch_the_bits_of_its_points(name):
    sysdef = _fixture(name)
    n, count = sysdef.n, 5
    rng = np.random.default_rng(41)
    batch = PhasePoint.velocity(rng.uniform(-1.0, 1.0, (count, n)),
                                rng.uniform(0.5, 1.5, (count, n)))
    alone = [PhasePoint.velocity(x, v) for x, v in zip(batch.x, batch.fiber)]

    image = legendre_forward(sysdef, batch)
    images = [legendre_forward(sysdef, pt) for pt in alone]
    assert _equal(image.x, batch.x)
    assert _equal(image.fiber, [p.fiber for p in images])

    inverse = legendre_inverse(sysdef, image)
    for k, p in enumerate(images):
        lone = legendre_inverse(sysdef, p)
        assert _equal(inverse.point.x[k], lone.point.x)
        assert _equal(inverse.point.fiber[k], lone.point.fiber)
        assert _equal(inverse.dv_dp[k], lone.dv_dp)
        assert _equal(inverse.dv_dx[k], lone.dv_dx)

    for points, singles in ((batch, alone), (image, images)):
        pair = metric(sysdef, points)
        for k, pt in enumerate(singles):
            lone = metric(sysdef, pt)
            assert _equal(pair.lower[k], lone.lower)
            assert _equal(pair.upper[k], lone.upper)
            assert pair.product_deviation[k] == lone.product_deviation

    cross = cross_check_all(sysdef, batch)
    residuals = normality_residuals(sysdef, batch)
    for k, pt in enumerate(alone):
        for field, lone in cross_check_all(sysdef, pt).items():
            assert _equal(cross[field].velocity[k], lone.velocity), field
            assert _equal(cross[field].momentum[k], lone.momentum), field
            assert cross[field].deviation[k] == lone.deviation, field
        for got, lone in zip(residuals, normality_residuals(sysdef, pt)):
            assert got.check_id == lone.check_id
            assert got.norm[k] == lone.norm and got.passed[k] == lone.passed
            assert got.decisive == lone.decisive

    gauge = sysdef.gauge
    if gauge is None:
        gauge = helpers.make_connection(n, {(0, 0, 0): "0.3*x1",
                                            (n - 1, 0, 1): "0.1*v1"})
    report = gauge_invariance_report(sysdef, alone, gauge)
    singles = [gauge_invariance_report(sysdef, [pt], gauge) for pt in alone]
    assert report.points == count
    for row in report.rows:
        assert row.deviation == max(s.row(row.quantity).deviation
                                    for s in singles), row.quantity

    # a point and a batch do not mix in one PhasePoint
    with pytest.raises(ValidationError):
        PhasePoint.velocity(batch.x, batch.fiber[0])
    with pytest.raises(ValidationError):
        PhasePoint.momentum(batch.x[0], batch.fiber)


def test_shift_failure_names_the_front():
    blow = SystemDef(2, helpers.parse_all(["v1", "v2"], 2),
                     helpers.parse_all(["0", "v2^3"], 2),
                     helpers.make_connection(2))
    run = ShiftRun(surface=helpers.parse_surface(["u1", "0"]), nu=1.0,
                   u_samples=3, t_final=1.0, time_steps=4)
    with pytest.raises(IntegrationFailure,
                       match=r"front of 3 nodes \(u from \[0\.0\] to \[1\.0\]\)"
                             r" aborted: Required step size"):
        shift_integrate(blow, run)


def test_non_finite_flow_names_the_node():
    # x1*x1 overflows to inf at every node but the first, without any
    # function to catch it; the right-hand side must not pass it on
    system = SystemDef(2, helpers.parse_all(["v1", "v2"], 2),
                       helpers.parse_all(["0", "x1*x1*v2"], 2))
    run = ShiftRun(surface=helpers.parse_surface(["1e200*u1", "0"]),
                   nu=1.0, u_samples=3, t_final=1.0, time_steps=2)
    with pytest.raises(EvalError, match=r"x=\[5e\+199, 0\.0\], v=\[0\.0, 1\.0\]"
                                        r" \(node 1, u=\[0\.5\]\)"):
        shift_integrate(system, run)


def test_overflowing_position_names_the_node():
    # a velocity of 1e308 overflows the integrator's step estimates and
    # the positions turn non-finite while the velocity and the force stay
    # finite; the front once passed with nan positions and zero deviations.
    # The integration runs under one errstate, so scipy's overflowing step
    # estimates give no numpy warning either
    system = SystemDef(2, helpers.parse_all(["v1", "v2"], 2))
    run = ShiftRun(surface=helpers.parse_surface(["u1", "0"]), nu=1e308,
                   u_samples=3, t_final=2.0, time_steps=4)
    with pytest.raises(EvalError, match=r"position, velocity or force"
                                        r" at t=.*x=\[0\.0, (inf|nan)\].*"
                                        r"\(node 0, u=\[0\.0\]\)"):
        shift_integrate(system, run)


# a force with a ConstFunc component, over a front of five nodes
RHS_FORCE = [expr.parse("0.5*v2^2*(1 + x1)", 2),
             system_module.ConstFunc(0.25, 2)]
RHS_NODES = np.linspace(0.0, 1.0, 5)[:, None]


def _raw_rhs(force, y):
    with np.errstate(**experiments._TRAPS):     # as _flow runs the raw mode
        return experiments._rhs(force, RHS_NODES, True)(0.3, y.ravel())


def test_shift_rhs_is_the_velocity_and_the_force():
    rng = np.random.default_rng(11)
    rhs = experiments._rhs(RHS_FORCE, RHS_NODES, True)
    for _ in range(2):      # each call refills the buffer the names read
        y = rng.uniform(-1.0, 1.0, 5 * 2 * 2)
        x, v = y.reshape(5, 2, 2).transpose(1, 2, 0)
        force = system_module._values(RHS_FORCE, system_module._env(x, v, "v"),
                                      (5,))
        with np.errstate(**experiments._TRAPS):
            raw = rhs(0.3, y)
        checked = experiments._rhs(RHS_FORCE, RHS_NODES, False)(0.3, y)
        assert raw.tobytes() == checked.tobytes() == np.stack(
            [v.T, force], axis=1).tobytes()


def test_shift_rhs_names_a_non_finite_node():
    y = np.ones((5, 2, 2))
    y[3, 0, 0] = np.nan
    with pytest.raises(EvalError, match=re.escape(
            "non-finite trajectory position, velocity or force at t=0.3, "
            "x=[nan, 1.0], v=[1.0, 1.0] (node 3, u=[0.75])")):
        experiments._rhs(RHS_FORCE, RHS_NODES, False)(0.3, y.ravel())
    # the raw mode checks the state alone
    with pytest.raises(FloatingPointError):
        _raw_rhs(RHS_FORCE, y)


def _checked_only(monkeypatch):
    """Make every raw evaluation trap, so that every front is integrated
    again with the checked right-hand side."""
    def trap(self, env):
        raise FloatingPointError
    monkeypatch.setattr(expr.Expression, "evaluate_raw", trap)
    monkeypatch.setattr(system_module.ConstFunc, "evaluate_raw", trap)


def _rhs_error(force, y):
    with pytest.raises(EvalError) as err:
        with np.errstate(all="ignore"):     # as _flow runs the checked mode
            experiments._rhs(force, RHS_NODES, False)(0.3, y.ravel())
    return str(err.value)


# x1 falls from 1 to 0 over the five nodes; x2 and v are 1
RHS_X1 = np.linspace(1.0, 0.0, 5)
# each raising force, the checked form's reason and its first node
RAISING = [
    ("sqrt(x1 - 0.6)", "sqrt of negative value -0.09999999999999998", 2),
    ("v2 + ln(x1)", "ln of non-positive value 0.0", 4),
    ("exp(1000*x1)", "exp overflow at 1000.0", 0),
    ("v1/x1", "division by zero, divisor 0.0", 4),
    ("x1^-1", "negative power of zero base 0.0", 4),
    ("(x1 - 0.9)^0.5",
     "non-integer power of negative base -0.15000000000000002", 1),
    ("v1*2^1024", "non-finite power result for base 2.0", 0),
    # exp overflows where tanh would hide it
    ("tanh(exp(800*x1))", "exp overflow at 800.0", 0),
]


@pytest.mark.parametrize("source, reason, k", RAISING)
def test_shift_rhs_names_a_raising_force(source, reason, k):
    y = np.ones((5, 2, 2))
    y[:, 0, 0] = RHS_X1
    force = [expr.parse(source, 2), RHS_FORCE[1]]
    where = (f"t=0.3, x={[float(RHS_X1[k]), 1.0]}, v=[1.0, 1.0] "
             f"(node {k}, u={RHS_NODES[k].tolist()})")
    assert _rhs_error(force, y) == f"in Phi1: {reason} at {where}"
    # the raw form traps instead
    with pytest.raises(FloatingPointError):
        _raw_rhs(force, y)


NON_FINITE = "non-finite trajectory position, velocity or force"


@pytest.mark.parametrize("source, bad, k, reason", [
    # finite arguments, an overflowing force
    ("x1*1e308*10", None, 0, NON_FINITE),
    # a non-finite position, which Phi does not read
    ("x1", (3, 0, 1, np.inf), 3, NON_FINITE),
    # a non-finite position, where exp(-inf) = 0 would hide it
    ("exp(x2)", (1, 0, 1, -np.inf), 1, "in Phi1: exp of non-finite value -inf"),
])
def test_shift_rhs_names_a_non_finite_flow(source, bad, k, reason):
    y = np.ones((5, 2, 2))
    y[:, 0, 0] = RHS_X1
    if bad is not None:
        y[bad[:3]] = bad[3]
    force = [expr.parse(source, 2), RHS_FORCE[1]]
    assert _rhs_error(force, y) == (
        f"{reason} at t=0.3, x={y[k, 0].tolist()}, v={y[k, 1].tolist()} "
        f"(node {k}, u={RHS_NODES[k].tolist()})")
    # the raw mode traps on the overflow, or rejects the state
    with pytest.raises(FloatingPointError):
        _raw_rhs(force, y)


def _front_error(force, surface, nu):
    """The error of a five-node front of the identity fiber map under
    force, whose right-hand side raises at its first fault."""
    system = SystemDef(2, helpers.parse_all(["v1", "v2"], 2), force)
    run = ShiftRun(surface=helpers.parse_surface(surface), nu=nu,
                   u_samples=5, t_final=2.0, time_steps=4)
    with pytest.raises(EvalError) as err:
        shift_integrate(system, run)
    return str(err.value)


# the front of the right-hand-side cases: x1 falls from 1 to 0 over
# the five nodes, x2 is 1, and v starts at (0, 1)
LINE = ["1 - u1", "1"]


@pytest.mark.parametrize("source, reason, k", RAISING)
def test_a_raising_force_fails_the_front_with_the_checked_message(
        source, reason, k):
    where = (f"t=0.0, x={[float(RHS_X1[k]), 1.0]}, v=[0.0, 1.0] "
             f"(node {k}, u={RHS_NODES[k].tolist()})")
    assert _front_error([expr.parse(source, 2), RHS_FORCE[1]], LINE, -1.0) \
        == f"in Phi1: {reason} at {where}"


@pytest.mark.parametrize("source, surface, nu, message", [
    ("x1*1e308*10", LINE, -1.0,
     "non-finite trajectory position, velocity or force at t=0.0, "
     "x=[1.0, 1.0], v=[0.0, 1.0] (node 0, u=[0.0])"),
    # the velocity 1e308 overflows the integrator's first step to a
    # nan position
    ("x1", ["u1", "0"], 1e308,
     "non-finite trajectory position, velocity or force at t=3.5e-323, "
     "x=[0.0, nan], v=[0.0, 1e+308] (node 0, u=[0.0])"),
    ("exp(x2)", ["u1", "0"], -1e308,
     "in Phi1: exp of non-finite value nan at t=3.5e-323, x=[0.0, nan], "
     "v=[3.5e-323, -1e+308] (node 0, u=[0.0])"),
])
def test_a_non_finite_flow_fails_the_front_with_the_checked_message(
        source, surface, nu, message):
    assert _front_error([expr.parse(source, 2), RHS_FORCE[1]], surface, nu) \
        == message


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_non_finite_constant_force_fails_the_front(value):
    # the raw form of a constant makes a non-finite value without a trap
    force = [expr.parse("0", 2), system_module.ConstFunc(value, 2)]
    assert _front_error(force, LINE, -1.0) == (
        "non-finite trajectory position, velocity or force at t=0.0, "
        "x=[1.0, 1.0], v=[0.0, 1.0] (node 0, u=[0.0])")


SURFACE_FIXTURES = [path.stem for path in sorted(
    (Path(__file__).parent / "fixtures").glob("*.system"))
    if read_system_file(str(path)).surface is not None]


def _fixture_shift(name):
    doc = read_system_file(
        str(Path(__file__).parent / "fixtures" / f"{name}.system"))
    return doc.sysdef, _doc_run(doc)


def _doc_run(doc):
    return ShiftRun(surface=doc.surface, nu=doc.nu, **{
        key: doc.options[key] for key in SHIFT_OPTIONS if key in doc.options})


def _same_shift(a, b):
    for field in ("times", "points", "covectors", "deviations"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


def _spy(monkeypatch):
    """The right-hand-side modes (raw or not) of the integrations a shift
    starts, and the call counts of those that return."""
    import scipy.integrate
    modes, nfev = [], []
    rhs, solve = experiments._rhs, scipy.integrate.solve_ivp

    def spy_rhs(force, nodes, raw):
        modes.append(raw)
        return rhs(force, nodes, raw)

    def spy_solve(*args, **kwargs):
        sol = solve(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol
    monkeypatch.setattr(experiments, "_rhs", spy_rhs)
    monkeypatch.setattr(scipy.integrate, "solve_ivp", spy_solve)
    return modes, nfev


@pytest.mark.parametrize("name", SURFACE_FIXTURES)
def test_checked_rhs_gives_the_shift_of_the_raw_rhs(monkeypatch, name):
    sysdef, run = _fixture_shift(name)
    raw = shift_integrate(sysdef, run)
    _checked_only(monkeypatch)
    modes, _ = _spy(monkeypatch)
    _same_shift(shift_integrate(sysdef, run), raw)
    assert modes == [True, False]


# right-hand-side calls of one front: the checked mode's, which the raw
# mode must keep
FIXTURE_NFEV = {"cubic_shift": 62, "identity_full": 47, "shear": 77}
WORKLOAD_FRONTS = ("circle-newton-0", "circle-closed-0", "sphere-newton-0",
                   "control", "shear")


def _workload_shift(monkeypatch, tmp_path, name, seed=7):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    import workloads
    spec, = (s for s in workloads.systems("shift-fronts", seed)
             if s.name == name)
    path = tmp_path / f"{name}.system"
    path.write_text(spec.text)
    doc = read_system_file(str(path))
    return doc.sysdef, _doc_run(doc)


@pytest.mark.parametrize("name", SURFACE_FIXTURES)
def test_a_fixture_front_integrates_once_in_the_raw_mode(monkeypatch, name):
    sysdef, run = _fixture_shift(name)
    modes, nfev = _spy(monkeypatch)
    shift_integrate(sysdef, run)
    assert (modes, nfev) == ([True], [FIXTURE_NFEV[name]])


@pytest.mark.parametrize("name", WORKLOAD_FRONTS)
def test_a_workload_front_integrates_once_in_the_raw_mode(monkeypatch,
                                                          tmp_path, name):
    sysdef, run = _workload_shift(monkeypatch, tmp_path, name)
    modes, nfev = _spy(monkeypatch)
    shift_integrate(sysdef, run)
    # 2 calls to start, 3 steps of 12 stages and 3 dense outputs of 3
    assert (modes, nfev) == ([True], [47])


def test_a_force_without_a_raw_form_integrates_once_checked(monkeypatch):
    # the benchmark's counting wrapper has no raw form
    class Plain:
        def __init__(self, f):
            self.f, self.dimension, self.fiber_kind = f, f.dimension, "v"

        def evaluate(self, env):
            return self.f.evaluate(env)
    sysdef, run = _fixture_shift("cubic_shift")
    raw = shift_integrate(sysdef, run)
    plain = SystemDef(sysdef.n, sysdef.legendre,
                      [Plain(f) for f in sysdef.force],
                      v_inverse=sysdef.v_inverse)
    modes, nfev = _spy(monkeypatch)
    _same_shift(shift_integrate(plain, run), raw)
    assert (modes, nfev) == ([False], [FIXTURE_NFEV["cubic_shift"]])


def test_a_trap_in_the_integrator_integrates_the_front_again(monkeypatch):
    from scipy.integrate import DOP853

    sysdef, run = _fixture_shift("cubic_shift")
    untrapped = shift_integrate(sysdef, run)
    modes, nfev = _spy(monkeypatch)
    step, injected = DOP853._step_impl, []

    def faulty(self):
        if not injected:
            injected.append(self.t)
            raise FloatingPointError("injected into the integrator's step")
        return step(self)
    monkeypatch.setattr(DOP853, "_step_impl", faulty)
    _same_shift(shift_integrate(sysdef, run), untrapped)
    # the trapped run returns nothing; the checked run counts as before
    assert (modes, nfev) == ([True, False], [FIXTURE_NFEV["cubic_shift"]])


def test_overflowing_force_raises_without_a_warning():
    # 1e300*x1 overflows at nodes 1 and 2; pytest turns a numpy warning
    # into an error
    system = SystemDef(2, helpers.parse_all(["v1", "v2"], 2),
                       [expr.parse("1e300*x1*x1", 2), RHS_FORCE[1]])
    run = ShiftRun(surface=helpers.parse_surface(["1e10*u1", "1"]),
                   nu=1.0, u_samples=3, t_final=1.0, time_steps=2)
    with pytest.raises(EvalError, match=r"force at t=0\.0, x=\[5000000000\.0,"
                                        r" 1\.0\], .* \(node 1, u=\[0\.5\]\)"):
        shift_integrate(system, run)


def test_singular_fiber_map_at_an_output_time_names_the_node():
    # L1 = (1 - x1)*v1 degenerates on x1 = 1. Under Phi = 0 the velocity
    # is constant, and node 2 (nu = -1 at u = 1, p1 = 1 = v1) travels
    # from x1 = 0 to x1 = 1 exactly at t_final; nodes 0 and 1 stop short.
    system = SystemDef(2, helpers.parse_all(["(1 - x1)*v1", "v2"], 2))
    run = ShiftRun(surface=helpers.parse_surface(["0*u1", "u1"]),
                   nu=expr.parse("-0.5 - 0.5*u1", 1, kinds=("u",)),
                   u_samples=3, t_final=1.0, time_steps=2)
    with pytest.raises(SingularMetric,
                       match=r"at t=1\.0, x=\[1\.0\d*, 1\.0\], v=\[1\.0, 0\.0\]"
                             r" \(node 2, u=\[1\.0\]\)"):
        shift_integrate(system, run)
    # the same front stopped at t = 0.9 stays regular
    shift_integrate(system, dataclasses.replace(run, t_final=0.9))


def test_raising_fiber_map_at_an_output_time_names_the_node():
    # node 0 (u = 0, nu = 1, v1 = -1) reaches x1 = -0.5 at t = 0.5, where
    # sqrt(x1 + 0.5) takes a rounded -2.2e-16; the error names the output
    # time, the node of the front and its u, not the (time, node) pair
    system = SystemDef(2, helpers.parse_all(["v1 + 0*sqrt(x1 + 0.5)", "v2"],
                                            2))
    run = ShiftRun(surface=helpers.parse_surface(["0*u1", "u1"]), nu=1.0,
                   u_samples=3, t_final=1.0, time_steps=4)
    with pytest.raises(EvalError, match=r"^in L1: sqrt of negative value .* at "
                                        r"t=0\.5, x=\[-0\.5\d*, 0\.0\], "
                                        r"v=\[-1\.0, 0\.0\] "
                                        r"\(node 0, u=\[0\.0\]\)$"):
        shift_integrate(system, run)


@pytest.mark.parametrize("closed, solves", [(False, 1), (True, 0)])
def test_shift_inverts_the_fiber_map_once_per_front(monkeypatch, closed,
                                                    solves):
    calls = []

    def counted(*args):
        calls.append(args)
        return newton(*args)

    newton = system_module._newton
    for module in (system_module, experiments):
        monkeypatch.setattr(module, "_newton", counted)
    run = ShiftRun(surface=helpers.parse_surface(["cos(u1)", "sin(u1)"]),
                   nu=-1.0, u_stop=2 * np.pi, u_samples=8, periodic=True,
                   t_final=0.5, time_steps=5)
    shift_integrate(helpers.sys_linear_mode_a(closed), run)
    assert len(calls) == solves
    for _, x, p in calls:
        assert x.shape == p.shape == (8, 2)     # the whole front at once


def _sphere_run(**overrides):
    kw = dict(surface=helpers.parse_surface(
        ["0.1 + sin(u1)*cos(u2)", "sin(u1)*sin(u2)", "-0.2 + cos(u1)"]),
        nu=1.0, u_start=0.6, u_stop=2.5, u_samples=4, t_final=0.5,
        time_steps=4)
    kw.update(overrides)
    return ShiftRun(**kw)


@pytest.mark.parametrize("make, run", [
    (helpers.sys_cubic, ShiftRun(
        surface=helpers.parse_surface(["0.1 + cos(u1)", "sin(u1)"]),
        nu=-1.0, u_stop=2 * np.pi, u_samples=12, periodic=True,
        t_final=0.5, time_steps=5)),
    (lambda: helpers.sys_linear_mode_a(True), ShiftRun(
        surface=helpers.parse_surface(["cos(u1)", "0.2 + sin(u1)"]),
        nu=1.0, u_stop=2 * np.pi, u_samples=10, periodic=True,
        t_final=0.5, time_steps=5)),
    (helpers.sys_cubic3, _sphere_run()),
])
def test_front_matches_per_node_oracle(make, run):
    sysdef = make()
    result = shift_integrate(sysdef, run)
    points, covectors, deviations = helpers.shift_per_node(sysdef, run)
    assert np.max(np.abs(result.points - points)) < 1e-9
    assert np.max(np.abs(result.covectors - covectors)) < 1e-9
    assert np.max(np.abs(result.deviations - deviations)) < 1e-9


def test_lagrangian_generator_shift_matches_explicit_map():
    # the generator of helpers.sys_lagrangian, differentiated by hand
    n = 2
    lag = expr.parse("0.5*v1^2 + 0.5*v2^2 + 0.1*v1^2*v2^2 + 0.2*sin(x1)*v2^2",
                     n, kinds=("x", "v"))
    phi = helpers.parse_all(["0.2*x2*v1", "0"], n)
    generated = SystemDef(n, lagrangian_to_legendre(lag), force=phi)
    explicit = SystemDef(n, helpers.parse_all(
        ["v1 + 0.2*v1*v2^2", "v2 + 0.2*v1^2*v2 + 0.4*sin(x1)*v2"], n),
        force=phi)
    run = ShiftRun(surface=helpers.parse_surface(["0.1 + cos(u1)", "sin(u1)"]),
                   nu=-1.0, u_stop=2 * np.pi, u_samples=8, periodic=True,
                   t_final=0.5, time_steps=4)
    a = shift_integrate(generated, run)
    b = shift_integrate(explicit, run)
    assert np.max(np.abs(a.points - b.points)) < 1e-12
    assert np.max(np.abs(a.covectors - b.covectors)) < 1e-12
    assert np.max(np.abs(a.deviations - b.deviations)) < 1e-12


def _grid(run):
    """Nodes (N, m) and output times of a run, as shift_integrate lays
    them out."""
    n, m = experiments._run_dims(run)
    axes, wraps = experiments._axes(run, m)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    times = np.linspace(0.0, float(run.t_final), run.time_steps + 1)
    return nodes, times, axes, wraps


CIRCLE = ShiftRun(surface=helpers.parse_surface(["0.1 + cos(u1)", "sin(u1)"]),
                  nu=-1.0, u_stop=2 * np.pi, u_samples=12, periodic=True,
                  t_final=0.5, time_steps=5)
CYLINDER = ShiftRun(surface=helpers.parse_surface(
    ["cos(u1)", "sin(u1)", "u2 + 0.2*cos(u1)*u2^2"]), nu=1.0,
    u_start=(0.0, -0.5), u_stop=(2 * np.pi, 0.5), u_samples=(8, 5),
    periodic=(True, False), t_final=0.5, time_steps=4)


@pytest.mark.parametrize("run", [
    CIRCLE,
    dataclasses.replace(CIRCLE, nu=expr.parse("-1 - 0.25*u1*u1 + 0.1*u1", 1,
                                              kinds=("u",))),
    dataclasses.replace(CIRCLE, periodic=False, u_stop=3.0),
    _sphere_run(),
    _sphere_run(nu=expr.parse("1 + 0.3*sin(u1)*cos(u2)", 2, kinds=("u",))),
    CYLINDER,
])
def test_front_geometry_matches_per_node_reference(run):
    # one evaluation, SVD and determinant over all nodes give, bit for
    # bit, what scalar seeds, one SVD and one det per node give
    nodes, _, _, _ = _grid(run)
    m = nodes.shape[1]
    x0, normals = experiments._front_geometry(run, nodes)
    scale = experiments._nu_values(run, nodes, m)
    for k, u in enumerate(nodes):
        position, tangents = helpers.surface_frame(run, u)
        normal = helpers.normal_of(tangents)
        nu = (run.nu.evaluate({f"u{d + 1}": float(u[d]) for d in range(m)})
              if isinstance(run.nu, expr.Expression) else run.nu)
        assert np.array_equal(x0[k], position)
        assert np.array_equal(normals[k], normal)
        assert np.array_equal(experiments._front_geometry(run, u[None])[1][0],
                              normal)
        assert scale[k] == float(nu)


def _per_time(points, covectors, axes, wraps):
    return np.array([helpers.collinearity_at(points[t], covectors[t], axes,
                                             wraps)
                     for t in range(len(points))])


@pytest.mark.parametrize("make, run", [
    (helpers.sys_cubic, CIRCLE),
    (helpers.sys_cubic3, _sphere_run()),
    (lambda: helpers.sys_identity(3), CYLINDER),
])
def test_trace_over_all_times_matches_per_time(make, run):
    result = shift_integrate(make(), run)
    _, _, axes, wraps = _grid(run)
    assert np.array_equal(result.deviations, _per_time(
        result.points, result.covectors, axes, wraps))
    # and on random grids, where every pairing is far from zero
    rng = np.random.default_rng(5)
    points = rng.standard_normal(result.points.shape)
    covectors = rng.standard_normal(result.points.shape)
    assert np.array_equal(
        experiments._collinearity(points, covectors, axes, wraps,
                                  result.times),
        _per_time(points, covectors, axes, wraps))


def _crafted(faults):
    """A 3 x 3 open grid over 4 output times with the given faults,
    (time, "rank" | "p", axis): a rank loss makes the positions constant
    along the axis, a vanishing momentum zeroes the momentum of a node
    interior to that axis only."""
    axes = [np.linspace(0.0, 1.0, 3)] * 2
    u1, u2 = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([u1, u2, 0.3 * u1 * u2], axis=-1)
    points = np.repeat(grid[None], 4, axis=0) * np.arange(1.0, 5.0)[:, None,
                                                                    None, None]
    covectors = np.repeat(np.array([-0.3, -0.3, 1.0])[None, None, None], 4,
                          axis=0) * np.ones_like(points)
    for t, kind, axis in faults:
        if kind == "rank":
            points[t] = np.repeat(points[t].take([0], axis=axis), 3, axis=axis)
        else:
            covectors[t][(1, 0) if axis == 0 else (0, 1)] = 0.0
    return points, covectors, axes, [False, False]


@pytest.mark.parametrize("faults, error, where", [
    ([(1, "p", 0), (2, "rank", 0)], DegeneratePoint, r"t=0\.5, .* u1"),
    ([(1, "rank", 1), (2, "p", 0)], DegenerateSurface, r"t=0\.5, .* u2"),
    ([(2, "p", 0), (3, "rank", 1)], DegeneratePoint, r"t=1\.0, .* u1"),
    ([(2, "p", 1)], DegeneratePoint, r"t=1\.0, .* u2"),
    ([(3, "rank", 0)], DegenerateSurface, r"t=1\.5, .* u1"),
    # one time, one axis: the rank check comes first
    ([(1, "rank", 0), (1, "p", 0)], DegenerateSurface, r"t=0\.5, .* u1"),
    # one time: the first axis comes first
    ([(1, "rank", 1), (1, "p", 0)], DegeneratePoint, r"t=0\.5, .* u1"),
])
def test_trace_raises_what_the_per_time_loop_raises(faults, error, where):
    points, covectors, axes, wraps = _crafted(faults)
    times = np.array([0.0, 0.5, 1.0, 1.5])
    with pytest.raises(error):
        _per_time(points, covectors, axes, wraps)
    with pytest.raises(error, match=where):
        experiments._collinearity(points, covectors, axes, wraps, times)


@pytest.mark.parametrize("make, run", [
    (helpers.sys_cubic, CIRCLE),
    (helpers.sys_cubic3, _sphere_run()),
])
def test_one_node_front_integrates_as_the_node_alone(make, run):
    from scipy.integrate import solve_ivp

    sysdef = make()
    n = sysdef.n
    nodes, times, _, _ = _grid(run)
    x0, normals = experiments._front_geometry(run, nodes)
    p0 = experiments._nu_values(run, nodes, nodes.shape[1])[:, None] * normals
    k = 3
    x, p = experiments._flow(sysdef, x0[[k]], p0[[k]], times, run.rtol,
                             nodes[[k]])

    # the node alone, in (x, v), under the unscaled tolerances
    def rhs(t, y):
        phi = [f.evaluate({**{f"x{i + 1}": y[i] for i in range(n)},
                           **{f"v{i + 1}": y[n + i] for i in range(n)}})
               for f in sysdef.force]
        return np.concatenate([y[n:], phi])

    v0 = _newton(sysdef, x0[k], p0[k])
    alone = solve_ivp(rhs, (0.0, run.t_final), np.concatenate([x0[k], v0]),
                      method="DOP853", rtol=run.rtol, atol=1e-12, t_eval=times)
    assert np.max(np.abs(x[:, 0] - alone.y[:n].T)) < 1e-12
    # and the momentum-form RK45 oracle, under its bound
    points, covectors, _ = helpers.shift_per_node(sysdef, run)
    assert np.max(np.abs(x[:, 0] - points.reshape(len(times), -1, n)[:, k])) \
        < 1e-9
    assert np.max(np.abs(
        p[:, 0] - covectors.reshape(len(times), -1, n)[:, k])) < 1e-9


@pytest.mark.parametrize("copies", [2, 3, 5])
def test_front_of_copies_gives_equal_paths(copies):
    # the accepted steps are the same for every copy; the interpolation
    # at the output times may round copies a few ulps apart
    sysdef = helpers.sys_cubic()
    x0 = np.repeat([[1.1, 0.2]], copies, axis=0)
    p0 = np.repeat([[-1.0, 0.1]], copies, axis=0)
    times = np.linspace(0.0, 0.5, 6)
    x, p = experiments._flow(sysdef, x0, p0, times, 1e-10,
                             np.zeros((copies, 1)))
    one_x, one_p = experiments._flow(sysdef, x0[:1], p0[:1], times,
                                     1e-10, np.zeros((1, 1)))
    assert np.max(np.abs(x - x[:, :1])) < 1e-15
    assert np.max(np.abs(p - p[:, :1])) < 1e-15
    # N copies take finer steps than one node, so they agree with it to
    # the integrator's tolerance only
    assert np.max(np.abs(x - one_x)) < 1e-9
