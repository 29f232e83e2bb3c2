"""Batched Dense data, the batched Newton solve and the batched shift,
each against its scalar counterpart evaluated node by node."""

import numpy as np
import pytest

import helpers
from normality_lab import expr, jets
from normality_lab.errors import (EvalError, IntegrationFailure,
                                  NonConvergence, SingularMetric)
from normality_lab.experiments import ShiftRun, shift_integrate
from normality_lab.phase import PhasePoint
from normality_lab.system import (NEWTON_TOL, SystemDef, _newton_solve,
                                  _phase_flow, lagrangian_to_legendre,
                                  legendre_forward, theta_from_phi)

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
        x[:, k], v[:, k])).fiber for k in range(x.shape[1])], axis=1)


@pytest.mark.parametrize("make", [helpers.sys_cubic, helpers.sys_lagrangian,
                                  helpers.sys_cubic3])
def test_batched_newton_agrees_with_scalar_solves(make):
    sysdef = make()
    n, nodes = sysdef.n, 9
    rng = np.random.default_rng(33)
    x = rng.uniform(-1.0, 1.0, (n, nodes))
    v = rng.uniform(0.5, 1.5, (n, nodes))
    v[:, 0] = 1e-3        # near the default guess p: converges first
    p = _momenta(sysdef, x, v)
    batched = _newton_solve(sysdef, x, p)
    assert batched.shape == (n, nodes)
    residual = np.abs(_momenta(sysdef, x, batched) - p)
    assert np.max(residual) <= NEWTON_TOL
    for k in range(nodes):
        alone = _newton_solve(sysdef, x[:, k], p[:, k])
        assert np.max(np.abs(batched[:, k] - alone)) < 1e-12

    v_flow, theta = _phase_flow(sysdef, x, p)
    assert np.max(np.abs(v_flow - batched)) < 1e-12
    for k in range(nodes):
        want = theta_from_phi(sysdef, PhasePoint.velocity(x[:, k], v[:, k]))
        assert helpers.rel_err(theta[:, k], want) < 1e-10


def test_batched_newton_names_the_failing_node():
    # node 1 sits on the classic two-cycle of v^3 - 2v from guess 0
    L = [expr.parse("v1^3 - 2*v1", 1, kinds=("x", "v"))]
    cycling = SystemDef(1, L, newton_guess=[0.0])
    x = np.array([[0.3, 0.7, -0.1]])
    p = np.array([[4.0, -2.0, 5.0]])
    with pytest.raises(NonConvergence, match=r"x=\[0\.7\], p=\[-2\.0\] \(node 1\)"):
        _newton_solve(cycling, x, p)

    degenerate = SystemDef(2, helpers.parse_all(
        ["v1 + v2*x1", "v1*x2 + v2"], 2))
    x = np.array([[0.5, 1.0, 0.2], [0.3, 1.0, 0.4]])    # node 1: x1*x2 = 1
    p = np.ones((2, 3))
    with pytest.raises(SingularMetric, match=r"x=\[1\.0, 1\.0\].*\(node 1\)"):
        _newton_solve(degenerate, x, p)


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
    with pytest.raises(EvalError, match=r"\(node 1, u=\[0\.5\]\)"):
        shift_integrate(system, run)


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
