"""Shared test oracles, written independently of the code they check.

- central finite differences (the derivative oracle for the jet kernel)
- a reference interpreter that round-trips expression source through
  Python's own eval(), independent of the package evaluator
- a recursive walk of the expression tree, the reference for the bits
  and errors of the compiled evaluator
- a seeded random expression generator that stays inside the domains
  of ln/sqrt/division on the standard sampling box
- a per-node shift integration, one scipy solve_ivp (RK45) per surface
  node, as the oracle for the batched integration of whole fronts
- the per-node surface geometry and the per-time collinearity trace, as
  the oracles of their batched forms
- expand, which writes a schema-2 report's rows out as schema-1 rows
"""

import math

import numpy as np

from normality_lab import expr, jets
from normality_lab.errors import EvalError

FD_STEP = 1e-5


def fd_gradient(f, x0, h=FD_STEP):
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = h
        g[i] = (f(x0 + e) - f(x0 - e)) / (2 * h)
    return g


def fd_jacobian(f, x0, h=FD_STEP):
    """Central differences of an array-valued f; the derivative axis is
    appended last."""
    x0 = np.asarray(x0, dtype=float)
    cols = []
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = h
        cols.append((np.asarray(f(x0 + e)) - np.asarray(f(x0 - e))) / (2 * h))
    return np.stack(cols, axis=-1)


def fd_hessian(f, x0, h=FD_STEP):
    x0 = np.asarray(x0, dtype=float)
    m = x0.size
    H = np.zeros((m, m))
    f0 = f(x0)
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        H[i, i] = (f(x0 + ei) - 2 * f0 + f(x0 - ei)) / (h * h)
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h
            H[i, j] = (f(x0 + ei + ej) - f(x0 + ei - ej)
                       - f(x0 - ei + ej) + f(x0 - ei - ej)) / (4 * h * h)
            H[j, i] = H[i, j]
    return H


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


_PY_FUNCS = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp,
    "ln": math.log, "sqrt": math.sqrt, "tanh": math.tanh,
}


def python_eval(source: str, env: dict) -> float:
    """Independent evaluation: translate ^ to ** and hand the string to
    Python's eval with the math library."""
    translated = source.replace("^", "**")
    namespace = dict(_PY_FUNCS)
    namespace.update(env)
    return float(eval(translated, {"__builtins__": {}}, namespace))


def random_source(rng, dimension, kinds=("x", "v"), depth=3) -> str:
    """Random expression source whose value and first two derivatives
    stay finite and moderate on x in [-1,1], fiber in [0.5,1.5]."""

    def leaf():
        if rng.random() < 0.35:
            return f"{rng.integers(1, 20) / 10.0}"
        kind = kinds[rng.integers(0, len(kinds))]
        return f"{kind}{rng.integers(1, dimension + 1)}"

    def positive(d):
        # strictly positive subexpression, safe under ln/sqrt/division
        inner = build(d - 1) if d > 0 else leaf()
        return f"(1.5+0.5*tanh({inner}))"

    def build(d):
        if d <= 0:
            return leaf()
        roll = rng.random()
        a = build(d - 1)
        if roll < 0.18:
            return f"({a}+{build(d - 1)})"
        if roll < 0.36:
            return f"({a}-{build(d - 1)})"
        if roll < 0.54:
            return f"({a}*{build(d - 1)})"
        if roll < 0.62:
            return f"({a}/{positive(d - 1)})"
        if roll < 0.70:
            fn = ("sin", "cos", "tanh")[rng.integers(0, 3)]
            return f"{fn}({a})"
        if roll < 0.76:
            return f"exp(0.3*tanh({a}))"
        if roll < 0.82:
            return f"ln{positive(d - 1)}"
        if roll < 0.88:
            return f"sqrt{positive(d - 1)}"
        if roll < 0.95:
            return f"{leaf()}^{rng.integers(2, 4)}"
        return f"(-{a})"

    return build(depth)


def walk_eval(node, env):
    """Evaluate an expression tree by recursion, node by node: the
    reference whose bits and errors the compiled closures of
    Expression.evaluate reproduce."""
    if isinstance(node, expr.Num):
        return node.value
    if isinstance(node, expr.Var):
        try:
            return env[node.name]
        except KeyError:
            raise EvalError(f"unbound variable {node.name}") from None
    if isinstance(node, expr.Unary):
        return -walk_eval(node.operand, env)
    if isinstance(node, expr.Binary):
        a = walk_eval(node.left, env)
        b = walk_eval(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return jets.true_div(a, b)
        return jets.power(a, b)
    return jets.FUNCTIONS[node.fn](walk_eval(node.arg, env))


def random_box_point(rng, n, x_lo=-1.0, x_hi=1.0, f_lo=0.5, f_hi=1.5):
    x = rng.uniform(x_lo, x_hi, n)
    fiber = rng.uniform(f_lo, f_hi, n)
    return x, fiber


def float_env(x, fiber, kind="v"):
    """Float bindings of x1.. and <kind>1.. for Expression.evaluate."""
    env = {f"x{i + 1}": float(c) for i, c in enumerate(x)}
    env.update({f"{kind}{i + 1}": float(c) for i, c in enumerate(fiber)})
    return env


def jet_at(e, x, v):
    """Scalar second-order Dense data of a velocity-native expression
    over (x, v), as a VContext at that point evaluates it."""
    from normality_lab.system import VContext
    return VContext(sys_identity(len(x)), x, v).eval_native(e)


# ---------------------------------------------------------------------------
# shared system fixtures

def parse_all(sources, n, kinds=("x", "v")):
    return [expr.parse(s, n, kinds=kinds) for s in sources]


def parse_surface(sources):
    """Parametric map sources over u1..u(n-1), n = len(sources)."""
    m = len(sources) - 1
    return tuple(expr.parse(s, m, kinds=("u",)) for s in sources)


def make_connection(n, entries=None):
    """Nested component list from a sparse {(k, i, j): source} dict.
    Entries are mirrored in the lower index pair; the rest are zero."""
    from normality_lab.system import ConstFunc

    zero = ConstFunc(0.0, n)
    out = [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (k, i, j), source in (entries or {}).items():
        comp = expr.parse(source, n, kinds=("x", "v"))
        out[k][i][j] = comp
        out[k][j][i] = comp
    return out


class Counting:
    """A system component that counts its evaluations, and raises
    EvalError instead when `fails` is set."""

    def __init__(self, inner, fails=False):
        self.inner, self.fails, self.calls = inner, fails, 0
        self.dimension, self.fiber_kind = inner.dimension, inner.fiber_kind

    def evaluate(self, env):
        from normality_lab.errors import EvalError
        self.calls += 1
        if self.fails:
            raise EvalError("shared failure")
        return self.inner.evaluate(env)


def sys_identity(n=2):
    """Trivial fiber map p_i = v_i, no force, flat connection."""
    from normality_lab.system import SystemDef
    return SystemDef(n, parse_all([f"v{i + 1}" for i in range(n)], n))


def sys_cubic():
    """Nonlinear diagonal fiber map with position coupling, velocity
    dependent connection and a generic force. Mode-B inverse only."""
    from normality_lab.system import SystemDef
    n = 2
    L = parse_all(["v1 + 0.1*v1^3 + 0.05*x1*v1",
                   "v2 + 0.1*v2^3 - 0.04*x2*v2"], n)
    phi = parse_all(["sin(x1)*v2", "0.3*v1^2"], n)
    conn = make_connection(n, {(0, 0, 1): "0.1*v1",
                               (1, 0, 0): "0.15*x1",
                               (1, 1, 1): "0.05*v2 + 0.1*x2"})
    return SystemDef(n, L, force=phi, connection=conn)


def sys_lagrangian():
    """Fiber map generated as the velocity gradient of a scalar, so the
    lower metric is automatically symmetric."""
    from normality_lab.system import SystemDef, lagrangian_to_legendre
    n = 2
    lag = expr.parse(
        "0.5*v1^2 + 0.5*v2^2 + 0.1*v1^2*v2^2 + 0.2*sin(x1)*v2^2", n,
        kinds=("x", "v"))
    phi = parse_all(["0.2*x2*v1", "0"], n)
    conn = make_connection(n, {(0, 1, 1): "0.1*x1"})
    return SystemDef(n, lagrangian_to_legendre(lag), force=phi, connection=conn)


def sys_linear_mode_a(with_inverse=True):
    """Triangular linear-in-v map with a closed-form inverse."""
    from normality_lab.system import SystemDef
    n = 2
    L = parse_all(["(2 + x1^2)*v1", "1.5*v2 + 0.3*x2*v1"], n)
    phi = parse_all(["0.1*v2", "0"], n)
    v_inv = None
    if with_inverse:
        v_inv = parse_all(["p1/(2 + x1^2)",
                           "(p2 - 0.3*x2*p1/(2 + x1^2))/1.5"], n,
                          kinds=("x", "p"))
    return SystemDef(n, L, force=phi, v_inverse=v_inv)


def sys_cubic3():
    """Three-dimensional variant of the cubic fixture with a metric
    cross term, so the lower metric is not symmetric and every
    additional normality field carries content."""
    from normality_lab.system import SystemDef
    n = 3
    L = parse_all(["v1 + 0.1*v1^3 + 0.05*x1*v1",
                   "v2 + 0.1*v2^3 - 0.04*x2*v2 + 0.2*x1*v1",
                   "v3 + 0.08*v3^3 + 0.03*x1*v3"], n)
    phi = parse_all(["sin(x1)*v2", "0.3*v1^2", "0.1*x3*v1"], n)
    conn = make_connection(n, {(0, 0, 1): "0.1*v1",
                               (1, 0, 0): "0.15*x1",
                               (2, 1, 2): "0.05*v3"})
    return SystemDef(n, L, force=phi, connection=conn)


def sys_cylindrical():
    """Flat R^3 in cylindrical coordinates, radius r = 2 + x1, with its
    Levi-Civita connection, a force of geodesic spray plus damping and a
    gauge tensor: the cylindrical3 fixture. It is normal, and at n = 3
    its additional normality equations decide the check."""
    from normality_lab.system import SystemDef
    n = 3
    L = parse_all(["v1", "(2 + x1)^2*v2", "v3"], n)
    phi = parse_all(["0.7*v1 + (2 + x1)*v2^2",
                     "0.7*v2 - 2*v1*v2/(2 + x1)", "0.7*v3"], n)
    conn = make_connection(n, {(0, 1, 1): "-(2 + x1)",
                               (1, 0, 1): "1/(2 + x1)"})
    gauge = make_connection(n, {(0, 0, 0): "0.3*x1", (1, 0, 2): "0.1*v1"})
    return SystemDef(n, L, force=phi, connection=conn, gauge=gauge)


def sys_shear():
    """Trivial fiber map plus a shear force that breaks normality."""
    from normality_lab.system import SystemDef
    n = 2
    L = parse_all(["v1", "v2"], n)
    phi = parse_all(["0.5*v2^2*(1 + x1)", "0"], n)
    return SystemDef(n, L, force=phi)


def sys_parallel(c=0.7, n=2):
    """Trivial fiber map with force proportional to velocity; satisfies
    the weak normality conditions at every point."""
    from normality_lab.system import SystemDef
    L = parse_all([f"v{i + 1}" for i in range(n)], n)
    phi = parse_all([f"{c}*v{i + 1}" for i in range(n)], n)
    return SystemDef(n, L, force=phi)


def shift_per_node(sysdef, run):
    """Reference shift of run's front: every surface node integrated on
    its own by solve_ivp in the momentum form dx/dt = v, dp/dt = theta,
    with a scalar right-hand side from _newton (or the closed-form
    inverse) and theta_from_phi at every call.
    Returns (points, covectors, deviations) laid out as in ShiftResult;
    skips the calling test where scipy cannot be imported."""
    import pytest
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

    from normality_lab import experiments
    from normality_lab.phase import PhasePoint
    from normality_lab.system import _newton, theta_from_phi

    axes, wraps, times = run.grid
    n, m = len(run.surface), len(axes)
    shape = tuple(len(a) for a in axes)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)

    def rhs(t, y):
        x, p = y[:n], y[n:]
        if sysdef.v_inverse is not None:
            env = {f"x{i + 1}": float(x[i]) for i in range(n)}
            env.update({f"p{i + 1}": float(p[i]) for i in range(n)})
            v = np.array([float(f.evaluate(env)) for f in sysdef.v_inverse])
        else:
            v = _newton(sysdef, x, p)
        theta = theta_from_phi(sysdef, PhasePoint.velocity(x, v))
        return np.concatenate([v, theta])

    x0, normals = experiments._front_geometry(run, nodes)
    p0 = experiments._nu_values(run, nodes, m)[:, None] * normals
    paths = []
    for k in range(len(nodes)):
        sol = solve_ivp(rhs, (0.0, float(run.t_final)),
                        np.concatenate([x0[k], p0[k]]), method="RK45",
                        rtol=run.rtol, atol=1e-12, t_eval=times)
        assert sol.success, sol.message
        paths.append(sol.y.T)                       # (T+1, 2n)
    paths = np.stack(paths, axis=1)                 # (T+1, nodes, 2n)
    points = paths[..., :n].reshape((len(times),) + shape + (n,))
    covectors = paths[..., n:].reshape((len(times),) + shape + (n,))
    deviations = experiments._collinearity(points, covectors, axes, wraps,
                                           times)
    return points, covectors, deviations


def surface_frame(run, u):
    """Position (n,) and tangent rows (m, n) of run's surface at one
    node u, from scalar Dense seeds."""
    from normality_lab import jets
    seeded = jets.seeds(np.asarray(u, dtype=float), order=1)
    env = {f"u{d + 1}": s for d, s in enumerate(seeded)}
    frame = jets.stack([f.evaluate(env) for f in run.surface], len(seeded))
    return frame.val, frame.grad.T


def normal_of(tangents):
    """Unit normal of one node's tangent rows (m, n): the last right
    singular vector, turned so that the tangents followed by it have a
    positive determinant."""
    _, _, vt = np.linalg.svd(tangents)
    normal = vt[-1]
    if np.linalg.det(np.vstack([tangents, normal])) < 0.0:
        normal = -normal
    return normal


def collinearity_at(x_grid, p_grid, axes, wraps):
    """Collinearity trace at one output time, from grids (grid..., n):
    the worst normalized pairing of the momentum with the central
    differences along each axis, interior nodes only on an open axis.
    Raises DegenerateSurface or DegeneratePoint as soon as an axis has
    a collapsed tangent or a vanishing momentum."""
    from normality_lab.errors import DegeneratePoint, DegenerateSurface
    worst = 0.0
    for d in range(len(axes)):
        h = axes[d][1] - axes[d][0]
        if wraps[d]:
            tau = (np.roll(x_grid, -1, axis=d)
                   - np.roll(x_grid, 1, axis=d)) / (2.0 * h)
            p_part, x_part = p_grid, x_grid
        else:
            inner = [slice(None)] * len(axes)
            lead, trail = list(inner), list(inner)
            lead[d], trail[d], inner[d] = (slice(2, None), slice(None, -2),
                                           slice(1, -1))
            tau = (x_grid[tuple(lead)] - x_grid[tuple(trail)]) / (2.0 * h)
            p_part, x_part = p_grid[tuple(inner)], x_grid[tuple(inner)]
        tau_norm = np.linalg.norm(tau, axis=-1)
        p_norm = np.linalg.norm(p_part, axis=-1)
        if np.any(tau_norm <= 1e-12 * max(1.0, float(np.max(np.abs(x_part))))):
            raise DegenerateSurface("moved surface loses rank")
        if np.any(p_norm <= 1e-12):
            raise DegeneratePoint("momentum vanishes")
        pairing = np.abs(np.sum(p_part * tau, axis=-1)) / (p_norm * tau_norm)
        worst = max(worst, float(np.max(pairing)))
    return worst


def random_scalar(rng, n, kind):
    """The random scalar of the transport check as an expression tree,
    drawn by cli._scalar_draw (scalar_tree)."""
    from normality_lab import cli
    return scalar_tree(cli._scalar_draw(rng, n, kind), n)


def scalar_tree(draw, n):
    """c0 + c1*x{a}*{kind}{b} + c2*{kind}{a}^2 + c3*sin(x{b}) for a draw
    (kind, a, b, c) of cli._scalar_draw: the tree expr.parse gives for
    that source, built without parsing. The check evaluates the same
    draw as a cli._Scalar."""
    kind, a, b, c = draw
    c = [expr.Unary(expr.Num(-w)) if math.copysign(1.0, w) < 0.0
         else expr.Num(w) for w in c]
    x_a, x_b = expr.Var("x", a), expr.Var("x", b)
    f_a, f_b = expr.Var(kind, a), expr.Var(kind, b)
    terms = (expr.Binary("*", expr.Binary("*", c[1], x_a), f_b),
             expr.Binary("*", c[2], expr.Binary("^", f_a, expr.Num(2.0))),
             expr.Binary("*", c[3], expr.Call("sin", x_b)))
    root = c[0]
    for term in terms:
        root = expr.Binary("+", root, term)
    return expr.Expression(root, n, ("x", "v", "p"), kind)


def expand(report):
    """A schema-2 report with its rows written out as schema 1 wrote
    them: each row a dict of its check, point index, point, equation,
    residual, verdict and its equation's tolerance and flags, and no
    record keeps `points` or `equations`. Everything else, `schema` and
    the summaries included, is kept as it is."""
    def record(r):
        out = {k: v for k, v in r.items() if k not in ("points", "equations")}
        out["rows"] = [{"check": r["id"], "index": index,
                        "point": r["points"][index], "equation": equation,
                        "residual": residual, "pass": passed,
                        **r["equations"][equation]}
                       for index, equation, residual, passed in r["rows"]]
        return out
    if "checks" not in report:
        return dict(report)
    return {**report, "checks": [record(r) for r in report["checks"]]}
