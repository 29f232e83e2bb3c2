"""Newtonian systems under a generalized fiber map.

A system is defined by n components L_i(x, v) of the fiber map taking
velocities to momenta, n force components Phi^i(x, v), a symmetric
connection Gamma^k_ij(x, v), and optionally the inverse map components
V^i(x, p) in closed form plus a gauge tensor T^k_ij(x, v).

Two evaluation contexts do the real work. VContext seeds second-order
jets at a velocity point. PContext inverts the fiber map at a momentum
point (closed form when given, Newton plus implicit differentiation
otherwise), keeps an inner VContext at the preimage, and pushes any
velocity-native jet through the inverse map by the chain rule.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr, jets
from .errors import (MixedRepresentationError, NonConvergence, SingularMetric,
                     ValidationError)
from .phase import PhasePoint, Rep

COND_LIMIT = 1e12
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


class ConstFunc:
    """Constant scalar component."""

    __slots__ = ("value", "dimension")
    fiber_kind = None

    def __init__(self, value: float, dimension: int):
        self.value = float(value)
        self.dimension = dimension

    def evaluate(self, env):
        return self.value

    def variables(self):
        return set()


class SumFunc:
    __slots__ = ("first", "second")

    def __init__(self, first, second):
        if first.dimension != second.dimension:
            raise ValidationError("summed components disagree on dimension")
        self.first = first
        self.second = second

    @property
    def dimension(self):
        return self.first.dimension

    @property
    def fiber_kind(self):
        kinds = {self.first.fiber_kind, self.second.fiber_kind} - {None}
        if len(kinds) > 1:
            raise MixedRepresentationError("sum mixes fiber kinds")
        return next(iter(kinds)) if kinds else None

    def evaluate(self, env):
        return self.first.evaluate(env) + self.second.evaluate(env)

    def variables(self):
        return self.first.variables() | self.second.variables()


class VelocityGradient:
    """Component d(scalar)/dv_i of a velocity-space gradient.

    Evaluation lifts the environment into dual numbers over whatever
    algebra the caller supplied, so these components deliver exact
    second-order jets even though they are one derivative deep."""

    __slots__ = ("scalar", "index")
    fiber_kind = "v"

    def __init__(self, scalar: expr.Expression, index: int):
        if scalar.fiber_kind == "p":
            raise MixedRepresentationError("generating scalar must be velocity-native")
        self.scalar = scalar
        self.index = index  # 1-based

    @property
    def dimension(self):
        return self.scalar.dimension

    def evaluate(self, env):
        direction = f"v{self.index}"
        lifted = {name: jets.Dual(value, 1.0 if name == direction else 0.0)
                  for name, value in env.items()}
        out = self.scalar.evaluate(lifted)
        return out.du if isinstance(out, jets.Dual) else 0.0

    def variables(self):
        return self.scalar.variables()


def lagrangian_to_legendre(lagrangian: expr.Expression):
    """Fiber map whose i-th component evaluates d(lagrangian)/dv_i."""
    n = lagrangian.dimension
    return tuple(VelocityGradient(lagrangian, i + 1) for i in range(n))


def _component_array(entries, n, what):
    arr = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                arr[k, i, j] = entries[k][i][j]
                if arr[k, i, j].dimension != n:
                    raise ValidationError(f"{what}[{k}][{i}][{j}] has wrong dimension")
    return arr


def zero_connection(n: int):
    zero = ConstFunc(0.0, n)
    return [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]


class SystemDef:
    """Complete system definition. Components are expression-like
    objects with .evaluate(env)/.dimension/.fiber_kind."""

    __slots__ = ("n", "legendre", "force", "connection", "v_inverse", "gauge",
                 "newton_guess")

    def __init__(self, n, legendre, force=None, connection=None,
                 v_inverse=None, gauge=None, newton_guess=None):
        if n < 1:
            raise ValidationError(f"dimension must be positive, got {n}")
        self.n = n
        if len(legendre) != n:
            raise ValidationError(f"need {n} fiber map components, got {len(legendre)}")
        for f in legendre:
            if f.fiber_kind == "p" or f.dimension != n:
                raise ValidationError("fiber map components must be velocity-native")
        self.legendre = tuple(legendre)

        if force is None:
            force = [ConstFunc(0.0, n) for _ in range(n)]
        if len(force) != n:
            raise ValidationError(f"need {n} force components, got {len(force)}")
        for f in force:
            if f.fiber_kind == "p" or f.dimension != n:
                raise ValidationError("force components must be velocity-native")
        self.force = tuple(force)

        if connection is None:
            connection = zero_connection(n)
        self.connection = _component_array(connection, n, "connection")
        for f in self.connection.flat:
            if f.fiber_kind == "p":
                raise ValidationError("connection components must be velocity-native")

        if v_inverse is not None:
            if len(v_inverse) != n:
                raise ValidationError(f"need {n} inverse components, got {len(v_inverse)}")
            for f in v_inverse:
                if f.fiber_kind == "v" or f.dimension != n:
                    raise ValidationError("inverse components must be momentum-native")
            v_inverse = tuple(v_inverse)
        self.v_inverse = v_inverse

        if gauge is not None:
            gauge = _component_array(gauge, n, "gauge")
            for f in gauge.flat:
                if f.fiber_kind == "p":
                    raise ValidationError("gauge components must be velocity-native")
        self.gauge = gauge

        if newton_guess is not None:
            newton_guess = np.asarray(newton_guess, dtype=float)
            if newton_guess.shape != (n,):
                raise ValidationError("newton guess needs one value per dimension")
        self.newton_guess = newton_guess


def _env(x, fiber, kind):
    """Evaluation environment binding x1.. and <kind>1.. to the entries
    of x and fiber: floats, jets, or float arrays over nodes."""
    env = {}
    for i in range(len(x)):
        env[f"x{i + 1}"] = x[i]
        env[f"{kind}{i + 1}"] = fiber[i]
    return env


def _as_jet(value, m, order=2, nodes=()):
    """A component's value as a jet; constants get zero derivatives, and
    with a node shape they are first order and array-valued."""
    if isinstance(value, jets.Jet):
        return value
    if nodes:
        return jets.Jet(np.full(nodes, value, dtype=float),
                        np.zeros((m,) + nodes))
    return jets.constant(float(value), m, order=order)


def _values(funcs, env, nodes=()):
    """Float values of components, shape (len(funcs),) + nodes."""
    out = np.empty((len(funcs),) + nodes)
    for i, f in enumerate(funcs):
        out[i] = f.evaluate(env)
    return out


class VContext:
    """Jet data for one system at one velocity point."""

    def __init__(self, sysdef: SystemDef, x, v):
        self.sys = sysdef
        self.n = sysdef.n
        self.x = np.asarray(x, dtype=float)
        self.v = np.asarray(v, dtype=float)
        self.m = 2 * self.n
        self.seeds = jets.seeds(list(self.x) + list(self.v), order=2)
        self.env = _env(self.seeds[:self.n], self.seeds[self.n:], "v")

    @property
    def point(self) -> PhasePoint:
        return PhasePoint.velocity(self.x, self.v)

    def dfiber(self, jet, k: int):
        return jets.derivative(jet, self.n + k)

    def eval_native(self, func):
        """Jet of a velocity-native component over (x, v)."""
        return _as_jet(func.evaluate(self.env), self.m)

    def eval_momentum_native(self, func):
        """Jet of (momentum-native func) composed with the fiber map,
        i.e. func(x, L(x, v)), over (x, v)."""
        env = _env(self.seeds[:self.n], self.L, "p")
        return _as_jet(func.evaluate(env), self.m)

    @cached_property
    def L(self):
        return tuple(self.eval_native(f) for f in self.sys.legendre)

    @cached_property
    def phi(self):
        return tuple(self.eval_native(f) for f in self.sys.force)

    @cached_property
    def gamma(self):
        n = self.n
        out = np.empty((n, n, n), dtype=object)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    out[k, i, j] = self.eval_native(self.sys.connection[k, i, j])
        return out

    @cached_property
    def connection_dense(self):
        """The connection as dense data (order, val, grad, hess)."""
        return jets.stack(self.gamma, self.m)

    @cached_property
    def g_values(self) -> np.ndarray:
        n = self.n
        return np.array([[self.L[q].grad[n + k] for k in range(n)] for q in range(n)])

    @cached_property
    def g_inv_values(self) -> np.ndarray:
        g = self.g_values
        if not np.all(np.isfinite(g)) or np.linalg.cond(g) > COND_LIMIT:
            raise SingularMetric(
                f"fiber Jacobian is singular at x={self.x.tolist()}, v={self.v.tolist()}")
        return np.linalg.inv(g)

    @cached_property
    def g_jets(self):
        n = self.n
        out = np.empty((n, n), dtype=object)
        for q in range(n):
            for k in range(n):
                out[q, k] = self.dfiber(self.L[q], k)
        return out

    @cached_property
    def g_inv_jets(self):
        self.g_inv_values  # condition check first
        return jets.invert_matrix(self.g_jets)


def _fiber_jets(sysdef: SystemDef, x, v, wrt_x=True):
    """First-order jets of the fiber map components over (x, v), or over
    v alone. x and v are (n,), or (n, N) for array-valued jets over N
    nodes."""
    n = sysdef.n
    nodes = v.shape[1:]
    if wrt_x:
        seeded = jets.seeds(np.concatenate([x, v]), order=1)
        env = _env(seeded[:n], seeded[n:], "v")
    else:
        env = _env(x if nodes else x.tolist(), jets.seeds(v, order=1), "v")
    m = 2 * n if wrt_x else n
    return [_as_jet(f.evaluate(env), m, 1, nodes) for f in sysdef.legendre]


def _at(k, **arrays):
    """Where an error happened: the point, or node k of a batch."""
    text = ", ".join(f"{name}={(a if k is None else a[:, k]).tolist()}"
                     for name, a in arrays.items())
    return text if k is None else f"{text} (node {k})"


def _newton(sysdef: SystemDef, x, p, guess=None, wrt_x=False):
    """Newton iteration for the inverse fiber map L(x, v) = p.

    x, p and guess are (n,), or (n, N) with a trailing node axis. Every
    node iterates until its own residual meets NEWTON_TOL, under its own
    condition check; converged nodes are not updated any more. Returns v
    and the first-order jets of L at v, over (x, v) with wrt_x (what
    theta needs) and over v alone otherwise (cheaper on scalar jets)."""
    n = sysdef.n
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if guess is None:
        guess = sysdef.newton_guess if sysdef.newton_guess is not None else p
    v = np.array(guess, dtype=float)
    batched = p.ndim > 1
    if batched and v.ndim == 1:
        v = np.repeat(v[:, None], p.shape[1], axis=1)
    for iteration in range(NEWTON_MAX_ITER + 1):
        Lj = _fiber_jets(sysdef, x, v, wrt_x)
        residual = np.array([j.value for j in Lj]) - p
        err = np.max(np.abs(residual), axis=0)
        todo = ~(err <= NEWTON_TOL)         # a nan residual is not converged
        if not (todo.any() if batched else todo):
            return v, Lj
        if iteration == NEWTON_MAX_ITER:
            k = int(np.argmax(np.where(todo, np.nan_to_num(err, nan=np.inf),
                                       -1.0))) if batched else None
            worst = err if k is None else err[k]
            raise NonConvergence(
                f"Newton stalled at residual {worst:.3e} solving the inverse "
                f"fiber map at {_at(k, x=x, p=p)}")
        G = np.stack([j.grad for j in Lj])[:, -n:]
        if not batched:
            if not np.all(np.isfinite(G)) or np.linalg.cond(G) > COND_LIMIT:
                raise SingularMetric(
                    f"fiber Jacobian singular during inversion at "
                    f"{_at(None, x=x, v=v)}")
            v = v + np.linalg.solve(G, -residual)
            continue
        # node-major systems of the nodes still iterating
        nodes = np.flatnonzero(todo)
        G = G.transpose(2, 0, 1)[nodes]
        cond = np.full(len(nodes), np.inf)
        finite = np.isfinite(G).all(axis=(1, 2))
        if finite.any():
            cond[finite] = np.linalg.cond(G[finite])
        if not np.all(cond <= COND_LIMIT):
            k = int(nodes[np.argmax(cond)])
            raise SingularMetric(
                f"fiber Jacobian singular during inversion at "
                f"{_at(k, x=x, v=v)}")
        step = np.linalg.solve(G, -residual.T[nodes][:, :, None])[:, :, 0]
        v[:, nodes] += step.T
    raise AssertionError("unreachable")


def _newton_solve(sysdef: SystemDef, x, p, guess=None):
    """Preimage v of the momentum p at x; see _newton."""
    return _newton(sysdef, x, p, guess)[0]


class PContext:
    """Jet data at a momentum point, built on the inverse fiber map.

    V holds second-order jets of the inverse components over (x, p).
    Any velocity-native jet from the inner context is transported here
    with compose(), which applies the chain rule through the map
    (x, p) -> (x, V(x, p))."""

    def __init__(self, sysdef: SystemDef, x, p):
        self.sys = sysdef
        self.n = n = sysdef.n
        self.x = np.asarray(x, dtype=float)
        self.p = np.asarray(p, dtype=float)
        self.m = 2 * n
        self.seeds = jets.seeds(list(self.x) + list(self.p), order=2)

        if sysdef.v_inverse is not None:
            env = _env(self.seeds[:n], self.seeds[n:], "p")
            self.V = tuple(_as_jet(f.evaluate(env), self.m) for f in sysdef.v_inverse)
            v_star = np.array([j.value for j in self.V])
            self.inner = VContext(sysdef, self.x, v_star)
        else:
            v_star = _newton_solve(sysdef, self.x, p)
            self.inner = VContext(sysdef, self.x, v_star)
            self.V = self._implicit_jets()
        self.transform = list(self.seeds[:n]) + list(self.V)

    def _implicit_jets(self):
        # differentiate L(x, V(x,p)) = p twice; second derivatives come
        # from linear solves against the fiber Jacobian
        n = self.n
        inner = self.inner
        G_inv = inner.g_inv_values
        dLdx = np.array([[inner.L[q].grad[m] for m in range(n)] for q in range(n)])
        J_x = -G_inv @ dLdx
        J_full = np.zeros((2 * n, 2 * n))
        J_full[:n, :n] = np.eye(n)
        J_full[n:, :n] = J_x
        J_full[n:, n:] = G_inv
        M = np.stack([J_full.T @ inner.L[q].hess @ J_full for q in range(n)])
        H = -np.einsum("sq,qab->sab", G_inv, M)
        return tuple(
            jets.Jet(inner.v[s], J_full[n + s].copy(), H[s]) for s in range(n))

    @property
    def point(self) -> PhasePoint:
        return PhasePoint.momentum(self.x, self.p)

    def dfiber(self, jet, k: int):
        return jets.derivative(jet, self.n + k)

    def compose(self, h):
        return jets.compose(h, self.transform)

    def eval_native(self, func):
        """Jet of a momentum-native component over (x, p)."""
        env = _env(self.seeds[:self.n], self.seeds[self.n:], "p")
        return _as_jet(func.evaluate(env), self.m)

    def eval_velocity_native(self, func):
        """Jet over (x, p) of a velocity-native component composed with
        the inverse fiber map."""
        return self.compose(self.inner.eval_native(func))

    @cached_property
    def connection_dense(self):
        """The connection pushed through the inverse map as dense data
        (order, val, grad, hess), every entry in one batched chain rule:
        grad = J^T g, hess = J^T H J + sum_a g_a T_a."""
        order, val, g, h = self.inner.connection_dense
        t_order, _, J, T = jets.stack(self.transform, self.m)
        if min(order, t_order) == 0:
            return 0, val, None, None
        if h is None or T is None:
            return 1, val, g @ J, None
        return 2, val, g @ J, J.T @ h @ J + np.tensordot(g, T, axes=1)

    @cached_property
    def gamma_p(self):
        return jets.from_dense(*self.connection_dense[1:])

    @cached_property
    def theta(self):
        """Force covector of the free system, transported: first-order
        jets over (x, p)."""
        n = self.n
        inner = self.inner
        out = []
        for i in range(n):
            acc = None
            for s in range(n):
                term = (jets.derivative(inner.L[i], s) * inner.seeds[n + s]
                        + inner.dfiber(inner.L[i], s) * inner.phi[s])
                acc = term if acc is None else acc + term
            out.append(self.compose(acc))
        return tuple(out)

    @cached_property
    def Q(self):
        """Full force covector: theta minus the connection correction."""
        n = self.n
        out = []
        for i in range(n):
            acc = self.theta[i]
            for j in range(n):
                for k in range(n):
                    acc = acc - self.gamma_p[k, i, j] * self.V[j] * self.seeds[n + k]
            out.append(acc)
        return tuple(out)


@dataclass(frozen=True)
class MetricPair:
    """Fiber Jacobian of the map and its inverse at one point."""

    lower: np.ndarray       # g[q][k] = dL_q/dv^k
    upper: np.ndarray       # matrix inverse
    product_deviation: float

    @property
    def n(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True)
class LegendreInverse:
    point: PhasePoint       # velocity point
    dv_dp: np.ndarray       # dV^s/dp_k, equals the upper metric
    dv_dx: np.ndarray       # dV^s/dx^m


def legendre_forward(sysdef: SystemDef, pt: PhasePoint) -> PhasePoint:
    """Map a velocity point to its momentum image p_i = L_i(x, v)."""
    if pt.rep is not Rep.VELOCITY:
        raise MixedRepresentationError("forward map expects a velocity point")
    env = _env(pt.x.tolist(), pt.fiber.tolist(), "v")
    return PhasePoint.momentum(pt.x, _values(sysdef.legendre, env))


def legendre_inverse(sysdef: SystemDef, pt: PhasePoint) -> LegendreInverse:
    """Invert the fiber map at a momentum point, with fiber Jacobians."""
    if pt.rep is not Rep.MOMENTUM:
        raise MixedRepresentationError("inverse map expects a momentum point")
    ctx = PContext(sysdef, pt.x, pt.fiber)
    n = sysdef.n
    dv_dp = np.array([[ctx.V[s].grad[n + k] for k in range(n)] for s in range(n)])
    dv_dx = np.array([[ctx.V[s].grad[m] for m in range(n)] for s in range(n)])
    return LegendreInverse(ctx.inner.point, dv_dp, dv_dx)


def metric(sysdef: SystemDef, pt: PhasePoint) -> MetricPair:
    """Metric pair at a point of either representation."""
    if pt.rep is Rep.MOMENTUM:
        pt = legendre_inverse(sysdef, pt).point
    ctx = VContext(sysdef, pt.x, pt.fiber)
    lower = ctx.g_values
    upper = ctx.g_inv_values
    n = sysdef.n
    dev = max(np.max(np.abs(lower @ upper - np.eye(n))),
              np.max(np.abs(upper @ lower - np.eye(n))))
    return MetricPair(lower, upper, float(dev))


def _theta(sysdef: SystemDef, x, v, Lj):
    """theta_i = dL_i/dx . v + dL_i/dv . Phi, the derivative of L_i along
    (v, Phi), from the jets Lj of the fiber map over (x, v) and Phi
    evaluated on floats; x and v are (n,) or (n, N)."""
    nodes = v.shape[1:]
    env = _env(x, v, "v") if nodes else _env(x.tolist(), v.tolist(), "v")
    direction = np.concatenate([v, _values(sysdef.force, env, nodes)])
    return np.einsum("im...,m...->i...", np.stack([j.grad for j in Lj]),
                     direction)


def theta_from_phi(sysdef: SystemDef, pt: PhasePoint) -> np.ndarray:
    """Values of the free force covector at a velocity point:
    theta_i = sum_s dL_i/dx^s v^s + sum_s dL_i/dv^s Phi^s."""
    if pt.rep is not Rep.VELOCITY:
        raise MixedRepresentationError("theta_from_phi expects a velocity point")
    return _theta(sysdef, pt.x, pt.fiber, _fiber_jets(sysdef, pt.x, pt.fiber))


def _phase_flow(sysdef: SystemDef, x, p, guess=None):
    """Velocity v and free force covector theta at momentum points, the
    right-hand side dx/dt = v, dp/dt = theta of a trajectory. x, p and
    the Newton guess are (n,) or (n, N) over N nodes. theta reuses the
    fiber map jets of the last Newton step, so the map is evaluated once
    more only after a closed-form inverse."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if sysdef.v_inverse is not None:
        v = _values(sysdef.v_inverse, _env(x, p, "p"), p.shape[1:])
        Lj = _fiber_jets(sysdef, x, v)
    else:
        v, Lj = _newton(sysdef, x, p, guess, wrt_x=True)
    return v, _theta(sysdef, x, v, Lj)


def force_vector(sysdef: SystemDef, pt: PhasePoint) -> np.ndarray:
    """F^i = Phi^i + sum_jk Gamma^i_jk v^j v^k at a velocity point."""
    if pt.rep is not Rep.VELOCITY:
        raise MixedRepresentationError("force_vector expects a velocity point")
    n = sysdef.n
    env = _env(pt.x.tolist(), pt.fiber.tolist(), "v")
    out = _values(sysdef.force, env)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i] += (float(sysdef.connection[i, j, k].evaluate(env))
                           * pt.fiber[j] * pt.fiber[k])
    return out


def force_covector(sysdef: SystemDef, pt: PhasePoint) -> np.ndarray:
    """Q_i = theta_i - sum_jk Gamma^k_ij V^j p_k at a momentum point."""
    if pt.rep is not Rep.MOMENTUM:
        raise MixedRepresentationError("force_covector expects a momentum point")
    ctx = PContext(sysdef, pt.x, pt.fiber)
    return np.array([q.value for q in ctx.Q])


def dual_legendre_vector(sysdef: SystemDef, pt: PhasePoint) -> np.ndarray:
    """Vector dual to the fiber map covector: L^i = sum_q L_q g^{qi}."""
    if pt.rep is not Rep.VELOCITY:
        raise MixedRepresentationError("dual raising expects a velocity point")
    ctx = VContext(sysdef, pt.x, pt.fiber)
    Lvals = np.array([j.value for j in ctx.L])
    return Lvals @ ctx.g_inv_values


def dual_force_covector(sysdef: SystemDef, pt: PhasePoint) -> np.ndarray:
    """Covector dual to the force vector: F_q = sum_i g_qi F^i."""
    if pt.rep is not Rep.VELOCITY:
        raise MixedRepresentationError("dual lowering expects a velocity point")
    ctx = VContext(sysdef, pt.x, pt.fiber)
    return ctx.g_values @ force_vector(sysdef, pt)


def validate_system(sysdef: SystemDef, rng=None, samples: int = 8):
    """Numeric spot checks of the structural requirements: the fiber
    map sends zero to zero, the connection (and gauge, if any) is
    symmetric, and a closed-form inverse actually inverts the map."""
    rng = rng or np.random.default_rng(0)
    n = sysdef.n
    for _ in range(samples):
        x = rng.uniform(-1.0, 1.0, n)
        env = _env(x.tolist(), [0.0] * n, "v")
        at_zero = [float(f.evaluate(env)) for f in sysdef.legendre]
        if np.max(np.abs(at_zero)) > 1e-9:
            raise ValidationError(
                f"fiber map does not send v=0 to p=0 at x={x.tolist()}: {at_zero}")

        v = rng.uniform(0.5, 1.5, n)
        env = _env(x.tolist(), v.tolist(), "v")
        for k in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    a = float(sysdef.connection[k, i, j].evaluate(env))
                    b = float(sysdef.connection[k, j, i].evaluate(env))
                    if abs(a - b) > 1e-10:
                        raise ValidationError(
                            f"connection is asymmetric in its lower pair at "
                            f"[{k}][{i}][{j}]: {a} vs {b}")
                    if sysdef.gauge is not None:
                        ta = float(sysdef.gauge[k, i, j].evaluate(env))
                        tb = float(sysdef.gauge[k, j, i].evaluate(env))
                        if abs(ta - tb) > 1e-10:
                            raise ValidationError(
                                f"gauge tensor is asymmetric at [{k}][{i}][{j}]")

        if sysdef.v_inverse is not None:
            p = rng.uniform(0.5, 1.5, n)
            penv = _env(x.tolist(), p.tolist(), "p")
            v_closed = [float(f.evaluate(penv)) for f in sysdef.v_inverse]
            env = _env(x.tolist(), v_closed, "v")
            back = np.array([float(f.evaluate(env)) for f in sysdef.legendre])
            if np.max(np.abs(back - p)) > 1e-8:
                raise ValidationError(
                    f"closed-form inverse disagrees with the fiber map at "
                    f"x={x.tolist()}, p={p.tolist()} (residual {np.max(np.abs(back - p)):.2e})")
