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


def _float_env(sysdef, x, fiber, kind):
    env = {}
    for i in range(sysdef.n):
        env[f"x{i + 1}"] = float(x[i])
        env[f"{kind}{i + 1}"] = float(fiber[i])
    return env


def _as_jet(value, m, order=2):
    if isinstance(value, jets.Jet):
        return value
    return jets.constant(float(value), m, order=order)


class VContext:
    """Jet data for one system at one velocity point."""

    def __init__(self, sysdef: SystemDef, x, v):
        self.sys = sysdef
        self.n = sysdef.n
        self.x = np.asarray(x, dtype=float)
        self.v = np.asarray(v, dtype=float)
        self.m = 2 * self.n
        self.seeds = jets.seeds(list(self.x) + list(self.v), order=2)
        self.env = {}
        for i in range(self.n):
            self.env[f"x{i + 1}"] = self.seeds[i]
            self.env[f"v{i + 1}"] = self.seeds[self.n + i]

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
        env = {f"x{i + 1}": self.seeds[i] for i in range(self.n)}
        for i in range(self.n):
            env[f"p{i + 1}"] = self.L[i]
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


def _newton_solve(sysdef: SystemDef, x, p, guess=None):
    n = sysdef.n
    p = np.asarray(p, dtype=float)
    if guess is None:
        guess = sysdef.newton_guess if sysdef.newton_guess is not None else p
    v = np.array(guess, dtype=float)
    for iteration in range(NEWTON_MAX_ITER + 1):
        fiber_jets = jets.seeds(list(v), order=1)
        env = {f"x{i + 1}": float(x[i]) for i in range(n)}
        for i in range(n):
            env[f"v{i + 1}"] = fiber_jets[i]
        Lj = [_as_jet(f.evaluate(env), n, order=1) for f in sysdef.legendre]
        residual = np.array([j.value for j in Lj]) - p
        if np.max(np.abs(residual)) <= NEWTON_TOL:
            return v
        if iteration == NEWTON_MAX_ITER:
            raise NonConvergence(
                f"Newton stalled at residual {np.max(np.abs(residual)):.3e} "
                f"solving the inverse fiber map at x={list(x)}, p={p.tolist()}")
        G = np.stack([j.grad for j in Lj])
        if not np.all(np.isfinite(G)) or np.linalg.cond(G) > COND_LIMIT:
            raise SingularMetric(
                f"fiber Jacobian singular during inversion at x={list(x)}, v={v.tolist()}")
        v = v + np.linalg.solve(G, -residual)
    raise AssertionError("unreachable")


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
            env = {}
            for i in range(n):
                env[f"x{i + 1}"] = self.seeds[i]
                env[f"p{i + 1}"] = self.seeds[n + i]
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
        env = {}
        for i in range(self.n):
            env[f"x{i + 1}"] = self.seeds[i]
            env[f"p{i + 1}"] = self.seeds[self.n + i]
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
    env = _float_env(sysdef, pt.x, pt.fiber, "v")
    p = np.array([float(f.evaluate(env)) for f in sysdef.legendre])
    return PhasePoint.momentum(pt.x, p)


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


def theta_from_phi(sysdef: SystemDef, pt: PhasePoint) -> np.ndarray:
    """Values of the free force covector at a velocity point:
    theta_i = sum_s dL_i/dx^s v^s + sum_s dL_i/dv^s Phi^s."""
    if pt.rep is not Rep.VELOCITY:
        raise MixedRepresentationError("theta_from_phi expects a velocity point")
    n = sysdef.n
    seeded = jets.seeds(list(pt.x) + list(pt.fiber), order=1)
    env = {}
    for i in range(n):
        env[f"x{i + 1}"] = seeded[i]
        env[f"v{i + 1}"] = seeded[n + i]
    Lj = [_as_jet(f.evaluate(env), 2 * n, order=1) for f in sysdef.legendre]
    phi = np.array([jets.value_of(f.evaluate(env)) for f in sysdef.force])
    out = np.zeros(n)
    for i in range(n):
        out[i] = (Lj[i].grad[:n] @ pt.fiber) + (Lj[i].grad[n:] @ phi)
    return out


def force_vector(sysdef: SystemDef, pt: PhasePoint) -> np.ndarray:
    """F^i = Phi^i + sum_jk Gamma^i_jk v^j v^k at a velocity point."""
    if pt.rep is not Rep.VELOCITY:
        raise MixedRepresentationError("force_vector expects a velocity point")
    n = sysdef.n
    env = _float_env(sysdef, pt.x, pt.fiber, "v")
    out = np.array([float(f.evaluate(env)) for f in sysdef.force])
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
        env = _float_env(sysdef, x, np.zeros(n), "v")
        at_zero = [float(f.evaluate(env)) for f in sysdef.legendre]
        if np.max(np.abs(at_zero)) > 1e-9:
            raise ValidationError(
                f"fiber map does not send v=0 to p=0 at x={x.tolist()}: {at_zero}")

        v = rng.uniform(0.5, 1.5, n)
        env = _float_env(sysdef, x, v, "v")
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
            penv = _float_env(sysdef, x, p, "p")
            v_closed = [float(f.evaluate(penv)) for f in sysdef.v_inverse]
            env = _float_env(sysdef, x, v_closed, "v")
            back = np.array([float(f.evaluate(env)) for f in sysdef.legendre])
            if np.max(np.abs(back - p)) > 1e-8:
                raise ValidationError(
                    f"closed-form inverse disagrees with the fiber map at "
                    f"x={x.tolist()}, p={p.tolist()} (residual {np.max(np.abs(back - p)):.2e})")
