"""Newtonian systems under a generalized fiber map.

A system is defined by n components L_i(x, v) of the fiber map taking
velocities to momenta (or the expressions dLag/dv_i of a Lagrangian),
n force components Phi^i(x, v), a symmetric connection Gamma^k_ij(x, v),
and optionally the closed-form inverse V^i(x, p) and a gauge T^k_ij(x, v).

Two evaluation contexts do the real work. VContext seeds second-order
derivative data (jets.Dense) at a velocity point, evaluates components
over it and stacks them into one Dense per field. PContext inverts the
fiber map at a momentum point (closed form when given, Newton plus
implicit differentiation otherwise), keeps an inner VContext at the
preimage, and pushes its dense data through the inverse map by the
chain rule.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr, jets
from .errors import (AsymmetricGauge, EvalError, MixedRepresentationError,
                     NonConvergence, SingularMetric, ValidationError)
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


def lagrangian_to_legendre(lagrangian: expr.Expression):
    """Fiber map of a Lagrangian: the expressions L_i = d(lagrangian)/dv_i,
    differentiated once here."""
    if lagrangian.fiber_kind == "p":
        raise MixedRepresentationError("generating scalar must be velocity-native")
    return tuple(expr.derivative(lagrangian, f"v{i + 1}")
                 for i in range(lagrangian.dimension))


def _vector(funcs, n, what, native="velocity"):
    """The n components of a vector field, all of one fiber kind."""
    if len(funcs) != n:
        raise ValidationError(f"need {n} {what} components, got {len(funcs)}")
    for f in funcs:
        if f.fiber_kind == ("p" if native == "velocity" else "v") or f.dimension != n:
            raise ValidationError(f"{what} components must be {native}-native")
    return tuple(funcs)


def _component_array(entries, n, what):
    """The components of a velocity-native (1, 2) tensor field as an
    (n, n, n) object array."""
    arr = np.empty((n, n, n), dtype=object)
    for k, i, j in np.ndindex(n, n, n):
        f = arr[k, i, j] = entries[k][i][j]
        if f.dimension != n:
            raise ValidationError(f"{what}[{k}][{i}][{j}] has wrong dimension")
        if f.fiber_kind == "p":
            raise ValidationError(f"{what} components must be velocity-native")
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
        self.legendre = _vector(legendre, n, "fiber map")
        self.force = _vector([ConstFunc(0.0, n) for _ in range(n)]
                             if force is None else force, n, "force")
        self.connection = _component_array(
            zero_connection(n) if connection is None else connection, n,
            "connection")
        self.v_inverse = (None if v_inverse is None
                          else _vector(v_inverse, n, "inverse", "momentum"))
        self.gauge = None if gauge is None else _component_array(gauge, n, "gauge")

        if newton_guess is not None:
            newton_guess = np.asarray(newton_guess, dtype=float)
            if newton_guess.shape != (n,):
                raise ValidationError("newton guess needs one value per dimension")
        self.newton_guess = newton_guess


def _env(x, fiber, kind):
    """Evaluation environment binding x1.. and <kind>1.. to the entries
    of x and fiber: floats, Dense data, or float arrays over nodes."""
    env = {}
    for i in range(len(x)):
        env[f"x{i + 1}"] = x[i]
        env[f"{kind}{i + 1}"] = fiber[i]
    return env


def _values(funcs, env, nodes=()):
    """Float values of components, shape (len(funcs),) + nodes. numpy
    warnings over float arrays are silenced, as floats raise none:
    callers compare or check the values."""
    out = np.empty((len(funcs),) + nodes)
    with np.errstate(all="ignore"):
        for i, f in enumerate(funcs):
            out[i] = f.evaluate(env)
    return out


def _component_name(what, idx):
    """A component's name as system files write it (L1, Gamma_1_12),
    or, with what=None, its index in an evaluated field."""
    if what is None:
        return f"field component {[int(i) for i in idx]}"
    digits = [str(i + 1) for i in idx]
    if len(digits) == 3:
        return f"{what}_{digits[0]}_{digits[1]}{digits[2]}"
    return what + "".join(digits)


def _flat(components):
    """Layout and flat list of one component or nested sequences of
    them."""
    if isinstance(components, np.ndarray):
        return components.shape, list(components.flat)
    if hasattr(components, "evaluate"):
        return (), [components]
    parts = [_flat(c) for c in components]
    return (len(parts),) + parts[0][0], [f for _, fs in parts for f in fs]


def _evaluate(funcs, env):
    """Values of components in env: Dense data or constants. numpy
    warnings are silenced: overflow is caught by _checked on the
    stacked result."""
    with np.errstate(all="ignore"):
        return [f.evaluate(env) for f in funcs]


def _checked(dense, what, **point):
    """Return dense if its values and derivatives are all finite, else
    raise EvalError naming the first bad component and the point."""
    ok = np.isfinite(dense.val)
    if dense.grad is not None:
        ok = ok & np.isfinite(dense.grad).all(axis=-1)
    if dense.hess is not None:
        ok = ok & np.isfinite(dense.hess).all(axis=(-2, -1))
    if not ok.all():
        idx = np.unravel_index(np.argmin(ok), ok.shape)
        raise EvalError(f"non-finite value or derivatives of "
                        f"{_component_name(what, idx)} at {_at(None, **point)}")
    return dense


def _dense(components, env, m, what, **point):
    """Checked dense data over m variables of components evaluated in
    env; `what` and `point` name a failing component."""
    shape, funcs = _flat(components)
    dense = jets.stack(_evaluate(funcs, env), m)
    if len(shape) != 1:
        dense = dense.reshape(shape)
    return _checked(dense, what, **point)


class VContext:
    """Derivative data for one system at one velocity point, as dense
    data over (x, v). The fiber map is also kept per component, as the
    evaluator computes it, because it binds p in eval_momentum_native."""

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

    def eval_native(self, components):
        """Dense data over (x, v) of velocity-native components: one, or
        nested sequences of them."""
        return _dense(components, self.env, self.m, None, x=self.x, v=self.v)

    def eval_momentum_native(self, components):
        """Dense data over (x, v) of momentum-native components composed
        with the fiber map, i.e. func(x, L(x, v))."""
        env = _env(self.seeds[:self.n], self.L, "p")
        return _dense(components, env, self.m, None, x=self.x, v=self.v)

    @cached_property
    def L(self):
        return tuple(_evaluate(self.sys.legendre, self.env))

    @cached_property
    def L_dense(self):
        return _checked(jets.stack(self.L, self.m), "L", x=self.x, v=self.v)

    @cached_property
    def phi(self):
        return _dense(self.sys.force, self.env, self.m, "Phi", x=self.x, v=self.v)

    @cached_property
    def gamma(self):
        return _dense(self.sys.connection, self.env, self.m, "Gamma",
                      x=self.x, v=self.v)

    @cached_property
    def g_jets(self):
        """The fiber Jacobian g[q, k] = dL_q/dv^k, first order."""
        return jets.derivative(self.L_dense, slice(self.n, None))

    @cached_property
    def g_values(self) -> np.ndarray:
        return self.g_jets.val

    @cached_property
    def g_inv_values(self) -> np.ndarray:
        g = self.g_values
        if not np.all(np.isfinite(g)) or np.linalg.cond(g) > COND_LIMIT:
            raise SingularMetric(
                f"fiber Jacobian is singular at x={self.x.tolist()}, v={self.v.tolist()}")
        return np.linalg.inv(g)

    @cached_property
    def g_inv_jets(self):
        self.g_inv_values  # condition check first
        return jets.invert_matrix(self.g_jets)


def _fiber_jets(sysdef: SystemDef, x, v, wrt_x=True):
    """First-order Dense data of the fiber map over (x, v), or over v
    alone. x and v are (n,), or (n, N) over N nodes; the data then has
    shape (n, N), the node axis leading its derivative axis."""
    n = sysdef.n
    nodes = v.shape[1:]
    if wrt_x:
        seeded = jets.seeds(np.concatenate([x, v]), order=1)
        env = _env(seeded[:n], seeded[n:], "v")
    else:
        env = _env(x if nodes else x.tolist(), jets.seeds(v, order=1), "v")
    return jets.stack([f.evaluate(env) for f in sysdef.legendre],
                      2 * n if wrt_x else n, nodes)


def _at(k, **arrays):
    """Where an error happened: the point, or node k of a batch."""
    text = ", ".join(f"{name}={(a if k is None else a[:, k]).tolist()}"
                     for name, a in arrays.items())
    return text if k is None else f"{text} (node {k})"


def _conditions(G):
    """Condition numbers of a stack of matrices, inf where one has a
    non-finite entry."""
    cond = np.full(len(G), np.inf)
    finite = np.isfinite(G).all(axis=(1, 2))
    if finite.any():
        cond[finite] = np.linalg.cond(G[finite])
    return cond


def _newton(sysdef: SystemDef, x, p):
    """Preimage v of the momentum p at x: Newton iteration for the
    inverse fiber map L(x, v) = p from the system's guess, or from p.

    x and p are (n,), or (n, N) with a trailing node axis. Every node
    iterates until its own residual meets NEWTON_TOL, under its own
    condition check; converged nodes are not updated any more."""
    n = sysdef.n
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    v = np.array(sysdef.newton_guess if sysdef.newton_guess is not None
                 else p, dtype=float)
    batched = p.ndim > 1
    if batched and v.ndim == 1:
        v = np.repeat(v[:, None], p.shape[1], axis=1)
    for iteration in range(NEWTON_MAX_ITER + 1):
        Lj = _fiber_jets(sysdef, x, v, wrt_x=False)
        residual = Lj.val - p
        err = np.max(np.abs(residual), axis=0)
        todo = ~(err <= NEWTON_TOL)         # a nan residual is not converged
        if not (todo.any() if batched else todo):
            return v
        if iteration == NEWTON_MAX_ITER:
            k = int(np.argmax(np.where(todo, np.nan_to_num(err, nan=np.inf),
                                       -1.0))) if batched else None
            worst = err if k is None else err[k]
            raise NonConvergence(
                f"Newton stalled at residual {worst:.3e} solving the inverse "
                f"fiber map at {_at(k, x=x, p=p)}")
        if not batched:
            G = Lj.grad[:, -n:]
            if not np.all(np.isfinite(G)) or np.linalg.cond(G) > COND_LIMIT:
                raise SingularMetric(
                    f"fiber Jacobian singular during inversion at "
                    f"{_at(None, x=x, v=v)}")
            v = v + np.linalg.solve(G, -residual)
            continue
        # node-major systems of the nodes still iterating
        nodes = np.flatnonzero(todo)
        G = Lj.grad[:, nodes, -n:].transpose(1, 0, 2)
        cond = _conditions(G)
        if not np.all(cond <= COND_LIMIT):
            k = int(nodes[np.argmax(cond)])
            raise SingularMetric(
                f"fiber Jacobian singular during inversion at "
                f"{_at(k, x=x, v=v)}")
        step = np.linalg.solve(G, -residual.T[nodes][:, :, None])[:, :, 0]
        v[:, nodes] += step.T


class PContext:
    """Derivative data at a momentum point, built on the inverse fiber
    map.

    V is the dense data of the inverse components over (x, p). The
    inner VContext sits at the preimage, and its dense data is pushed
    here by jets.compose through `transform`, the map
    (x, p) -> (x, V(x, p))."""

    def __init__(self, sysdef: SystemDef, x, p):
        self.sys = sysdef
        self.n = n = sysdef.n
        self.x = np.asarray(x, dtype=float)
        self.p = np.asarray(p, dtype=float)
        self.m = 2 * n
        self.seeds = jets.seeds(list(self.x) + list(self.p), order=2)
        self.env = _env(self.seeds[:n], self.seeds[n:], "p")

        if sysdef.v_inverse is not None:
            self.V = _dense(sysdef.v_inverse, self.env, self.m, "V",
                            x=self.x, p=self.p)
            self.inner = VContext(sysdef, self.x, self.V.val)
        else:
            with np.errstate(all="ignore"):    # Newton checks its own steps
                v_star = _newton(sysdef, self.x, p)
            self.inner = VContext(sysdef, self.x, v_star)
            self.V = self._implicit_jets()

    def _implicit_jets(self):
        # differentiate L(x, V(x,p)) = p twice; second derivatives come
        # from linear solves against the fiber Jacobian
        n = self.n
        inner = self.inner
        G_inv = inner.g_inv_values
        L = inner.L_dense
        J_full = np.zeros((2 * n, 2 * n))
        J_full[:n, :n] = np.eye(n)
        J_full[n:, :n] = -G_inv @ L.grad[:, :n]
        J_full[n:, n:] = G_inv
        H = -np.einsum("sq,qab->sab", G_inv, J_full.T @ L.hess @ J_full)
        return jets.Dense(2, inner.v.copy(), J_full[n:], H)

    @property
    def point(self) -> PhasePoint:
        return PhasePoint.momentum(self.x, self.p)

    @cached_property
    def transform(self):
        n, m = self.n, self.m
        return jets.Dense(2, np.concatenate([self.x, self.V.val]),
                          np.concatenate([np.eye(n, m), self.V.grad]),
                          np.concatenate([np.zeros((n, m, m)), self.V.hess]))

    def eval_native(self, components):
        """Dense data over (x, p) of momentum-native components."""
        return _dense(components, self.env, self.m, None, x=self.x, p=self.p)

    def eval_velocity_native(self, components):
        """Dense data over (x, p) of velocity-native components composed
        with the inverse fiber map."""
        return jets.compose(self.inner.eval_native(components), self.transform)

    @cached_property
    def gamma_p(self):
        """The connection pushed through the inverse map."""
        return jets.compose(self.inner.gamma, self.transform)

    @cached_property
    def theta(self):
        """Force covector of the free system, theta_i = dL_i/dx . v +
        dL_i/dv . Phi at the preimage, transported: first order over
        (x, p)."""
        n = self.n
        inner = self.inner
        fiber = jets.stack(inner.seeds[n:], inner.m)
        theta = (jets.einsum("is,s->i", jets.derivative(inner.L_dense, slice(n)),
                             fiber)
                 + jets.einsum("is,s->i",
                               jets.derivative(inner.L_dense, slice(n, None)),
                               inner.phi))
        return jets.compose(theta, self.transform)

    @cached_property
    def Q(self):
        """Full force covector: theta minus the connection correction,
        first order like theta."""
        fiber = jets.stack(self.seeds[self.n:], self.m)
        return self.theta - jets.einsum("kij,j,k->i", self.gamma_p.truncated(1),
                                        self.V, fiber)


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
    return LegendreInverse(ctx.inner.point, ctx.V.grad[:, n:], ctx.V.grad[:, :n])


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
    theta_i = sum_s dL_i/dx^s v^s + sum_s dL_i/dv^s Phi^s, the
    derivative of L_i along (v, Phi)."""
    if pt.rep is not Rep.VELOCITY:
        raise MixedRepresentationError("theta_from_phi expects a velocity point")
    env = _env(pt.x.tolist(), pt.fiber.tolist(), "v")
    direction = np.concatenate([pt.fiber, _values(sysdef.force, env)])
    return np.einsum("im,m->i", _fiber_jets(sysdef, pt.x, pt.fiber).grad,
                     direction)


def _samples(rng, n, parts):
    """One block of the validation plan: `parts` n-vectors at each of 8
    samples, drawn sample by sample, x in [-1, 1] first and then fibers
    in [0.5, 1.5]. Returns the parts as (n, 8) arrays, equal bit for
    bit to rng.uniform(lo, hi, n) calls, which scale rng.random()."""
    x, *fibers = rng.random((8, parts, n)).transpose(1, 2, 0)
    return [2.0 * x - 1.0] + [f + 0.5 for f in fibers]


def _check_symmetric(tensor, what, error, x, v):
    """Raise `error` unless tensor[k][i][j] and tensor[k][j][i] agree
    within 1e-10 at the samples (x, v), (n, 8) arrays. The message
    names the first failing sample and its largest gap."""
    vals = _values(tensor.ravel(), _env(x, v, "v"), (8,)).reshape(
        tensor.shape + (8,))
    gap = np.abs(vals - vals.transpose(0, 2, 1, 3))
    bad = gap.max(axis=(0, 1, 2)) > 1e-10
    if bad.any():
        s = int(np.argmax(bad))
        k, i, j = np.unravel_index(np.argmax(gap[..., s]), tensor.shape)
        raise error(f"{what} is asymmetric in its lower pair at "
                    f"[{k}][{i}][{j}]: {vals[k, i, j, s]} vs {vals[k, j, i, s]}")


def validate_system(sysdef: SystemDef):
    """Numeric spot checks of the structural requirements: the fiber
    map sends zero to zero, the connection (and gauge, if any) is
    symmetric, and a closed-form inverse actually inverts the map.

    Each check evaluates its components once over its block of the
    plan (_samples), drawn from default_rng(0) in this order: the
    connection's, the gauge tensor's, then x (and p with an inverse).
    A failure names the first failing sample."""
    n = sysdef.n
    rng = np.random.default_rng(0)
    _check_symmetric(sysdef.connection, "connection", ValidationError,
                     *_samples(rng, n, 2))
    if sysdef.gauge is not None:
        _check_symmetric(sysdef.gauge, "gauge tensor", AsymmetricGauge,
                         *_samples(rng, n, 2))
    if sysdef.v_inverse is None:
        x, = _samples(rng, n, 1)
    else:
        x, p = _samples(rng, n, 2)
    at_zero = _values(sysdef.legendre, _env(x, np.zeros_like(x), "v"), (8,))
    bad = np.max(np.abs(at_zero), axis=0) > 1e-9
    if sysdef.v_inverse is not None:
        v_closed = _values(sysdef.v_inverse, _env(x, p, "p"), (8,))
        back = _values(sysdef.legendre, _env(x, v_closed, "v"), (8,))
        residual = np.max(np.abs(back - p), axis=0)
        bad |= residual > 1e-8
    if not bad.any():
        return
    s = int(np.argmax(bad))
    if np.max(np.abs(at_zero[:, s])) > 1e-9:
        raise ValidationError(
            f"fiber map does not send v=0 to p=0 at x={x[:, s].tolist()}: "
            f"{at_zero[:, s].tolist()}")
    raise ValidationError(
        f"closed-form inverse disagrees with the fiber map at "
        f"x={x[:, s].tolist()}, p={p[:, s].tolist()} (residual {residual[s]:.2e})")
