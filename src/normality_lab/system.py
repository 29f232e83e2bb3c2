"""Newtonian systems under a generalized fiber map.

A system is defined by n components L_i(x, v) of the fiber map taking
velocities to momenta (or the expressions dLag/dv_i of a Lagrangian),
n force components Phi^i(x, v), a symmetric connection Gamma^k_ij(x, v),
and optionally the closed-form inverse V^i(x, p) and a gauge T^k_ij(x, v).

Two evaluation contexts do the real work. Their base seeds derivative
data (jets.Dense) of its order, 1 or 2, at a point of its
representation, ctx.rep, and evaluates components over it into one
Dense per field by _evaluate, the one evaluator: Newton, load checks,
legendre_forward and the shift read values from it too, and every
failure in it names its component and point. VContext adds the fields
of a velocity point. PContext inverts the fiber map at a momentum
point (closed form, or Newton plus implicit differentiation), keeps an
inner VContext at the preimage, and pushes its dense data through the
inverse map by the chain rule. Phi, Gamma and the gauge tensor are
first order in either, since no formula reads their second
derivatives; the bundles need a second-order context, for the fiber
map and its inverse. Each context keeps the fiber correction of its
horizontal derivatives, N and dN, computed from its own connection on
first use.

Both take one point, x and fiber of shape (n,), or a batch of N
points, of shape (N, n). The batch axis then leads every field and its
derivative data, and each component is evaluated once for the whole
batch; every entry of a batch has the bits it has alone.
"""

import copy
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import expr, jets
from .jets import c_einsum
from .errors import (AsymmetricGauge, EvalError, MixedRepresentationError,
                     NonConvergence, SingularMetric, ValidationError)
from .phase import PhasePoint, Rep

COND_LIMIT = 1e12
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
# the sampling box: configurations x and fibers are drawn uniformly
# from these bounds, by the load plan and by every sampled check
X_BOX = (-1.0, 1.0)
FIBER_BOX = (0.5, 1.5)


class ConstFunc:
    """Constant scalar component."""

    __slots__ = ("value", "dimension")
    fiber_kind = None

    def __init__(self, value: float, dimension: int):
        self.value = float(value)
        self.dimension = dimension

    def evaluate(self, env):
        return self.value

    evaluate_raw = evaluate


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
    (n, n, n) object array, from nested sequences or such an array.
    Each distinct component is checked once, and a failure names its
    first entry."""
    arr = np.array(entries, dtype=object)
    if arr.shape != (n, n, n):
        raise ValidationError(f"{what} needs shape {(n, n, n)}, got "
                              f"{arr.shape}")
    _, funcs, index = _flat(arr)
    for k, f in enumerate(funcs):
        if f.dimension != n:
            idx = "".join(f"[{i}]" for i in _first(index, k, arr.shape))
            raise ValidationError(f"{what}{idx} has wrong dimension")
        if f.fiber_kind == "p":
            raise ValidationError(f"{what} components must be velocity-native")
    return arr


def zero_connection(n: int):
    zero = ConstFunc(0.0, n)
    return [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]


class SystemDef:
    """Complete system definition. Components are expression-like
    objects with .evaluate(env)/.dimension/.fiber_kind; the shift
    evaluates force components by .evaluate_raw(env) where they all
    have it."""

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
            if not np.isfinite(newton_guess).all():
                raise ValidationError("newton guess must be finite")
        self.newton_guess = newton_guess


def _env(x, fiber, kind):
    """Evaluation environment binding x1.. and <kind>1.. to the entries
    of x and fiber, sequences indexed by coordinate: floats, Dense data,
    or float arrays over nodes (rows of a transposed (N, n) array)."""
    env = {}
    for i in range(len(x)):
        env[f"x{i + 1}"] = x[i]
        env[f"{kind}{i + 1}"] = fiber[i]
    return env


def sup_norm(a, batch=()):
    """max |a| per point: over every axis of a but the batch axes."""
    return np.max(np.abs(a), axis=tuple(range(len(batch), np.ndim(a))))


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
    """Layout of one component or nested sequences of them, as
    np.asarray gives it, the distinct components (by identity) in order
    of first occurrence, and the index of each entry among them, None
    when every entry is distinct. A component that fills several
    entries, as a mirrored connection entry or a shared zero does, is
    evaluated once."""
    layout = np.asarray(components, dtype=object)
    funcs = layout.ravel().tolist()
    slots = {}
    index = [slots.setdefault(id(f), len(slots)) for f in funcs]
    if len(slots) == len(funcs):
        return layout.shape, funcs, None
    return layout.shape, list({id(f): f for f in funcs}.values()), np.array(index)


def _first(index, k, shape):
    """The index in `shape` of the first entry that distinct component k
    fills."""
    return np.unravel_index(k if index is None else int(np.argmax(index == k)),
                            shape)


def _evaluate(components, env, batch=(), m=0, order=0, what=None, where=None,
              **point):
    """Dense data of shape batch + layout (_flat) of components in env,
    over m variables, at `order` or the lowest order of the entries:
    order 0, the values alone, in an environment of floats. Each
    distinct component is evaluated once. An EvalError names its
    component's first entry and the point, or the failing node k of a
    batch, by where(k) if given, else by _at over the point's arrays.
    numpy warnings are silenced: callers check the result, most by
    _checked."""
    shape, funcs, index = _flat(components)
    out = []
    with np.errstate(all="ignore"):
        for k, f in enumerate(funcs):
            try:
                out.append(f.evaluate(env))
            except EvalError as e:
                name = _component_name(what, _first(index, k, shape))
                at = where(e.node or 0) if where else _at(e.node or 0, **point)
                raise EvalError(f"in {name}: {e.reason} at {at}") from None
    dense = jets.stack(out, m, batch, order, index)
    return dense if len(shape) == 1 else dense.reshape(batch + shape)


def _checked(dense, what, batch=(), **point):
    """Return dense if its values and derivatives are all finite, else
    raise EvalError naming the first bad component and the point, or
    the first bad point of a batch."""
    ok = np.isfinite(dense.val)
    if dense.grad is not None:
        ok = ok & np.isfinite(dense.grad).all(axis=-1)
    if dense.hess is not None:
        ok = ok & np.isfinite(dense.hess).all(axis=(-2, -1))
    if not ok.all():
        idx = np.unravel_index(np.argmin(ok), ok.shape)
        raise EvalError(f"non-finite value or derivatives of "
                        f"{_component_name(what, idx[len(batch):])} at "
                        f"{_at(*idx[:len(batch)], **point)}")
    return dense


def _singular(g):
    """None when the matrix g, or every matrix of a batch, is finite and
    conditioned within COND_LIMIT; else the index of the worst
    conditioned matrix, 0 for a lone one."""
    cond = _conditions(g.reshape((-1,) + g.shape[-2:]))
    return None if np.all(cond <= COND_LIMIT) else int(np.argmax(cond))


class _Context:
    """What both contexts share: the system, a point of the representation
    `rep` or a batch, its seeds over (x, fiber) at `order` (1 or 2), and
    checked evaluation, which names a failing component and point
    x=..., v=... or x=..., p=...."""

    def __init__(self, sysdef: SystemDef, x, fiber, rep: Rep, order: int):
        self.sys = sysdef
        self.n = n = sysdef.n
        self.m = 2 * n
        self.rep = rep
        self.order = order
        self.x = x = np.asarray(x, dtype=float)
        self.fiber = fiber = np.asarray(fiber, dtype=float)
        self.batch = x.shape[:-1]
        self.seeds = jets.seeds(np.concatenate([x, fiber], axis=-1).T,
                                order=order)
        self.env = _env(self.seeds[:n], self.seeds[n:], rep.value)
        # over first-order seeds, for the fields whose second derivatives
        # no formula reads: Phi, Gamma, T
        first = [s.truncated(1) for s in self.seeds]
        self.env1 = _env(first[:n], first[n:], rep.value)

    @property
    def point(self) -> PhasePoint:
        return PhasePoint(self.x, self.fiber, self.rep)

    @property
    def _where(self):
        return {"x": self.x, self.rep.value: self.fiber}

    def _dense(self, components, env=None, what=None, order=None):
        """Checked dense data of components of shape batch + their
        layout, at the context's order or at `order` 1, evaluated in env,
        by default the context's at that order. `what` names a failing
        component."""
        order = order or self.order
        if env is None:
            env = self.env1 if order == 1 else self.env
        return _checked(_evaluate(components, env, self.batch, self.m, order,
                                  what, **self._where),
                        what, self.batch, **self._where)

    def eval_native(self, components):
        """Dense data of native components: one, or nested sequences."""
        return self._dense(components)

    @property
    def connection(self):
        """The connection of the representation, first order: gamma, or
        gamma_p in momenta."""
        return self.gamma_p if self.rep is Rep.MOMENTUM else self.gamma

    @cached_property
    def N(self):
        """The fiber correction N[b, m] of the horizontal derivative,
        the coefficient of dX/dfiber_b in D_m X: p_a G^a_mb in momenta,
        -v^a G^b_am in velocities. Computed on first use and kept, as
        is dN, which only a second-order field reads."""
        G = self.connection.val
        if self.rep is Rep.MOMENTUM:
            return c_einsum("...a,...amb->...bm", self.fiber, G)
        return -c_einsum("...a,...bam->...bm", self.fiber, G)

    @cached_property
    def dN(self):
        """The gradient dN[b, m, z] of N over (x, fiber)."""
        n = self.n
        _, G, dG, _ = self.connection
        if self.rep is Rep.MOMENTUM:
            dN = c_einsum("...a,...ambz->...bmz", self.fiber, dG)
            dN[..., n:] += c_einsum("...amb->...bma", G)
        else:
            dN = -c_einsum("...a,...bamz->...bmz", self.fiber, dG)
            dN[..., n:] -= c_einsum("...bam->...bma", G)
        return dN


class VContext(_Context):
    """Derivative data for one system at one velocity point, or at a
    batch of them, as dense data over (x, v). The fiber map is also
    kept per component, as the columns of L_dense, because it binds p
    in eval_momentum_native. Phi and Gamma are first order at any order
    of the context."""

    def __init__(self, sysdef: SystemDef, x, v, order: int = 2):
        super().__init__(sysdef, x, v, Rep.VELOCITY, order)

    def eval_momentum_native(self, components):
        """Dense data over (x, v) of momentum-native components composed
        with the fiber map, i.e. func(x, L(x, v))."""
        return self._dense(components, _env(self.seeds[:self.n], self.L, "p"))

    @cached_property
    def L(self):
        order, val, grad, hess = self.L_dense
        return tuple(jets.Dense(order, val[..., i], grad[..., i, :],
                                None if hess is None else hess[..., i, :, :])
                     for i in range(self.n))

    @cached_property
    def L_dense(self):
        return self._dense(self.sys.legendre, what="L")

    @cached_property
    def phi(self):
        return self._dense(self.sys.force, what="Phi", order=1)

    @cached_property
    def gamma(self):
        return self._dense(self.sys.connection, what="Gamma", order=1)

    def gauged(self, shift):
        """This point after a gauge change, which moves the connection
        alone: a copy with gamma + shift that shares every field already
        evaluated here but the fiber correction, which came from the
        connection replaced. Its `sys` names the ungauged system still."""
        other = copy.copy(self)
        for name in ("N", "dN"):
            other.__dict__.pop(name, None)
        with np.errstate(all="ignore"):     # _checked catches overflow
            other.gamma = _checked(self.gamma + shift, "Gamma", self.batch,
                                   **self._where)
        return other

    @cached_property
    def g_jets(self):
        """The fiber Jacobian g[q, k] = dL_q/dv^k, first order."""
        return jets.derivative(self.L_dense, slice(self.n, None))

    @cached_property
    def g_values(self) -> np.ndarray:
        return self.g_jets.val

    @cached_property
    def g_inv_values(self) -> np.ndarray:
        k = _singular(self.g_values)
        if k is not None:
            raise SingularMetric(f"fiber Jacobian is singular at "
                                 f"{_at(k, x=self.x, v=self.fiber)}")
        return np.linalg.inv(self.g_values)

    @cached_property
    def g_inv_jets(self):
        self.g_inv_values  # condition check first
        return jets.invert_matrix(self.g_jets)


def _fiber_jets(sysdef: SystemDef, x, v, where=None):
    """First-order Dense data of the fiber map over v. x and v are (n,),
    or (N, n) over N nodes; the data then has shape (N, n), the node
    axis leading. where(k) names node k in an error, if given."""
    env = _env(x.T, jets.seeds(v.T, order=1), "v")
    return _evaluate(sysdef.legendre, env, v.shape[:-1], sysdef.n, 1, "L",
                     where, x=x, v=v)


def _at(k=0, **arrays):
    """Where an error happened: the point, arrays of shape (n,), or node
    k of a batch, arrays of shape (N, n)."""
    if next(iter(arrays.values())).ndim == 1:
        return ", ".join(f"{name}={a.tolist()}" for name, a in arrays.items())
    return ", ".join(f"{name}={a[k].tolist()}"
                     for name, a in arrays.items()) + f" (node {k})"


def _conditions(G):
    """Condition numbers of a stack of matrices, inf where one has a
    non-finite entry."""
    finite = np.isfinite(G).all(axis=(1, 2))
    if finite.all():
        return np.linalg.cond(G)
    cond = np.full(len(G), np.inf)
    if finite.any():
        cond[finite] = np.linalg.cond(G[finite])
    return cond


def _newton(sysdef: SystemDef, x, p):
    """Preimage v of the momentum p at x: Newton iteration for the
    inverse fiber map L(x, v) = p from the system's guess, or from p.

    x and p are (n,), or (N, n) with a leading node axis; a lone point
    iterates as a batch of one, and v keeps the layout of p. Every node
    iterates until its own residual meets NEWTON_TOL, under its own
    condition check; converged nodes are not updated any more. From the
    first iteration on, the fiber map is evaluated at the nodes still
    iterating, gathered by index, so a node takes the steps it takes
    alone."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    start = p if sysdef.newton_guess is None else sysdef.newton_guess
    v = np.array(np.broadcast_to(start, p.shape), dtype=float)
    # the node views of x, p and v, in which the iteration runs; messages
    # name a point through the caller's arrays, a lone one without a node
    xs, ps, vs = (a.reshape(-1, sysdef.n) for a in (x, p, v))
    live = np.arange(len(vs))           # indices of the nodes iterating
    for iteration in range(NEWTON_MAX_ITER + 1):
        Lj = _fiber_jets(sysdef, xs[live], vs[live],
                         lambda k: _at(int(live[k]), x=x, v=v))
        residual = Lj.val - ps[live]
        err = np.max(np.abs(residual), axis=-1)
        todo = ~(err <= NEWTON_TOL)         # a nan residual is not converged
        if not todo.any():
            return v
        if iteration == NEWTON_MAX_ITER:
            k = int(np.argmax(np.where(todo, np.nan_to_num(err, nan=np.inf),
                                       -1.0)))
            raise NonConvergence(
                f"Newton stalled at residual {err[k]:.3e} solving the "
                f"inverse fiber map at {_at(int(live[k]), x=x, p=p)}")
        live, G = live[todo], Lj.grad[todo]
        k = _singular(G)
        if k is not None:
            raise SingularMetric(
                f"fiber Jacobian singular during inversion at "
                f"{_at(int(live[k]), x=x, v=v)}")
        vs[live] += np.linalg.solve(G, -residual[todo][..., None])[..., 0]


class PContext(_Context):
    """Derivative data at a momentum point, or a batch of them, built on
    the inverse fiber map.

    V is the dense data of the inverse components over (x, p), at the
    context's order, as are the inner VContext at the preimage and
    `transform`, the map (x, p) -> (x, V(x, p)), through which
    jets.compose pushes the inner context's dense data here. Without a
    closed-form inverse, a given `vctx` is the inner context: it must
    have the context's order and x, and its own fiber-map values must
    meet NEWTON_TOL against p, else ValidationError, and the fiber map
    is not evaluated again. Without `vctx`, Newton starts cold and the
    inner context is built at its preimage. A closed-form inverse
    builds its own at V(x, p)."""

    def __init__(self, sysdef: SystemDef, x, p, order: int = 2, vctx=None):
        super().__init__(sysdef, x, p, Rep.MOMENTUM, order)
        if sysdef.v_inverse is not None:
            self.V = self._dense(sysdef.v_inverse, what="V")
            self.inner = VContext(sysdef, self.x, self.V.val, order)
            return
        if vctx is None:
            with np.errstate(all="ignore"):  # Newton checks its own steps
                v_star = _newton(sysdef, self.x, self.fiber)
            vctx = VContext(sysdef, self.x, v_star, order)
        elif not (vctx.order == order and np.array_equal(vctx.x, self.x)
                  and np.all(sup_norm(vctx.L_dense.val - self.fiber,
                                      self.batch) <= NEWTON_TOL)):
            raise ValidationError("the velocity context is not at the "
                                  "preimage of p at this order")
        self.inner = vctx
        self.V = self._implicit_jets()

    def _implicit_jets(self):
        # differentiate L(x, V(x,p)) = p once, or twice in a second-order
        # context; second derivatives come from linear solves against
        # the fiber Jacobian
        n = self.n
        inner = self.inner
        G_inv = inner.g_inv_values
        L = inner.L_dense
        J_full = np.zeros(self.batch + (2 * n, 2 * n))
        J_full[..., :n, :n] = np.eye(n)
        J_full[..., n:, :n] = -G_inv @ L.grad[..., :n]
        J_full[..., n:, n:] = G_inv
        if self.order == 1:
            return jets.Dense(1, inner.fiber.copy(), J_full[..., n:, :])
        J_ = J_full[..., None, :, :]
        H = -c_einsum("...sq,...qab->...sab", G_inv,
                      np.swapaxes(J_, -1, -2) @ L.hess @ J_)
        return jets.Dense(2, inner.fiber.copy(), J_full[..., n:, :], H)

    @cached_property
    def transform(self):
        n, m, batch, V = self.n, self.m, self.batch, self.V
        return jets.Dense(
            V.order, np.concatenate([self.x, V.val], axis=-1),
            np.concatenate([np.broadcast_to(np.eye(n, m), batch + (n, m)),
                            V.grad], axis=-2),
            None if V.hess is None else
            np.concatenate([np.zeros(batch + (n, m, m)), V.hess], axis=-3))

    def eval_velocity_native(self, components):
        """Dense data over (x, p) of velocity-native components composed
        with the inverse fiber map."""
        return jets.compose(self.inner.eval_native(components), self.transform)

    @cached_property
    def gamma_p(self):
        """The connection pushed through the inverse map, first order."""
        return jets.compose(self.inner.gamma, self.transform)

    @cached_property
    def theta(self):
        """Force covector of the free system, theta_i = dL_i/dx . v +
        dL_i/dv . Phi at the preimage, transported: first order over
        (x, p) in a second-order context."""
        n = self.n
        inner = self.inner
        fiber = jets.stack(inner.seeds[n:], inner.m, self.batch)
        theta = (jets.einsum("...is,...s->...i",
                             jets.derivative(inner.L_dense, slice(n)), fiber)
                 + jets.einsum("...is,...s->...i",
                               jets.derivative(inner.L_dense, slice(n, None)),
                               inner.phi))
        return jets.compose(theta, self.transform)

    @cached_property
    def Q(self):
        """Full force covector: theta minus the connection correction,
        first order like theta."""
        fiber = jets.stack(self.seeds[self.n:], self.m, self.batch)
        return self.theta - jets.einsum("...kij,...j,...k->...i",
                                        self.gamma_p, self.V, fiber)


@dataclass(frozen=True)
class MetricPair:
    """Fiber Jacobian of the map and its inverse at one point, or at a
    batch of points with one product deviation a point."""

    lower: np.ndarray       # g[q][k] = dL_q/dv^k
    upper: np.ndarray       # matrix inverse
    product_deviation: float


@dataclass(frozen=True)
class LegendreInverse:
    point: PhasePoint       # velocity point
    dv_dp: np.ndarray       # dV^s/dp_k, equals the upper metric
    dv_dx: np.ndarray       # dV^s/dx^m


def legendre_forward(sysdef: SystemDef, pt: PhasePoint) -> PhasePoint:
    """Map a velocity point, or a batch, to its momentum image
    p_i = L_i(x, v)."""
    if pt.rep is not Rep.VELOCITY:
        raise MixedRepresentationError("forward map expects a velocity point")
    x, v = pt.x, pt.fiber
    batch = x.shape[:-1]
    p = _evaluate(sysdef.legendre, _env(x.T, v.T, "v"), batch, what="L",
                  x=x, v=v)
    return PhasePoint.momentum(x, _checked(p, "L", batch, x=x, v=v).val)


def legendre_inverse(sysdef: SystemDef, pt: PhasePoint) -> LegendreInverse:
    """Invert the fiber map at a momentum point, or a batch, with fiber
    Jacobians, from a first-order context."""
    if pt.rep is not Rep.MOMENTUM:
        raise MixedRepresentationError("inverse map expects a momentum point")
    ctx = PContext(sysdef, pt.x, pt.fiber, order=1)
    n = sysdef.n
    return LegendreInverse(ctx.inner.point, ctx.V.grad[..., n:],
                           ctx.V.grad[..., :n])


def metric(sysdef: SystemDef, pt: PhasePoint) -> MetricPair:
    """Metric pair at a point of either representation, or a batch. The
    product deviation is the larger sup-norm deviation of g g^-1 and
    g^-1 g from the identity. Its contexts are first order."""
    if pt.rep is Rep.MOMENTUM:
        pt = legendre_inverse(sysdef, pt).point
    ctx = VContext(sysdef, pt.x, pt.fiber, order=1)
    lower, upper = ctx.g_values, ctx.g_inv_values
    eye = np.eye(ctx.n)
    dev = np.maximum(sup_norm(lower @ upper - eye, ctx.batch),
                     sup_norm(upper @ lower - eye, ctx.batch))
    return MetricPair(lower, upper, dev)


def theta_from_phi(sysdef: SystemDef, pt: PhasePoint) -> np.ndarray:
    """Values of the free force covector at a velocity point, or a
    batch: theta_i = sum_s dL_i/dx^s v^s + sum_s dL_i/dv^s Phi^s, the
    derivative of L_i along (v, Phi)."""
    if pt.rep is not Rep.VELOCITY:
        raise MixedRepresentationError("theta_from_phi expects a velocity point")
    ctx = VContext(sysdef, pt.x, pt.fiber, order=1)
    return c_einsum("...im,...m->...i", ctx.L_dense.grad,
                    np.concatenate([pt.fiber, ctx.phi.val], axis=-1))


def _samples(rng, n, parts):
    """One block of the validation plan: `parts` n-vectors at each of 8
    samples, drawn sample by sample, x in X_BOX first and then fibers
    in FIBER_BOX. Returns the parts as (n, 8) arrays, equal bit for bit
    to rng.uniform(lo, hi, n) calls, which scale rng.random()."""
    draws = rng.random((8, parts, n)).transpose(1, 2, 0)
    return [lo + (hi - lo) * r for r, (lo, hi)
            in zip(draws, [X_BOX] + [FIBER_BOX] * (parts - 1))]


def _check_symmetric(tensor, what, name, error, x, v):
    """Raise `error` unless tensor[k][i][j] and tensor[k][j][i] agree
    within 1e-10 at the samples (x, v), (n, 8) arrays; a non-finite
    gap fails. The message names the first failing sample and its
    largest gap, a non-finite one first."""
    vals = _evaluate(tensor, _env(x, v, "v"), (8,), what=name, x=x.T,
                     v=v.T).val
    with np.errstate(all="ignore"):
        gap = np.abs(vals - vals.transpose(0, 1, 3, 2))
    bad = ~(gap.max(axis=(1, 2, 3)) <= 1e-10)
    if bad.any():
        s = int(np.argmax(bad))
        k, i, j = np.unravel_index(np.argmax(gap[s]), tensor.shape)
        a, b = vals[s, k, i, j], vals[s, k, j, i]
        if np.isfinite(a) and np.isfinite(b):
            raise error(f"{what} is asymmetric in its lower pair at "
                        f"[{k}][{i}][{j}]: {a} vs {b}")
        raise error(f"{what} is not finite at [{k}][{i}][{j}], "
                    f"x={x[:, s].tolist()}, v={v[:, s].tolist()}: {a} vs {b}")


@lru_cache(maxsize=None)
def _plan(n, gauge, inverse):
    """The validation plan of a system of dimension n with or without a
    gauge tensor and a closed-form inverse, drawn once from
    default_rng(0) in this order: the connection's block (x, v), the
    gauge tensor's (x, v), then x, and p with an inverse. Blocks are
    read-only (n, 8) arrays (_samples)."""
    rng = np.random.default_rng(0)
    plan = _samples(rng, n, 2)
    if gauge:
        plan += _samples(rng, n, 2)
    plan += _samples(rng, n, 2 if inverse else 1)
    for block in plan:
        block.flags.writeable = False
    return tuple(plan)


def _check_gauge(tensor):
    """Check a gauge tensor's symmetry on its block of the validation
    plan."""
    _check_symmetric(tensor, "gauge tensor", "T", AsymmetricGauge,
                     *_plan(len(tensor), True, False)[2:4])


def validate_system(sysdef: SystemDef):
    """Numeric spot checks of the structural requirements: the fiber
    map sends zero to zero, the connection (and gauge, if any) is finite
    and symmetric, and a closed-form inverse actually inverts the map.

    Each check evaluates its components once over its block of the
    plan (_plan). A failure names the first failing sample."""
    n = sysdef.n
    gauge, inverse = sysdef.gauge is not None, sysdef.v_inverse is not None
    plan = _plan(n, gauge, inverse)
    _check_symmetric(sysdef.connection, "connection", "Gamma", ValidationError,
                     *plan[:2])
    if gauge:
        _check_gauge(sysdef.gauge)
    x, p = plan[-2:] if inverse else (plan[-1], None)
    zero = np.zeros_like(x)
    at_zero = _evaluate(sysdef.legendre, _env(x, zero, "v"), (8,), what="L",
                        x=x.T, v=zero.T).val
    # a nan fails: it does not compare within the tolerance
    bad = ~(np.max(np.abs(at_zero), axis=1) <= 1e-9)
    if inverse:
        v_closed = _evaluate(sysdef.v_inverse, _env(x, p, "p"), (8,),
                             what="V", x=x.T, p=p.T).val
        back = _evaluate(sysdef.legendre, _env(x, v_closed.T, "v"), (8,),
                         what="L", x=x.T, v=v_closed).val
        residual = np.max(np.abs(back - p.T), axis=1)
        bad |= ~(residual <= 1e-8)
    if not bad.any():
        return
    s = int(np.argmax(bad))
    if not np.max(np.abs(at_zero[s])) <= 1e-9:
        raise ValidationError(
            f"fiber map does not send v=0 to p=0 at x={x[:, s].tolist()}: "
            f"{at_zero[s].tolist()}")
    raise ValidationError(
        f"closed-form inverse disagrees with the fiber map at "
        f"x={x[:, s].tolist()}, p={p[:, s].tolist()} (residual {residual[s]:.2e})")
