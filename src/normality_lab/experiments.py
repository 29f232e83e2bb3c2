"""Gauge freedom of the connection and the hypersurface shift.

The connection entering the covariant machinery is a bookkeeping
choice: shifting it by a symmetric tensor, with the plain force
components held fixed, changes each derived field by a closed-form
amount and leaves the normality content untouched. The report built
here certifies those rules row by row on a point and its copy with a
shifted connection (VContext.gauged); the gauge tensor is validated
once per report, where validate_system checks it at load. The rules
contract T with L once, TL = T^b_rq L_b, and go on from TL and TL P in
two- and three-operand steps; the C rule's long term is
(TL P) A P^T TL^T.

The second half drives the shift itself. A parametric hypersurface is
seeded with covectors along its normals, found for all nodes at once,
and turned into velocities once, each evaluation naming its failing
component and node. The front travels as one state along
x' = v, v' = Phi(x, v) under the Dormand-Prince 8(5,3) pair, DOP853,
and one pass over all output times compares the momentum p = L(x, v)
with the normal direction of the moving surface.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import dop853, jets
from .jets import c_einsum
from .calculus import (LOWER, UPPER, FieldValue, horizontal_derivative,
                       relative_deviation, vertical_derivative)
from .errors import (DegeneratePoint, DegenerateSurface, EvalError,
                     IntegrationFailure, MissingGaugeTensor,
                     MixedRepresentationError, SingularMetric, ValidationError)
from .normality import RESIDUAL_IDS, residual_norms, velocity_bundle
from .phase import Rep
from .expr import Expression
from .system import (ConstFunc, SystemDef, VContext, _check_gauge, _checked,
                     _components, _env, _evaluate, _fiber_jets, _newton,
                     _singular, zero_connection)

SURFACE_RANK_FLOOR = 1e-10
# a momentum of at most this norm vanishes; seeded momenta have norm |nu|
MOMENTUM_FLOOR = 1e-12

INVARIANT_ROWS = ("alpha",)
RULE_ROWS = ("U", "D", "R", "B", "C", "beta", "eta")

# Residual norms stay put under a gauge change only while the listed
# lower equations hold; the rows carry that dependency explicitly.
RESIDUAL_NEEDS = {
    "weak-alpha": (),
    "weak-eta": ("weak-alpha",),
    "skew-A": (),
    "trace-B": ("skew-A",),
    "skew-C": ("skew-A", "trace-B"),
}


def connection_free_mode(sysdef: SystemDef) -> SystemDef:
    """The same system with the connection dropped entirely, so every
    covariant derivative collapses to a plain coordinate one."""
    flat = sysdef.connection.flat
    if all(isinstance(f, ConstFunc) and f.value == 0.0 for f in flat):
        return sysdef
    return SystemDef(sysdef.n, sysdef.legendre, sysdef.force,
                     zero_connection(sysdef.n), v_inverse=sysdef.v_inverse,
                     gauge=sysdef.gauge, newton_guess=sysdef.newton_guess)


@dataclass(frozen=True)
class GaugeRow:
    quantity: str
    kind: str          # "invariant" | "rule" | "residual"
    deviation: float
    requires: tuple = ()


@dataclass(frozen=True)
class GaugeReport:
    rows: tuple
    points: int

    def row(self, quantity: str) -> GaugeRow:
        for row in self.rows:
            if row.quantity == quantity:
                return row
        raise KeyError(quantity)

    def worst(self, kind: str = None) -> float:
        picked = [r.deviation for r in self.rows
                  if kind is None or r.kind == kind]
        return float(np.max(picked)) if picked else 0.0


def _gauge_contractions(Tvals, Lv, W, P, A, B, alpha):
    """The rules' contractions of the gauge tensor with L, by rule, as
    two- and three-operand steps over TL = T^b_rq L_b and TL P; the C
    rule's long term is (TL P) A P^T TL^T."""
    TL = c_einsum("...brq,...b->...rq", Tvals, Lv)
    TLP = c_einsum("...rq,...qm->...rm", TL, P)
    return {
        "U": c_einsum("...iq,...q->...i", TL, W),
        "B": c_einsum("...sk,...rk->...rs", TLP, A - np.swapaxes(A, -1, -2)),
        "C-B": c_einsum("...rm,...ms->...rs", TLP, B),
        "C-A": c_einsum("...ra,...ca,...sc->...rs",
                        c_einsum("...rm,...ma->...ra", TLP, A), P, TL),
        "beta": c_einsum("...kq,...q->...k", TL, alpha),
        "eta": c_einsum("...ks,...s->...k", TLP, alpha),
    }


def _gauge_deviations(sysdef, tensor, x, v):
    """The gauge rows at velocity points x, v, (n,) or (N, n), in report
    order; over a batch each row's deviation has one entry per point."""
    ctx = VContext(sysdef, x, v)
    vb = velocity_bundle(ctx)
    Tfield = FieldValue(ctx, ctx._dense(tensor, what="T", order=1),
                        (UPPER, LOWER, LOWER))
    vb2 = velocity_bundle(ctx.gauged(Tfield.data))

    def dev(a, b):
        return relative_deviation(a, b, ctx.batch)

    v, Lv = ctx.fiber, ctx.L_dense.val
    W, P, A, B, alpha, D1 = vb.W, vb.P, vb.A, vb.B, vb.alpha, vb.D

    Tvals = Tfield.values()
    vertT = vertical_derivative(Tfield).values()    # [k,i,r,j] = dT^k_ir/dv^j
    gradT = horizontal_derivative(Tfield).values()  # [k,i,r,m] = grad_m T^k_ir

    c = _gauge_contractions(Tvals, Lv, W, P, A, B, alpha)
    out = {"alpha": dev(alpha, vb2.alpha)}
    out["U"] = dev(vb2.U, vb.U + c["U"])
    out["D"] = dev(vb2.D, D1 - np.swapaxes(vertT, -3, -2))
    rule_r = (vb.R
              + c_einsum("...kjri->...krij", gradT)
              - c_einsum("...kirj->...krij", gradT)
              - c_einsum("...m,...sjm,...kirs->...krij", v, Tvals, D1)
              + c_einsum("...m,...sim,...kjrs->...krij", v, Tvals, D1)
              + c_einsum("...kim,...mjr->...krij", Tvals, Tvals)
              - c_einsum("...kjm,...mir->...krij", Tvals, Tvals)
              + c_einsum("...m,...sjm,...kirs->...krij", v, Tvals, vertT)
              - c_einsum("...m,...sim,...kjrs->...krij", v, Tvals, vertT))
    out["R"] = dev(vb2.R, rule_r)
    out["B"] = dev(vb2.B, B + c["B"])
    # the C rule pins down the skew part only; its symmetric remainder
    # is not reproduced here, so compare after antisymmetrizing
    shift_c = c["C-B"] + c["C-A"]
    moved_c = vb2.C - vb.C
    out["C"] = dev(moved_c - np.swapaxes(moved_c, -1, -2),
                   shift_c - np.swapaxes(shift_c, -1, -2))
    out["beta"] = dev(vb2.beta, vb.beta + c["beta"])
    out["eta"] = dev(vb2.eta, vb.eta + c["eta"])

    res1 = residual_norms(vb)
    res2 = residual_norms(vb2)
    for rid in RESIDUAL_IDS:
        out[rid] = dev(res1[rid], res2[rid])
    rows = [GaugeRow(name, "invariant", out[name]) for name in INVARIANT_ROWS]
    rows += [GaugeRow(name, "rule", out[name]) for name in RULE_ROWS]
    rows += [GaugeRow(rid, "residual", out[rid], requires=RESIDUAL_NEEDS[rid])
             for rid in RESIDUAL_IDS]
    return rows


def gauge_invariance_report(sysdef: SystemDef, points,
                            gauge=None) -> GaugeReport:
    """Deviation table for one gauge change, worst over the points.

    The invariant row compares alpha before and after the change. Rule
    rows recompute a quantity at the gauged point and compare it
    against the transformation rule applied to un-gauged values, which
    exercises the cancellations behind each rule. Residual rows compare
    normality residual norms, relative to their size as every row
    compares; the conditional ones list the residuals
    whose vanishing they rely on. The tensor, supplied or the system's,
    is checked for symmetry once a call where validate_system checks
    it, the points are evaluated as one batch, and a nan deviation at
    any point is the row's worst."""
    tensor = gauge if gauge is not None else sysdef.gauge
    if tensor is None:
        raise MissingGaugeTensor(
            "system carries no gauge tensor and none was supplied")
    tensor = _components(tensor, sysdef.n, "gauge")
    _check_gauge(tensor)
    points = list(points)
    if not points:
        raise ValidationError("gauge report needs at least one point")
    if any(pt.rep is not Rep.VELOCITY for pt in points):
        raise MixedRepresentationError(
            "gauge report evaluates at velocity points")
    rows = _gauge_deviations(sysdef, tensor, np.array([pt.x for pt in points]),
                             np.array([pt.fiber for pt in points]))
    worst = [replace(row, deviation=float(np.max(row.deviation)))
             for row in rows]
    return GaugeReport(tuple(worst), len(points))


@dataclass(frozen=True)
class ShiftRun:
    """Configuration of one hypersurface shift.

    `surface` holds n expressions in u1..u(n-1); `nu` scales the
    initial normal covector and may be a constant or an expression in
    the same variables. Grid fields accept one value per parameter
    axis or a single value broadcast to all of them. A periodic axis
    omits its endpoint and wraps the tangent stencil.

    The whole front is one (x, v) state of N nodes, integrated by
    DOP853 with rtol and atol = 1e-12 divided by sqrt(N). Its error
    estimate, |h| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) len) over the
    scaled state, is not an RMS norm: a one-node front integrates
    exactly as the node alone and N identical nodes see sqrt(N) times
    the lone estimate, but one node's large e3 can lower the front's
    estimate below another node's own. That fronts match nodes
    integrated alone is tested, not implied by this norm. rtol must be
    at least 100 eps sqrt(N), the integrator's floor. Any values make a
    run; `grid` checks every field but nu and builds the grid once
    (_axes), so a bad field raises ValidationError when integrated."""

    surface: tuple
    nu: object = 1.0
    u_start: object = 0.0
    u_stop: object = 1.0
    u_samples: object = 32
    periodic: object = False
    t_final: float = 1.0
    time_steps: int = 10
    rtol: float = 1e-10
    grid = cached_property(lambda run: _axes(run))


@dataclass(frozen=True)
class ShiftResult:
    times: np.ndarray       # (T+1,)
    points: np.ndarray      # (T+1, grid..., n)
    covectors: np.ndarray   # (T+1, grid..., n)
    deviations: np.ndarray  # (T+1,) collinearity trace, worst node per time


def _per_axis(value, m, name):
    if isinstance(value, (list, tuple)) or np.ndim(value) > 0:
        if len(value) != m:
            raise ValidationError(
                f"{name} needs one entry per parameter axis ({m}), "
                f"got {len(value)}")
        return list(value)
    return [value] * m


def _count(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name, what="a real number"):
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be {what}, got {value!r}")
    return float(value)


def _check_option(name, value):
    """`value` if it meets the rule of the ShiftRun field `name` taken
    alone, else ValidationError; a file's [options] line meets it at
    load, and _axes holds the rules across fields."""
    if name == "u_samples" and not value >= 3:
        raise ValidationError("tangent stencils need u_samples >= 3")
    if name in ("u_start", "u_stop") and not np.isfinite(value):
        raise ValidationError("u_start and u_stop must be finite")
    if name in ("time_steps", "t_final", "rtol") and not 0.0 < value < np.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value}")
    return value


def _axes(run: ShiftRun):
    """The run's m = n - 1 grid axes, their wraps and its output times,
    once every field but nu meets its rules alone and across fields:
    n >= 2 surface components in u1..um, u_stop above u_start, and rtol
    at least 100 eps sqrt(nodes), below which DOP853 (scipy's too)
    clamps the per-node rtol. ShiftRun.grid keeps them."""
    m = len(run.surface) - 1
    if m < 1:
        raise ValidationError("a hypersurface needs ambient dimension >= 2")
    if any(f.dimension != m for f in run.surface):
        raise ValidationError(f"surface components must use u1..u{m}")
    starts, stops, counts, wraps = (_per_axis(getattr(run, k), m, k) for k in
                                    ("u_start", "u_stop", "u_samples", "periodic"))
    if not all(isinstance(w, (bool, np.bool_)) for w in wraps):
        raise ValidationError(
            f"periodic must be a bool per axis, got {run.periodic!r}")
    axes = []
    for d in range(m):
        count = _check_option("u_samples", _count(counts[d], "u_samples"))
        lo = _check_option("u_start", _real(starts[d], "u_start"))
        hi = _check_option("u_stop", _real(stops[d], "u_stop"))
        if not hi > lo:
            raise ValidationError("u_stop must exceed u_start")
        axes.append(lo + (hi - lo) * np.arange(count) / count if wraps[d]
                    else np.linspace(lo, hi, count))
    rtol = _check_option("rtol", _real(run.rtol, "rtol"))
    count = int(np.prod([len(a) for a in axes]))
    shrink, floor = 1.0 / np.sqrt(count), 100 * np.finfo(float).eps
    if rtol * shrink < floor:
        raise ValidationError(
            f"rtol {rtol} is below {floor / shrink:.3e}, the smallest "
            f"allowed for {count} nodes (100 eps sqrt(nodes))")
    steps = _check_option("time_steps", _count(run.time_steps, "time_steps"))
    t_final = _check_option("t_final", _real(run.t_final, "t_final"))
    return axes, wraps, np.linspace(0.0, t_final, steps + 1)


def _front_geometry(run: ShiftRun, nodes):
    """Positions and unit normal covectors, each (N, n), at nodes (N, m),
    from one evaluation, SVD and determinant over all nodes. The tangent
    rows followed by the normal make a positively oriented frame."""
    count, m = nodes.shape
    env = {f"u{d + 1}": u for d, u in enumerate(jets.seeds(nodes.T, order=1))}
    frame = _checked(_evaluate(run.surface, env, (count,), m, 1, "x", u=nodes),
                     "x", (count,), u=nodes)
    tangents = frame.grad.transpose(0, 2, 1)           # (N, m, n)
    _, sing, vt = np.linalg.svd(tangents)
    collapsed = sing[:, -1] < SURFACE_RANK_FLOOR
    if collapsed.any():
        k = int(np.argmax(collapsed))
        raise DegenerateSurface(
            f"tangent directions collapse at u={nodes[k].tolist()} "
            f"(smallest singular value {sing[k, -1]:.3e})")
    normals = vt[:, -1]
    det = np.linalg.det(np.concatenate([tangents, normals[:, None]], axis=1))
    return frame.val, np.where(det[:, None] < 0.0, -normals, normals)


def _nu_values(run: ShiftRun, nodes, m):
    """nu, a number (not a bool) or an expression in u1..um, at each node;
    it must be finite and above MOMENTUM_FLOOR in magnitude at every one,
    as the unit normals it scales make momenta of norm |nu|."""
    nu = run.nu
    if isinstance(nu, Expression) and (nu.kinds, nu.dimension) == (("u",), m):
        nu = _evaluate(nu, {f"u{d + 1}": u for d, u in enumerate(nodes.T)},
                       (len(nodes),), what="nu", u=nodes).val
    else:
        nu = _real(nu, "nu", f"a number or an expression in u1..u{m}")
    scale = np.full(len(nodes), nu, dtype=float)
    ok = (MOMENTUM_FLOOR < np.abs(scale)) & (np.abs(scale) < np.inf)
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValidationError(
            f"normal scale nu must be finite and above {MOMENTUM_FLOOR} in "
            f"magnitude, got {float(scale[k])} at u={nodes[k].tolist()}")
    return scale


def _collinearity(points, covectors, axes, wraps, times):
    """Worst normalized pairing at each output time between the momentum
    and central-difference tangents of the moved surface, from points
    and covectors (T, grid..., n); a non-periodic axis gives only its
    interior nodes. The earliest failing time raises, naming its first
    failing axis, a rank loss before a vanishing momentum."""
    (steps, *_, n), m = points.shape, len(axes)
    worst, fault = np.zeros(steps), np.zeros((steps, m), int)
    for d in range(m):
        span, h = points.shape[d + 1], axes[d][1] - axes[d][0]
        idx = np.arange(span) if wraps[d] else np.arange(1, span - 1)
        ahead, behind, x_part, p_part = (
            np.take(a, i % span, axis=d + 1).reshape(steps, -1, n) for a, i in
            ((points, idx + 1), (points, idx - 1), (points, idx), (covectors, idx)))
        tau = (ahead - behind) / (2.0 * h)
        tau_norm, p_norm = (np.linalg.norm(a, axis=-1) for a in (tau, p_part))
        floor = 1e-12 * np.maximum(1.0, np.max(np.abs(x_part), axis=(1, 2)))
        # fault 1: the tangents lose rank, 2: a momentum vanishes
        fault[:, d] = np.where(np.any(tau_norm <= floor[:, None], axis=1), 1,
                               2 * np.any(p_norm <= MOMENTUM_FLOOR, axis=1))
        with np.errstate(all="ignore"):     # a failing time raises below
            pairing = np.abs(np.sum(p_part * tau, axis=-1)) / (p_norm * tau_norm)
        worst = np.maximum(worst, np.max(pairing, axis=1))
    if fault.any():
        j, d = divmod(int(np.argmax(fault > 0)), m)
        where = f"at t={float(times[j])}, along parameter axis u{d + 1}"
        if fault[j, d] == 1:
            raise DegenerateSurface(f"moved surface loses rank {where}")
        raise DegeneratePoint(f"momentum vanishes on a shift trajectory {where}")
    return worst


def shift_integrate(sysdef: SystemDef, run: ShiftRun) -> ShiftResult:
    """Integrate the shift of the run's hypersurface and trace the
    collinearity between momenta and moving-surface normals."""
    axes, wraps, times = run.grid
    n, m = len(run.surface), len(axes)
    if n != sysdef.n:
        raise ValidationError(
            f"surface is for ambient dimension {n}, system has {sysdef.n}")
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    x0, normals = _front_geometry(run, nodes)
    points, covectors = (a.reshape(len(times), *map(len, axes), n) for a in _flow(
        sysdef, x0, _nu_values(run, nodes, m)[:, None] * normals, times,
        float(run.rtol), nodes))
    return ShiftResult(times.copy(), points, covectors,  # the run's own stay
                       _collinearity(points, covectors, axes, wraps, times))


def _flow(sysdef, x0, p0, times, rtol, nodes):
    """Positions and momenta (T, N, n) at the output times of the N
    trajectories from x0, p0 (N, n), integrated as one ShiftRun front;
    nodes (N, m) name a failing node."""
    count, n = x0.shape
    shrink = 1.0 / np.sqrt(count)   # rtol meets its floor (_axes)
    # Newton checks its steps; it runs once a front, outside the retry
    with np.errstate(all="ignore"):
        v0 = (_evaluate(sysdef.v_inverse, _env(x0.T, p0.T, "p"), (count,),
                        what="V", x=x0, p=p0).val
              if sysdef.v_inverse is not None else _newton(sysdef, x0, p0))
        _checked(jets.Dense(0, v0), "V", (count,), x=x0, p=p0)

    def integrate(raw):
        with np.errstate(**(_TRAPS if raw else {"all": "ignore"})):
            return dop853.solve(_rhs(sysdef.force, nodes, raw),
                                (0.0, float(times[-1])),
                                np.concatenate([x0, v0], axis=1).ravel(),
                                times, rtol * shrink, 1e-12 * shrink)

    # Phi's raw form under traps where every component has one; a trap
    # anywhere in that run (Phi, the state check or the integrator's own
    # arithmetic) integrates the front again with the checked form,
    # which names the fault or gives the same bits
    try:
        sol = integrate(all(hasattr(f, "evaluate_raw") for f in sysdef.force))
    except FloatingPointError:
        sol = integrate(raw=False)
    if not sol.success:
        raise IntegrationFailure(
            f"front of {count} nodes (u from {nodes[0].tolist()} to "
            f"{nodes[-1].tolist()}) aborted: {sol.message}")

    # (T, nodes * 2n) -> time-major (T * nodes) pairs, then the momenta
    # p = L(x, v) and the fiber Jacobian of every pair in one evaluation
    pairs = sol.y.reshape(len(times), count, 2 * n)
    x, v = pairs.reshape(-1, 2, n).transpose(1, 0, 2)
    def where(j):
        return _at_node(times[j // count], x[j], v[j], j % count, nodes)

    with np.errstate(all="ignore"):
        Lj = _fiber_jets(sysdef, x, v, where)
    # non-finite momenta fail the gate, which names the worst pair
    k = _singular(np.where(np.isfinite(Lj.val).all(axis=1)[:, None, None],
                           Lj.grad, np.nan))
    if k is not None:
        raise SingularMetric("fiber Jacobian singular on the shift at "
                             + where(k))
    momenta = Lj.val.reshape(len(times), count, n)
    momenta[0] = p0                     # the seeded covectors, exactly
    return pairs[:, :, :n], momenta


def _at_node(t, x, v, k, nodes):
    return (f"t={t}, x={x.tolist()}, v={v.tolist()} "
            f"(node {k}, u={nodes[k].tolist()})")


# every floating-point exception that makes a non-finite value from
# finite operands traps in the raw right-hand side's run
_TRAPS = dict(over="raise", divide="raise", invalid="raise", under="ignore")


def _rhs(force, nodes, raw):
    """The right-hand side x' = v, v' = Phi(x, v) of the front of
    len(nodes) trajectories, over the state (node, x or v, n) flattened.
    The names x1.., v1.. are bound once a front, to the rows of a
    (2n, N) buffer that each call fills. The raw mode, run under
    _TRAPS, raises FloatingPointError on a non-finite state and applies
    Phi's raw form, which traps wherever the checked form would fail on
    a finite state; a non-finite constant, which makes a non-finite flow
    without a trap, traps in the integrator's first step or the next
    call's state check. The checked mode names a raising component or a
    non-finite node; numpy's warnings are left to the caller."""
    count, n = len(nodes), len(force)
    buffer = np.empty((2 * n, count))
    env = dict(zip([f"{kind}{i + 1}" for kind in "xv" for i in range(n)],
                   buffer))
    funcs = [f.evaluate_raw if raw else f.evaluate for f in force]

    def rhs(t, y):
        if raw and not np.isfinite(y).all():
            raise FloatingPointError("non-finite state")
        state = y.reshape(count, 2 * n)
        buffer[...] = state.T
        flow = np.empty((count, 2 * n))
        flow[:, :n] = state[:, n:]
        for i, f in enumerate(funcs):
            try:
                flow[:, n + i] = f(env)
            except EvalError as e:
                k = e.node or 0
                where = _at_node(t, state[k, :n], state[k, n:], k, nodes)
                raise EvalError(
                    f"in Phi{i + 1}: {e.reason} at {where}") from None
        if not (raw or np.isfinite(y).all() and np.isfinite(flow).all()):
            k = int(np.argmin(np.isfinite(state).all(axis=1)
                              & np.isfinite(flow).all(axis=1)))
            where = _at_node(t, state[k, :n], state[k, n:], k, nodes)
            raise EvalError(f"non-finite trajectory position, velocity or "
                            f"force at {where}")
        return flow.reshape(-1)
    return rhs
