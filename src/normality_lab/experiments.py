"""Gauge freedom of the connection and the hypersurface shift.

The connection entering the covariant machinery is a bookkeeping
choice: shifting it by a symmetric tensor, with the plain force
components held fixed, changes each derived field by a closed-form
amount and leaves the normality content untouched. The report built
here certifies those transformation rules numerically, row by row. The
gauge tensor is validated once per report, at the points where
validate_system checks it at load.

The second half drives the shift itself. A parametric hypersurface is
seeded with covectors along its normals, turned into velocities once;
every sample point travels along x' = v, v' = Phi(x, v), and at each
output time the trace compares the momentum p = L(x, v) with the normal
direction of the moving surface.
"""

from dataclasses import dataclass

import numpy as np

from . import jets
from .calculus import (LOWER, UPPER, curvature, dynamic_curvature, field_of,
                       horizontal_derivative, relative_deviation,
                       vertical_derivative)
from .errors import (AsymmetricGauge, DegeneratePoint, DegenerateSurface,
                     DimensionError, EvalError, IntegrationFailure,
                     MissingGaugeTensor, MixedRepresentationError,
                     SingularMetric, ValidationError)
from .normality import RESIDUAL_IDS, residual_arrays, velocity_bundle
from .phase import Rep
from .system import (COND_LIMIT, ConstFunc, SystemDef, SumFunc, VContext,
                     _check_symmetric, _component_array, _conditions, _env,
                     _fiber_jets, _newton, _samples, _values, zero_connection)

SURFACE_RANK_FLOOR = 1e-10

INVARIANT_ROWS = ("metric", "legendre", "legendre-dual", "Omega", "P", "A",
                  "alpha")
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


def _gauged(sysdef, gauge):
    """The gauge tensor, supplied or the system's, and the system whose
    connection it shifts. The tensor is checked for symmetry on the
    block of the validation plan that validate_system gives it: the
    second draw from default_rng(0)."""
    tensor = gauge if gauge is not None else sysdef.gauge
    if tensor is None:
        raise MissingGaugeTensor(
            "system carries no gauge tensor and none was supplied")
    n = sysdef.n
    tensor = _component_array(tensor, n, "gauge")
    rng = np.random.default_rng(0)
    _samples(rng, n, 2)             # the connection's block
    _check_symmetric(tensor, "gauge tensor", AsymmetricGauge,
                     *_samples(rng, n, 2))
    conn = [[[SumFunc(sysdef.connection[k, i, j], tensor[k, i, j])
              for j in range(n)] for i in range(n)] for k in range(n)]
    return tensor, SystemDef(n, sysdef.legendre, sysdef.force, conn,
                             v_inverse=sysdef.v_inverse,
                             newton_guess=sysdef.newton_guess)


def apply_gauge(sysdef: SystemDef, gauge=None) -> SystemDef:
    """Shift the connection by the gauge tensor, keeping the plain
    force components. The full force vector picks up the matching
    quadratic fiber term on its own, so the trajectories of the
    returned system are the same curves."""
    return _gauged(sysdef, gauge)[1]


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
        return max(picked) if picked else 0.0


def _point_deviations(sysdef, gauged, tensor, pt):
    n = sysdef.n
    ctx = VContext(sysdef, pt.x, pt.fiber)
    ctx2 = VContext(gauged, pt.x, pt.fiber)
    vb = velocity_bundle(ctx)
    vb2 = velocity_bundle(ctx2)
    v = np.asarray(pt.fiber, dtype=float)

    Lv = ctx.L_dense.val
    Lv2 = ctx2.L_dense.val
    W, P, A, B, alpha = vb.W, vb.P, vb.A, vb.B, vb.alpha

    out = {
        "metric": max(relative_deviation(ctx.g_values, ctx2.g_values),
                      relative_deviation(ctx.g_inv_values, ctx2.g_inv_values)),
        "legendre": relative_deviation(Lv, Lv2),
        "legendre-dual": relative_deviation(W, vb2.W),
        "Omega": relative_deviation(np.array([vb.Omega]),
                                     np.array([vb2.Omega])),
        "P": relative_deviation(P, vb2.P),
        "A": relative_deviation(A, vb2.A),
        "alpha": relative_deviation(alpha, vb2.alpha),
    }

    Tfield = field_of(ctx, tensor, (UPPER, LOWER, LOWER))
    Tvals = Tfield.values()
    vertT = vertical_derivative(Tfield).values()    # [k,i,r,j] = dT^k_ir/dv^j
    gradT = horizontal_derivative(Tfield).values()  # [k,i,r,m] = grad_m T^k_ir
    D1 = dynamic_curvature(ctx)
    D2 = dynamic_curvature(ctx2)
    R1 = curvature(ctx)
    R2 = curvature(ctx2)

    out["U"] = relative_deviation(
        vb2.U, vb.U + np.einsum("q,riq,r->i", W, Tvals, Lv))
    out["D"] = relative_deviation(D2, D1 - vertT.transpose(0, 2, 1, 3))
    rule_r = (R1
              + np.einsum("kjri->krij", gradT)
              - np.einsum("kirj->krij", gradT)
              - np.einsum("m,sjm,kirs->krij", v, Tvals, D1)
              + np.einsum("m,sim,kjrs->krij", v, Tvals, D1)
              + np.einsum("kim,mjr->krij", Tvals, Tvals)
              - np.einsum("kjm,mir->krij", Tvals, Tvals)
              + np.einsum("m,sjm,kirs->krij", v, Tvals, vertT)
              - np.einsum("m,sim,kjrs->krij", v, Tvals, vertT))
    out["R"] = relative_deviation(R2, rule_r)
    out["B"] = relative_deviation(
        vb2.B, B + np.einsum("m,msq,qk,rk->rs", Lv, Tvals, P, A - A.T))
    # the C rule pins down the skew part only; its symmetric remainder
    # is not reproduced here, so compare after antisymmetrizing
    shift_c = (np.einsum("brq,b,qm,ms->rs", Tvals, Lv, P, B)
               + np.einsum("brq,b,qm,ma,ca,esc,e->rs",
                           Tvals, Lv, P, A, P, Tvals, Lv))
    lhs_c = (vb2.C - vb.C) - (vb2.C - vb.C).T
    out["C"] = relative_deviation(lhs_c, shift_c - shift_c.T)
    out["beta"] = relative_deviation(
        vb2.beta, vb.beta + np.einsum("ekq,e,q->k", Tvals, Lv, alpha))
    out["eta"] = relative_deviation(
        vb2.eta, vb.eta + np.einsum("ekq,e,qs,s->k", Tvals, Lv, P, alpha))

    res1 = residual_arrays(vb)
    res2 = residual_arrays(vb2)
    for rid in RESIDUAL_IDS:
        out[rid] = abs(float(np.max(np.abs(res1[rid])))
                       - float(np.max(np.abs(res2[rid]))))
    return out


def gauge_invariance_report(sysdef: SystemDef, points,
                            gauge=None) -> GaugeReport:
    """Deviation table for one gauge change, aggregated over points.

    Invariant rows compare a quantity before and after the change.
    Rule rows recompute a quantity on the gauged system and compare it
    against the transformation rule applied to un-gauged values, which
    exercises the cancellations behind each rule. Residual rows compare
    normality residual norms; the conditional ones list the residuals
    whose vanishing they rely on. The gauge tensor is validated once
    per call."""
    return _gauge_report(sysdef, _gauged(sysdef, gauge), points)


def _gauge_report(sysdef, pair, points):
    """gauge_invariance_report on a (tensor, gauged) pair from _gauged."""
    tensor, gauged = pair
    worst = {}
    count = 0
    for pt in points:
        if pt.rep is not Rep.VELOCITY:
            raise MixedRepresentationError(
                "gauge report evaluates at velocity points")
        for name, dev in _point_deviations(sysdef, gauged, tensor, pt).items():
            worst[name] = max(worst.get(name, 0.0), dev)
        count += 1
    if count == 0:
        raise ValidationError("gauge report needs at least one point")
    rows = [GaugeRow(name, "invariant", worst[name])
            for name in INVARIANT_ROWS]
    rows += [GaugeRow(name, "rule", worst[name]) for name in RULE_ROWS]
    rows += [GaugeRow(rid, "residual", worst[rid],
                      requires=RESIDUAL_NEEDS[rid]) for rid in RESIDUAL_IDS]
    return GaugeReport(tuple(rows), count)


@dataclass(frozen=True)
class ShiftRun:
    """Configuration of one hypersurface shift.

    `surface` holds n expressions in u1..u(n-1); `nu` scales the
    initial normal covector and may be a constant or an expression in
    the same variables. Grid fields accept one value per parameter
    axis or a single value broadcast to all of them. A periodic axis
    omits its endpoint and wraps the tangent stencil.

    The whole front is integrated as one (x, v) state of N nodes, under
    rtol and atol = 1e-12 divided by sqrt(N). The integrator's RMS error
    norm over (x, v) then still bounds each node's own error by
    rtol/atol at every accepted step, as it would for a node alone.
    rtol/sqrt(N) may not fall below the integrator's floor of 100 eps,
    so rtol must be at least 100 eps sqrt(N)."""

    surface: tuple
    nu: object = 1.0
    u_start: object = 0.0
    u_stop: object = 1.0
    u_samples: object = 32
    periodic: object = False
    t_final: float = 1.0
    time_steps: int = 10
    rtol: float = 1e-10


@dataclass(frozen=True)
class ShiftResult:
    times: np.ndarray       # (T+1,)
    points: np.ndarray      # (T+1, grid..., n)
    covectors: np.ndarray   # (T+1, grid..., n)
    deviations: np.ndarray  # (T+1,) collinearity trace, worst node per time


def _per_axis(value, m, name):
    if isinstance(value, (list, tuple, np.ndarray)):
        if len(value) != m:
            raise ValidationError(
                f"{name} needs one entry per parameter axis ({m}), "
                f"got {len(value)}")
        return list(value)
    return [value] * m


def _run_dims(run: ShiftRun):
    n = len(run.surface)
    if n < 2:
        raise ValidationError("a hypersurface needs ambient dimension >= 2")
    m = n - 1
    for f in run.surface:
        if f.dimension != m:
            raise ValidationError(
                f"surface components must use u1..u{m}")
    return n, m


def _count(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _axes(run: ShiftRun, m):
    starts = _per_axis(run.u_start, m, "u_start")
    stops = _per_axis(run.u_stop, m, "u_stop")
    counts = _per_axis(run.u_samples, m, "u_samples")
    wraps = [bool(w) for w in _per_axis(run.periodic, m, "periodic")]
    axes = []
    for d in range(m):
        count = _count(counts[d], "u_samples")
        if count < 3:
            raise ValidationError("tangent stencils need u_samples >= 3")
        lo, hi = float(starts[d]), float(stops[d])
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValidationError("u_start and u_stop must be finite")
        if not hi > lo:
            raise ValidationError("u_stop must exceed u_start")
        if wraps[d]:
            axes.append(lo + (hi - lo) * np.arange(count) / count)
        else:
            axes.append(np.linspace(lo, hi, count))
    return axes, wraps


def _surface_frame(run: ShiftRun, u):
    _, m = _run_dims(run)
    u = np.asarray(u, dtype=float).reshape(-1)
    if len(u) != m:
        raise DimensionError(f"expected {m} surface parameters, got {len(u)}")
    seeded = jets.seeds(u, order=1)
    env = {f"u{d + 1}": seeded[d] for d in range(m)}
    frame = jets.stack([f.evaluate(env) for f in run.surface], m)
    return frame.val, frame.grad.T


def _normal_of(tangents):
    _, sing, vt = np.linalg.svd(tangents)
    if sing.size and sing[-1] < SURFACE_RANK_FLOOR:
        raise DegenerateSurface(
            f"tangent directions collapse (smallest singular value "
            f"{sing[-1]:.3e})")
    normal = vt[-1]
    # orientation: tangent rows followed by the normal make a
    # positively oriented frame
    if np.linalg.det(np.vstack([tangents, normal])) < 0.0:
        normal = -normal
    return normal


def hypersurface_normal(run: ShiftRun, u) -> np.ndarray:
    """Unit covector annihilating the surface tangents at u."""
    _, tangents = _surface_frame(run, u)
    return _normal_of(tangents)


def _nu_value(run: ShiftRun, u, m):
    if isinstance(run.nu, (int, float)):
        return float(run.nu)
    env = {f"u{d + 1}": float(u[d]) for d in range(m)}
    return float(run.nu.evaluate(env))


def _collinearity(x_grid, p_grid, axes, wraps):
    """Worst normalized pairing between the momentum and any estimated
    tangent direction of the moved surface. Tangents come from central
    differences along each grid axis; a non-periodic axis contributes
    only its interior nodes."""
    m = len(axes)
    worst = 0.0
    for d in range(m):
        h = axes[d][1] - axes[d][0]
        if wraps[d]:
            tau = (np.roll(x_grid, -1, axis=d)
                   - np.roll(x_grid, 1, axis=d)) / (2.0 * h)
            p_part, x_part = p_grid, x_grid
        else:
            inner = [slice(None)] * m
            lead, trail = list(inner), list(inner)
            lead[d] = slice(2, None)
            trail[d] = slice(None, -2)
            inner[d] = slice(1, -1)
            tau = (x_grid[tuple(lead)] - x_grid[tuple(trail)]) / (2.0 * h)
            p_part, x_part = p_grid[tuple(inner)], x_grid[tuple(inner)]
        tau_norm = np.linalg.norm(tau, axis=-1)
        p_norm = np.linalg.norm(p_part, axis=-1)
        floor = 1e-12 * max(1.0, float(np.max(np.abs(x_part))))
        if np.any(tau_norm <= floor):
            raise DegenerateSurface(
                "moved surface loses rank along a parameter axis")
        if np.any(p_norm <= 1e-12):
            raise DegeneratePoint("momentum vanishes on a shift trajectory")
        pairing = np.abs(np.sum(p_part * tau, axis=-1)) / (p_norm * tau_norm)
        worst = max(worst, float(np.max(pairing)))
    return worst


def shift_integrate(sysdef: SystemDef, run: ShiftRun) -> ShiftResult:
    """Integrate the shift of the run's hypersurface and trace the
    collinearity between momenta and moving-surface normals."""
    from scipy.integrate import solve_ivp     # only the shift needs scipy

    n, m = _run_dims(run)
    if n != sysdef.n:
        raise ValidationError(
            f"surface is for ambient dimension {n}, system has {sysdef.n}")
    axes, wraps = _axes(run, m)
    _count(run.time_steps, "time_steps")
    for name in ("time_steps", "t_final", "rtol"):
        if not 0.0 < getattr(run, name) < np.inf:
            raise ValidationError(
                f"{name} must be positive and finite, got {getattr(run, name)}")
    shape = tuple(len(a) for a in axes)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    nodes = mesh.reshape(-1, m)
    times = np.linspace(0.0, float(run.t_final), run.time_steps + 1)
    count = len(nodes)
    # the integrator would raise a smaller per-node rtol to 100 eps with
    # only a warning, loosening the run silently
    shrink, floor = 1.0 / np.sqrt(count), 100 * np.finfo(float).eps
    if run.rtol * shrink < floor:
        raise ValidationError(
            f"rtol {run.rtol} is below {floor / shrink:.3e}, the smallest "
            f"allowed for {count} nodes (100 eps sqrt(nodes))")

    x0, p0 = np.empty((n, count)), np.empty((n, count))
    for k, u in enumerate(nodes):
        x0[:, k], tangents = _surface_frame(run, u)
        scale = _nu_value(run, u, m)
        if not 1e-14 <= abs(scale) < np.inf:
            raise ValidationError(f"normal scale nu must be finite and "
                                  f"nonzero, got {scale} at u={u.tolist()}")
        p0[:, k] = scale * _normal_of(tangents)
    with np.errstate(all="ignore"):     # Newton checks its steps, rhs v0
        v0 = (_values(sysdef.v_inverse, _env(x0, p0, "p"), (count,))
              if sysdef.v_inverse is not None else _newton(sysdef, x0, p0))

    def at(t, x, v, k):
        return (f"t={t}, x={x.tolist()}, v={v.tolist()} "
                f"(node {k}, u={nodes[k].tolist()})")

    # The front is one state of (node, 2n) entries following
    # dx/dt = v, dv/dt = Phi(x, v). The integrator's error norm is the RMS
    # over the state, so tolerances scaled by 1/sqrt(N) bound every node's
    # own RMS error as rtol/atol would bound a lone trajectory; a one-node
    # front integrates exactly as alone.
    def rhs(t, y):
        x, v = y.reshape(count, 2, n).transpose(1, 2, 0)
        flow = np.concatenate(
            [v, _values(sysdef.force, _env(x, v, "v"), (count,))])
        bad = ~(np.isfinite(x).all(axis=0) & np.isfinite(flow).all(axis=0))
        if bad.any():
            k = int(np.argmax(bad))
            raise EvalError(f"non-finite trajectory position, velocity or "
                            f"force at {at(t, x[:, k], v[:, k], k)}")
        return flow.T.ravel()

    sol = solve_ivp(rhs, (0.0, float(run.t_final)),
                    np.concatenate([x0, v0]).T.ravel(), method="RK45",
                    rtol=run.rtol * shrink, atol=1e-12 * shrink, t_eval=times)
    if not sol.success:
        raise IntegrationFailure(
            f"front of {count} nodes (u from {nodes[0].tolist()} to "
            f"{nodes[-1].tolist()}) aborted: {sol.message}")

    # (nodes, 2n, T) -> time-major (T * nodes) pairs, then the momenta
    # p = L(x, v) and the fiber Jacobian of every pair in one evaluation
    pairs = sol.y.reshape(count, 2 * n, len(times)).transpose(2, 0, 1)
    x, v = pairs.reshape(-1, 2, n).transpose(1, 2, 0)
    with np.errstate(all="ignore"):
        Lj = _fiber_jets(sysdef, x, v, wrt_x=False)
    cond = np.where(np.isfinite(Lj.val).all(axis=0),
                    _conditions(Lj.grad.transpose(1, 0, 2)), np.inf)
    if not np.all(cond <= COND_LIMIT):
        j = int(np.argmax(~(cond <= COND_LIMIT)))
        raise SingularMetric("fiber Jacobian singular on the shift at " + at(
            times[j // count], x[:, j], v[:, j], j % count))
    momenta = Lj.val.T.reshape(len(times), count, n)
    momenta[0] = p0.T                   # the seeded covectors, exactly

    points = pairs[:, :, :n].reshape((len(times),) + shape + (n,))
    covectors = momenta.reshape((len(times),) + shape + (n,))
    deviations = np.array([_collinearity(points[t], covectors[t], axes, wraps)
                           for t in range(len(times))])
    return ShiftResult(times, points, covectors, deviations)
