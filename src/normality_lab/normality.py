"""Normality fields and residuals of a Newtonian system.

Ten derived fields characterize whether trajectories can carry a
normal shift of hypersurfaces: the momentum-velocity vector W, the
fiber norm Omega, the orthogonal projector P, the effective force
covector U, the first- and second-variation covectors alpha, beta and
eta, and the shape tensors A, B, C with the scalar trace factor.

Every field has two independent computation routes, one per
representation. The velocity route works in closed form from the
fiber map components; the momentum route works from the inverse map.
Agreement of the two routes at paired points is the main correctness
certificate, and cross_check_all drives it. No contraction takes more
than three operands: each route's many-operand terms are fixed
sequences of two- and three-operand einsums over intermediates of its
own (_velocity_contractions, _momentum_contractions), so the routes
share no formula through them. normality_residuals
evaluates the five equations the fields must satisfy on a normality
system: weak-alpha and weak-eta (the weak equations), and the
additional skew/trace conditions on A, B and C that carry content
only for n >= 3.
"""

from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import _outer, c_einsum
from .calculus import (LOWER, UPPER, FieldValue, _paired_contexts, curvature,
                       dynamic_curvature, horizontal_derivative,
                       relative_deviation)
from .errors import DegeneratePoint, DimensionError, ValidationError
from .phase import PhasePoint, Rep
from .system import PContext, SystemDef, VContext, _at, sup_norm

OMEGA_FLOOR = 1e-12

CROSS_FIELDS = ("W", "Omega", "P", "U", "alpha", "beta", "eta", "A", "B", "C")

RESIDUAL_IDS = ("weak-alpha", "weak-eta", "skew-A", "trace-B", "skew-C")

# self-test hook: cross-representation agreement must detect a single
# flipped sign in the velocity-route second-variation assembly
MUTATIONS = {"flip-beta-term": 4}


@dataclass(frozen=True)
class NormalityBundle:
    """All derived fields evaluated at one point, or at a batch of points
    (the batch axis leading), as float arrays."""

    rep: Rep
    x: np.ndarray
    fiber: np.ndarray
    W: np.ndarray
    Omega: float
    P: np.ndarray
    U: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    eta: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    lam: float
    D: np.ndarray       # dynamic curvature and curvature, (n, n, n, n)
    R: np.ndarray


@dataclass(frozen=True)
class Residual:
    check_id: str
    norm: float
    tolerance: float
    passed: bool
    decisive: bool


@dataclass(frozen=True)
class CrossCheck:
    field: str
    velocity: np.ndarray
    momentum: np.ndarray
    deviation: float


def lambda_scalar(B: np.ndarray, P: np.ndarray) -> float:
    """Trace factor of the projected shape tensor, tr(B P)/(n-1), per
    point of a batch."""
    n = P.shape[-1]
    if n < 2:
        raise DimensionError("the trace factor needs n >= 2")
    return c_einsum("...rs,...sr->...", B, P) / (n - 1)


def _guard_omega(omega, fiber_scale, **point):
    """omega, unless it vanishes against the fiber scale at the point; a
    batch names its first such point."""
    small = np.abs(omega) < OMEGA_FLOOR * (1.0 + fiber_scale)
    if np.any(small):
        k = int(np.argmax(small))
        raise DegeneratePoint(
            f"fiber norm {np.reshape(omega, -1)[k]:.3e} vanishes at "
            f"{_at(k, **point)}; normality fields are undefined here")
    return omega


def _dot(a, b):
    """a . b over the last axis, per point."""
    return c_einsum("...q,...q->...", a, b)


def _lifted(s):
    """A per-point scalar (or array over the batch) against the field
    axes of a vector or matrix."""
    return np.asarray(s)[..., None]


def _projector(W, fiber, Om):
    n = W.shape[-1]
    return (np.eye(n) - W[..., :, None] * fiber[..., None, :]
            / _lifted(_lifted(Om)))


def _T(a):
    return np.swapaxes(a, -1, -2)


def _velocity_contractions(gi, v, Lv, W, U, Flow, gradL, tLup, tU, tF, tgg,
                           Dv):
    """The velocity route's contractions of four or more operands, and
    the three-operand ones that reduce to one step on their
    intermediates, by field and term. Each is a fixed sequence of two-
    and three-operand steps over intermediates of this route alone: Z
    and Z2, Dv with L in its first slot and W in its second or third,
    M = g^-1 gradL, gL = g^-1 L, and tgg and tF against W (and v)."""
    Z = c_einsum("...s,...r,...srqm->...qm", Lv, W, Dv)
    Z2 = c_einsum("...s,...r,...sqrm->...qm", Lv, W, Dv)
    M = c_einsum("...aq,...qk->...ak", gi, gradL)
    gL = c_einsum("...aq,...q->...a", gi, Lv)
    WvT = c_einsum("...r,...m,...rms->...s", W, v, tgg)
    FW = c_einsum("...sr,...r->...s", tF, W)
    return {
        "alpha-tgg": c_einsum("...qk,...q->...k", gi, WvT),
        "alpha-tF": c_einsum("...qk,...q->...k", gi, FW),
        "alpha-D": c_einsum("...mk,...m->...k", gi,
                            c_einsum("...q,...qm->...m", v, Z)),
        "beta-gradL": c_einsum("...r,...rk->...k",
                               c_einsum("...rs,...s->...r", gradL, v), M),
        "beta-F": c_einsum("...r,...rk->...k", Flow, M),
        "beta-tF": c_einsum("...s,...sk->...k", FW, M),
        "beta-tgg": c_einsum("...s,...sk->...k", WvT, M),
        "beta-D-v": c_einsum("...a,...ak->...k",
                             c_einsum("...m,...ma->...a", v, Z2), M),
        "beta-D-F": c_einsum("...ka,...a->...k", Z,
                             c_einsum("...am,...m->...a", gi, Flow)),
        "B-D": c_einsum("...qr,...sq->...rs", gi, Z),
        "C-tU": _outer(U, c_einsum("...q,...qs->...s", gL, tU)),
        "C-tLup": _outer(c_einsum("...q,...qr->...r",
                                  c_einsum("...qm,...m->...q", tLup, Lv), M),
                         U),
        "C-D": _outer(U, c_einsum("...sa,...a->...s", Z, gL)),
        "C-D-r": c_einsum("...ar,...sa->...rs", M, Z),
        "C-D-s": c_einsum("...as,...ra->...rs", M, Z2),
    }


def _momentum_contractions(p, W, Vv, Qv, U, Dp):
    """The momentum route's contractions of Dp against p and W, as in
    _velocity_contractions but over its own intermediate: pDW, Dp with
    p in its first slot and W in its third."""
    pDW = c_einsum("...s,...r,...sarc->...ac", p, W, Dp)
    return {
        "alpha-D": c_einsum("...kq,...q->...k", pDW, Vv),
        "beta-D": c_einsum("...m,...mk->...k", Qv, pDW),
        "B-D": pDW,
        "C-D": _outer(U, c_einsum("...q,...qs->...s", p, pDW)),
    }


def velocity_bundle(ctx: VContext, flip_beta_term: int = None) -> NormalityBundle:
    """Closed-form assembly in the velocity representation.

    flip_beta_term is the mutation hook: it negates one named term of
    the beta sum so tests can confirm the cross-representation check
    has teeth. Production callers leave it None."""
    n = ctx.n
    if n < 2:
        raise DimensionError("normality fields need n >= 2")
    v = ctx.fiber
    gi = ctx.g_inv_values
    L = ctx.L_dense
    Lv = L.val
    fiber = jets.stack(ctx.seeds[n:], ctx.m, ctx.batch)

    # dual vector of the fiber map, kept dense for its derivatives
    Lup_d = jets.einsum("...q,...qi->...i", L, ctx.g_inv_jets)
    W = Lup_d.val

    Om = _guard_omega(_dot(Lv, W), _dot(Lv, Lv), x=ctx.x, v=v)
    P = _projector(W, Lv, Om)

    # force vector with its connection completion, then lowered; the
    # lowered vector is first order (g is), as Phi and Gamma are
    Fup_d = (ctx.phi
             + jets.einsum("...ijk,...j,...k->...i", ctx.gamma, fiber, fiber))
    Flow_d = jets.einsum("...qi,...i->...q", ctx.g_jets, Fup_d)
    Fup_v = Fup_d.val
    Flow = Flow_d.val

    # covariant derivative ladders; entry [i, m] reads as the
    # m-derivative of component i, extra axes append to the right
    gradL_field = horizontal_derivative(FieldValue(ctx, L, (LOWER,)))
    gradL_d = gradL_field.data
    gradL = gradL_d.val
    gradgradL = horizontal_derivative(gradL_field).values()
    gradLup = horizontal_derivative(FieldValue(ctx, Lup_d, (UPPER,))).values()
    gradF = horizontal_derivative(FieldValue(ctx, Flow_d, (LOWER,))).values()

    U_d = (Flow_d + jets.einsum("...q,...iq->...i", fiber, gradL_d)
           - jets.einsum("...q,...qi->...i", Lup_d, gradL_d))
    U = U_d.val
    gradU = horizontal_derivative(FieldValue(ctx, U_d, (LOWER,))).values()

    # plain fiber derivatives of the first-order pieces
    tLup = _T(Lup_d.grad[..., n:])
    tU = _T(U_d.grad[..., n:])
    tF = _T(Flow_d.grad[..., n:])
    tgg = gradL_d.grad[..., n:]

    Dv = dynamic_curvature(ctx)
    Rv = curvature(ctx)
    c = _velocity_contractions(gi, v, Lv, W, U, Flow, gradL, tLup, tU, tF,
                               tgg, Dv)

    alpha = (c_einsum("...rk,...r->...k", gi, U)
             + c_einsum("...r,...kr->...k", v, gradLup)
             + c_einsum("...q,...qk->...k", Fup_v, tLup)
             + c["alpha-tgg"]
             + c["alpha-tF"]
             + c_einsum("...r,...qk,...rq->...k", W, gi, gradL)
             - c["alpha-D"])

    beta_terms = [
        c_einsum("...r,...kr->...k", v, gradU),
        c_einsum("...q,...qk->...k", Fup_v, tU),
        -c["beta-gradL"],
        -c["beta-F"],
        c_einsum("...r,...rk->...k", W, gradF),
        c_einsum("...r,...m,...rmk->...k", W, v, gradgradL),
        -c["beta-tF"],
        -c["beta-tgg"],
        -c_einsum("...srmk,...m,...r,...s->...k", Rv, v, W, Lv),
        c["beta-D-v"],
        c["beta-D-F"],
    ]
    if flip_beta_term is not None:
        beta_terms[flip_beta_term] = -beta_terms[flip_beta_term]
    beta = sum(beta_terms[1:], beta_terms[0])

    eta = beta - U * _lifted(_dot(alpha, Lv)) / _lifted(Om)

    A = c_einsum("...qr,...qs->...rs", gi, tLup)

    skew = c_einsum("...qm,...qr->...rm", gi, tLup) - c_einsum("...qr,...qm->...rm", gi, tLup)
    Om2 = _lifted(_lifted(Om))
    B = (c_einsum("...qr,...qs->...rs", gi, tU)
         + c["B-D"]
         - gradLup
         + c_einsum("...ks,...qk,...qr->...rs", gradL, gi, tLup)
         + c_einsum("...rm,...s,...m->...rs", skew, U, Lv) / Om2)

    C = (_T(gradU)
         - c_einsum("...qr,...kq,...ks->...rs", gradL, gi, tU)
         - c_einsum("...s,...mr,...m->...rs", U, gradLup, Lv) / Om2
         - c["C-tU"] / Om2
         + c["C-tLup"] / Om2
         - c["C-D"] / Om2
         - 0.5 * c_einsum("...qkrs,...k,...q->...rs", Rv, W, Lv)
         # the curvature transport correction splits over both index
         # slots with half weight each; a one-sided full-weight term
         # would shift the symmetric part and break route agreement
         - 0.5 * c["C-D-r"]
         + 0.5 * c["C-D-s"])

    return NormalityBundle(Rep.VELOCITY, ctx.x.copy(), v.copy(), W, Om, P, U,
                           alpha, beta, eta, A, B, C, lambda_scalar(B, P),
                           Dv, Rv)


def momentum_bundle(ctx: PContext) -> NormalityBundle:
    """Field assembly in the momentum representation, from the inverse
    map's derivative data at (x, p). Shares no formula route with velocity_bundle
    beyond the connection transport."""
    n = ctx.n
    if n < 2:
        raise DimensionError("normality fields need n >= 2")
    p = ctx.fiber
    V = ctx.V
    Vv = V.val
    Qv = ctx.Q.val
    fiber = jets.stack(ctx.seeds[n:], ctx.m, ctx.batch)

    W_d = jets.einsum("...s,...si->...i", fiber,
                      jets.derivative(V, slice(n, None)))
    W = W_d.val

    Om = _guard_omega(_dot(p, W), _dot(p, p), x=ctx.x, p=p)
    P = _projector(W, p, Om)

    gradV_field = horizontal_derivative(FieldValue(ctx, V, (UPPER,)))
    gradV = gradV_field.values()

    U_d = ctx.Q + jets.einsum("...si,...s->...i", gradV_field.data, fiber)
    U = U_d.val

    gradW = horizontal_derivative(FieldValue(ctx, W_d, (UPPER,))).values()
    gradQ = horizontal_derivative(FieldValue(ctx, ctx.Q, (LOWER,))).values()
    gradU = horizontal_derivative(FieldValue(ctx, U_d, (LOWER,))).values()

    tV = _T(V.grad[..., n:])
    tW = _T(W_d.grad[..., n:])
    tQ = _T(ctx.Q.grad[..., n:])
    tU = _T(U_d.grad[..., n:])

    Dp = dynamic_curvature(ctx)
    Rp = curvature(ctx)
    c = _momentum_contractions(p, W, Vv, Qv, U, Dp)

    alpha = (c_einsum("...kr,...r->...k", tV, U)
             + c_einsum("...kr,...r->...k", gradW, Vv)
             + c_einsum("...rk,...r->...k", tW, Qv)
             + c_einsum("...r,...kr->...k", W, tQ)
             - c["alpha-D"])

    beta = (c_einsum("...kr,...r->...k", gradU, Vv)
            + c_einsum("...rk,...r->...k", tU, Qv)
            + c_einsum("...rk,...r->...k", gradV, U)
            + c_einsum("...rk,...r->...k", gradQ, W)
            - c_einsum("...srmk,...m,...r,...s->...k", Rp, Vv, W, p)
            + c["beta-D"])

    eta = beta - U * _lifted(_dot(alpha, p)) / _lifted(Om)

    A = tW

    Om2 = _lifted(_lifted(Om))
    B = (tU
         + c["B-D"]
         - gradW
         + c_einsum("...mr,...s,...m->...rs", tW - _T(tW), U, p) / Om2)

    C = (_T(gradU)
         - c_einsum("...r,...ms,...m->...rs", U, tU, p) / Om2
         - c_einsum("...s,...mr,...m->...rs", U, gradW, p) / Om2
         - c["C-D"] / Om2
         - 0.5 * c_einsum("...qkrs,...k,...q->...rs", Rp, W, p))

    return NormalityBundle(Rep.MOMENTUM, ctx.x.copy(), p.copy(), W, Om, P, U,
                           alpha, beta, eta, A, B, C, lambda_scalar(B, P),
                           Dp, Rp)


def bundle_at(sysdef: SystemDef, pt: PhasePoint) -> NormalityBundle:
    """Evaluate the field bundle in the representation of the point."""
    if pt.rep is Rep.VELOCITY:
        return velocity_bundle(VContext(sysdef, pt.x, pt.fiber))
    return momentum_bundle(PContext(sysdef, pt.x, pt.fiber))


def residual_arrays(bundle: NormalityBundle) -> dict:
    """The five normality equations as raw residual arrays."""
    P = bundle.P
    return {
        "weak-alpha": c_einsum("...r,...kr->...k", bundle.alpha, P),
        "weak-eta": c_einsum("...r,...rk->...k", bundle.eta, P),
        "skew-A": c_einsum("...rs,...ir,...js->...ij",
                           bundle.A - _T(bundle.A), P, P),
        "trace-B": (c_einsum("...ir,...rs,...sj->...ij", P, bundle.B, P)
                    - _lifted(_lifted(bundle.lam)) * P),
        "skew-C": c_einsum("...rs,...ri,...sj->...ij",
                           bundle.C - _T(bundle.C), P, P),
    }


def residual_norms(bundle: NormalityBundle) -> dict:
    """The sup-norm of each normality residual, per point of a batch."""
    return {check_id: sup_norm(arr, bundle.x.shape[:-1])
            for check_id, arr in residual_arrays(bundle).items()}


def normality_residuals(sysdef: SystemDef, pt: PhasePoint,
                        tolerance: float = 1e-8) -> list:
    """Evaluate the five normality equations at a point, or a batch.

    Returns one Residual per equation with its sup-norm, an array of one
    norm a point over a batch. The three additional equations vanish
    identically for n = 2 (the projector has rank one), so they are
    flagged non-decisive there."""
    out = []
    for check_id, norm in residual_norms(bundle_at(sysdef, pt)).items():
        out.append(Residual(check_id, norm, tolerance, norm <= tolerance,
                            check_id.startswith("weak") or sysdef.n >= 3))
    return out


def cross_check_all(sysdef: SystemDef, pt: PhasePoint,
                    mutate: str = None) -> dict:
    """Both computation routes for every field at paired points.

    pt is a velocity point, or a batch; the momentum route runs at its
    image under the fiber map. Returns {field: CrossCheck}, over a batch
    with one deviation a point. mutate names an entry of MUTATIONS to
    corrupt the velocity route deliberately."""
    if mutate is not None and mutate not in MUTATIONS:
        raise ValidationError(f"unknown mutation {mutate!r}")
    vctx, pctx = _paired_contexts(sysdef, pt, order=2)
    vb = velocity_bundle(vctx, MUTATIONS.get(mutate))
    pb = momentum_bundle(pctx)
    out = {}
    for field in CROSS_FIELDS:
        a, b = getattr(vb, field), getattr(pb, field)
        out[field] = CrossCheck(field, a, b,
                                relative_deviation(a, b, vctx.batch))
    return out
