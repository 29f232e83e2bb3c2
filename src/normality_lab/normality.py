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
certificate, and cross_check_all drives it. normality_residuals
evaluates the five equations the fields must satisfy on a normality
system: weak-alpha and weak-eta (the weak equations), and the
additional skew/trace conditions on A, B and C that carry content
only for n >= 3.
"""

from dataclasses import dataclass

import numpy as np

from . import jets
from .calculus import (LOWER, UPPER, FieldValue, curvature,
                       dynamic_curvature, horizontal_derivative,
                       relative_deviation)
from .errors import (DegeneratePoint, DimensionError,
                     MixedRepresentationError, ValidationError)
from .phase import PhasePoint, Rep
from .system import PContext, SystemDef, VContext, legendre_forward

OMEGA_FLOOR = 1e-12

CROSS_FIELDS = ("W", "Omega", "P", "U", "alpha", "beta", "eta", "A", "B", "C")

RESIDUAL_IDS = ("weak-alpha", "weak-eta", "skew-A", "trace-B", "skew-C")

# self-test hook: cross-representation agreement must detect a single
# flipped sign in the velocity-route second-variation assembly
MUTATIONS = {"flip-beta-term": 4}


@dataclass(frozen=True)
class NormalityBundle:
    """All derived fields evaluated at one point, as float arrays."""

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


def lambda_scalar(B: np.ndarray, P: np.ndarray, n: int = None) -> float:
    """Trace factor of the projected shape tensor, tr(B P)/(n-1)."""
    if n is None:
        n = P.shape[0]
    if n < 2:
        raise DimensionError("the trace factor needs n >= 2")
    return float(np.einsum("rs,sr", B, P)) / (n - 1)


def _guard_omega(omega: float, fiber_scale: float, where: str) -> float:
    if abs(omega) < OMEGA_FLOOR * (1.0 + fiber_scale):
        raise DegeneratePoint(
            f"fiber norm {omega:.3e} vanishes at {where}; "
            "normality fields are undefined here")
    return omega


def velocity_bundle(ctx: VContext, flip_beta_term: int = None) -> NormalityBundle:
    """Closed-form assembly in the velocity representation.

    flip_beta_term is the mutation hook: it negates one named term of
    the beta sum so tests can confirm the cross-representation check
    has teeth. Production callers leave it None."""
    n = ctx.n
    if n < 2:
        raise DimensionError("normality fields need n >= 2")
    v = ctx.v
    gi = ctx.g_inv_values
    L = ctx.L_dense
    Lv = L.val
    fiber = jets.stack(ctx.seeds[n:], ctx.m)

    # dual vector of the fiber map, kept dense for its derivatives
    Lup_d = jets.einsum("q,qi->i", L, ctx.g_inv_jets)
    W = Lup_d.val

    Om = _guard_omega(float(Lv @ W), float(Lv @ Lv),
                      f"x={ctx.x.tolist()}, v={v.tolist()}")
    P = np.eye(n) - np.outer(W, Lv) / Om

    # force vector with its connection completion, then lowered; the
    # lowered vector is first order (g is), so Fup needs no more
    Fup_d = (ctx.phi.truncated(1)
             + jets.einsum("ijk,j,k->i", ctx.gamma.truncated(1), fiber, fiber))
    Flow_d = jets.einsum("qi,i->q", ctx.g_jets, Fup_d)
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

    U_d = (Flow_d + jets.einsum("q,iq->i", fiber, gradL_d)
           - jets.einsum("q,qi->i", Lup_d, gradL_d))
    U = U_d.val
    gradU = horizontal_derivative(FieldValue(ctx, U_d, (LOWER,))).values()

    # plain fiber derivatives of the first-order pieces
    tLup = Lup_d.grad[:, n:].T
    tU = U_d.grad[:, n:].T
    tF = Flow_d.grad[:, n:].T
    tgg = gradL_d.grad[..., n:]

    Dv = dynamic_curvature(ctx)
    Rv = curvature(ctx)

    alpha = (np.einsum("rk,r->k", gi, U)
             + np.einsum("r,kr->k", v, gradLup)
             + np.einsum("q,qk->k", Fup_v, tLup)
             + np.einsum("r,qk,s,rsq->k", W, gi, v, tgg)
             + np.einsum("r,qk,qr->k", W, gi, tF)
             + np.einsum("r,qk,rq->k", W, gi, gradL)
             - np.einsum("mk,s,srqm,r,q->k", gi, Lv, Dv, W, v))

    beta_terms = [
        np.einsum("r,kr->k", v, gradU),
        np.einsum("q,qk->k", Fup_v, tU),
        -np.einsum("qk,rq,s,rs->k", gradL, gi, v, gradL),
        -np.einsum("qk,rq,r->k", gradL, gi, Flow),
        np.einsum("r,rk->k", W, gradF),
        np.einsum("r,m,rmk->k", W, v, gradgradL),
        -np.einsum("r,qk,sq,sr->k", W, gradL, gi, tF),
        -np.einsum("r,qk,sq,m,rms->k", W, gradL, gi, v, tgg),
        -np.einsum("srmk,m,r,s->k", Rv, v, W, Lv),
        np.einsum("aq,qk,smra,m,r,s->k", gi, gradL, Dv, v, W, Lv),
        np.einsum("am,srka,m,r,s->k", gi, Dv, Flow, W, Lv),
    ]
    if flip_beta_term is not None:
        beta_terms[flip_beta_term] = -beta_terms[flip_beta_term]
    beta = np.sum(beta_terms, axis=0)

    eta = beta - U * float(alpha @ Lv) / Om

    A = np.einsum("qr,qs->rs", gi, tLup)

    skew = np.einsum("qm,qr->rm", gi, tLup) - np.einsum("qr,qm->rm", gi, tLup)
    B = (np.einsum("qr,qs->rs", gi, tU)
         + np.einsum("qr,k,m,mksq->rs", gi, W, Lv, Dv)
         - gradLup
         + np.einsum("ks,qk,qr->rs", gradL, gi, tLup)
         + np.einsum("rm,s,m->rs", skew, U, Lv) / Om)

    C = (gradU.T
         - np.einsum("qr,kq,ks->rs", gradL, gi, tU)
         - np.einsum("s,mr,m->rs", U, gradLup, Lv) / Om
         - np.einsum("r,qm,qs,m->rs", U, gi, tU, Lv) / Om
         + np.einsum("s,kr,qk,qm,m->rs", U, gradL, gi, tLup, Lv) / Om
         - np.einsum("aq,mksa,r,m,k,q->rs", gi, Dv, U, Lv, W, Lv) / Om
         - 0.5 * np.einsum("qkrs,k,q->rs", Rv, W, Lv)
         # the curvature transport correction splits over both index
         # slots with half weight each; a one-sided full-weight term
         # would shift the symmetric part and break route agreement
         - 0.5 * np.einsum("mr,qksa,am,k,q->rs", gradL, Dv, gi, W, Lv)
         + 0.5 * np.einsum("ms,qrka,am,k,q->rs", gradL, Dv, gi, W, Lv))

    return NormalityBundle(Rep.VELOCITY, ctx.x.copy(), v.copy(), W, Om, P, U,
                           alpha, beta, eta, A, B, C, lambda_scalar(B, P, n))


def momentum_bundle(ctx: PContext) -> NormalityBundle:
    """Field assembly in the momentum representation, from the inverse
    map's derivative data at (x, p). Shares no formula route with velocity_bundle
    beyond the connection transport."""
    n = ctx.n
    if n < 2:
        raise DimensionError("normality fields need n >= 2")
    p = ctx.p
    V = ctx.V
    Vv = V.val
    Qv = ctx.Q.val
    fiber = jets.stack(ctx.seeds[n:], ctx.m)

    W_d = jets.einsum("s,si->i", fiber, jets.derivative(V, slice(n, None)))
    W = W_d.val

    Om = _guard_omega(float(p @ W), float(p @ p),
                      f"x={ctx.x.tolist()}, p={p.tolist()}")
    P = np.eye(n) - np.outer(W, p) / Om

    gradV_field = horizontal_derivative(FieldValue(ctx, V, (UPPER,)))
    gradV = gradV_field.values()

    U_d = ctx.Q + jets.einsum("si,s->i", gradV_field.data, fiber)
    U = U_d.val

    gradW = horizontal_derivative(FieldValue(ctx, W_d, (UPPER,))).values()
    gradQ = horizontal_derivative(FieldValue(ctx, ctx.Q, (LOWER,))).values()
    gradU = horizontal_derivative(FieldValue(ctx, U_d, (LOWER,))).values()

    tV = V.grad[:, n:].T
    tW = W_d.grad[:, n:].T
    tQ = ctx.Q.grad[:, n:].T
    tU = U_d.grad[:, n:].T

    Dp = dynamic_curvature(ctx)
    Rp = curvature(ctx)

    alpha = (np.einsum("kr,r->k", tV, U)
             + np.einsum("kr,r->k", gradW, Vv)
             + np.einsum("rk,r->k", tW, Qv)
             + np.einsum("r,kr->k", W, tQ)
             - np.einsum("s,skrq,r,q->k", p, Dp, W, Vv))

    beta = (np.einsum("kr,r->k", gradU, Vv)
            + np.einsum("rk,r->k", tU, Qv)
            + np.einsum("rk,r->k", gradV, U)
            + np.einsum("rk,r->k", gradQ, W)
            - np.einsum("srmk,m,r,s->k", Rp, Vv, W, p)
            + np.einsum("smrk,m,r,s->k", Dp, Qv, W, p))

    eta = beta - U * float(alpha @ p) / Om

    A = tW

    B = (tU
         + np.einsum("k,m,mrks->rs", W, p, Dp)
         - gradW
         + np.einsum("mr,s,m->rs", tW - tW.T, U, p) / Om)

    C = (gradU.T
         - np.einsum("r,ms,m->rs", U, tU, p) / Om
         - np.einsum("s,mr,m->rs", U, gradW, p) / Om
         - np.einsum("mqks,r,m,k,q->rs", Dp, U, p, W, p) / Om
         - 0.5 * np.einsum("qkrs,k,q->rs", Rp, W, p))

    return NormalityBundle(Rep.MOMENTUM, ctx.x.copy(), p.copy(), W, Om, P, U,
                           alpha, beta, eta, A, B, C, lambda_scalar(B, P, n))


def bundle_at(sysdef: SystemDef, pt: PhasePoint) -> NormalityBundle:
    """Evaluate the field bundle in the representation of the point."""
    if pt.rep is Rep.VELOCITY:
        return velocity_bundle(VContext(sysdef, pt.x, pt.fiber))
    return momentum_bundle(PContext(sysdef, pt.x, pt.fiber))


def residual_arrays(bundle: NormalityBundle) -> dict:
    """The five normality equations as raw residual arrays."""
    P = bundle.P
    return {
        "weak-alpha": np.einsum("r,kr->k", bundle.alpha, P),
        "weak-eta": np.einsum("r,rk->k", bundle.eta, P),
        "skew-A": np.einsum("rs,ir,js->ij", bundle.A - bundle.A.T, P, P),
        "trace-B": np.einsum("ir,rs,sj->ij", P, bundle.B, P) - bundle.lam * P,
        "skew-C": np.einsum("rs,ri,sj->ij", bundle.C - bundle.C.T, P, P),
    }


def normality_residuals(sysdef: SystemDef, pt: PhasePoint,
                        tolerance: float = 1e-8) -> list:
    """Evaluate the five normality equations at one point.

    Returns one Residual per equation with its sup-norm. The three
    additional equations vanish identically for n = 2 (the projector
    has rank one), so they are flagged non-decisive there."""
    bundle = bundle_at(sysdef, pt)
    n = sysdef.n
    out = []
    for check_id, arr in residual_arrays(bundle).items():
        norm = float(np.max(np.abs(arr)))
        decisive = check_id.startswith("weak") or n >= 3
        out.append(Residual(check_id, norm, tolerance, norm <= tolerance,
                            decisive))
    return out


def cross_check_all(sysdef: SystemDef, pt: PhasePoint,
                    mutate: str = None) -> dict:
    """Both computation routes for every field at one paired point.

    pt is a velocity point; the momentum route runs at its image under
    the fiber map. Returns {field: CrossCheck}. mutate names an entry
    of MUTATIONS to corrupt the velocity route deliberately."""
    if pt.rep is not Rep.VELOCITY:
        raise MixedRepresentationError(
            "cross checks start from a velocity point")
    flip = None
    if mutate is not None:
        if mutate not in MUTATIONS:
            raise ValidationError(f"unknown mutation {mutate!r}")
        flip = MUTATIONS[mutate]
    vb = velocity_bundle(VContext(sysdef, pt.x, pt.fiber), flip)
    image = legendre_forward(sysdef, pt)
    pb = momentum_bundle(PContext(sysdef, image.x, image.fiber))
    out = {}
    for field in CROSS_FIELDS:
        a = getattr(vb, field)
        b = getattr(pb, field)
        out[field] = CrossCheck(field, a, b, relative_deviation(a, b))
    return out

