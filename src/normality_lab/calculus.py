"""Derivative calculus for extended tensor fields.

A field lives on one of the two evaluation contexts and carries its
derivative data as jets.Dense: value, gradient and Hessian arrays with
one leading axis per tensor index. Each axis is marked upper ("u") or
lower ("l"); new axes from differentiation are appended last, so the
entry order of a derivative array is [field indices..., derivative
index].

Derivatives are evaluated densely, in vector forward mode: each formula
is a few einsum contractions of the field with the context's stacked
connection, and its result is dense data again. Curvature and dynamic
curvature come back as plain float arrays.

The fiber derivative lowers an index in the velocity representation
and raises one in the momentum representation. The horizontal
derivative is covariant: a base-coordinate derivative, a fiber
correction built from the connection, and one connection term per
tensor index; the product rule gives its gradient.

Every derivative peels one order off, and a field has one order for
all its entries. A horizontal derivative has order min(field order -
1, connection order), so applying it twice yields order zero: fine for
value-level use, while any further derivative raises MissingJets.
"""

from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import DimensionError, MissingJets, MixedRepresentationError
from .phase import PhasePoint, Rep
from .system import PContext, SystemDef, VContext, legendre_forward

UPPER = "u"
LOWER = "l"


def _is_momentum(ctx) -> bool:
    return isinstance(ctx, PContext)


class FieldValue:
    """Tensor field evaluated at one context. `data` is its jets.Dense;
    scalar Dense data, a number, or an array of them is stacked once
    here."""

    __slots__ = ("ctx", "data", "variance")

    def __init__(self, ctx, data, variance=()):
        self.ctx = ctx
        self.variance = tuple(variance)
        if not isinstance(data, jets.Dense):
            data = jets.stack(np.ravel(data), ctx.m).reshape(np.shape(data))
        shape = (ctx.n,) * len(self.variance)
        if np.shape(data.val) != shape:
            raise DimensionError(
                f"field data shape {np.shape(data.val)} does not match rank "
                f"{len(self.variance)} at n={ctx.n}")
        self.data = data

    @property
    def rank(self) -> int:
        return len(self.variance)

    def values(self) -> np.ndarray:
        return self.data.val

    def _compatible(self, other):
        return self.ctx is other.ctx and self.variance == other.variance

    def __add__(self, other):
        if not isinstance(other, FieldValue) or not self._compatible(other):
            return NotImplemented
        return FieldValue(self.ctx, self.data + other.data, self.variance)

    def __sub__(self, other):
        if not isinstance(other, FieldValue) or not self._compatible(other):
            return NotImplemented
        return FieldValue(self.ctx, self.data - other.data, self.variance)


def field_of(ctx, components, variance=(), evaluate=None):
    """Build a FieldValue by evaluating expression-like components.

    `components` is a scalar component for rank 0 or nested sequences
    matching the variance. The default evaluator treats components as
    native to the context's representation; pass e.g.
    ctx.eval_velocity_native to compose through the fiber map instead."""
    evaluate = evaluate or ctx.eval_native
    return FieldValue(ctx, evaluate(components), variance)


def tensor_product(a: FieldValue, b: FieldValue) -> FieldValue:
    if a.ctx is not b.ctx:
        raise DimensionError("tensor product needs fields on a single context")
    sa, sb = "abcdefgh"[:a.rank], "ijklmnop"[:b.rank]
    return FieldValue(a.ctx, jets.einsum(f"{sa},{sb}->{sa}{sb}", a.data, b.data),
                      a.variance + b.variance)


def _connection(ctx):
    """Stacked connection of the context's representation and the fiber
    coordinates it is contracted with: (G, dG, fiber)."""
    order, G, dG, _ = ctx.gamma_p if _is_momentum(ctx) else ctx.gamma
    if order == 0:
        raise MissingJets("connection carries no derivative data")
    return G, dG, (ctx.p if _is_momentum(ctx) else ctx.v)


def vertical_derivative(field: FieldValue) -> FieldValue:
    """Fiber derivative. Appends an upper index in the momentum
    representation and a lower index in the velocity representation."""
    ctx = field.ctx
    mark = UPPER if _is_momentum(ctx) else LOWER
    return FieldValue(ctx, jets.derivative(field.data, slice(ctx.n, None)),
                      field.variance + (mark,))


def horizontal_derivative(field: FieldValue) -> FieldValue:
    """Covariant base derivative; appends a lower index.

    Velocity representation:
        D_m X = dX/dx^m - sum_ab v^a G^b_am dX/dv^b  (+ index terms)
    Momentum representation:
        D_m X = dX/dx^m + sum_ab p_a G^a_mb dX/dp_b  (+ index terms)
    where G is the connection in the matching representation; each
    upper index k contributes +sum_a G^k_ma X[..a..] and each lower
    index k contributes -sum_b G^b_mk X[..b..]. The gradient of the
    result follows from the product rule; it exists only when the field
    is second order."""
    ctx = field.ctx
    n = ctx.n
    if field.data.order == 0:
        raise MissingJets("field carries no derivative data")
    _, X, dX, ddX = field.data
    G, dG, fiber = _connection(ctx)
    # fiber correction N[b, m], the coefficient of dX/dfiber_b in D_m X,
    # and its gradient dN[b, m, z]
    if _is_momentum(ctx):
        N = np.einsum("a,amb->bm", fiber, G)
        dN = np.einsum("a,ambz->bmz", fiber, dG)
        dN[:, :, n:] += np.einsum("amb->bma", G)
    else:
        N = -np.einsum("a,bam->bm", fiber, G)
        dN = -np.einsum("a,bamz->bmz", fiber, dG)
        dN[:, :, n:] -= np.einsum("bam->bma", G)

    val = dX[..., :n] + dX[..., n:] @ N
    grad = None
    if ddX is not None:
        grad = (ddX[..., :n, :] + np.einsum("...bz,bm->...mz", ddX[..., n:, :], N)
                + np.einsum("...b,bmz->...mz", dX[..., n:], dN))
    slots = "abcdefgh"[:field.rank]
    for t, mark in enumerate(field.variance):
        src = slots[:t] + "y" + slots[t + 1:]
        conn, sign = ((f"{slots[t]}my", 1.0) if mark == UPPER
                      else (f"ym{slots[t]}", -1.0))
        val += sign * np.einsum(f"{conn},{src}->{slots}m", G, X)
        if grad is not None:
            grad += sign * (np.einsum(f"{conn}z,{src}->{slots}mz", dG, X)
                            + np.einsum(f"{conn},{src}z->{slots}mz", G, dX))
    return FieldValue(ctx, jets.Dense(0 if grad is None else 1, val, grad),
                      field.variance + (LOWER,))


def dynamic_curvature(ctx) -> np.ndarray:
    """Fiber derivative of the connection, sign-flipped.

    Layout [k][r][i][j]: in the velocity representation the entry is
    -dG^k_ir/dv^j (one upper, three lower indices); in the momentum
    representation it is -dG^k_ij/dp_r (upper pair k,r; lower pair i,j)."""
    _, dG, _ = _connection(ctx)
    dfiber = dG[..., ctx.n:]
    if _is_momentum(ctx):
        return -np.einsum("kijr->krij", dfiber)
    return -np.einsum("kirj->krij", dfiber)


def curvature(ctx) -> np.ndarray:
    """Curvature of the connection, layout [k][r][i][j], antisymmetric
    in the last index pair. The fiber-correction terms carry opposite
    signs in the two representations, matching the horizontal
    derivative they come from."""
    n = ctx.n
    G, dG, fiber = _connection(ctx)
    # lead[m, i]: coefficient of dG/dfiber_m in the base derivative D_i
    if _is_momentum(ctx):
        lead = np.einsum("s,smi->mi", fiber, G)
    else:
        lead = -np.einsum("s,mis->mi", fiber, G)
    base = dG[..., :n] + np.einsum("kjrm,mi->kjri", dG[..., n:], lead)
    half = np.einsum("kjri->krij", base) + np.einsum("kim,mjr->krij", G, G)
    return half - np.einsum("krij->krji", half)


@dataclass(frozen=True)
class RelationCheck:
    """Two independently computed sides of a tensor identity."""

    lhs: np.ndarray
    rhs: np.ndarray
    deviation: float


def relative_deviation(a, b) -> float:
    """Sup-norm distance of two arrays, relative to their larger entry
    and never to a scale below one."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _paired_contexts(sysdef: SystemDef, pt: PhasePoint):
    if pt.rep is not Rep.VELOCITY:
        raise MixedRepresentationError("paired evaluation starts from a velocity point")
    vctx = VContext(sysdef, pt.x, pt.fiber)
    image = legendre_forward(sysdef, pt)
    pctx = PContext(sysdef, image.x, image.fiber)
    return vctx, pctx


def _fiber_map_field(vctx) -> FieldValue:
    return FieldValue(vctx, vctx.L_dense, (LOWER,))


def dynamic_curvature_relation(sysdef: SystemDef, pt: PhasePoint) -> RelationCheck:
    """Momentum-representation dynamic curvature at the image point
    against the metric-contracted velocity-representation one."""
    vctx, pctx = _paired_contexts(sysdef, pt)
    lhs = dynamic_curvature(pctx)
    rhs = np.einsum("sr,kijs->krij", vctx.g_inv_values, dynamic_curvature(vctx))
    return RelationCheck(lhs, rhs, relative_deviation(lhs, rhs))


def curvature_relation(sysdef: SystemDef, pt: PhasePoint) -> RelationCheck:
    """Momentum-representation curvature at the image point against the
    velocity-representation curvature plus its fiber-map correction."""
    vctx, pctx = _paired_contexts(sysdef, pt)
    lhs = curvature(pctx)
    dv = dynamic_curvature(vctx)
    grad_L = horizontal_derivative(_fiber_map_field(vctx)).values()   # [q, m]
    g_inv = vctx.g_inv_values
    corr = (np.einsum("qi,sq,kjrs->krij", grad_L, g_inv, dv)
            - np.einsum("qj,sq,kirs->krij", grad_L, g_inv, dv))
    rhs = curvature(vctx) + corr
    return RelationCheck(lhs, rhs, relative_deviation(lhs, rhs))


# --- transport of derivatives through the fiber map ---------------------

def vertical_transport_velocity(sysdef, pt, func) -> float:
    """For a velocity-native scalar X: fiber derivative taken directly
    versus through the inverse map, dX/dv^k = sum_q g_qk d(X o inv)/dp_q."""
    vctx, pctx = _paired_contexts(sysdef, pt)
    n = sysdef.n
    direct = vctx.eval_native(func)
    composed = pctx.eval_velocity_native(func)
    return relative_deviation(direct.grad[n:], vctx.g_values.T @ composed.grad[n:])


def vertical_transport_momentum(sysdef, pt, func) -> float:
    """For a momentum-native scalar X: dX/dp_k = sum_q g^{qk} d(X o map)/dv^q."""
    vctx, pctx = _paired_contexts(sysdef, pt)
    n = sysdef.n
    direct = pctx.eval_native(func)
    composed = vctx.eval_momentum_native(func)
    return relative_deviation(direct.grad[n:],
                              vctx.g_inv_values.T @ composed.grad[n:])


def _horizontal_transport(native_ctx, other_ctx, evaluate, fiber_map,
                          components, variance) -> float:
    # D_m X = D_m(X o map) + sum_q D_m map_q d(X o map)/dfiber_q, with the
    # right side taken on the other context
    lhs = horizontal_derivative(field_of(native_ctx, components, variance)).values()
    composed = field_of(other_ctx, components, variance, evaluate=evaluate)
    rhs = (horizontal_derivative(composed).values()
           + np.einsum("...q,qm->...m", vertical_derivative(composed).values(),
                       horizontal_derivative(fiber_map).values()))
    return relative_deviation(lhs, rhs)


def horizontal_transport_momentum(sysdef, pt, components, variance=()) -> float:
    """For a momentum-native field X: covariant base derivative taken
    natively versus through the fiber map,
    D_m X = D_m(X o map) + sum_q D_m V^q d(X o map)/dv^q."""
    vctx, pctx = _paired_contexts(sysdef, pt)
    v_field = FieldValue(pctx, pctx.V, (UPPER,))
    return _horizontal_transport(pctx, vctx, vctx.eval_momentum_native,
                                 v_field, components, variance)


def horizontal_transport_velocity(sysdef, pt, components, variance=()) -> float:
    """For a velocity-native field X: covariant base derivative taken
    natively versus through the inverse map,
    D_m X = D_m(X o inv) + sum_q D_m L_q d(X o inv)/dp_q."""
    vctx, pctx = _paired_contexts(sysdef, pt)
    return _horizontal_transport(vctx, pctx, pctx.eval_velocity_native,
                                 _fiber_map_field(vctx), components, variance)
