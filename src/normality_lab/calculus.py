"""Derivative calculus for extended tensor fields.

A field lives on one of the two evaluation contexts and carries its
derivative data as jets.Dense: value, gradient and, at second order,
Hessian arrays with one leading axis per tensor index. Each axis is marked upper ("u") or
lower ("l"); new axes from differentiation are appended last, so the
entry order of a derivative array is [field indices..., derivative
index].

Derivatives are evaluated densely, in vector forward mode: each formula
is a few einsum contractions of the field with the context's stacked
connection, and its result is dense data again. Curvature and dynamic
curvature come back as plain float arrays.

A context over a batch of points puts the batch axis first in every
array; every contraction carries it as a leading "..." and every
per-point reduction (relative_deviation) keeps it, so a point gives
the same bits alone and in a batch.

The fiber derivative lowers an index in the velocity representation
and raises one in the momentum representation. The horizontal
derivative is covariant: a base-coordinate derivative, a fiber
correction built from the connection, and one connection term per
tensor index; the product rule gives its gradient. The fiber correction
N is the context's, computed once a context (ctx.N), and its gradient
dN only when a second-order field asks for it (ctx.dN).

Every derivative peels one order off, and a field has one order for
all its entries. The connection is first order in both contexts, as
only G and dG enter here, so a horizontal derivative has order
min(field order - 1, 1): applying it twice to a field of a
second-order context yields order zero, fine for value-level use,
while any further derivative raises MissingJets. The relations read
first derivatives only, so their paired contexts are first order.
"""

from dataclasses import dataclass

import numpy as np

from . import jets
from .jets import c_einsum
from .errors import DimensionError, MissingJets, MixedRepresentationError
from .phase import PhasePoint, Rep
from .system import PContext, SystemDef, VContext, sup_norm

UPPER = "u"
LOWER = "l"


class FieldValue:
    """Tensor field evaluated at one context. `data` is its jets.Dense,
    of shape ctx.batch + (n,) * rank; scalar Dense data, a number, or an
    array of them is stacked once here."""

    __slots__ = ("ctx", "data", "variance")

    def __init__(self, ctx, data, variance=()):
        self.ctx = ctx
        self.variance = tuple(variance)
        if not isinstance(data, jets.Dense):
            data = jets.stack(np.ravel(data), ctx.m, ctx.batch).reshape(
                ctx.batch + np.shape(data))
        shape = ctx.batch + (ctx.n,) * len(self.variance)
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


def field_of(ctx, components, variance=(), evaluate=None):
    """Build a FieldValue by evaluating expression-like components.

    `components` is a scalar component for rank 0 or nested sequences
    matching the variance. The default evaluator treats components as
    native to the context's representation; pass e.g.
    vctx.eval_momentum_native to compose with the fiber map instead, and
    see _through_inverse for the inverse map."""
    evaluate = evaluate or ctx.eval_native
    return FieldValue(ctx, evaluate(components), variance)


def vertical_derivative(field: FieldValue) -> FieldValue:
    """Fiber derivative. Appends an upper index in the momentum
    representation and a lower index in the velocity representation."""
    ctx = field.ctx
    mark = UPPER if ctx.rep is Rep.MOMENTUM else LOWER
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
    index k contributes -sum_b G^b_mk X[..b..]. The fiber correction,
    the coefficients of dX/dfiber, is the context's ctx.N. The gradient
    of the result follows from the product rule, with ctx.dN; it exists
    only when the field is second order."""
    ctx = field.ctx
    n = ctx.n
    if field.data.order == 0:
        raise MissingJets("field carries no derivative data")
    _, X, dX, ddX = field.data
    _, G, dG, _ = ctx.connection
    N = ctx.N

    # the field's own slots are spelled out, "..." is the batch
    slots = "acdefghi"[:field.rank]
    val = dX[..., :n] + c_einsum(f"...{slots}b,...bm->...{slots}m",
                                 dX[..., n:], N)
    grad = None
    if ddX is not None:
        grad = (ddX[..., :n, :]
                + c_einsum(f"...{slots}bz,...bm->...{slots}mz",
                           ddX[..., n:, :], N)
                + c_einsum(f"...{slots}b,...bmz->...{slots}mz",
                           dX[..., n:], ctx.dN))
    for t, mark in enumerate(field.variance):
        src = slots[:t] + "y" + slots[t + 1:]
        conn, sign = ((f"{slots[t]}my", 1.0) if mark == UPPER
                      else (f"ym{slots[t]}", -1.0))
        val += sign * c_einsum(f"...{conn},...{src}->...{slots}m", G, X)
        if grad is not None:
            grad += sign * (
                c_einsum(f"...{conn}z,...{src}->...{slots}mz", dG, X)
                + c_einsum(f"...{conn},...{src}z->...{slots}mz", G, dX))
    return FieldValue(ctx, jets.Dense(0 if grad is None else 1, val, grad),
                      field.variance + (LOWER,))


def dynamic_curvature(ctx) -> np.ndarray:
    """Fiber derivative of the connection, sign-flipped.

    Layout [k][r][i][j]: in the velocity representation the entry is
    -dG^k_ir/dv^j (one upper, three lower indices); in the momentum
    representation it is -dG^k_ij/dp_r (upper pair k,r; lower pair i,j)."""
    _, _, dG, _ = ctx.connection
    dfiber = dG[..., ctx.n:]
    if ctx.rep is Rep.MOMENTUM:
        return -c_einsum("...kijr->...krij", dfiber)
    return -c_einsum("...kirj->...krij", dfiber)


def curvature(ctx) -> np.ndarray:
    """Curvature of the connection, layout [k][r][i][j], antisymmetric
    in the last index pair. The fiber-correction terms carry opposite
    signs in the two representations, matching the horizontal
    derivative they come from."""
    n = ctx.n
    _, G, dG, _ = ctx.connection
    # lead[m, i]: coefficient of dG/dfiber_m in the base derivative D_i
    if ctx.rep is Rep.MOMENTUM:
        lead = c_einsum("...s,...smi->...mi", ctx.fiber, G)
    else:
        lead = -c_einsum("...s,...mis->...mi", ctx.fiber, G)
    base = dG[..., :n] + c_einsum("...kjrm,...mi->...kjri", dG[..., n:], lead)
    half = (c_einsum("...kjri->...krij", base)
            + c_einsum("...kim,...mjr->...krij", G, G))
    return half - c_einsum("...krij->...krji", half)


@dataclass(frozen=True)
class RelationCheck:
    """Two independently computed sides of a tensor identity."""

    lhs: np.ndarray
    rhs: np.ndarray
    deviation: float        # an array over the batch of a batched pair


def relative_deviation(a, b, batch=()):
    """Sup-norm distance of two arrays, relative to their larger entry
    and never to a scale below one: a numpy float, or an array of shape
    batch with one distance per point when the arrays lead with those
    batch axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(1.0, sup_norm(a, batch)), sup_norm(b, batch))
    return sup_norm(a - b, batch) / scale


def _paired_contexts(sysdef: SystemDef, pt: PhasePoint, order: int = 1):
    """The velocity context at pt, a velocity point or a batch, and the
    momentum context at its image under the fiber map, both at `order`.
    The image p is the velocity context's own fiber-map values, the bits
    legendre_forward gives, so each fiber-map component is evaluated
    once a batch. Without a closed-form inverse, the momentum context
    keeps the velocity context as its inner one, whose residual against
    p is zero, so PContext's preimage test passes, Newton does not run
    and the pair shares that context's one g^-1. The routes still share
    no formula, only components evaluated at one point: evaluating
    them again near pt added no evidence about the formulas.
    The metric check's round trip keeps the cold start that certifies
    the inverse. The transport check builds one such pair per batch and
    evaluates all six relations on it; the public relation functions
    build their own. Every relation reads first derivatives only;
    cross_check_all asks for order 2, for its bundles."""
    if pt.rep is not Rep.VELOCITY:
        raise MixedRepresentationError("paired evaluation starts from a velocity point")
    vctx = VContext(sysdef, pt.x, pt.fiber, order)
    return vctx, PContext(sysdef, pt.x, vctx.L_dense.val, order, vctx)


def _fiber_map_gradient(vctx) -> np.ndarray:
    """The horizontal derivative of the fiber map, [q, m]."""
    return horizontal_derivative(FieldValue(vctx, vctx.L_dense,
                                            (LOWER,))).values()


# The transport check evaluates its relations on one context pair and
# hands the velocity side's dynamic curvature dv and fiber-map gradient
# grad_L to the two relations that read each; left out, they are
# computed here.

def _dynamic_curvature_relation(vctx, pctx, dv=None) -> RelationCheck:
    lhs = dynamic_curvature(pctx)
    rhs = c_einsum("...sr,...kijs->...krij", vctx.g_inv_values,
                   dynamic_curvature(vctx) if dv is None else dv)
    return RelationCheck(lhs, rhs, relative_deviation(lhs, rhs, vctx.batch))


def dynamic_curvature_relation(sysdef: SystemDef, pt: PhasePoint) -> RelationCheck:
    """Momentum-representation dynamic curvature at the image point
    against the metric-contracted velocity-representation one."""
    return _dynamic_curvature_relation(*_paired_contexts(sysdef, pt))


def _fiber_map_correction(grad_L, g_inv, dv):
    """The velocity side's correction in the curvature relation,
    [k, r, i, j]: (grad_L g^-1)[s, i] dv[k, j, r, s], antisymmetrized in
    i and j by its own transpose."""
    half = c_einsum("...si,...kjrs->...krij",
                    c_einsum("...qi,...sq->...si", grad_L, g_inv), dv)
    return half - np.swapaxes(half, -1, -2)


def _curvature_relation(vctx, pctx, dv=None, grad_L=None) -> RelationCheck:
    lhs = curvature(pctx)
    dv = dynamic_curvature(vctx) if dv is None else dv
    grad_L = _fiber_map_gradient(vctx) if grad_L is None else grad_L
    rhs = curvature(vctx) + _fiber_map_correction(grad_L, vctx.g_inv_values,
                                                  dv)
    return RelationCheck(lhs, rhs, relative_deviation(lhs, rhs, vctx.batch))


def curvature_relation(sysdef: SystemDef, pt: PhasePoint) -> RelationCheck:
    """Momentum-representation curvature at the image point against the
    velocity-representation curvature plus its fiber-map correction."""
    return _curvature_relation(*_paired_contexts(sysdef, pt))


# --- transport of derivatives through the fiber map ---------------------

def _vertical_transport(direct, composed, metric, ctx) -> float:
    # fiber gradients: direct against composed, carried through metric
    n = ctx.n
    return relative_deviation(
        direct.grad[..., n:],
        c_einsum("...qk,...q->...k", metric, composed.grad[..., n:]),
        ctx.batch)


def _through_inverse(vctx, pctx, func, direct):
    """Velocity-native func composed with the inverse map, given its data
    `direct` on vctx, the one path to a momentum context: where vctx is
    pctx's inner context, as in every Newton pair, that data is
    composed and not evaluated again."""
    return jets.compose(direct if pctx.inner is vctx
                        else pctx.inner.eval_native(func), pctx.transform)


def _vertical_transport_velocity(vctx, pctx, func) -> float:
    direct = vctx.eval_native(func)
    return _vertical_transport(direct, _through_inverse(vctx, pctx, func, direct),
                               vctx.g_values, vctx)


def vertical_transport_velocity(sysdef, pt, func) -> float:
    """For a velocity-native scalar X: fiber derivative taken directly
    versus through the inverse map, dX/dv^k = sum_q g_qk d(X o inv)/dp_q."""
    return _vertical_transport_velocity(*_paired_contexts(sysdef, pt), func)


def _vertical_transport_momentum(vctx, pctx, func) -> float:
    direct, composed = pctx.eval_native(func), vctx.eval_momentum_native(func)
    return _vertical_transport(direct, composed, vctx.g_inv_values, vctx)


def vertical_transport_momentum(sysdef, pt, func) -> float:
    """For a momentum-native scalar X: dX/dp_k = sum_q g^{qk} d(X o map)/dv^q."""
    return _vertical_transport_momentum(*_paired_contexts(sysdef, pt), func)


def _horizontal_transport(native, composed, map_gradient) -> float:
    # D_m X = D_m(X o map) + sum_q D_m map_q d(X o map)/dfiber_q, with the
    # right side taken on the other context
    lhs = horizontal_derivative(native).values()
    slots = "acdefghi"[:len(native.variance)]
    rhs = (horizontal_derivative(composed).values()
           + c_einsum(f"...{slots}q,...qm->...{slots}m",
                      vertical_derivative(composed).values(), map_gradient))
    return relative_deviation(lhs, rhs, native.ctx.batch)


def _horizontal_transport_momentum(vctx, pctx, components, variance=()) -> float:
    grad_V = horizontal_derivative(FieldValue(pctx, pctx.V, (UPPER,))).values()
    return _horizontal_transport(
        field_of(pctx, components, variance),
        field_of(vctx, components, variance, evaluate=vctx.eval_momentum_native),
        grad_V)


def horizontal_transport_momentum(sysdef, pt, components, variance=()) -> float:
    """For a momentum-native field X: covariant base derivative taken
    natively versus through the fiber map,
    D_m X = D_m(X o map) + sum_q D_m V^q d(X o map)/dv^q."""
    return _horizontal_transport_momentum(*_paired_contexts(sysdef, pt),
                                          components, variance)


def _horizontal_transport_velocity(vctx, pctx, components, variance=(),
                                   grad_L=None) -> float:
    grad_L = _fiber_map_gradient(vctx) if grad_L is None else grad_L
    native = field_of(vctx, components, variance)
    composed = FieldValue(pctx, _through_inverse(vctx, pctx, components,
                                                 native.data), variance)
    return _horizontal_transport(native, composed, grad_L)


def horizontal_transport_velocity(sysdef, pt, components, variance=()) -> float:
    """For a velocity-native field X: covariant base derivative taken
    natively versus through the inverse map,
    D_m X = D_m(X o inv) + sum_q D_m L_q d(X o inv)/dp_q."""
    return _horizontal_transport_velocity(*_paired_contexts(sysdef, pt),
                                          components, variance)
