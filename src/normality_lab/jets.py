"""Fixed-order forward-mode jets.

A Jet carries a value, a gradient over m ambient variables, and
optionally a symmetric Hessian. With the Hessian present the jet is
second order; with hess=None it is first order; with grad=None as well
it is order zero, a bare value whose derivatives are unknown. Binary
operations demote to the lowest order of their operands, so derivative
data can never be read past the order at which it is actually valid.
Plain floats are exact constants and do not demote anything.

A first-order jet may also be array-valued: a value of shape (N,) and a
gradient of shape (m, N) carry N independent points at once (vector
forward mode over a trailing node axis). Float arrays of shape (N,) are
then the constants, every domain check covers all N entries, and a
failing entry is named in the EvalError. Array values never reach the
scalar branches: those keep using math.* on plain floats.

Jets are what the expression evaluator computes. Everything above it
carries derivative data as Dense: one value, gradient and Hessian array
for a whole array of quantities, with one order for all of them.
`stack` turns evaluated jets into Dense once, under the same order
rules; `einsum` contracts Dense data by the product rule, `derivative`
slices one order off (and raises MissingJets below order zero),
`compose` applies the chain rule through a point map, and
`invert_matrix` inverts a matrix with its first derivatives. There is
no way back from Dense to jets.

The Dual class at the bottom is a one-direction dual number whose
components live in the jet ring. Evaluating a scalar expression over
Duals yields the directional derivative of the expression as a full
jet, which is how gradient-of-a-Lagrangian maps get exact second-order
jets without a third-order kernel.
"""

import math
import sys
from typing import NamedTuple, Optional

import numpy as np

from .errors import EvalError, MissingJets, SingularMetric

_NUMBER = (int, float, np.integer, np.floating)
# constants a jet combines with: numbers, and float arrays over nodes
_CONST = _NUMBER + (np.ndarray,)


def _check(ok, v, message):
    """Raise EvalError unless ok holds; ok and v are a bool and a float,
    or arrays over nodes, and the first failing node is named."""
    if v.__class__ is np.ndarray:
        if not ok.all():
            k = int(np.argmin(np.broadcast_to(ok, v.shape)))
            raise EvalError(f"{message} {v.flat[k]} (node {k})")
    elif not ok:
        raise EvalError(f"{message} {v}")


class Jet:
    __slots__ = ("value", "grad", "hess")

    # numpy must hand mixed operations to the jet instead of building
    # object arrays of jets
    __array_ufunc__ = None

    def __init__(self, value, grad, hess=None):
        kind = value.__class__
        self.value = value if kind is float or kind is np.ndarray else float(value)
        self.grad = grad
        self.hess = hess

    @property
    def order(self) -> int:
        if self.grad is None:
            return 0
        return 1 if self.hess is None else 2

    @property
    def m(self) -> int:
        return self.grad.shape[0]

    def __repr__(self):
        g = None if self.grad is None else self.grad.tolist()
        return f"Jet({self.value!r}, grad={g}, order={self.order})"

    # chain rule for a smooth f with f(v)=f0, f'(v)=f1, f''(v)=f2
    def _chain(self, f0, f1, f2):
        if f0.__class__ is np.ndarray:
            _check(np.isfinite(f0), self.value, "non-finite value at argument")
            if self.grad is None:
                return Jet(f0, None, None)
            _check(np.isfinite(f1), self.value,
                   "non-finite derivative data at argument")
            return Jet(f0, f1 * self.grad, None)
        if not math.isfinite(f0):
            raise EvalError(f"non-finite value (argument {self.value})")
        if self.grad is None:
            return Jet(f0, None, None)
        if not math.isfinite(f1):
            raise EvalError(f"non-finite derivative data (value {self.value})")
        hess = None
        if self.hess is not None:
            if not math.isfinite(f2):
                raise EvalError(f"non-finite second derivative (value {self.value})")
            hess = f1 * self.hess + f2 * np.outer(self.grad, self.grad)
        return Jet(f0, f1 * self.grad, hess)

    def __add__(self, other):
        if isinstance(other, Jet):
            if self.grad is None or other.grad is None:
                return Jet(self.value + other.value, None, None)
            hess = None
            if self.hess is not None and other.hess is not None:
                hess = self.hess + other.hess
            return Jet(self.value + other.value, self.grad + other.grad, hess)
        if isinstance(other, _CONST):
            return Jet(self.value + other, self.grad, self.hess)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value,
                   None if self.grad is None else -self.grad,
                   None if self.hess is None else -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet):
            if self.grad is None or other.grad is None:
                return Jet(self.value - other.value, None, None)
            hess = None
            if self.hess is not None and other.hess is not None:
                hess = self.hess - other.hess
            return Jet(self.value - other.value, self.grad - other.grad, hess)
        if isinstance(other, _CONST):
            return Jet(self.value - other, self.grad, self.hess)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _CONST):
            return Jet(other - self.value,
                       None if self.grad is None else -self.grad,
                       None if self.hess is None else -self.hess)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet):
            if self.grad is None or other.grad is None:
                return Jet(self.value * other.value, None, None)
            grad = self.grad * other.value + other.grad * self.value
            hess = None
            if self.hess is not None and other.hess is not None:
                cross = np.outer(self.grad, other.grad)
                hess = (self.hess * other.value + other.hess * self.value
                        + cross + cross.T)
            return Jet(self.value * other.value, grad, hess)
        if isinstance(other, _CONST):
            return Jet(self.value * other,
                       None if self.grad is None else self.grad * other,
                       None if self.hess is None else self.hess * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            _check(other.value != 0.0, other.value, "division by zero, divisor")
            if self.grad is None or other.grad is None:
                return Jet(self.value / other.value, None, None)
            w = self.value / other.value
            grad = (self.grad - w * other.grad) / other.value
            hess = None
            if self.hess is not None and other.hess is not None:
                cross = np.outer(grad, other.grad)
                hess = (self.hess - cross - cross.T - w * other.hess) / other.value
            return Jet(w, grad, hess)
        if isinstance(other, _CONST):
            _check(other != 0.0, other, "division by zero, divisor")
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _CONST):
            _check(self.value != 0.0, self.value, "division by zero, divisor")
            v = self.value
            return self._chain(other / v, -other / (v * v), 2.0 * other / (v * v * v))
        return NotImplemented

    def __pow__(self, other):
        return power(self, other)

    def __rpow__(self, other):
        return power(other, self)


def seeds(values, order: int = 2):
    """Identity-seeded jets for a coordinate vector. Values of shape
    (m, N) give first-order array-valued jets over N nodes."""
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    nodes = values.shape[1:]
    if nodes and order != 1:
        raise ValueError("array-valued jets are first order")
    out = []
    for i in range(m):
        grad = np.zeros((m,) + nodes)
        grad[i] = 1.0
        hess = np.zeros((m, m)) if order == 2 else None
        out.append(Jet(values[i], grad, hess))
    return out


def constant(value, m: int, order: int = 2) -> Jet:
    hess = np.zeros((m, m)) if order == 2 else None
    return Jet(value, np.zeros(m), hess)


def value_of(u) -> float:
    if isinstance(u, Jet):
        return u.value
    if isinstance(u, Dual):
        return value_of(u.re)
    return float(u)


class Dense(NamedTuple):
    """Derivative data of an array of quantities over m variables:
    val[S], grad[S, m] and hess[S, m, m] for an array of shape S. The
    order says which of them are valid: grad is None at order zero and
    hess is None below order two. Sums take the lower order."""

    order: int
    val: np.ndarray
    grad: Optional[np.ndarray] = None
    hess: Optional[np.ndarray] = None

    def __add__(self, other):
        order = min(self.order, other.order)
        return Dense(order, *(a + b for a, b in zip(self[1:order + 2],
                                                    other[1:order + 2])))

    def __neg__(self):
        return Dense(self.order, *(None if a is None else -a for a in self[1:]))

    def __sub__(self, other):
        return self + -other

    def truncated(self, order: int):
        """The same data without the derivatives above order, for a
        caller that will not read them."""
        order = min(order, self.order)
        return Dense(order, *self[1:order + 2])


def stack(arr, m: int) -> Dense:
    """Dense data of a jet, a number or an object array of them, over m
    variables. The order is the lowest over the entries; numbers are
    exact constants and count as second order with zero derivatives."""
    arr = np.asarray(arr, dtype=object)
    entries, shape = arr.ravel(), arr.shape
    order = min((u.order for u in entries if isinstance(u, Jet)), default=2)
    val = np.array([value_of(u) for u in entries]).reshape(shape)
    grad = hess = None
    if order >= 1:
        zero = np.zeros(m)
        grad = np.array([u.grad if isinstance(u, Jet) else zero
                         for u in entries]).reshape(shape + (m,))
    if order == 2:
        zero = np.zeros((m, m))
        hess = np.array([u.hess if isinstance(u, Jet) else zero
                         for u in entries]).reshape(shape + (m, m))
    return Dense(order, val, grad, hess)


def derivative(u: Dense, i) -> Dense:
    """Peel the first derivatives along i (an index or a slice) off
    dense data, one order lower; a slice appends its derivative axis to
    the array's own axes. Second order -> first order -> order zero;
    below that the data does not exist and MissingJets is raised."""
    if u.order == 0:
        raise MissingJets("value carries no derivative data")
    return Dense(u.order - 1, u.grad[..., i],
                 None if u.hess is None else u.hess[..., i, :])


def einsum(spec: str, *operands) -> Dense:
    """np.einsum over dense data and float arrays, with derivatives by
    the product rule. Float arrays are exact constants; the result has
    the lowest order of the dense operands. spec is explicit ("...->...")
    and uses lower-case index letters."""
    inputs, output = spec.split("->")
    subs = inputs.split(",")
    vals = [a.val if isinstance(a, Dense) else a for a in operands]
    dense = [k for k, a in enumerate(operands) if isinstance(a, Dense)]
    order = min(operands[k].order for k in dense)
    val = np.einsum(spec, *vals)
    if order == 0:
        return Dense(0, val)

    def contract(swaps, letters):
        # operand k replaced by a derivative array with extra axes
        ops, s = list(vals), list(subs)
        for k, (arr, extra) in swaps.items():
            ops[k] = arr
            s[k] += extra
        return np.einsum(f"{','.join(s)}->{output}{letters}", *ops)

    grad = sum(contract({k: (operands[k].grad, "Y")}, "Y") for k in dense)
    if order == 1:
        return Dense(1, val, grad)
    hess = sum(contract({k: (operands[k].hess, "YZ")}, "YZ") for k in dense)
    for a, k in enumerate(dense):
        for l in dense[a + 1:]:
            cross = contract({k: (operands[k].grad, "Y"),
                              l: (operands[l].grad, "Z")}, "YZ")
            hess = hess + cross + np.swapaxes(cross, -1, -2)
    return Dense(2, val, grad, hess)


def compose(h, transform):
    """Chain rule: push derivative data over inner variables through a
    point map.

    `transform` is the map as dense data of shape (m_inner,) over the
    outer variables, with Jacobian J and second derivatives T. h is a
    number, a jet or dense data over the inner variables, and the result
    is of the same kind, of the lower of the two orders:
    grad = J^T g and hess = J^T H J + sum_a g_a T_a, batched over the
    entries of dense h."""
    if isinstance(h, _NUMBER):
        return float(h)
    if isinstance(h, Jet):
        out = compose(Dense(h.order, np.asarray(h.value), h.grad, h.hess),
                      transform)
        return Jet(float(out.val), out.grad, out.hess)
    order = min(h.order, transform.order)
    _, _, J, T = transform
    if order == 0:
        return Dense(0, h.val)
    grad = h.grad @ J
    if order == 1:
        return Dense(1, h.val, grad)
    return Dense(2, h.val, grad, J.T @ h.hess @ J + np.tensordot(h.grad, T, axes=1))


def invert_matrix(A):
    """Inverse of a square matrix given as dense data, with its first
    derivatives d(A^-1) = -A^-1 dA A^-1; first order at most, since no
    caller needs more. Raises SingularMetric when the value part cannot
    be inverted."""
    order, val, grad, _ = A
    try:
        inv = np.linalg.inv(val)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("singular matrix while inverting metric") from exc
    if not np.all(np.isfinite(inv)):
        raise SingularMetric("non-finite inverse of the metric")
    if order == 0:
        return Dense(0, inv)
    return Dense(1, inv, -np.einsum("ij,jkz,kl->ilz", inv, grad, inv))


# elementary functions, dispatching on float / float array / Jet / Dual.
# Floats go through math.*, float arrays through numpy, after the same
# finiteness and domain checks, so neither path returns inf or nan.

_EXP_MAX = math.log(sys.float_info.max)   # exp is finite up to here


def _arg(u, what):
    """(math or numpy, finite value) for a float, float array or Jet."""
    v = u.value if isinstance(u, Jet) else u
    if v.__class__ is np.ndarray:
        _check(np.isfinite(v), v, f"{what} of non-finite value")
        return np, v
    v = float(v)
    if not math.isfinite(v):
        raise EvalError(f"{what} of non-finite value {v}")
    return math, v


def sin(u):
    if u.__class__ is float and math.isfinite(u):
        return math.sin(u)
    if isinstance(u, Dual):
        return Dual(sin(u.re), cos(u.re) * u.du)
    lib, v = _arg(u, "sin")
    if isinstance(u, Jet):
        s, c = lib.sin(v), lib.cos(v)
        return u._chain(s, c, -s)
    return lib.sin(v)


def cos(u):
    if u.__class__ is float and math.isfinite(u):
        return math.cos(u)
    if isinstance(u, Dual):
        return Dual(cos(u.re), -sin(u.re) * u.du)
    lib, v = _arg(u, "cos")
    if isinstance(u, Jet):
        s, c = lib.sin(v), lib.cos(v)
        return u._chain(c, -s, -c)
    return lib.cos(v)


def exp(u):
    if u.__class__ is float and u <= _EXP_MAX:     # also false for nan
        return math.exp(u)
    if isinstance(u, Dual):
        e = exp(u.re)
        return Dual(e, e * u.du)
    lib, v = _arg(u, "exp")
    _check(v <= _EXP_MAX, v, "exp overflow at")
    e = lib.exp(v)
    if isinstance(u, Jet):
        return u._chain(e, e, e)
    return e


def ln(u):
    if u.__class__ is float and 0.0 < u < math.inf:
        return math.log(u)
    if isinstance(u, Dual):
        return Dual(ln(u.re), u.du / u.re)
    lib, v = _arg(u, "ln")
    _check(v > 0.0, v, "ln of non-positive value")
    if isinstance(u, Jet):
        return u._chain(lib.log(v), 1.0 / v, -1.0 / (v * v))
    return lib.log(v)


def sqrt(u):
    if u.__class__ is float and 0.0 <= u < math.inf:
        return math.sqrt(u)
    if isinstance(u, Dual):
        s = sqrt(u.re)
        return Dual(s, true_div(u.du, 2.0 * s))
    lib, v = _arg(u, "sqrt")
    _check(v >= 0.0, v, "sqrt of negative value")
    if isinstance(u, Jet):
        _check(v != 0.0, v, "sqrt derivative is singular at")
        s = lib.sqrt(v)
        return u._chain(s, 0.5 / s, -0.25 / (s * v))
    return lib.sqrt(v)


def tanh(u):
    if u.__class__ is float and math.isfinite(u):
        return math.tanh(u)
    if isinstance(u, Dual):
        t = tanh(u.re)
        return Dual(t, (1.0 - t * t) * u.du)
    lib, v = _arg(u, "tanh")
    t = lib.tanh(v)
    if isinstance(u, Jet):
        sech2 = 1.0 - t * t
        return u._chain(t, sech2, -2.0 * t * sech2)
    return t


def _array_pow(base, e):
    """base**e where base or e is a float array over nodes, under the
    domain rules of _float_pow. A positive integer power needs only the
    result check: it is finite exactly where the base is."""
    if e.__class__ is np.ndarray or not (e > 0.0 and float(e).is_integer()):
        b, e_b = np.broadcast_arrays(base, e)
        _check(np.isfinite(b), b, "power of non-finite base")
        _check((b >= 0.0) | (e_b == np.floor(e_b)), b,
               "non-integer power of negative base")
        _check((b != 0.0) | (e_b >= 0.0), b, "negative power of zero base")
    r = np.power(base, e)
    _check(np.isfinite(r), base if base.__class__ is np.ndarray else r,
           "non-finite power result for base")
    return r


def _float_pow(base: float, e: float) -> float:
    if base < 0.0 and not float(e).is_integer():
        raise EvalError(f"non-integer power {e} of negative base {base}")
    # a nan or infinite result is caught below; an infinite base is not
    # when the power is negative
    if e < 0.0 and not 0.0 < abs(base) < math.inf:
        raise EvalError(f"negative power {e} of base {base}")
    try:
        r = math.pow(base, e)
    except (ValueError, OverflowError) as exc:
        raise EvalError(f"power failure: {base}^{e}") from exc
    if not math.isfinite(r):
        raise EvalError(f"non-finite power result: {base}^{e}")
    return r


def power(u, e):
    """u**e for any mix of float, float array, Jet and Dual operands.

    A non-constant (jet or dual) exponent routes through exp(e*ln u)
    and therefore requires a positive base.
    """
    if isinstance(e, _NUMBER):
        e = float(e)
        if isinstance(u, _CONST):
            if u.__class__ is np.ndarray:
                return _array_pow(u, e)
            return _float_pow(float(u), e)
        if e == 0.0:
            return 1.0
        if e == 1.0:
            return u
        if isinstance(u, Dual):
            return Dual(power(u.re, e), e * power(u.re, e - 1.0) * u.du)
        v = u.value
        pow_ = _float_pow if v.__class__ is float else _array_pow
        f0 = pow_(v, e)
        f1 = e * pow_(v, e - 1.0)
        f2 = 0.0
        if u.hess is not None:
            f2 = e * (e - 1.0) * pow_(v, e - 2.0) if e != 2.0 else 2.0
        return u._chain(f0, f1, f2)
    if e.__class__ is np.ndarray and isinstance(u, _CONST):
        return _array_pow(u, e)
    # exponent carries derivative structure
    return exp(e * ln(u))


FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "ln": ln, "sqrt": sqrt, "tanh": tanh}


def true_div(a, b):
    """Division with a zero check that also covers the float/float and
    float-array cases."""
    if isinstance(b, _NUMBER):
        if float(b) == 0.0:
            raise EvalError("division by zero")
        if isinstance(a, _NUMBER):
            return float(a) / float(b)
    elif b.__class__ is np.ndarray:
        _check(b != 0.0, b, "division by zero, divisor")
    return a / b


class Dual:
    """Dual number a + eps*b with components in the jet ring."""

    __slots__ = ("re", "du")
    __array_ufunc__ = None

    def __init__(self, re, du):
        self.re = re
        self.du = du

    @staticmethod
    def _lift(w):
        if isinstance(w, Dual):
            return w
        return Dual(w, 0.0)

    def __add__(self, other):
        o = Dual._lift(other)
        return Dual(self.re + o.re, self.du + o.du)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.re, -self.du)

    def __sub__(self, other):
        o = Dual._lift(other)
        return Dual(self.re - o.re, self.du - o.du)

    def __rsub__(self, other):
        o = Dual._lift(other)
        return Dual(o.re - self.re, o.du - self.du)

    def __mul__(self, other):
        o = Dual._lift(other)
        return Dual(self.re * o.re, self.re * o.du + self.du * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Dual._lift(other)
        q = true_div(self.re, o.re)
        return Dual(q, true_div(self.du - q * o.du, o.re))

    def __rtruediv__(self, other):
        return Dual._lift(other) / self

    def __pow__(self, other):
        return power(self, other)

    def __rpow__(self, other):
        return power(other, self)
