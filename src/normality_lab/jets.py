"""Fixed-order forward-mode derivative data.

Dense carries the derivative data of an array of quantities of shape S
over m variables: val of shape S, grad of shape S + (m,) and hess of
shape S + (m, m). Its order says which of them are valid: grad is None
at order zero and hess is None below order two. One layout serves a
single point (S = ()), a stacked tensor field (S = the tensor's shape)
and a batch of N points (S = (N,), vector forward mode over a leading
batch axis).

Dense is the one derivative algebra, the expression evaluator's. + - * /
and powers follow the product and quotient rules, and the elementary
functions go through one chain-rule helper. Operations demote to the
lowest order of their Dense operands, so derivative data can never be
read past the order at which it is valid. Numbers, and float arrays of
shape S, are exact constants and demote nothing. Every domain check
covers every entry, and a failing entry of a batch is named in the
EvalError. Scalar values are plain floats and go through math.*.

Above the evaluator, `stack` lays evaluated entries along a new leading
axis, `einsum` contracts dense data by the product rule, `derivative`
slices one order off (and raises MissingJets below order zero),
`compose` applies the chain rule through a point map, and
`invert_matrix` inverts a matrix with its first derivatives; `einsum`
and `invert_matrix` are first order at most.
"""

import math
import sys

import numpy as np

from .errors import EvalError, MissingJets, SingularMetric

_NUMBER = (int, float, np.integer, np.floating)
# constants Dense data combines with: numbers, and float arrays over S
_CONST = _NUMBER + (np.ndarray,)


def _check(ok, v, message):
    """Raise EvalError unless ok holds; ok and v are a bool and a float,
    or arrays over a batch, and the first failing entry is named."""
    if v.__class__ is np.ndarray:
        if not ok.all():
            k = int(np.argmin(np.broadcast_to(ok, v.shape)))
            raise EvalError(f"{message} {v.flat[k]} (node {k})")
    elif not ok:
        raise EvalError(f"{message} {v}")


def _finite(f, v, message):
    """_check that f, a float or an array over a batch, is finite."""
    if f.__class__ is np.ndarray:
        _check(np.isfinite(f), v, message)
    elif not math.isfinite(f):
        raise EvalError(f"{message} {v}")


# a value or constant against one or two trailing derivative axes
def _col(a):
    return a[..., None] if a.__class__ is np.ndarray else a


def _sq(a):
    return a[..., None, None] if a.__class__ is np.ndarray else a


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


class Dense:
    """Derivative data of an array of quantities of shape S over m
    variables: val[S], grad[S, m] and hess[S, m, m], valid up to
    `order`. Unpacks as (order, val, grad, hess)."""

    __slots__ = ("order", "val", "grad", "hess")

    # numpy must hand mixed operations to Dense instead of building
    # object arrays of it
    __array_ufunc__ = None

    def __init__(self, order, val, grad=None, hess=None):
        self.order = order
        self.val = val
        self.grad = grad
        self.hess = hess

    # unpacking only: without __len__ and __getitem__ numpy does not
    # take Dense for a sequence
    def __iter__(self):
        return iter((self.order, self.val, self.grad, self.hess))

    def __repr__(self):
        return f"Dense(order={self.order}, val={self.val!r})"

    def truncated(self, order: int):
        """The same data without the derivatives above order, for a
        caller that will not read them."""
        order = min(order, self.order)
        return Dense(order, self.val, self.grad if order >= 1 else None,
                     self.hess if order == 2 else None)

    def reshape(self, shape):
        """Stacked data (an array val) with its quantities laid out in
        shape."""
        k = self.val.ndim
        return Dense(self.order, self.val.reshape(shape),
                     *(None if a is None else a.reshape(shape + a.shape[k:])
                       for a in (self.grad, self.hess)))

    def _chain(self, f0, f1, f2):
        """f(self) for a smooth f with f(val) = f0, f'(val) = f1 and
        f''(val) = f2; each must be finite where it is needed."""
        v = self.val
        _finite(f0, v, "non-finite value at argument")
        if self.order == 0:
            return Dense(0, f0)
        _finite(f1, v, "non-finite derivative data at argument")
        grad = _col(f1) * self.grad
        if self.order == 1:
            return Dense(1, f0, grad)
        _finite(f2, v, "non-finite second derivative at argument")
        return Dense(2, f0, grad,
                     _sq(f1) * self.hess + _sq(f2) * _outer(self.grad, self.grad))

    def __add__(self, other):
        if other.__class__ is Dense:
            order = min(self.order, other.order)
            return Dense(order, self.val + other.val,
                         self.grad + other.grad if order else None,
                         self.hess + other.hess if order == 2 else None)
        if isinstance(other, _CONST):
            return Dense(self.order, self.val + other, self.grad, self.hess)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Dense(self.order, -self.val,
                     None if self.grad is None else -self.grad,
                     None if self.hess is None else -self.hess)

    def __sub__(self, other):
        if other.__class__ is Dense:
            order = min(self.order, other.order)
            return Dense(order, self.val - other.val,
                         self.grad - other.grad if order else None,
                         self.hess - other.hess if order == 2 else None)
        if isinstance(other, _CONST):
            return Dense(self.order, self.val - other, self.grad, self.hess)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _CONST):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        if other.__class__ is Dense:
            a, b = self.val, other.val
            order = min(self.order, other.order)
            if order == 0:
                return Dense(0, a * b)
            grad = self.grad * _col(b) + other.grad * _col(a)
            if order == 1:
                return Dense(1, a * b, grad)
            cross = _outer(self.grad, other.grad)
            return Dense(2, a * b, grad,
                         self.hess * _sq(b) + other.hess * _sq(a)
                         + cross + cross.swapaxes(-1, -2))
        if isinstance(other, _CONST):
            return Dense(self.order, self.val * other,
                         None if self.grad is None else self.grad * _col(other),
                         None if self.hess is None else self.hess * _sq(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is Dense:
            b = other.val
            _check(b != 0.0, b, "division by zero, divisor")
            w = self.val / b
            order = min(self.order, other.order)
            if order == 0:
                return Dense(0, w)
            grad = (self.grad - _col(w) * other.grad) / _col(b)
            if order == 1:
                return Dense(1, w, grad)
            cross = _outer(grad, other.grad)
            return Dense(2, w, grad, (self.hess - cross - cross.swapaxes(-1, -2)
                                      - _sq(w) * other.hess) / _sq(b))
        if isinstance(other, _CONST):
            _check(other != 0.0, other, "division by zero, divisor")
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _CONST):
            v = self.val
            _check(v != 0.0, v, "division by zero, divisor")
            return self._chain(other / v, -other / (v * v), 2.0 * other / (v * v * v))
        return NotImplemented


def seeds(values, order: int = 2):
    """Identity-seeded Dense data for a coordinate vector, one entry per
    coordinate. Values of shape (m,) + S give entries over a batch of
    shape S."""
    values = np.array(values, dtype=float)
    m, batch = values.shape[0], values.shape[1:]
    out = []
    for i in range(m):
        grad = np.zeros(batch + (m,))
        grad[..., i] = 1.0
        hess = np.zeros(batch + (m, m)) if order == 2 else None
        out.append(Dense(order, values[i] if batch else float(values[i]),
                         grad, hess))
    return out


def stack(entries, m: int, batch=()) -> Dense:
    """Dense data over m variables of a sequence of entries, laid along
    a new leading axis. Entries are Dense data of shape `batch`, and
    numbers or float arrays of that shape, which are exact constants:
    second order with zero derivatives. The order is the lowest over
    the Dense entries."""
    order = min((u.order for u in entries if u.__class__ is Dense), default=2)
    vals = [u.val if u.__class__ is Dense else u for u in entries]
    if batch:       # constants broadcast over the batch on assignment
        val = np.empty((len(vals),) + batch)
        for k, v in enumerate(vals):
            val[k] = v
    else:
        val = np.array(vals, dtype=float)
    grad = hess = None
    if order >= 1:
        zero = np.zeros(batch + (m,))
        grad = np.array([u.grad if u.__class__ is Dense else zero
                         for u in entries])
    if order == 2:
        zero = np.zeros(batch + (m, m))
        hess = np.array([u.hess if u.__class__ is Dense else zero
                         for u in entries])
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
    """np.einsum over dense data and float arrays, with first
    derivatives by the product rule; first order at most, since no
    caller needs more. Float arrays are exact constants; the result has
    the lower of order one and the lowest order of the dense operands.
    spec is explicit ("...->...") and uses lower-case index letters."""
    inputs, output = spec.split("->")
    subs = inputs.split(",")
    vals = [a.val if isinstance(a, Dense) else a for a in operands]
    dense = [k for k, a in enumerate(operands) if isinstance(a, Dense)]
    val = np.einsum(spec, *vals)
    if min(operands[k].order for k in dense) == 0:
        return Dense(0, val)

    def through(k):
        # operand k replaced by its gradient, with a trailing axis
        ops, s = list(vals), list(subs)
        ops[k], s[k] = operands[k].grad, s[k] + "Y"
        return np.einsum(f"{','.join(s)}->{output}Y", *ops)

    return Dense(1, val, sum(through(k) for k in dense))


def compose(h, transform):
    """Chain rule: push derivative data over inner variables through a
    point map.

    `transform` is the map as dense data of shape (m_inner,) over the
    outer variables, with Jacobian J and second derivatives T. h is
    dense data over the inner variables, and the result is dense data
    of the lower of the two orders:
    grad = J^T g and hess = J^T H J + sum_a g_a T_a, batched over the
    entries of h."""
    order = min(h.order, transform.order)
    _, _, J, T = transform
    if order == 0:
        return Dense(0, h.val)
    grad = h.grad @ J
    if order == 1:
        return Dense(1, h.val, grad)
    return Dense(2, h.val, grad, J.T @ h.hess @ J + np.tensordot(h.grad, T, axes=1))


def invert_matrix(A):
    """Inverse of a square matrix given as dense data of order one or
    more, with its first derivatives d(A^-1) = -A^-1 dA A^-1; first
    order at most, since no caller needs more. Raises SingularMetric
    when the value part cannot be inverted."""
    _, val, grad, _ = A
    try:
        inv = np.linalg.inv(val)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("singular matrix while inverting metric") from exc
    if not np.all(np.isfinite(inv)):
        raise SingularMetric("non-finite inverse of the metric")
    return Dense(1, inv, -np.einsum("ij,jkz,kl->ilz", inv, grad, inv))


# elementary functions, dispatching on float / float array / Dense.
# Floats go through math.*, float arrays through numpy, after the
# same finiteness and domain checks, so neither path returns inf or nan.

_EXP_MAX = math.log(sys.float_info.max)   # exp is finite up to here


def _arg(u, what):
    """(math or numpy, finite value) for a float, float array or Dense."""
    v = u.val if u.__class__ is Dense else u
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
    lib, v = _arg(u, "sin")
    if u.__class__ is Dense:
        s, c = lib.sin(v), lib.cos(v)
        return u._chain(s, c, -s)
    return lib.sin(v)


def cos(u):
    if u.__class__ is float and math.isfinite(u):
        return math.cos(u)
    lib, v = _arg(u, "cos")
    if u.__class__ is Dense:
        s, c = lib.sin(v), lib.cos(v)
        return u._chain(c, -s, -c)
    return lib.cos(v)


def exp(u):
    if u.__class__ is float and u <= _EXP_MAX:     # also false for nan
        return math.exp(u)
    lib, v = _arg(u, "exp")
    _check(v <= _EXP_MAX, v, "exp overflow at")
    e = lib.exp(v)
    if u.__class__ is Dense:
        return u._chain(e, e, e)
    return e


def ln(u):
    if u.__class__ is float and 0.0 < u < math.inf:
        return math.log(u)
    lib, v = _arg(u, "ln")
    _check(v > 0.0, v, "ln of non-positive value")
    if u.__class__ is Dense:
        return u._chain(lib.log(v), 1.0 / v, -1.0 / (v * v))
    return lib.log(v)


def sqrt(u):
    if u.__class__ is float and 0.0 <= u < math.inf:
        return math.sqrt(u)
    lib, v = _arg(u, "sqrt")
    _check(v >= 0.0, v, "sqrt of negative value")
    if u.__class__ is Dense:
        _check(v != 0.0, v, "sqrt derivative is singular at")
        s = lib.sqrt(v)
        return u._chain(s, 0.5 / s, -0.25 / (s * v))
    return lib.sqrt(v)


def tanh(u):
    if u.__class__ is float and math.isfinite(u):
        return math.tanh(u)
    lib, v = _arg(u, "tanh")
    t = lib.tanh(v)
    if u.__class__ is Dense:
        sech2 = 1.0 - t * t
        return u._chain(t, sech2, -2.0 * t * sech2)
    return t


def _array_pow(base, e):
    """base**e where base or e is a float array over a batch, under the
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
    """u**e for any mix of float, float array and Dense operands.

    A Dense exponent routes through exp(e*ln u) and therefore requires
    a positive base.
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
        v = u.val
        pow_ = _array_pow if v.__class__ is np.ndarray else _float_pow
        f0 = pow_(v, e)
        f1 = e * pow_(v, e - 1.0)
        f2 = 0.0
        if u.order == 2:
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

