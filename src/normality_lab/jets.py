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
EvalError. Elementary functions and powers go through the numpy ufuncs
for floats and arrays alike, so an entry of a batch gets the bits it
gets alone, and expr's raw form, the same ufuncs under floating-point
traps instead of these checks, gets them too.

Above the evaluator, `stack` lays evaluated entries along a new axis
after the batch axes, `einsum` contracts dense data by the product
rule, `derivative` slices one order off (and raises MissingJets below
order zero), `compose` applies the chain rule through a point map, and
`invert_matrix` inverts a matrix with its first derivatives; `einsum`
and `invert_matrix` are first order at most. Each takes leading batch
axes: a batch of points is the same data with one more leading axis.
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
            raise EvalError(f"{message} {v.flat[k]}", node=k)
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
            return Dense(self.order, self.val / other,
                         None if self.grad is None else self.grad / _col(other),
                         None if self.hess is None else self.hess / _sq(other))
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


def stack(entries, m: int, batch=(), order: int = 2) -> Dense:
    """Dense data over m variables of a sequence of entries, laid along
    a new axis after the batch axes: val has shape batch + (len,).
    Entries are Dense data of shape `batch`, and numbers or float arrays
    of that shape, which are exact constants with zero derivatives. The
    order is the lowest over `order` and the Dense entries."""
    order = min([order] + [u.order for u in entries if u.__class__ is Dense])
    k = len(entries)
    val = np.empty(batch + (k,))
    grad = np.zeros(batch + (k, m)) if order >= 1 else None
    hess = np.zeros(batch + (k, m, m)) if order == 2 else None
    for i, u in enumerate(entries):
        # constants broadcast over the batch on assignment
        val[..., i] = u.val if u.__class__ is Dense else u
        if u.__class__ is Dense:
            if grad is not None:
                grad[..., i, :] = u.grad
            if hess is not None:
                hess[..., i, :, :] = u.hess
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
    spec is explicit ("...->...") and uses lower-case index letters; a
    leading "..." carries batch axes."""
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

    `transform` is the map as dense data of shape batch + (m_inner,)
    over the outer variables, with Jacobian J and second derivatives T.
    h is dense data over the inner variables with the same batch axes,
    and the result is dense data of the lower of the two orders:
    grad = J^T g and hess = J^T H J + sum_a g_a T_a, for every entry of
    h. Each point's entries go through one matrix product, alone or in
    a batch."""
    order = min(h.order, transform.order)
    _, y, J, T = transform
    if order == 0:
        return Dense(0, h.val)
    batch, (k, m) = y.shape[:-1], J.shape[-2:]
    shape = np.shape(h.val)
    g = h.grad.reshape(batch + (-1, k))
    grad = (g @ J).reshape(shape + (m,))
    if order == 1:
        return Dense(1, h.val, grad)
    J_ = J[..., None, :, :]
    hess = (np.swapaxes(J_, -1, -2) @ h.hess.reshape(batch + (-1, k, k)) @ J_
            + (g @ T.reshape(batch + (k, m * m))).reshape(batch + (-1, m, m)))
    return Dense(2, h.val, grad, hess.reshape(shape + (m, m)))


def invert_matrix(A):
    """Inverse of a square matrix (or a batch of them) given as dense
    data of order one or more, with its first derivatives
    d(A^-1) = -A^-1 dA A^-1; first order at most, since no caller needs
    more. Raises MissingJets at order zero, and SingularMetric when the
    value part cannot be inverted."""
    order, val, grad, _ = A
    if order == 0:
        raise MissingJets("matrix carries no derivative data")
    try:
        inv = np.linalg.inv(val)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric("singular matrix while inverting metric") from exc
    if not np.all(np.isfinite(inv)):
        raise SingularMetric("non-finite inverse of the metric")
    return Dense(1, inv, -np.einsum("...ij,...jkz,...kl->...ilz", inv, grad, inv))


# elementary functions, dispatching on float / float array / Dense.
# Floats and float arrays both go through the numpy ufuncs, after the
# same finiteness and domain checks, so no path returns inf or nan.

_EXP_MAX = math.log(sys.float_info.max)   # exp is finite up to here


def _elementary(name, f, derivatives, *domain):
    """The elementary function `name` over floats, float arrays and
    Dense data. f is its ufunc and derivatives(v, f(v)) gives f' and f''
    at the argument's value v; domain is an optional (test, message)
    pair that v must pass, after its finiteness check."""
    def apply(u):
        v = u.val if u.__class__ is Dense else u
        _finite(v, v, f"{name} of non-finite value")
        if domain:
            _check(domain[0](v), v, domain[1])
        y = f(v)
        if u.__class__ is Dense:
            return u._chain(y, *derivatives(v, y))
        return y
    apply.__name__ = name
    return apply


def _sqrt_derivatives(v, s):
    _check(v != 0.0, v, "sqrt derivative is singular at")
    return 0.5 / s, -0.25 / (s * v)


def _tanh_derivatives(v, t):
    sech2 = 1.0 - t * t
    return sech2, -2.0 * t * sech2


sin = _elementary("sin", np.sin, lambda v, s: (np.cos(v), -s))
cos = _elementary("cos", np.cos, lambda v, c: (-np.sin(v), -c))
exp = _elementary("exp", np.exp, lambda v, e: (e, e),
                  lambda v: v <= _EXP_MAX, "exp overflow at")
ln = _elementary("ln", np.log, lambda v, y: (1.0 / v, -1.0 / (v * v)),
                 lambda v: v > 0.0, "ln of non-positive value")
sqrt = _elementary("sqrt", np.sqrt, _sqrt_derivatives,
                   lambda v: v >= 0.0, "sqrt of negative value")
tanh = _elementary("tanh", np.tanh, _tanh_derivatives)


def _pow(base, e):
    """base**e for a float or float array base and exponent. A power of
    a non-finite or negative base, a non-integer power of a negative
    base and a negative power of zero raise EvalError; a positive
    integer power needs only the result check, as it is finite exactly
    where the base is."""
    if e.__class__ is np.ndarray or not (e > 0.0 and float(e).is_integer()):
        b, e_b = base, e
        if np.ndarray in (base.__class__, e.__class__):
            b, e_b = np.broadcast_arrays(base, e)
        _check(np.isfinite(b), b, "power of non-finite base")
        _check((b >= 0.0) | (e_b == np.floor(e_b)), b,
               "non-integer power of negative base")
        _check((b != 0.0) | (e_b >= 0.0), b, "negative power of zero base")
    r = np.power(base, e)
    b = base
    if r.__class__ is np.ndarray and b.__class__ is not np.ndarray:
        b = np.broadcast_to(b, r.shape)     # a float base, array exponent
    _check(np.isfinite(r), b, "non-finite power result for base")
    return r


def power(u, e):
    """u**e for any mix of float, float array and Dense operands.

    A Dense exponent routes through exp(e*ln u) and therefore requires
    a positive base.
    """
    if isinstance(e, _NUMBER):
        e = float(e)
        if isinstance(u, _CONST):
            return _pow(u, e)
        if e == 0.0:
            return 1.0
        if e == 1.0:
            return u
        v = u.val
        f0 = _pow(v, e)
        f1 = e * _pow(v, e - 1.0)
        f2 = 0.0
        if u.order == 2:
            f2 = e * (e - 1.0) * _pow(v, e - 2.0) if e != 2.0 else 2.0
        return u._chain(f0, f1, f2)
    if e.__class__ is np.ndarray and isinstance(u, _CONST):
        return _pow(u, e)
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

