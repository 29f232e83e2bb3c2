"""Fixed-order forward-mode jets.

A Jet carries a value, a gradient over m ambient variables, and
optionally a symmetric Hessian. With the Hessian present the jet is
second order; with hess=None it is first order; with grad=None as well
it is order zero, a bare value whose derivatives are unknown. Binary
operations demote to the lowest order of their operands, so derivative
data can never be read past the order at which it is actually valid
(`derivative` peels one order off and raises MissingJets below zero).
Plain floats are exact constants and do not demote anything.
`stack` turns an object array of jets into dense value, gradient and
Hessian arrays under the same rules, and `from_dense` turns them back.

The Dual class at the bottom is a one-direction dual number whose
components live in the jet ring. Evaluating a scalar expression over
Duals yields the directional derivative of the expression as a full
jet, which is how gradient-of-a-Lagrangian maps get exact second-order
jets without a third-order kernel.
"""

import math

import numpy as np

from .errors import EvalError, MissingJets, SingularMetric

_NUMBER = (int, float, np.integer, np.floating)


class Jet:
    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess=None):
        self.value = float(value)
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
        if isinstance(other, _NUMBER):
            return Jet(self.value + other, self.grad, self.hess)
        if isinstance(other, Jet):
            if self.grad is None or other.grad is None:
                return Jet(self.value + other.value, None, None)
            hess = None
            if self.hess is not None and other.hess is not None:
                hess = self.hess + other.hess
            return Jet(self.value + other.value, self.grad + other.grad, hess)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value,
                   None if self.grad is None else -self.grad,
                   None if self.hess is None else -self.hess)

    def __sub__(self, other):
        if isinstance(other, _NUMBER):
            return Jet(self.value - other, self.grad, self.hess)
        if isinstance(other, Jet):
            if self.grad is None or other.grad is None:
                return Jet(self.value - other.value, None, None)
            hess = None
            if self.hess is not None and other.hess is not None:
                hess = self.hess - other.hess
            return Jet(self.value - other.value, self.grad - other.grad, hess)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBER):
            return Jet(other - self.value,
                       None if self.grad is None else -self.grad,
                       None if self.hess is None else -self.hess)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, _NUMBER):
            c = float(other)
            return Jet(self.value * c,
                       None if self.grad is None else self.grad * c,
                       None if self.hess is None else self.hess * c)
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
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _NUMBER):
            if other == 0:
                raise EvalError("division by zero")
            return self * (1.0 / float(other))
        if isinstance(other, Jet):
            if other.value == 0.0:
                raise EvalError("division by zero")
            if self.grad is None or other.grad is None:
                return Jet(self.value / other.value, None, None)
            w = self.value / other.value
            grad = (self.grad - w * other.grad) / other.value
            hess = None
            if self.hess is not None and other.hess is not None:
                cross = np.outer(grad, other.grad)
                hess = (self.hess - cross - cross.T - w * other.hess) / other.value
            return Jet(w, grad, hess)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBER):
            if self.value == 0.0:
                raise EvalError("division by zero")
            v = self.value
            return self._chain(other / v, -other / (v * v), 2.0 * other / (v * v * v))
        return NotImplemented

    def __pow__(self, other):
        return power(self, other)

    def __rpow__(self, other):
        return power(other, self)


def seeds(values, order: int = 2):
    """Identity-seeded jets for a coordinate vector."""
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    out = []
    for i in range(m):
        grad = np.zeros(m)
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


def derivative(u, i: int):
    """Peel the i-th first derivative off a jet, one order lower.

    Second order -> first order -> order zero; below that (and for
    plain numbers) the data does not exist and MissingJets is raised.
    """
    if not isinstance(u, Jet) or u.grad is None:
        raise MissingJets("value carries no derivative data")
    if u.hess is not None:
        return Jet(u.grad[i], u.hess[i].copy(), None)
    return Jet(u.grad[i], None, None)


def compose(h, transform):
    """Chain rule: push a jet over inner variables through a point map.

    `transform` lists one jet per inner variable, each over the outer
    variables. The result keeps the Hessian only when both h and every
    transform component carry one.
    """
    if isinstance(h, _NUMBER):
        return float(h)
    if h.grad is None or any(t.grad is None for t in transform):
        return Jet(h.value, None, None)
    J = np.stack([t.grad for t in transform])  # (m_inner, m_outer)
    grad = J.T @ h.grad
    hess = None
    if h.hess is not None and all(t.hess is not None for t in transform):
        hess = J.T @ h.hess @ J
        for a, t in enumerate(transform):
            ga = h.grad[a]
            if ga != 0.0:
                hess = hess + ga * t.hess
    return Jet(h.value, grad, hess)


def invert_matrix(A):
    """Invert a square matrix with jet-valued entries (Gauss-Jordan,
    partial pivoting on the value part). Raises SingularMetric when a
    pivot vanishes."""
    A = np.asarray(A, dtype=object)
    n = A.shape[0]
    work = [[A[i][j] for j in range(n)] for i in range(n)]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(value_of(work[r][col])))
        if abs(value_of(work[pivot_row][col])) < 1e-300:
            raise SingularMetric("zero pivot while inverting metric")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        piv = work[col][col]
        for j in range(n):
            work[col][j] = work[col][j] / piv
            inv[col][j] = inv[col][j] / piv
        for r in range(n):
            if r == col:
                continue
            f = work[r][col]
            if isinstance(f, _NUMBER) and f == 0.0:
                continue
            for j in range(n):
                work[r][j] = work[r][j] - f * work[col][j]
                inv[r][j] = inv[r][j] - f * inv[col][j]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = inv[i][j]
    return out


def values(arr) -> np.ndarray:
    """Value parts of an object array of jets/floats."""
    arr = np.asarray(arr, dtype=object)
    out = np.empty(arr.shape, dtype=float)
    for idx in np.ndindex(arr.shape):
        out[idx] = value_of(arr[idx])
    return out


def stack(arr, m: int):
    """Dense data of an object array of jets over m variables:
    (order, val[S], grad[S, m] or None, hess[S, m, m] or None).

    The order is the lowest over the entries; plain floats are exact
    constants and count as second order with zero derivatives."""
    entries = np.asarray(arr, dtype=object).ravel()
    shape = np.shape(arr)
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
    return order, val, grad, hess


def from_dense(val, grad=None, hess=None) -> np.ndarray:
    """Object array of jets from dense data; the inverse of stack.
    A missing gradient gives order-zero jets."""
    out = np.empty(val.shape, dtype=object)
    for idx in np.ndindex(val.shape):
        out[idx] = Jet(val[idx],
                       None if grad is None else grad[idx],
                       None if grad is None or hess is None else hess[idx])
    return out


# elementary functions, dispatching on float / Jet / Dual

def sin(u):
    if isinstance(u, Dual):
        return Dual(sin(u.re), cos(u.re) * u.du)
    if isinstance(u, Jet):
        s, c = math.sin(u.value), math.cos(u.value)
        return u._chain(s, c, -s)
    return math.sin(float(u))


def cos(u):
    if isinstance(u, Dual):
        return Dual(cos(u.re), -sin(u.re) * u.du)
    if isinstance(u, Jet):
        s, c = math.sin(u.value), math.cos(u.value)
        return u._chain(c, -s, -c)
    return math.cos(float(u))


def exp(u):
    if isinstance(u, Dual):
        e = exp(u.re)
        return Dual(e, e * u.du)
    if isinstance(u, Jet):
        try:
            e = math.exp(u.value)
        except OverflowError:
            raise EvalError(f"exp overflow at {u.value}") from None
        return u._chain(e, e, e)
    try:
        return math.exp(float(u))
    except OverflowError:
        raise EvalError(f"exp overflow at {u}") from None


def ln(u):
    v = value_of(u)
    if v <= 0.0:
        raise EvalError(f"ln of non-positive value {v}")
    if isinstance(u, Dual):
        return Dual(ln(u.re), u.du / u.re)
    if isinstance(u, Jet):
        return u._chain(math.log(v), 1.0 / v, -1.0 / (v * v))
    return math.log(v)


def sqrt(u):
    v = value_of(u)
    if v < 0.0:
        raise EvalError(f"sqrt of negative value {v}")
    if isinstance(u, Dual):
        s = sqrt(u.re)
        return Dual(s, u.du / (2.0 * s))
    if isinstance(u, Jet):
        if v == 0.0:
            raise EvalError("sqrt derivative is singular at zero")
        s = math.sqrt(v)
        return u._chain(s, 0.5 / s, -0.25 / (s * v))
    return math.sqrt(v)


def tanh(u):
    if isinstance(u, Dual):
        t = tanh(u.re)
        return Dual(t, (1.0 - t * t) * u.du)
    if isinstance(u, Jet):
        t = math.tanh(u.value)
        sech2 = 1.0 - t * t
        return u._chain(t, sech2, -2.0 * t * sech2)
    return math.tanh(float(u))


def _float_pow(base: float, e: float) -> float:
    if base < 0.0 and not float(e).is_integer():
        raise EvalError(f"non-integer power {e} of negative base {base}")
    if base == 0.0 and e < 0.0:
        raise EvalError("zero raised to a negative power")
    try:
        r = math.pow(base, e)
    except (ValueError, OverflowError) as exc:
        raise EvalError(f"power failure: {base}^{e}") from exc
    if not math.isfinite(r):
        raise EvalError(f"non-finite power result: {base}^{e}")
    return r


def power(u, e):
    """u**e for any mix of float, Jet and Dual operands.

    A non-constant (jet or dual) exponent routes through exp(e*ln u)
    and therefore requires a positive base.
    """
    if isinstance(e, _NUMBER):
        e = float(e)
        if isinstance(u, _NUMBER):
            return _float_pow(float(u), e)
        if e == 0.0:
            return 1.0
        if e == 1.0:
            return u
        if isinstance(u, Dual):
            return Dual(power(u.re, e), e * power(u.re, e - 1.0) * u.du)
        v = u.value
        f0 = _float_pow(v, e)
        f1 = e * _float_pow(v, e - 1.0)
        f2 = e * (e - 1.0) * _float_pow(v, e - 2.0) if e != 2.0 else 2.0
        return u._chain(f0, f1, f2)
    # exponent carries derivative structure
    return exp(e * ln(u))


FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "ln": ln, "sqrt": sqrt, "tanh": tanh}


def true_div(a, b):
    """Division with a zero check that also covers the float/float case."""
    if isinstance(b, _NUMBER):
        if float(b) == 0.0:
            raise EvalError("division by zero")
        if isinstance(a, _NUMBER):
            return float(a) / float(b)
    return a / b


class Dual:
    """Dual number a + eps*b with components in the jet ring."""

    __slots__ = ("re", "du")

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
