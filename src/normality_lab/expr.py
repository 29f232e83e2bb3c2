"""Scalar expression language over phase-space coordinates.

Variables are one-letter kinds with 1-based indices (x1, v2, p1, and
u1 for surface parametrizations). Operators: + - * / ^ with standard
precedence (^ binds tighter than unary minus and is right
associative). Functions: sin cos exp ln sqrt tanh. No implicit
multiplication.

Evaluation is generic over the scalar algebra: plain floats, float
arrays over a batch and jets.Dense derivative data all work, which is
what lets one AST serve both fast value sweeps and second-order
derivative extraction. `derivative` differentiates a tree into another
tree, which is how a Lagrangian's fiber map is built once, at load.
"""

import re
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import (DimensionError, EvalError, ExprSyntaxError,
                     MixedRepresentationError)
from .phase import PhasePoint, Rep

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)

_FUNCTION_NAMES = frozenset(jets.FUNCTIONS)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(source: str):
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}",
                                  line, pos - line_start + 1)
        kind = m.lastgroup
        text = m.group()
        if kind == "ws":
            nl = text.count("\n")
            if nl:
                line += nl
                line_start = pos + text.rindex("\n") + 1
        else:
            tokens.append(Token(kind, text, line, pos - line_start + 1))
        pos = m.end()
    tokens.append(Token("end", "", line, pos - line_start + 1))
    return tokens


# AST nodes. The parser only ever produces Unary for minus, and numbers
# are always non-negative literals, so printing and reparsing gives back
# the identical tree.

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str
    index: int  # 1-based

    @property
    def name(self) -> str:
        return f"{self.kind}{self.index}"


@dataclass(frozen=True)
class Unary:
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


class _Parser:
    def __init__(self, tokens, dimension, kinds):
        self.tokens = tokens
        self.pos = 0
        self.dimension = dimension
        self.kinds = kinds
        self.fiber_kinds_seen = set()

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ExprSyntaxError(message, tok.line, tok.column)

    def parse(self):
        node = self.expression()
        if self.peek().kind != "end":
            self.error(f"unexpected {self.peek().text!r}")
        return node

    def expression(self):
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            node = Binary(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            node = Binary(op, node, self.factor())
        return node

    def factor(self):
        if self.peek().text == "-":
            self.advance()
            return Unary(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().text == "^":
            self.advance()
            return Binary("^", base, self.factor())
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text))
        if tok.text == "(":
            self.advance()
            node = self.expression()
            if self.peek().text != ")":
                self.error("expected ')'")
            self.advance()
            return node
        if tok.kind == "ident":
            self.advance()
            if tok.text in _FUNCTION_NAMES:
                if self.peek().text != "(":
                    self.error(f"function {tok.text} needs an argument list", tok)
                self.advance()
                arg = self.expression()
                if self.peek().text != ")":
                    self.error("expected ')'")
                self.advance()
                return Call(tok.text, arg)
            return self.variable(tok)
        self.error(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok)

    def variable(self, tok: Token):
        m = re.fullmatch(r"([A-Za-z])(\d+)", tok.text)
        if m is None or m.group(1) not in self.kinds:
            self.error(f"unknown identifier {tok.text!r}", tok)
        kind, index = m.group(1), int(m.group(2))
        if not 1 <= index <= self.dimension:
            raise DimensionError(
                f"variable {tok.text} out of range for dimension {self.dimension} "
                f"(line {tok.line}, column {tok.column})")
        if kind in ("v", "p"):
            self.fiber_kinds_seen.add(kind)
            if len(self.fiber_kinds_seen) > 1:
                raise MixedRepresentationError(
                    f"expression mixes v and p variables (line {tok.line}, "
                    f"column {tok.column})")
        return Var(kind, index)


class Expression:
    """Parsed scalar expression bound to a dimension."""

    __slots__ = ("root", "dimension", "kinds", "fiber_kind")

    def __init__(self, root, dimension: int, kinds, fiber_kind):
        self.root = root
        self.dimension = dimension
        self.kinds = kinds
        self.fiber_kind = fiber_kind  # "v", "p" or None

    def __eq__(self, other):
        if not isinstance(other, Expression):
            return NotImplemented
        return self.root == other.root and self.dimension == other.dimension

    def __hash__(self):
        return hash((self.root, self.dimension))

    def __repr__(self):
        return f"Expression({to_source(self)!r}, dimension={self.dimension})"

    def evaluate(self, env):
        return _eval(self.root, env)

    def variables(self):
        out = set()
        _collect_vars(self.root, out)
        return out


def parse(source: str, dimension: int, kinds=("x", "v", "p")) -> Expression:
    if dimension < 1:
        raise DimensionError(f"dimension must be positive, got {dimension}")
    parser = _Parser(_tokenize(source), dimension, tuple(kinds))
    root = parser.parse()
    seen = parser.fiber_kinds_seen
    fiber_kind = next(iter(seen)) if len(seen) == 1 else None
    return Expression(root, dimension, tuple(kinds), fiber_kind)


def _collect_vars(node, out):
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Unary):
        _collect_vars(node.operand, out)
    elif isinstance(node, Binary):
        _collect_vars(node.left, out)
        _collect_vars(node.right, out)
    elif isinstance(node, Call):
        _collect_vars(node.arg, out)


def _eval(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise EvalError(f"unbound variable {node.name}") from None
    if isinstance(node, Unary):
        return -_eval(node.operand, env)
    if isinstance(node, Binary):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return jets.true_div(a, b)
        return jets.power(a, b)
    return jets.FUNCTIONS[node.fn](_eval(node.arg, env))


# Derivative trees, where None is an exact zero. Dropping zero terms
# and factors of exactly 1 is exact in IEEE arithmetic.

_ONE = Num(1.0)


def _num(c: float):
    """c in the parser's normal form: a negative constant is negated."""
    return Unary(Num(-c)) if c < 0.0 else Num(c)


def _add(a, b):
    return a if b is None else b if a is None else Binary("+", a, b)


def _sub(a, b):
    return a if b is None else Unary(b) if a is None else Binary("-", a, b)


def _mul(a, b):
    if a is None or b is None:
        return None
    return b if a == _ONE else a if b == _ONE else Binary("*", a, b)


def _div(a, b):
    return None if a is None else Binary("/", a, b)


def _d(node, name):
    if isinstance(node, Num):
        return None
    if isinstance(node, Var):
        return _ONE if node.name == name else None
    if isinstance(node, Unary):
        return _sub(None, _d(node.operand, name))
    if isinstance(node, Call):
        a, da = node.arg, _d(node.arg, name)
        if node.fn in ("ln", "sqrt"):
            return _div(da, a if node.fn == "ln" else Binary("*", Num(2.0), node))
        return _mul({"sin": Call("cos", a), "cos": Unary(Call("sin", a)),
                     "exp": node, "tanh": Binary("-", _ONE, Binary("*", node, node)),
                     }[node.fn], da)
    a, b = node.left, node.right
    da, db = _d(a, name), _d(b, name)
    if node.op == "+":
        return _add(da, db)
    if node.op == "-":
        return _sub(da, db)
    if node.op == "*":
        return _add(_mul(a, db), _mul(da, b))
    if node.op == "/":
        return _div(_sub(da, _mul(Binary("/", a, b), db)), b)
    exponent_vars = set()
    _collect_vars(b, exponent_vars)
    if exponent_vars:       # a^b = exp(b*ln a)
        ln_a = Call("ln", a)
        return _mul(Call("exp", Binary("*", b, ln_a)),
                    _add(_mul(b, _div(da, a)), _mul(db, ln_a)))
    if da is None:
        return None
    e = float(_eval(b, {}))
    if e == 0.0:
        return None
    if e == 1.0:
        return da
    return _mul(Binary("*", _num(e), Binary("^", a, _num(e - 1.0))), da)


def derivative(e: Expression, name: str) -> Expression:
    """The partial derivative of e by the variable `name`, as a tree
    that reparses from its source. Its rules are the steps of a forward
    sweep over dual numbers, in their order, so it evaluates to that
    sweep's floats in every algebra the evaluator takes: a*db + da*b,
    (da - (a/b)*db)/b, (c*a^(c-1))*da for an exponent c without
    variables, exp(b*ln a)*(b*(da/a) + db*ln a) for any other, and
    cos(a)*da, (-sin a)*da, exp(a)*da, da/a, da/(2*sqrt a) and
    (1 - t*t)*da with t = tanh a."""
    root = _d(e.root, name)
    return Expression(Num(0.0) if root is None else root, e.dimension,
                      e.kinds, e.fiber_kind)


def _point_env(e: Expression, point: PhasePoint, values):
    """Environment binding x1.. and then the point's fiber variables to
    the 2n values."""
    if point.n != e.dimension:
        raise DimensionError(
            f"point dimension {point.n} != expression dimension {e.dimension}")
    fiber_kind = "v" if point.rep is Rep.VELOCITY else "p"
    if e.fiber_kind is not None and e.fiber_kind != fiber_kind:
        raise MixedRepresentationError(
            f"expression uses {e.fiber_kind}-variables, point is {fiber_kind}-typed")
    names = [f"{kind}{i + 1}" for kind in ("x", fiber_kind)
             for i in range(point.n)]
    return dict(zip(names, values))


def eval_scalar(e: Expression, point: PhasePoint) -> float:
    """Plain float evaluation at a phase point."""
    values = point.x.tolist() + point.fiber.tolist()
    return float(_eval(e.root, _point_env(e, point, values)))


def eval_jet(e: Expression, point: PhasePoint) -> jets.Dense:
    """Scalar second-order Dense data over the 2n variables
    (x..., fiber...)."""
    seeded = jets.seeds(point.x.tolist() + point.fiber.tolist(), order=2)
    result = _eval(e.root, _point_env(e, point, seeded))
    if result.__class__ is not jets.Dense:
        m = 2 * point.n
        result = jets.Dense(2, float(result), np.zeros(m), np.zeros((m, m)))
    return result


_PREC_ATOM = 6
_PREC_POW = 4
_PREC_UNARY = 3
_PREC_MUL = 2
_PREC_ADD = 1


def _prec(node) -> int:
    if isinstance(node, (Num, Var, Call)):
        return _PREC_ATOM
    if isinstance(node, Unary):
        return _PREC_UNARY
    if node.op == "^":
        return _PREC_POW
    return _PREC_MUL if node.op in ("*", "/") else _PREC_ADD


def _wrap(node, min_prec) -> str:
    s = _fmt(node)
    return f"({s})" if _prec(node) < min_prec else s


def _fmt(node) -> str:
    if isinstance(node, Num):
        v = node.value
        return repr(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({_fmt(node.arg)})"
    if isinstance(node, Unary):
        return "-" + _wrap(node.operand, _PREC_POW)
    if node.op == "^":
        return _wrap(node.left, _PREC_ATOM) + "^" + _wrap(node.right, _PREC_UNARY)
    if node.op in ("*", "/"):
        return _wrap(node.left, _PREC_MUL) + node.op + _wrap(node.right, _PREC_MUL + 1)
    return _wrap(node.left, _PREC_ADD) + node.op + _wrap(node.right, _PREC_ADD + 1)


def to_source(e) -> str:
    """Render back to parseable source; reparsing gives the same tree."""
    node = e.root if isinstance(e, Expression) else e
    return _fmt(node)
