"""Scalar expression language over phase-space coordinates.

Variables are one-letter kinds with 1-based indices (x1, v2, p1, and
u1 for surface parametrizations). Operators: + - * / ^ with standard
precedence (^ binds tighter than unary minus and is right
associative). Functions: sin cos exp ln sqrt tanh. No implicit
multiplication.

`parse` scans the source once, with one regex findall over the token
texts, and descends it with two loops, for sums and for products, and
one `factor` for unary minus, an atom and ^. Each returns its node with
the node's depth, and the descent stops where a tree passes MAX_DEPTH:
one pass bounds the depth of every source, short or long. A syntax
error carries the line and column of its token, recomputed only then; a
character that starts no token is reported before any other error in
the source, and otherwise the first error in token order is reported.

Evaluation is generic over the scalar algebra: plain floats, float
arrays over a batch and jets.Dense derivative data all work, which is
what lets one AST serve both fast value sweeps and second-order
derivative extraction. `derivative` differentiates a tree into another
tree, which is how a Lagrangian's fiber map is built once, at load.

`evaluate` checks every operation and raises EvalError. `evaluate_raw`,
for floats and float arrays, applies the same floating-point operations
through bare numpy ufuncs on np.float64 constants, so it has the bits of
`evaluate` wherever that does not raise. Given finite inputs under an
np.errstate raising on overflow, divide and invalid, each fault of
`evaluate` traps instead: only a trapping operation makes a non-finite
value from finite operands.
"""

import re
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import (DimensionError, EvalError, ExprSyntaxError,
                     MixedRepresentationError)

# One findall gives the text of every token: a number, a name, an
# operator, or any other non-blank character, which starts no token and
# is an error. Offsets are recomputed only to place an error.
_TOKEN = (r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
          r"|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()]")
_TOKEN_RE = re.compile(_TOKEN + r"|\S")
_VALID_TOKEN = re.compile(_TOKEN)
_VARIABLE = re.compile(r"([A-Za-z])(\d+)")

_FUNCTION_NAMES = frozenset(jets.FUNCTIONS)

# The deepest tree parse accepts, counting each node on a path and each
# parenthesized group (a call's parentheses are its node's), so the
# spine of a sum or a product counts one level an operator. Parsing,
# compiling, evaluating, printing and differentiating recurse once or
# twice a level, and a derivative tree is up to three times as deep as
# its source: a tree at this depth, and a Lagrangian's fiber map derived
# from one, stays within Python's default recursion limit.
MAX_DEPTH = 100
_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"


def _position(source, offset):
    """1-based (line, column) of an offset into source, for errors only."""
    return (source.count("\n", 0, offset) + 1,
            offset - source.rfind("\n", 0, offset))


def _fail(source, tokens, at, message, error=ExprSyntaxError):
    """Raise error(message) at token `at`; but a character anywhere in
    the source that starts no token is reported first, at the first
    such character."""
    for i, text in enumerate(tokens):
        if text and _VALID_TOKEN.fullmatch(text) is None:
            at, error = i, ExprSyntaxError
            message = f"unexpected character {text!r}"
            break
    offsets = [m.start() for m in _TOKEN_RE.finditer(source)]
    line, column = _position(source, offsets[at] if at < len(offsets)
                             else len(source))
    if error is ExprSyntaxError:
        raise ExprSyntaxError(message, line, column) from None
    raise error(f"{message} (line {line}, column {column})") from None


# AST nodes, equal, hashed and printed by their fields in order. The
# parser only ever produces Unary for minus, and numbers are always
# finite, non-negative literals, so printing and reparsing gives back
# the identical tree.

_node = dataclass(slots=True, unsafe_hash=True)


@_node
class Num:
    value: float


@_node
class Var:
    kind: str
    index: int      # 1-based

    @property
    def name(self):
        return f"{self.kind}{self.index}"


@_node
class Unary:
    operand: object


@_node
class Binary:
    op: str
    left: object
    right: object


@_node
class Call:
    fn: str
    arg: object


@_node
class Expression:
    """Parsed scalar expression bound to a dimension. Each form compiles
    on its first evaluation and is kept; compiled forms stay out of ==,
    hash, repr, pickling and copies."""

    root: object
    dimension: int
    kinds: tuple = field(compare=False)
    fiber_kind: str = field(compare=False)     # "v", "p" or None
    _run: object = field(default=None, init=False, repr=False, compare=False)
    _raw: object = field(default=None, init=False, repr=False, compare=False)

    def __repr__(self):
        return f"Expression({to_source(self)!r}, dimension={self.dimension})"

    def __reduce__(self):
        return Expression, (self.root, self.dimension, self.kinds,
                            self.fiber_kind)

    def evaluate(self, env):
        if self._run is None:
            self._run = _compile(self.root)
        return self._run(env)

    def evaluate_raw(self, env):
        if self._raw is None:
            self._raw = _compile(self.root, _RAW)
        return self._raw(env)


def parse(source: str, dimension: int, kinds=("x", "v", "p")) -> Expression:
    """The tree of source over the variables of `kinds` with indices
    1..dimension. Two loops take the sums and the products; `factor`
    takes unary minus, an atom and ^, which binds tighter than unary
    minus and is right associative. Each is given the levels open above
    the node it reads and returns the node with its depth, so a tree
    deeper than MAX_DEPTH is an ExprSyntaxError where it passes the
    bound: at the token that opens a level too many, or at the token
    after a node too deep (the last token, at the end)."""
    if dimension < 1:
        raise DimensionError(f"dimension must be positive, got {dimension}")
    kinds = tuple(kinds)
    tokens = _TOKEN_RE.findall(source)
    tokens.append("")       # the end
    pos = 0
    fiber_kind = None

    def expression(above):
        nonlocal pos
        node, depth = term(above)
        while tokens[pos] in ("+", "-"):
            if depth > MAX_DEPTH:
                _fail(source, tokens, pos, _TOO_DEEP)
            op = tokens[pos]
            pos += 1
            right, d = term(above + 1)
            node, depth = Binary(op, node, right), (d if d > depth else depth) + 1
        return node, depth

    def term(above):
        nonlocal pos
        node, depth = factor(above)
        while tokens[pos] in ("*", "/"):
            if depth > MAX_DEPTH:
                _fail(source, tokens, pos, _TOO_DEEP)
            op = tokens[pos]
            pos += 1
            right, d = factor(above + 1)
            node, depth = Binary(op, node, right), (d if d > depth else depth) + 1
        return node, depth

    def factor(above):
        nonlocal pos, fiber_kind
        if above >= MAX_DEPTH:  # the last token opened a level too many
            _fail(source, tokens, pos - 1, _TOO_DEEP)
        tok = tokens[pos]
        pos += 1
        if tok == "-":
            node, depth = factor(above + 1)
            return Unary(node), depth + 1
        if tok == "(" or tok in _FUNCTION_NAMES:
            if tok != "(":
                if tokens[pos] != "(":
                    _fail(source, tokens, pos - 1,
                          f"function {tok} needs an argument list")
                pos += 1
            node, depth = expression(above + 1)
            if tokens[pos] != ")":
                _fail(source, tokens, pos, "expected ')'")
            if depth >= MAX_DEPTH:      # the group is a level over it
                _fail(source, tokens, pos, _TOO_DEEP)
            pos += 1
            depth += 1
            if tok != "(":
                node = Call(tok, node)
        elif tok[:1].isidentifier():    # a name, or a bad letter
            m = _VARIABLE.fullmatch(tok)
            if m is None or m[1] not in kinds:
                _fail(source, tokens, pos - 1, f"unknown identifier {tok!r}")
            kind, index = m[1], int(m[2])
            if not 1 <= index <= dimension:
                _fail(source, tokens, pos - 1, f"variable {tok} out of range "
                      f"for dimension {dimension}", DimensionError)
            if kind in ("v", "p"):
                if fiber_kind is None:
                    fiber_kind = kind
                elif kind != fiber_kind:
                    _fail(source, tokens, pos - 1, "expression mixes v and p "
                          "variables", MixedRepresentationError)
            node, depth = Var(kind, index), 1
        else:
            try:
                value = float(tok)
            except ValueError:      # an operator, the end or a bad character
                _fail(source, tokens, pos - 1, f"unexpected {tok!r}" if tok
                      else "unexpected end of input")
            if value == np.inf:
                _fail(source, tokens, pos - 1, f"number {tok} overflows")
            node, depth = Num(value), 1
        if tokens[pos] == "^":
            pos += 1
            right, d = factor(above + 1)
            return Binary("^", node, right), (d if d > depth else depth) + 1
        return node, depth

    root, depth = expression(0)
    if tokens[pos]:
        _fail(source, tokens, pos, f"unexpected {tokens[pos]!r}")
    if depth > MAX_DEPTH:
        _fail(source, tokens, pos - 1, _TOO_DEEP)
    return Expression(root, dimension, kinds, fiber_kind)


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


# constant type, functions, / and ^ of the checked and the raw form
_CHECKED = {"num": float, "/": jets.true_div, "^": jets.power, **jets.FUNCTIONS}
_RAW = {"num": np.float64, "/": np.true_divide, "^": np.power, "sin": np.sin,
        "cos": np.cos, "exp": np.exp, "ln": np.log, "sqrt": np.sqrt,
        "tanh": np.tanh}


def _compile(node, ops=_CHECKED):
    """node as a closure over an environment, with the operations of
    ops. Each closure holds its node's constant, variable name or
    function and its children's closures, evaluates the left operand
    first and applies the operation, so a value comes out with the bits
    of a recursive walk in every algebra: floats, float arrays and
    jets.Dense data."""
    kind = node.__class__
    if kind is Num:
        value = ops["num"](node.value)
        return lambda env: value
    if kind is Var:
        name = node.name

        def variable(env):
            try:
                return env[name]
            except KeyError:
                raise EvalError(f"unbound variable {name}") from None
        return variable
    if kind is Unary:
        operand = _compile(node.operand, ops)
        return lambda env: -operand(env)
    if kind is Call:
        fn, arg = ops[node.fn], _compile(node.arg, ops)
        return lambda env: fn(arg(env))
    a, b = _compile(node.left, ops), _compile(node.right, ops)
    if node.op == "+":
        return lambda env: a(env) + b(env)
    if node.op == "-":
        return lambda env: a(env) - b(env)
    if node.op == "*":
        return lambda env: a(env) * b(env)
    fn = ops[node.op]
    return lambda env: fn(a(env), b(env))


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
    with np.errstate(all="ignore"):     # _pow raises on an overflow
        e = float(_compile(b)({}))
    if not np.isfinite(e):
        raise EvalError(f"non-finite constant exponent {_fmt(b)}")
    if e == 0.0:
        return None
    if e == 1.0:
        return da
    return _mul(Binary("*", _num(e), Binary("^", a, _num(e - 1.0))), da)


def derivative(e: Expression, name: str) -> Expression:
    """The partial derivative of e by the variable `name`, as a tree
    that reparses from its source while that is within MAX_DEPTH (a
    derivative can be three times as deep as e); a constant exponent
    that folds to a non-finite value raises EvalError. Its rules are the
    steps of a forward sweep over dual numbers, in their order, so it
    evaluates to that sweep's floats in every algebra the evaluator
    takes: a*db + da*b, (da - (a/b)*db)/b, (c*a^(c-1))*da for an
    exponent c without variables, exp(b*ln a)*(b*(da/a) + db*ln a) for
    any other, and cos(a)*da, (-sin a)*da, exp(a)*da, da/a,
    da/(2*sqrt a) and (1 - t*t)*da with t = tanh a."""
    root = _d(e.root, name)
    return Expression(Num(0.0) if root is None else root, e.dimension,
                      e.kinds, e.fiber_kind)


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
        return "-" + _wrap(node.operand, _PREC_UNARY)
    if node.op == "^":
        return _wrap(node.left, _PREC_ATOM) + "^" + _wrap(node.right, _PREC_UNARY)
    if node.op in ("*", "/"):
        return _wrap(node.left, _PREC_MUL) + node.op + _wrap(node.right, _PREC_MUL + 1)
    return _wrap(node.left, _PREC_ADD) + node.op + _wrap(node.right, _PREC_ADD + 1)


def to_source(e) -> str:
    """Render back to parseable source; reparsing gives the same tree,
    which for a tree parse built is within MAX_DEPTH again."""
    node = e.root if isinstance(e, Expression) else e
    return _fmt(node)
