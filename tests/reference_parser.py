"""A reference parser for the expression language: a regex tokenizer
that keeps every token's offset and a five-level recursive descent
(expression, term, factor, power, atom), one method a precedence level.

It builds the trees of normality_lab.expr and raises its exceptions,
and is the oracle that expr.parse is compared with, tree for tree and
error for error (tests/test_properties.py). It is slower than expr.parse
and is not used by the package.
"""

import re

import numpy as np

from normality_lab.errors import (DimensionError, ExprSyntaxError,
                                  MixedRepresentationError)
from normality_lab.expr import Binary, Call, Expression, Num, Unary, Var
from normality_lab.jets import FUNCTIONS

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _position(source, offset):
    """1-based (line, column) of an offset into source."""
    return (source.count("\n", 0, offset) + 1,
            offset - source.rfind("\n", 0, offset))


def _tokenize(source: str):
    """(kind, text, offset) of every token, then ("end", "", len)."""
    tokens = [(m.lastgroup, m.group(), m.start())
              for m in _TOKEN_RE.finditer(source) if m.lastgroup != "ws"]
    for kind, text, offset in tokens:
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {text!r}",
                                  *_position(source, offset))
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    """Recursive descent over (kind, text, offset) tokens."""

    def __init__(self, source, dimension, kinds):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.dimension = dimension
        self.kinds = kinds
        self.fiber_kinds_seen = set()

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def where(self, offset):
        return "(line {}, column {})".format(*_position(self.source, offset))

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ExprSyntaxError(message, *_position(self.source, tok[2]))

    def parse(self):
        node = self.expression()
        if self.peek()[0] != "end":
            self.error(f"unexpected {self.peek()[1]!r}")
        return node

    def expression(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            node = Binary(self.advance()[1], node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            node = Binary(self.advance()[1], node, self.factor())
        return node

    def factor(self):
        if self.peek()[1] == "-":
            self.advance()
            return Unary(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            return Binary("^", base, self.factor())
        return base

    def atom(self):
        tok = self.peek()
        kind, text, _ = tok
        if kind == "number":
            self.advance()
            value = float(text)
            if value == np.inf:
                self.error(f"number {text} overflows", tok)
            return Num(value)
        if text == "(":
            self.advance()
            node = self.expression()
            if self.peek()[1] != ")":
                self.error("expected ')'")
            self.advance()
            return node
        if kind == "ident":
            self.advance()
            if text in FUNCTIONS:
                if self.peek()[1] != "(":
                    self.error(f"function {text} needs an argument list", tok)
                self.advance()
                arg = self.expression()
                if self.peek()[1] != ")":
                    self.error("expected ')'")
                self.advance()
                return Call(text, arg)
            return self.variable(tok)
        self.error(f"unexpected {text!r}" if text else "unexpected end of input", tok)

    def variable(self, tok):
        _, text, offset = tok
        m = re.fullmatch(r"([A-Za-z])(\d+)", text)
        if m is None or m.group(1) not in self.kinds:
            self.error(f"unknown identifier {text!r}", tok)
        kind, index = m.group(1), int(m.group(2))
        if not 1 <= index <= self.dimension:
            raise DimensionError(f"variable {text} out of range for dimension "
                                 f"{self.dimension} {self.where(offset)}")
        if kind in ("v", "p"):
            self.fiber_kinds_seen.add(kind)
            if len(self.fiber_kinds_seen) > 1:
                raise MixedRepresentationError(
                    f"expression mixes v and p variables {self.where(offset)}")
        return Var(kind, index)


def parse(source: str, dimension: int, kinds=("x", "v", "p")) -> Expression:
    """expr.parse, with the reference tokenizer and parser."""
    if dimension < 1:
        raise DimensionError(f"dimension must be positive, got {dimension}")
    parser = _Parser(source, dimension, tuple(kinds))
    root = parser.parse()
    seen = parser.fiber_kinds_seen
    fiber_kind = next(iter(seen)) if len(seen) == 1 else None
    return Expression(root, dimension, tuple(kinds), fiber_kind)
