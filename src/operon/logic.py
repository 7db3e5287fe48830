"""Boolean expression trees shared by the GF(2) translator and network models.

Operator precedence is NOT > AND > XOR > OR; the binary operators associate
to the left.  The concrete syntax uses ``!``, ``&``, ``^``, ``|``, parentheses
and the constants ``0`` and ``1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import IDENT, ParseError


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Not:
    arg: "Expr"


@dataclass(frozen=True)
class And:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Or:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Xor:
    left: "Expr"
    right: "Expr"


Expr = Union[Var, Const, Not, And, Or, Xor]

_TOKEN = re.compile(rf"\s*(?:({IDENT})|([01])|([!&|^()]))")
_KINDS = ("ident", "const", "op")


def tokenize(text: str, line: int | None = None, pattern: re.Pattern = _TOKEN,
             noun: str = "expression") -> list[tuple[str, str, int]]:
    """Split into (kind, value, column) triples; kind is ident/const/op.

    pattern matches whitespace and one token in group 1 (ident), 2 (const)
    or 3 (op); noun names the input in the unexpected-character message.
    """
    out = []
    pos = 0
    while pos < len(text):
        m = pattern.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} in {noun}", line)
        group = m.lastindex
        out.append((_KINDS[group - 1], m.group(group), m.start(group)))
        pos = m.end()
    return out


MAX_DEPTH = 100
"""Deepest expression accepted: at most this many parentheses open at once,
and at most this many operators on any path down the parsed tree.  The
parser recurses once per parenthesis and the tree walkers (evaluate,
variables, gf2.translate_expr) once per operator, so the cap keeps them
well inside Python's recursion limit."""


class _Parser:
    """Recursive descent; each rule returns (expression, height of its tree)."""

    def __init__(self, tokens, line=None):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.open = 0  # parentheses open at the current position

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line)
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r} at column {tok[2] + 1}", self.line)

    def parse(self) -> Expr:
        expr, _ = self.or_expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok[1]!r} at column {tok[2] + 1}", self.line)
        return expr

    def _check_depth(self, depth: int) -> int:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", self.line)
        return depth

    def _chain(self, op, cls, operand):
        expr, height = operand()
        while self._at_op(op):
            self.take()
            right, right_height = operand()
            expr = cls(expr, right)
            height = self._check_depth(max(height, right_height) + 1)
        return expr, height

    def or_expr(self):
        return self._chain("|", Or, self.xor_expr)

    def xor_expr(self):
        return self._chain("^", Xor, self.and_expr)

    def and_expr(self):
        return self._chain("&", And, self.unary)

    def unary(self):
        nots = 0
        while self._at_op("!"):
            self.take()
            nots += 1
        expr, height = self.atom()
        for _ in range(nots):
            expr = Not(expr)
        return expr, self._check_depth(height + nots)

    def atom(self):
        kind, value, col = self.take()
        if kind == "ident":
            return Var(value), 0
        if kind == "const":
            return Const(int(value)), 0
        if value == "(":
            self.open = self._check_depth(self.open + 1)
            inner = self.or_expr()
            self.expect_op(")")
            self.open -= 1
            return inner
        raise ParseError(f"unexpected {value!r} at column {col + 1}", self.line)

    def _at_op(self, op):
        tok = self.peek()
        return tok is not None and tok[0] == "op" and tok[1] == op


def parse_expr(text: str, line: int | None = None) -> Expr:
    """Parse a Boolean expression; raises ParseError on malformed input."""
    tokens = tokenize(text, line)
    if not tokens:
        raise ParseError("empty expression", line)
    return _Parser(tokens, line).parse()


def evaluate(expr: Expr, env: Mapping[str, int], full: int = 1) -> int:
    """Value of expr under env, bitwise over the set bits of full.

    With the default full = 1 every value is one bit.  With full = 2^m - 1
    every env value is an m-bit truth table, and the result is the
    expression's truth table over the same m rows.
    """
    if isinstance(expr, Const):
        return full * expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise ValueError(f"no value for identifier '{expr.name}'")
        return env[expr.name] & full
    if isinstance(expr, Not):
        return full ^ evaluate(expr.arg, env, full)
    a = evaluate(expr.left, env, full)
    b = evaluate(expr.right, env, full)
    if isinstance(expr, And):
        return a & b
    if isinstance(expr, Or):
        return a | b
    return a ^ b


def variables(expr: Expr) -> set[str]:
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Not):
        return variables(expr.arg)
    return variables(expr.left) | variables(expr.right)
