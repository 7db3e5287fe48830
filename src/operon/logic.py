"""Boolean expression trees shared by the GF(2) translator and network models.

Operator precedence is NOT > AND > XOR > OR; the binary operators associate
to the left.  The concrete syntax uses ``!``, ``&``, ``^``, ``|``, parentheses
and the constants ``0`` and ``1``.  `parse_expr` splits a line into tokens
with one `errors.TOKEN` scan and builds the tree in one loop over them, an
operator-precedence parser with explicit stacks, so it does not recurse.
"""

from __future__ import annotations

from typing import Mapping, Union

from .errors import NAME_START, Frozen, ParseError, TOKEN, _set, scan_error


class Var(Frozen):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Const(Frozen):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int):
        _set(self, "value", value)


class Not(Frozen):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: "Expr"):
        _set(self, "arg", arg)


class _Binary(Frozen):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: "Expr", right: "Expr"):
        _set(self, "left", left)
        _set(self, "right", right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Xor(_Binary):
    __slots__ = ()


Expr = Union[Var, Const, Not, And, Or, Xor]

MAX_DEPTH = 100
"""Deepest expression accepted: at most this many parentheses open at once,
and at most this many operators on any path down the parsed tree.  The tree
walkers, evaluate and gf2.translate_expr, recurse once per operator, so the
cap keeps them well inside Python's recursion limit."""

_SYMBOLS = "01!&|^()"
_BINARY = {"|": (1, Or), "^": (2, Xor), "&": (3, And)}  # precedence, node
_CONST = {"0": Const(0), "1": Const(1)}
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"


def _negated(expr: Expr, height: int, nots: int) -> tuple[Expr, int]:
    """expr, of the given height, under nots NOT signs, and that tree's height."""
    height += nots
    if height > MAX_DEPTH:
        raise ParseError(_TOO_DEEP)
    for _ in range(nots):
        expr = Not(expr)
    return expr, height


def _reduce(operands: list, ops: list, prec: int) -> None:
    """Apply the stacked operators that bind at least as tightly as prec."""
    while ops and ops[-1][0] >= prec:
        _, node = ops.pop()
        right, right_height = operands.pop()
        left, height = operands[-1]
        height = (height if height > right_height else right_height) + 1
        if height > MAX_DEPTH:
            raise ParseError(_TOO_DEEP)
        operands[-1] = (node(left, right), height)


def parse_expr(text: str, line: int | None = None,
               names: dict[str, Var] | None = None) -> Expr:
    """Parse a Boolean expression; raises ParseError on malformed input.

    One pass over the tokens: operands, each with the height of its tree,
    and binary operators wait on two stacks until an operator that binds no
    tighter, a ``)`` or the end reduces them; an open parenthesis saves both
    stacks and the ``!`` count before it.  Each identifier becomes one `Var`,
    shared by all its occurrences; given a dict, the parse enters every
    identifier it meets there, so a caller learns the names without walking
    the tree.
    """
    tokens = TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty expression", line)
    if names is None:
        names = {}
    operands, ops, frames, nots = [], [], [], 0
    want_operand = True
    try:
        for i, tok in enumerate(tokens):
            if want_operand:
                if tok == "!":
                    nots += 1
                elif tok == "(":
                    if len(frames) == MAX_DEPTH:
                        raise ParseError(_TOO_DEEP)
                    frames.append((operands, ops, nots))
                    operands, ops, nots = [], [], 0
                else:
                    expr = _CONST.get(tok) or names.get(tok)
                    if expr is None:
                        if tok[0] not in NAME_START:
                            raise ParseError(f"unexpected {tok!r} at column {_column(text, i)}")
                        expr = names[tok] = Var(tok)
                    operands.append(_negated(expr, 0, nots))
                    nots, want_operand = 0, False
                continue
            binary = _BINARY.get(tok)
            _reduce(operands, ops, binary[0] if binary else 0)
            if binary:
                ops.append(binary)
                want_operand = True
            elif tok == ")" and frames:
                [inner] = operands
                operands, ops, nots = frames.pop()
                operands.append(_negated(*inner, nots))
                nots = 0
            elif frames:
                raise ParseError(f"expected ')' at column {_column(text, i)}")
            else:
                raise ParseError(f"unexpected {tok!r} at column {_column(text, i)}")
        if want_operand:
            raise ParseError("unexpected end of expression")
        _reduce(operands, ops, 0)
        if frames:
            raise ParseError("unexpected end of expression")
    except ParseError as exc:
        raise scan_error(tokens, _SYMBOLS, "expression", str(exc), line) from None
    return operands[0][0]


def _column(text: str, i: int) -> int:
    """1-based column of the i-th token of text."""
    return list(TOKEN.finditer(text))[i].start() + 1


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
