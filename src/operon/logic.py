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


# The nodes keep their own constructors: with Frozen's generic one, `parse_expr`
# takes 7.7 µs in place of 5.2 on the three-literal rule "a & !b | c" (timeit,
# CPython 3.11.7, 2-core Xeon VM).
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


def parse_expr(text: str, line: int | None = None,
               names: dict[str, Var] | None = None) -> Expr:
    """Parse a Boolean expression; raises ParseError on malformed input.

    One pass over the tokens and a closing None: operands and binary
    operators wait on two stacks until an operator that binds no tighter, a
    ``)`` or the end reduces them; an open parenthesis saves the stacks and
    the ``!`` count before it.  A path down the tree has fewer operators
    than the text has tokens, so only a text of more than MAX_DEPTH tokens
    keeps the height of each operand's tree, on a third stack.  Each
    identifier becomes one `Var`, shared by all its occurrences; given a
    dict, the parse looks identifiers up there and enters each new one, so a
    caller can share the leaves between expressions and learns the names
    without walking the tree.
    """
    tokens = TOKEN.findall(text)
    if not tokens:
        raise ParseError("empty expression", line)
    if names is None:
        names = {}
    # Keeping heights for every text cost 6% of parse_network's time and 3% of
    # bn-dynamics ops/s, whose rules have at most 10 tokens (2-core Xeon VM).
    deep = len(tokens) > MAX_DEPTH
    tokens.append(None)
    operands, heights, ops, frames, nots = [], [], [], [], 0
    want_operand = True
    try:
        for i, tok in enumerate(tokens):
            if want_operand:
                if tok == "!":
                    nots += 1
                    continue
                if tok == "(":
                    if len(frames) == MAX_DEPTH:
                        raise ParseError(_TOO_DEEP)
                    frames.append((operands, heights, ops, nots))
                    operands, heights, ops, nots = [], [], [], 0
                    continue
                expr = names.get(tok) or _CONST.get(tok)
                if expr is None:
                    if tok is None:
                        raise ParseError("unexpected end of expression")
                    if tok[0] not in NAME_START:
                        raise ParseError(f"unexpected {tok!r} at column {_column(text, i)}")
                    expr = names[tok] = Var(tok)
                height = 0
            else:
                binary = _BINARY.get(tok)
                prec = binary[0] if binary else 0
                while ops and ops[-1][0] >= prec:
                    right = operands.pop()
                    operands[-1] = ops.pop()[1](operands[-1], right)
                    if deep:
                        right = heights.pop()
                        height = max(heights[-1], right) + 1
                        if height > MAX_DEPTH:
                            raise ParseError(_TOO_DEEP)
                        heights[-1] = height
                if binary:
                    ops.append(binary)
                    want_operand = True
                    continue
                if tok == ")" and frames:
                    [expr] = operands
                    if deep:
                        [height] = heights
                    operands, heights, ops, nots = frames.pop()
                elif tok is None:
                    if frames:
                        raise ParseError("unexpected end of expression")
                    return operands[0]
                elif frames:
                    raise ParseError(f"expected ')' at column {_column(text, i)}")
                else:
                    raise ParseError(f"unexpected {tok!r} at column {_column(text, i)}")
            # expr, an atom or a closed parenthesis, goes on the stack under
            # the NOT signs before it
            if nots:
                if deep:
                    height += nots
                    if height > MAX_DEPTH:
                        raise ParseError(_TOO_DEEP)
                for _ in range(nots):
                    expr = Not(expr)
                nots = 0
            operands.append(expr)
            if deep:
                heights.append(height)
            want_operand = False
    except ParseError as exc:
        raise scan_error(tokens[:-1], _SYMBOLS, "expression", str(exc), line) from None


def _column(text: str, i: int) -> int:
    """1-based column of the i-th token of text."""
    return list(TOKEN.finditer(text))[i].start() + 1


def evaluate(expr: Expr, env: Mapping[str, int], full: int = 1) -> int:
    """Value of expr under env, bitwise over the set bits of full.

    With the default full = 1 every value is one bit.  With full = 2^m - 1
    every env value is an m-bit truth table, and the result is the
    expression's truth table over the same m rows.
    """
    cls = expr.__class__
    if cls is Var:
        if expr.name not in env:
            raise ValueError(f"no value for identifier '{expr.name}'")
        return env[expr.name] & full
    if cls is Not:
        return full ^ evaluate(expr.arg, env, full)
    if cls is Const:
        return full * expr.value
    a = evaluate(expr.left, env, full)
    b = evaluate(expr.right, env, full)
    if cls is And:
        return a & b
    if cls is Or:
        return a | b
    return a ^ b
