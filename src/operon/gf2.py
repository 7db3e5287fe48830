"""Multivariate polynomials over GF(2) in the quotient ring where x*x = x.

A monomial is a squarefree product of variables, stored as an integer bitmask
(bit i set = variable i present, mask 0 = the constant 1).  A polynomial is a
set of monomials: every present monomial has coefficient 1, addition is
symmetric difference and multiplication joins masks with bitwise or, cancelling
pairs that collide.  This keeps every element of the ring in canonical form.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

from . import logic
from .errors import IDENT, Frozen, ParseError, TOKEN, _set, scan_error

MAX_VARS = 64  # one machine word per monomial

_NAME = re.compile(IDENT)


class VarSet(Frozen):
    """Immutable ordered collection of distinct variable names."""

    # besides the field, the position of each name
    __slots__ = ("names", "_index")
    _fields = ("names",)

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("variable set must not be empty")
        if len(names) > MAX_VARS:
            raise ValueError(f"at most {MAX_VARS} variables are supported, got {len(names)}")
        index = {}
        for i, name in enumerate(names):
            if not _NAME.fullmatch(name):
                raise ValueError(f"invalid variable name {name!r}")
            if name in index:
                raise ValueError(f"duplicate variable name {name!r}")
            index[name] = i
        self._init(names, index)

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __contains__(self, name):
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown identifier '{name}'") from None

    def __repr__(self):
        return f"VarSet({', '.join(self.names)})"


def _bit_indices(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _KeyTable(dict):
    """Order keys by monomial mask; a missing key is computed once and stored.

    A lookup is one subscript, `keys[mask]`, with no Python call on a hit.
    Variable 0 is the most significant, so a lex key is the mask with its n
    bits reversed.  A degrevlex key has the degree in the high bits and
    breaks ties by reverse lexicographic comparison, where the monomial
    missing the highest-index differing variable is the larger one: the
    complement of the mask.
    """

    __slots__ = ("_n", "_degrevlex")

    def __init__(self, n: int, degrevlex: bool):
        super().__init__()
        self._n = n
        self._degrevlex = degrevlex

    def __missing__(self, mask: int) -> int:
        n = self._n
        if self._degrevlex:
            key = (mask.bit_count() << n) | (((1 << n) - 1) ^ mask)
        else:
            key = int(f"{mask:0{n}b}"[::-1], 2)
        self[mask] = key
        return key


class MonomialOrder(Frozen):
    """lex or degrevlex on n variables, in declaration order.

    `keys[mask]` is a nonnegative int, monotone for the order: bigger key =
    bigger monomial.  The constant monomial (mask 0) is minimal under both
    kinds.
    """

    # besides the fields, the key table, filled as it is read
    __slots__ = ("kind", "n", "keys")
    _fields = ("kind", "n")

    KINDS = ("lex", "degrevlex")

    def __init__(self, kind: str, n: int):
        if kind not in self.KINDS:
            raise ValueError(f"unknown monomial order {kind!r}")
        self._init(kind, n, _KeyTable(n, kind == "degrevlex"))

    @classmethod
    def lex(cls, vars: VarSet) -> "MonomialOrder":
        return cls("lex", len(vars))

    @classmethod
    def degrevlex(cls, vars: VarSet) -> "MonomialOrder":
        return cls("degrevlex", len(vars))


class BoolPoly(Frozen):
    """Canonical polynomial in the squarefree quotient ring over GF(2)."""

    __slots__ = _fields = ("vars", "monomials")

    def __init__(self, vars: VarSet, monomials: Iterable[int] = ()):
        _set(self, "vars", vars)
        _set(self, "monomials", frozenset(monomials))

    @classmethod
    def zero(cls, vars: VarSet) -> "BoolPoly":
        return cls(vars)

    @classmethod
    def one(cls, vars: VarSet) -> "BoolPoly":
        return cls(vars, (0,))

    @classmethod
    def variable(cls, vars: VarSet, name: str) -> "BoolPoly":
        return cls(vars, (1 << vars.index(name),))

    def __bool__(self):
        return bool(self.monomials)

    @property
    def is_one(self) -> bool:
        return self.monomials == frozenset((0,))

    def _check(self, other):
        if not isinstance(other, BoolPoly):
            raise TypeError(f"expected BoolPoly, got {type(other).__name__}")
        if other.vars != self.vars:
            raise ValueError("polynomials use different variable sets")

    def __add__(self, other):
        self._check(other)
        return BoolPoly(self.vars, self.monomials ^ other.monomials)

    def __mul__(self, other):
        self._check(other)
        acc: set[int] = set()
        for a in self.monomials:
            for b in other.monomials:
                acc ^= {a | b}
        return BoolPoly(self.vars, acc)

    def support_mask(self) -> int:
        s = 0
        for m in self.monomials:
            s |= m
        return s

    def evaluate_mask(self, sigma: int) -> int:
        # a squarefree monomial evaluates to 1 exactly when all its variables do
        count = 0
        for m in self.monomials:
            if m & ~sigma == 0:
                count ^= 1
        return count

    def substitute_index(self, i: int, value: int) -> "BoolPoly":
        bit = 1 << i
        acc: set[int] = set()
        for m in self.monomials:
            if value & 1 or not m & bit:
                acc ^= {m & ~bit}
        return BoolPoly(self.vars, acc)

    def leading_monomial(self, order: MonomialOrder) -> int:
        if not self.monomials:
            raise ValueError("the zero polynomial has no leading monomial")
        return max(self.monomials, key=order.keys.__getitem__)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"BoolPoly({format_poly(self)})"


def translate_expr(expr: logic.Expr, vars: VarSet,
                   setting: Mapping[str, int] = {}) -> BoolPoly:
    """Rewrite a Boolean expression as its unique squarefree GF(2) polynomial.

    Uses not a = a + 1, a and b = a*b, a or b = a + b + a*b and native
    addition for xor.  Identifiers bound in setting (to 0 or 1) become
    constants; any other identifier not in vars raises a ValueError naming it.
    """
    if isinstance(expr, logic.Var) and expr.name in setting:
        expr = logic.Const(setting[expr.name] & 1)
    if isinstance(expr, logic.Const):
        return BoolPoly.one(vars) if expr.value else BoolPoly.zero(vars)
    if isinstance(expr, logic.Var):
        return BoolPoly.variable(vars, expr.name)
    if isinstance(expr, logic.Not):
        return translate_expr(expr.arg, vars, setting) + BoolPoly.one(vars)
    a = translate_expr(expr.left, vars, setting)
    b = translate_expr(expr.right, vars, setting)
    if isinstance(expr, logic.And):
        return a * b
    if isinstance(expr, logic.Or):
        return a + b + a * b
    if isinstance(expr, logic.Xor):
        return a + b
    raise TypeError(f"unsupported expression node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Truth tables over all 2^n points


def variable_tables(n: int) -> list[int]:
    """The truth table of each of n variables over all 2^n points.

    A point's code puts variable 0 in its most significant bit, and a table
    holds its value at code 0 in the most significant of its 2^n digits, so
    the digits read left to right follow the codes upward.  Table i repeats
    2^(n-1-i) zeros, then as many ones; it is built from that period by
    shift-or doubling, since dividing the all-ones table by 2^(2^(n-i)) - 1
    takes time quadratic in 2^n.
    """
    size = 1 << n
    tables = []
    for i in range(n):
        block = 1 << (n - 1 - i)
        table, width = (1 << block) - 1, 2 * block
        while width < size:
            table |= table << width
            width <<= 1
        tables.append(table)
    return tables


def decode_state(code: int, n: int) -> tuple[int, ...]:
    """The 0/1 point of a code, variable 0 in its most significant bit."""
    return tuple((code >> (n - 1 - i)) & 1 for i in range(n))


BLOCK_VARS = 16  # the widest table built at once: 2^16 digits, 8 KB


def block_width(n: int) -> int:
    """The w = min(n, BLOCK_VARS) low variables of n that run through one
    block's table; the top n - w are fixed per block, a code's high bits."""
    return min(n, BLOCK_VARS)


def blocks(n: int) -> tuple[int, list[int], int]:
    """The number h of fixed high variables of n, the tables of the
    w = `block_width(n)` low ones over the 2^w codes of a block, and the
    all-ones table of a block."""
    w = block_width(n)
    return n - w, variable_tables(w), (1 << (1 << w)) - 1


def zero_codes(n: int, tables: Iterable[int]) -> Iterator[int]:
    """The codes of n variables where a truth table reads 0, ascending.

    tables yields the table of each block of `blocks(n)`, in order of the
    high code.
    """
    w = block_width(n)
    for high, table in enumerate(tables):
        digits = format(table, f"0{1 << w}b")
        code = digits.find("0")
        while code >= 0:
            yield high << w | code
            code = digits.find("0", code + 1)


def monomial_str(mask: int, vars: VarSet) -> str:
    if mask == 0:
        return "1"
    return "*".join(vars.names[i] for i in _bit_indices(mask))


def format_poly(p: BoolPoly, order: MonomialOrder | None = None) -> str:
    """Render with terms in descending monomial order (degrevlex by default)."""
    if not p.monomials:
        return "0"
    if order is None:
        order = MonomialOrder.degrevlex(p.vars)
    terms = sorted(p.monomials, key=order.keys.__getitem__, reverse=True)
    return " + ".join(monomial_str(m, p.vars) for m in terms)


_POLY_SYMBOLS = "01+*"


def parse_poly(text: str, vars: VarSet, line: int | None = None) -> BoolPoly:
    """Parse ``x1*x5 + x4 + 1`` syntax; whitespace is insignificant.

    The line is split on '+' into terms and each term on '*' into factors;
    a factor stripped of whitespace is a declared name, 0 (the term drops
    out) or 1.  Any other factor sends the line to `_poly_error`.  The
    splits accept exactly the lines the token grammar accepts: such a line
    alternates single factor tokens with single operators, so each piece
    strips down to one factor token and the monomials are the same; and a
    line whose pieces all strip down to one factor is such a line, since
    `str.strip` removes exactly the whitespace `TOKEN` skips.
    """
    index = vars._index
    monomials: set[int] = set()
    for term in text.split("+"):
        mask = 0
        for factor in term.split("*"):
            factor = factor.strip()
            i = index.get(factor)
            if i is not None:
                mask |= 1 << i
            elif factor == "0":
                mask = -1  # every bit set, so later factors keep it and the term drops out
            elif factor != "1":
                raise _poly_error(text, index, line)
        if mask in monomials:  # a pair of equal terms cancels
            monomials.remove(mask)
        elif mask >= 0:
            monomials.add(mask)
    return BoolPoly(vars, monomials)


def _poly_error(text: str, index: Mapping[str, int], line: int | None) -> ParseError:
    """The first error of a line `parse_poly` rejects, found by a `TOKEN`
    scan: an unexpected character first, then the first grammar error."""
    tokens = TOKEN.findall(text)
    if not tokens:
        return ParseError("empty polynomial", line)
    want_factor = True
    for tok in tokens:
        if tok == "+" or tok == "*":
            if want_factor:
                message = "dangling operator in polynomial"
                break
            want_factor = True
        elif not want_factor:
            message = "missing '+' or '*' between terms"
            break
        elif tok in index or tok == "0" or tok == "1":
            want_factor = False
        else:
            message = f"unknown identifier '{tok}'"
            break
    else:
        # no token broke the grammar, so the line ends on an operator: one
        # that ended on a factor would have passed the splits
        message = "dangling operator in polynomial"
    return scan_error(tokens, _POLY_SYMBOLS, "polynomial", message, line)
