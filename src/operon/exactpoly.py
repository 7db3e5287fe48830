"""Exact dense polynomial arithmetic over the rationals.

Poly is univariate in a named variable; its coefficients are Fractions or
Polys in *other* variables, so a polynomial in A whose coefficients live in
Q[L] is Poly("A", [...Poly("L", ...)...]).  Coefficients are stored lowest
degree first and trailing zeros are trimmed, which makes equality structural.

This module holds the public `Poly` API and the resultant/discriminant
oracle: resultants go through the Sylvester matrix with a fraction-free
Bareiss elimination, and all intermediate divisions are exact in the
coefficient ring.  The commands run on integers instead: `realroots` and
`lacmodel` pass integer coefficient tuples, lowest degree first, and take
only `homogeneous_value` from here for them.  A `Poly` is built where the
public API takes or returns one, and to print the eliminant.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Sequence, Union

from .errors import Frozen

Coeff = Union[Fraction, "Poly"]


def _as_coeff(c) -> Coeff:
    if isinstance(c, Poly):
        return c
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def is_zero(c) -> bool:
    if isinstance(c, Poly):
        return not c.coeffs
    return c == 0


def uses_var(c, var: str) -> bool:
    if not isinstance(c, Poly):
        return False
    return c.var == var or any(uses_var(ci, var) for ci in c.coeffs)


class Poly(Frozen):
    __slots__ = _fields = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Sequence = ()):
        cs = [_as_coeff(c) for c in coeffs]
        while cs and is_zero(cs[-1]):
            cs.pop()
        for c in cs:
            if uses_var(c, var):
                raise ValueError(f"coefficient reuses the variable {var!r}")
        self._init(var, tuple(cs))

    @classmethod
    def x(cls, var: str) -> "Poly":
        return cls(var, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> Coeff:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def constant(self) -> Coeff:
        """The value of a polynomial of degree <= 0."""
        if self.degree > 0:
            raise ValueError("polynomial is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def _coerce(self, other):
        """Normalize an operand: same-variable Poly, or a scalar.

        A Poly in a different variable acts as a scalar coefficient, so the
        left operand's variable stays the main one.  Mixing is rejected when
        the foreign polynomial mentions our variable somewhere inside.
        """
        if isinstance(other, Poly):
            if other.var == self.var:
                return other
            if other.degree <= 0:
                return other.constant()
            if uses_var(other, self.var):
                raise ValueError(f"cannot mix polynomials in {self.var!r} and {other.var!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return Fraction(other)
        return NotImplemented

    def _same_var(self, other) -> bool:
        return isinstance(other, Poly) and other.var == self.var

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._same_var(other):
            cs = list(self.coeffs) or [Fraction(0)]
            cs[0] = cs[0] + other
            return Poly(self.var, cs)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] = cs[i] + c
        return Poly(self.var, cs)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Poly(self.var, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, Poly):
            return self.__add__(-other)
        if isinstance(other, (int, Fraction)):
            return self.__add__(-Fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._same_var(other):
            if is_zero(other):
                return Poly(self.var)
            return Poly(self.var, [c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return Poly(self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.var, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly(self.var, (1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.degree <= 0 and self.constant() == other
        if isinstance(other, Poly):
            if self.var == other.var:
                return self.coeffs == other.coeffs
            return self.degree <= 0 and other.degree <= 0 and self.constant() == other.constant()
        return NotImplemented

    def __hash__(self):
        if self.degree <= 0:
            return hash(self.constant())
        return hash((self.var, self.coeffs))

    def __str__(self):
        return format_poly(self)


def degree(p) -> int:
    return p.degree if isinstance(p, Poly) else (-1 if is_zero(p) else 0)


def substitute(p, var: str, value):
    """Evaluate the named variable at a rational (or polynomial) value."""
    if not isinstance(p, Poly):
        return p
    if p.var != var:
        return Poly(p.var, [substitute(c, var, value) for c in p.coeffs])
    acc: Coeff = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * value + substitute(c, var, value)
    return acc


def homogeneous_value(coeffs: Sequence[int], num: int, den: int) -> int:
    """den**deg * p(num/den) for the integer coefficients of p.

    Horner on the homogenised form needs no division, so for den > 0 the
    result has the sign of p(num/den) and is zero exactly when it is.
    """
    acc = 0
    scale = 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return acc


def derivative(p: Poly) -> Poly:
    """Derivative with respect to the polynomial's own main variable."""
    return Poly(p.var, [i * c for i, c in enumerate(p.coeffs)][1:])


def exact_div(a, b):
    """Division known to be exact; raises ArithmeticError when it is not."""
    if is_zero(b):
        raise ZeroDivisionError("exact division by zero")
    if is_zero(a):
        return a if not isinstance(a, Poly) else Poly(a.var)
    if not isinstance(b, Poly) or b.degree <= 0:
        scalar = b.constant() if isinstance(b, Poly) else b
        if isinstance(a, Poly):
            return Poly(a.var, [exact_div(c, scalar) for c in a.coeffs])
        if isinstance(a, Fraction) and isinstance(scalar, Fraction):
            return a / scalar
        raise ArithmeticError("scalar does not divide the dividend")
    if not isinstance(a, Poly) or a.var != b.var:
        raise ArithmeticError("division is not exact")
    # long division with exact coefficient divisions; since the dividend is a
    # true multiple, the partial remainders stay multiples of b throughout
    dg = b.degree
    rem = list(a.coeffs)
    if len(rem) < dg + 1:
        raise ArithmeticError("division is not exact")
    quo = [Fraction(0)] * (len(rem) - dg)
    for k in range(len(rem) - dg - 1, -1, -1):
        top = rem[k + dg]
        if is_zero(top):
            continue
        c = exact_div(top, b.lc)
        quo[k] = c
        for i, gc in enumerate(b.coeffs):
            rem[k + i] = rem[k + i] - c * gc
    if any(not is_zero(r) for r in rem):
        raise ArithmeticError("division is not exact")
    return Poly(a.var, quo)


def _scalar_leaves(p):
    if isinstance(p, Poly):
        for c in p.coeffs:
            yield from _scalar_leaves(c)
    else:
        yield p


def rational_content(p) -> Fraction:
    """Positive rational c such that p/c has coprime integer coefficients."""
    num = 0
    den = 1
    for leaf in _scalar_leaves(p):
        if leaf == 0:
            continue
        num = _int_gcd(num, abs(leaf.numerator))
        den = den * leaf.denominator // _int_gcd(den, leaf.denominator)
    if num == 0:
        return Fraction(0)
    return Fraction(num, den)


def clear_content(p) -> Coeff:
    """Divide by the positive rational content, keeping the original sign."""
    c = rational_content(p)
    if c == 0:
        return p
    return exact_div(p, c)


def sylvester_matrix(f: Poly, g: Poly) -> list[list]:
    m, n = f.degree, g.degree
    if m < 1 or n < 1:
        raise ValueError("Sylvester matrix needs two polynomials of positive degree")
    size = m + n
    fd = list(reversed(f.coeffs))
    gd = list(reversed(g.coeffs))
    rows = []
    for shift in range(n):
        rows.append([Fraction(0)] * shift + fd + [Fraction(0)] * (size - m - 1 - shift))
    for shift in range(m):
        rows.append([Fraction(0)] * shift + gd + [Fraction(0)] * (size - n - 1 - shift))
    return rows


def bareiss_determinant(rows: Sequence[Sequence]):
    """Fraction-free determinant; entries may be rationals or polynomials."""
    m = [list(r) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return Fraction(1)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if is_zero(m[k][k]):
            for r in range(k + 1, n):
                if not is_zero(m[r][k]):
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_div(m[i][j] * pivot - m[i][k] * m[k][j], prev)
            m[i][k] = Fraction(0)
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def resultant(f: Poly, g: Poly):
    """Resultant with respect to the polynomials' shared main variable."""
    if isinstance(f, Poly) and isinstance(g, Poly) and f.var != g.var:
        raise ValueError("resultant needs two polynomials in the same main variable")
    m = degree(f)
    n = degree(g)
    if m < 1 and n < 1:
        raise ValueError("resultant needs at least one polynomial of positive degree")
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        c = f.constant() if isinstance(f, Poly) else f
        return c ** n
    if n == 0:
        c = g.constant() if isinstance(g, Poly) else g
        return c ** m
    return bareiss_determinant(sylvester_matrix(f, g))


def discriminant(f: Poly):
    """(-1)^(d(d-1)/2) * Res(f, f') / lc(f) for d = deg f >= 2."""
    d = f.degree
    if d < 2:
        raise ValueError("discriminant needs degree at least 2")
    res = resultant(f, derivative(f))
    disc = exact_div(res, f.lc)
    if (d * (d - 1) // 2) % 2:
        disc = -disc
    return disc


def format_poly(p, ascending: bool = False) -> str:
    """Text form with ``^`` powers; main variable in descending degree.

    Coefficient polynomials with several terms are parenthesized and printed
    constant-first, matching the usual way parametric coefficients are read.
    """
    if not isinstance(p, Poly):
        return str(p)
    if not p.coeffs:
        return "0"
    terms = []
    indices = range(len(p.coeffs)) if ascending else range(len(p.coeffs) - 1, -1, -1)
    for k in indices:
        c = p.coeffs[k]
        if is_zero(c):
            continue
        sign, body = _term(c, k, p.var)
        terms.append((sign, body))
    head_sign, head = terms[0]
    out = ["-" + head if head_sign < 0 else head]
    for sign, body in terms[1:]:
        out.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(out)


def _power(var: str, k: int) -> str:
    if k == 0:
        return ""
    if k == 1:
        return var
    return f"{var}^{k}"


def _scalar_str(mag: Fraction, trailing: bool) -> str:
    if mag.denominator == 1 or not trailing:
        return str(mag)
    return f"({mag})"


def _term(c, k: int, var: str) -> tuple[int, str]:
    pw = _power(var, k)
    if isinstance(c, Poly) and c.degree > 0:
        nonzero = [(i, ci) for i, ci in enumerate(c.coeffs) if not is_zero(ci)]
        if len(nonzero) == 1:
            i, ci = nonzero[0]
            sign, inner = _term(ci, i, c.var)
            body = inner if not pw else (f"{inner}*{pw}" if inner != "1" else pw)
            return sign, body
        inner = format_poly(c, ascending=True)
        return 1, f"({inner})*{pw}" if pw else f"({inner})"
    mag = c.constant() if isinstance(c, Poly) else c
    sign = -1 if mag < 0 else 1
    mag = abs(mag)
    if not pw:
        return sign, _scalar_str(mag, False)
    if mag == 1:
        return sign, pw
    return sign, f"{_scalar_str(mag, True)}*{pw}"
