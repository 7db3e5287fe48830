"""Steady-state and bifurcation analysis of a two-equation operon model.

The model tracks mRNA M and inducer A with a Hill-type production term:

    dM/dt = c0 + c * A^n / (1 + A^n) - gamma * M
    dA/dt = M * L - delta * A - v * M * A / (h + A)

Setting both right-hand sides to zero and clearing the (strictly positive)
denominators gives two polynomial equations, linear in M.  Eliminating M
leaves their 2x2 determinant P(A) - L*Q(A), one polynomial in A whose
positive roots are the steady states.  On the steady-state curve L = P/Q,
so the lactose levels where that root count changes are the critical
values of P/Q over A > 0 and its limits at the two ends.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Optional

from .errors import IDENT, Frozen, ParseError, _set, parse_rational, source_lines
from .exactpoly import Poly, clear_content, format_poly, homogeneous_value
from .realroots import (
    RootBox,
    _check_precision,
    _Oracle,
    _primitive,
    _simplest,
    _trim,
    _variations,
    decimal_str,
    narrow_until,
)

Coeffs = tuple[int, ...]  # integer coefficients, lowest degree first

RESIDUAL_TARGET = Fraction(1, 10 ** 9)
DEFAULT_PRECISION = Fraction(1, 10 ** 6)
# largest Hill exponent accepted: `ode bifurcation --csv` takes about 0.4 s
# at n = 64 and 3 s at n = 128, the default run 0.04 s and 0.2 s (2-core
# Xeon VM)
MAX_HILL = 64
# most samples `bifurcation_curve` takes: a sample isolates and refines the
# steady states at its level when its branches are read; writing them all
# at the cap takes about 6 s on the bundled model
MAX_SAMPLES = 10_000
# decimal places of the L and A columns that `bifurcation_csv` writes
CSV_DIGITS = 6


def _fraction(x) -> Fraction:
    """x as a Fraction; a Fraction is kept as given, where Fraction(x)
    would build a copy."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _check_constant(key: str, value) -> None:
    """ValueError unless n is an int from 1 to MAX_HILL, gamma, h and L
    (unless None, symbolic) are positive and the other constants nonnegative."""
    if key == "n":
        if not isinstance(value, int) or value < 1:
            raise ValueError("n must be a positive integer")
        if value > MAX_HILL:
            raise ValueError(f"n must be at most {MAX_HILL}")
    elif key in ("gamma", "h", "L"):
        if value is not None and value <= 0:
            raise ValueError(f"{key} must be positive")
    elif value < 0:
        raise ValueError(f"{key} must be nonnegative")


class LacParams(Frozen):
    """Exact model constants; L is None while the lactose level is symbolic."""

    __slots__ = _fields = ("c0", "c", "gamma", "v", "delta", "h", "n", "L")

    def __init__(self, c0: Fraction, c: Fraction, gamma: Fraction, v: Fraction,
                 delta: Fraction, h: Fraction, n: int, L: Optional[Fraction] = None):
        self._init(*map(_fraction, (c0, c, gamma, v, delta, h)), n,
                   None if L is None else _fraction(L))
        for key in ("n", "gamma", "h", "c0", "c", "v", "delta", "L"):
            _check_constant(key, getattr(self, key))

    @classmethod
    def defaults(cls) -> "LacParams":
        return cls(c0=Fraction(1, 20), c=Fraction(1), gamma=Fraction(1),
                   v=Fraction(1), delta=Fraction(1, 5), h=Fraction(2), n=5)

    def with_lactose(self, L) -> "LacParams":
        return self.replace(L=Fraction(L))


_ASSIGN = re.compile(rf"({IDENT})\s*=\s*(\S+)\Z")


def parse_ode_text(text: str) -> LacParams:
    """Read `key = value` model constants; `L = sym` keeps L symbolic."""
    seen: dict[str, object] = {}
    for lineno, line in source_lines(text):
        m = _ASSIGN.match(line)
        if not m:
            raise ParseError("expected 'key = value'", lineno)
        key, value = m.group(1), m.group(2)
        if key not in LacParams._fields:
            raise ParseError(f"unknown parameter {key!r}", lineno)
        if key in seen:
            raise ParseError(f"duplicate parameter {key!r}", lineno)
        try:
            if key == "n":
                # n is 0 unless all digits; cut to one digit more than MAX_HILL
                # has, a longer one still reads above it, so int() reads no more
                digits = value.lstrip("0") if value.isascii() and value.isdigit() else ""
                seen[key] = int(digits[: len(str(MAX_HILL)) + 1] or 0)
            else:
                seen[key] = None if key == "L" and value == "sym" else parse_rational(value)
            _check_constant(key, seen[key])
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    missing = [k for k in LacParams._fields if k not in seen]
    if missing:
        raise ParseError("missing parameters: " + ", ".join(missing))
    return LacParams(**seen)  # type: ignore[arg-type]


def load_ode(path) -> LacParams:
    with open(path, encoding="utf-8") as fh:
        return parse_ode_text(fh.read())


def build_system(p: LacParams) -> tuple[Poly, Poly]:
    """The two cleared steady-state equations as polynomials in M.

    eq1 is dM/dt = 0 times (1 + A^n); eq2 is dA/dt = 0 times (h + A).
    Both denominators are strictly positive for A >= 0, so no positive
    roots are created or lost.  Each equation is scaled by its positive
    rational content so the integer coefficients are as small as possible.
    The analyses do not use this form; it is the independent route to the
    eliminant, through `resultant`.
    """
    A = Poly.x("A")
    L = Poly.x("L") if p.L is None else p.L
    hill = A ** p.n + 1
    eq1 = Poly("M", [p.c0 * hill + p.c * A ** p.n, -p.gamma * hill])
    eq2 = Poly("M", [-p.delta * A * (A + p.h), (A + p.h) * L - p.v * A])
    return clear_content(eq1), clear_content(eq2)


def _lactose_curve(p: LacParams) -> tuple[Coeffs, Coeffs]:
    """P and Q in A, as integer coefficients, such that the eliminant is the
    primitive part of P - L*Q.

    Both steady-state equations are linear in M, so their resultant is a
    2x2 determinant: P = gamma*delta*A*(A+h)*(A^n+1) + v*A*alpha and
    Q = alpha*(A+h), with alpha = c0*(A^n+1) + c*A^n.  Both have
    nonnegative coefficients, so both increase on A >= 0, and Q > 0 on
    A > 0 unless Q is zero.  On the steady-state curve L = P/Q; the two
    share one positive scale, which leaves that ratio unchanged, and every
    reader takes ratios or primitive parts of them.

    Expanded, with g = gamma*delta and s = c0 + c:
    P = (g*h + v*c0)*A + g*A^2 + (g*h + v*s)*A^(n+1) + g*A^(n+2) and
    Q = c0*h + c0*A + s*h*A^n + s*A^(n+1); for n = 1 powers coincide and
    their terms add up.  With the six constants written as integers over
    one common denominator D, D^3 * P and D^3 * Q are integer polynomials;
    they are divided by the gcd of all their coefficients, and trailing
    zeros are dropped (Q is empty when c0 = c = 0).
    """
    consts = (p.c0, p.c, p.gamma, p.v, p.delta, p.h)
    d = lcm(*(x.denominator for x in consts))
    c0, c, gamma, v, delta, h = (x.numerator * (d // x.denominator) for x in consts)
    n, g, s = p.n, gamma * delta, c0 + c
    gh = g * h
    P = [0] * (n + 3)
    Q = [0] * (n + 2)
    for k, x in ((1, gh + v * c0 * d), (2, g * d), (n + 1, gh + v * s * d), (n + 2, g * d)):
        P[k] += x
    for k, x in ((0, c0 * h * d), (1, c0 * d * d), (n, s * h * d), (n + 1, s * d * d)):
        Q[k] += x
    # both vanish when c0 = c = delta = 0, and then so does the gcd
    common = gcd(*P, *Q) or 1
    return (tuple(_trim([x // common for x in P])),
            tuple(_trim([x // common for x in Q])))


def _eliminant(P: Coeffs, Q: Coeffs, L: Fraction) -> Coeffs:
    """The eliminant at L = n/d: the primitive part of d*P - n*Q, with a
    positive leading coefficient."""
    n, d = L.numerator, L.denominator
    coeffs = _trim([d * pc - n * qc for pc, qc in zip_longest(P, Q, fillvalue=0)])
    if not coeffs:
        raise ValueError("degenerate system: equations share a factor")
    g = gcd(*coeffs) if coeffs[-1] > 0 else -gcd(*coeffs)
    return tuple(c // g for c in coeffs)


def eliminate_M(p: LacParams) -> Poly:
    """The steady-state equations with M eliminated.

    Returns the primitive, sign-normalized polynomial in A (coefficients in
    L when the lactose level is symbolic) whose positive roots are exactly
    the steady-state A values: the primitive part of P - L*Q, the 2x2
    determinant of `build_system(p)` as a linear system in M.

    With L symbolic, P - L*Q is primitive already: `_lactose_curve` has
    divided P and Q by the gcd of all their coefficients.  Only its sign is
    set, by the innermost leading coefficient: -Q[-1] < 0 when Q is at
    least as long as P, else P[-1] > 0.
    """
    P, Q = _lactose_curve(p)
    if p.L is not None:
        return Poly("A", _eliminant(P, Q, p.L))
    if not (P or Q):
        raise ValueError("degenerate system: equations share a factor")
    s = -1 if len(Q) >= len(P) else 1
    return Poly("A", [s * pc if not qc else Poly("L", [s * pc, -s * qc])
                      for pc, qc in zip_longest(P, Q, fillvalue=0)])


def critical_lactose_values(p: LacParams,
                            precision: Fraction = DEFAULT_PRECISION) -> list[RootBox]:
    """Positive L values where the steady-state count changes, ascending.

    The steady states at L are the A > 0 with P(A)/Q(A) = L, so the count
    changes only at the local extrema of L(A) = P/Q, the positive roots of
    odd multiplicity of W = P'Q - PQ', and at the limits of L(A) as A goes
    to 0 and to infinity.  Each level comes in a certified box no wider
    than `precision`.  Requires symbolic L.
    """
    if p.L is not None:
        raise ValueError("critical values need a symbolic lactose level (L = sym)")
    return _by_level(_fold_sequence(*_lactose_curve(p), precision))


def _by_level(sequence: list) -> list[RootBox]:
    """The critical levels of a fold sequence, ascending: the end limits
    that are positive and finite, as exact boxes, and the folds."""
    ends = {end.lo for end in (sequence[0], sequence[-1]) if end is not None and end.lo > 0}
    levels = [RootBox(x, x) for x in sorted(ends)] + sequence[1:-1]
    levels.sort(key=lambda box: (box.lo, box.hi))
    return levels


def _fold_sequence(P: Coeffs, Q: Coeffs, precision: Fraction) -> list:
    """L(0+), the fold levels in increasing order of A, then L(infinity).

    An end limit is an exact box, or None where it is infinite.  A fold
    level is the level at a positive root of odd multiplicity of
    W = P'Q - PQ', in a certified box no wider than precision.  Between two
    folds L(A) is strictly monotone, so the steady states at a level
    outside every box are read off this sequence (`_level_count`).
    """
    if not (P and Q):
        if not (P or Q):
            raise ValueError("degenerate system: equations share a factor")
        # L(A) is 0 or infinite for every A > 0: no level is critical, and
        # none has a steady state
        return [None, None]
    # with nonnegative coefficients, L(0+) is finite and positive where the
    # lowest powers of P and Q agree, and 0 or infinite where they differ;
    # likewise L(infinity) with the highest powers
    low_p = next(i for i, c in enumerate(P) if c)
    low_q = next(i for i, c in enumerate(Q) if c)
    sequence = [_end_limit(low_p - low_q, P[low_p], Q[low_q])]
    W = _wronskian(P, Q)
    if W:
        for box in _Oracle(W).isolate(precision, positive=True):
            if box.multiplicity % 2:
                sequence.append(_fold_level(P, Q, box, precision))
    sequence.append(_end_limit(len(Q) - len(P), P[-1], Q[-1]))
    return sequence


def _end_limit(excess: int, pc: int, qc: int) -> Optional[RootBox]:
    """A limit of L(A) = P/Q from the terms pc*A^i and qc*A^j of P and Q
    that dominate at that end: pc/qc when the powers agree, else 0 when P
    vanishes faster (excess > 0) and infinity, None, when Q does."""
    if excess:
        return RootBox(Fraction(0), Fraction(0)) if excess > 0 else None
    level = Fraction(pc, qc)
    return RootBox(level, level)


def _wronskian(P: Coeffs, Q: Coeffs) -> Coeffs:
    """The primitive part of W = P'Q - PQ', signs kept, on integers: the
    terms P_i*A^i and Q_j*A^j add (i - j)*P_i*Q_j to A^(i+j-1)."""
    W = [0] * (len(P) + len(Q))
    terms = [(j, qc) for j, qc in enumerate(Q) if qc]
    for i, pc in enumerate(P):
        if pc:
            for j, qc in terms:
                W[i + j - 1] += (i - j) * pc * qc
    W = _trim(W)
    return _primitive(W) if W else ()


def _fold_level(P: Coeffs, Q: Coeffs, box: RootBox, precision: Fraction) -> RootBox:
    """The level L = P/Q at the root of W = P'Q - PQ' in box, in a
    certified box.

    P and Q increase on A >= 0, so for A in (a, b] with Q(a) > 0,
    P(a)/Q(b) < P(A)/Q(A) <= P(b)/Q(a).  The A box is halved, on the
    oracle of W that the box carries, until that L box is no wider than
    precision/4.  The L box is then widened to the simplest
    rationals within precision/8 of its ends: its exact ends have digits
    in the hundreds, and every later use (printing, census probes, sample
    flags) is cheaper with short ones.
    """
    # P and Q homogenised to one degree, so that their ratio at n/d is the
    # ratio of the two integer values
    top = max(len(P), len(Q))
    pc, qc = (f + (0,) * (top - len(f)) for f in (P, Q))
    pn, pd = precision.numerator, precision.denominator
    ends = ()  # the values of P and Q at the two ends of the last stage

    def narrow(lo: int, hi: int, den: int) -> bool:
        nonlocal ends
        ends = [(homogeneous_value(pc, x, den), homogeneous_value(qc, x, den))
                for x in (lo, hi)]
        (p_a, q_a), (p_b, q_b) = ends
        if not q_a:
            return False
        # P(b)/Q(a) - P(a)/Q(b) <= precision/4, over the positive Q(a)*Q(b)
        return (p_b * q_b - p_a * q_a) * 4 * pd <= pn * q_a * q_b

    box = narrow_until(box, 1, narrow)
    if box.is_exact:
        n, d = box.lo.numerator, box.lo.denominator
        level = Fraction(homogeneous_value(pc, n, d), homogeneous_value(qc, n, d))
        return RootBox(level, level)
    # box is the last stage that narrow saw, (a, b] = (lo/den, hi/den]
    (p_a, q_a), (p_b, q_b) = ends
    return _level_box(p_a, q_a, p_b, q_b, precision)


def _level_box(p_a: int, q_a: int, p_b: int, q_b: int, precision: Fraction) -> RootBox:
    """The L box (lo, hi] = (p_a/q_b, p_b/q_a] widened to the simplest
    rationals in [lo - min(slack, lo/2), lo] and [hi, hi + slack], with
    slack = precision/8, for p_a >= 0 and positive q_a, q_b.  Each bound
    is one integer quotient, which `_simplest` takes unreduced."""
    pn, pd8 = precision.numerator, 8 * precision.denominator
    # slack <= lo/2 exactly when 2*pn*q_b <= 8*pd*p_a
    if 2 * pn * q_b <= pd8 * p_a:
        left = _simplest(pd8 * p_a - pn * q_b, pd8 * q_b, p_a, q_b)
    else:
        left = _simplest(p_a, 2 * q_b, p_a, q_b)
    right = _simplest(p_b, q_a, pd8 * p_b + pn * q_a, pd8 * q_a)
    return RootBox(Fraction(*left), Fraction(*right))


def _eliminant_at(p: LacParams, L) -> Coeffs:
    L = Fraction(L)
    if L <= 0:
        raise ValueError("lactose level must be positive")
    return _eliminant(*_lactose_curve(p), L)


def steady_state_count(p: LacParams, L) -> int:
    """Number of distinct positive steady-state A values at lactose level L."""
    return _Oracle(_eliminant_at(p, L)).count(0)


class SteadyState(Frozen):
    """One positive steady state with certified coordinate intervals."""

    __slots__ = _fields = ("A", "M", "R", "multiplicity")

    def __init__(self, A: RootBox, M: RootBox, R: RootBox, multiplicity: int = 1):
        self._init(A, M, R, multiplicity)

    def as_dict(self, digits: int = 5) -> dict:
        boxes = {"A": self.A, "M": self.M, "R": self.R}
        out: dict = {name: box.decimal(digits) for name, box in boxes.items()}
        out["intervals"] = {name: _endpoints(name, box) for name, box in boxes.items()}
        return out


def _endpoints(name: str, box: RootBox) -> list[str]:
    """The exact endpoints of a coordinate's interval as strings."""
    try:
        return [str(box.lo), str(box.hi)]
    except ValueError:  # an integer past the interpreter's conversion limit
        raise ValueError(f"the exact {name} interval cannot be printed: an endpoint has "
                         f"more than {sys.get_int_max_str_digits()} digits") from None


def _recover_state(p: LacParams, box: RootBox) -> SteadyState:
    """Propagate an A interval to M and R through the model's formulas.

    Both maps are monotone in t = A^n for A > 0 (M increasing since its
    derivative in t is gamma*c over a square; R = 1/(1+t) decreasing), so
    evaluating at the interval endpoints gives certified enclosures.

    At A = a/b, with u = b^n, w = a^n and T = u + w, t = w/u, so
    R = u/T and M = (c0*T + c*w) / (gamma*T); with the constants as
    integers over their own denominators each is one integer quotient.
    """
    a_lo, a_hi = box.lo, box.hi
    if not box.is_exact and a_lo < 0:
        a_lo = Fraction(0)
    n = p.n
    c0n, c0d = p.c0.numerator, p.c0.denominator
    cn, cd = p.c.numerator, p.c.denominator
    # M = gd*(c0n*cd*T + cn*c0d*w) / (gn*c0d*cd*T), gamma = gn/gd
    k0, k1 = p.gamma.denominator * c0n * cd, p.gamma.denominator * cn * c0d
    km = p.gamma.numerator * c0d * cd

    def m_and_r(a: Fraction) -> tuple[Fraction, Fraction]:
        u, w = a.denominator ** n, a.numerator ** n
        total = u + w
        return Fraction(k0 * total + k1 * w, km * total), Fraction(u, total)

    m_lo, r_hi = m_and_r(a_lo)
    m_hi, r_lo = (m_lo, r_hi) if a_lo == a_hi else m_and_r(a_hi)
    return SteadyState(RootBox(a_lo, a_hi), RootBox(m_lo, m_hi),
                       RootBox(r_lo, r_hi), box.multiplicity)


def steady_states_at(p: LacParams, L,
                     precision: Fraction = DEFAULT_PRECISION) -> list[SteadyState]:
    """All positive steady states at lactose level L, sorted by A ascending.

    A intervals are refined until the eliminant residual at the midpoint is
    below RESIDUAL_TARGET; M and R intervals follow by monotone evaluation.
    """
    return [_recover_state(p, box)
            for box in _branches(_eliminant_at(p, L), precision)]


def _branches(elim: Coeffs, precision: Fraction) -> list[RootBox]:
    """The positive roots of the eliminant, isolated below precision and
    refined to the residual target."""
    return [_refine_residual(elim, box)
            for box in _Oracle(elim).isolate(precision, positive=True)]


def _refine_residual(elim: Coeffs, box: RootBox) -> RootBox:
    """Narrow box, on the oracle it carries, in stages of width/16 until the
    integer eliminant's residual at its midpoint is below RESIDUAL_TARGET,
    or until the root is exact."""
    # |elim(n/d)| < t/s, for the integer eliminant of degree m, is
    # |d**m * elim(n/d)| * s < t * d**m
    m = len(elim) - 1
    t, s = RESIDUAL_TARGET.numerator, RESIDUAL_TARGET.denominator

    def small(lo: int, hi: int, den: int) -> bool:
        n, d = lo + hi, 2 * den
        return abs(homogeneous_value(elim, n, d)) * s < t * d ** m

    return narrow_until(box, 4, small)


class Region(Frozen):
    """Open lactose interval on which the steady-state count is constant.

    Edges are nominal rational stand-ins for the certified critical boxes
    (None marks an unbounded right edge).
    """

    __slots__ = _fields = ("lo", "hi", "count")


class SamplePoint(Frozen):
    """One sampled lactose level; its steady-state branches are isolated
    and refined when first asked for."""

    # besides the fields, the integer curve P, Q of the report and its
    # precision, and the roots once they are read
    __slots__ = ("L", "boundary", "_curve", "_roots")
    _fields = ("L", "boundary")

    def __init__(self, L: Fraction, boundary: bool, _curve: tuple):
        self._init(L, boundary, _curve, None)

    def __reduce__(self):
        return self.__class__, (self.L, self.boundary, self._curve)

    @property
    def roots(self) -> tuple[RootBox, ...]:
        if self._roots is None:
            P, Q, precision = self._curve
            _set(self, "_roots", tuple(_branches(_eliminant(P, Q, self.L), precision)))
        return self._roots

    @property
    def count(self) -> int:
        return len(self.roots)


class BifurcationReport(Frozen):
    __slots__ = _fields = ("critical", "regions", "samples")


def bifurcation_curve(p: LacParams, l_range: tuple, samples: int,
                      precision: Fraction = DEFAULT_PRECISION) -> BifurcationReport:
    """Sampled steady-state branches over a lactose range plus region census.

    Samples are evenly spaced across [lo, hi].  A sample whose L falls
    inside a critical box is flagged boundary (its count is still the exact
    distinct-root count at that rational L).  The branches of a sample are
    found when first asked for, so a caller that reads only the census does
    no work for them.
    """
    if p.L is not None:
        raise ValueError("bifurcation analysis needs a symbolic lactose level (L = sym)")
    lo, hi = Fraction(l_range[0]), Fraction(l_range[1])
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi for the lactose range")
    if samples < 2:
        raise ValueError("need at least two samples")
    if samples > MAX_SAMPLES:
        raise ValueError(f"at most {MAX_SAMPLES} samples")
    P, Q = _lactose_curve(p)
    sequence = _fold_sequence(P, Q, precision)
    critical = tuple(_by_level(sequence))
    regions = tuple(_census_regions(sequence, critical))
    # the samples isolate their branches at this precision when asked, so
    # a precision below the floor is refused now, after the census
    curve = (P, Q, _check_precision(precision))
    ends = _box_ends(critical)
    # sample i is (lo*(s - 1 - i) + hi*i)/(s - 1), as num over den; it is a
    # boundary sample when some box has c.lo <= L <= c.hi: L in the box or
    # at its lo, for exact and open boxes alike
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    last = samples - 1
    at_lo, at_hi, den = ln * hd, hn * ld, ld * hd * last
    pts = []
    for i in range(samples):
        num = at_lo * (last - i) + at_hi * i
        boundary = any(cn * den <= num * cd and num * ed <= en * den
                       for cn, cd, en, ed in ends)
        pts.append(SamplePoint(Fraction(num, den), boundary, curve))
    return BifurcationReport(critical, regions, tuple(pts))


def _box_ends(boxes) -> list[tuple[int, int, int, int]]:
    """The ends of each box as integers: lo's numerator and denominator,
    then hi's."""
    return [(c.lo.numerator, c.lo.denominator, c.hi.numerator, c.hi.denominator)
            for c in boxes]


def _level_count(sequence: list, level: Fraction) -> int:
    """The steady states at a level outside every box of a fold sequence:
    the sign changes of l - level over its levels l.  L(A) is strictly
    monotone between folds, so each change is one A with L(A) = level.  A
    level l lies in its box and above the box's lo unless the box is exact,
    so a level outside the box is below l exactly when it is at most lo."""
    return _variations(1 if end is None or level <= end.lo else -1 for end in sequence)


def _census_regions(sequence: list, critical: tuple) -> list[Region]:
    reps = [c.representative() for c in critical]
    ends = _box_ends(critical)
    regions = []
    for i in range(len(critical) + 1):
        # the simplest rational in the middle half of the gap (a, b) between
        # the certified boxes, with (0, right.lo) and (left.hi, left.hi + 2)
        # at the open ends: any level in the gap will do
        an, ad = (0, 1) if i == 0 else ends[i - 1][2:]
        bn, bd = (an + 2 * ad, ad) if i == len(critical) else ends[i][:2]
        if an * bd < bn * ad:
            # (3a + b)/4 and (a + 3b)/4 over 4*ad*bd
            an, bn = an * bd, bn * ad
            xn, xd = _simplest(3 * an + bn, 4 * ad * bd, an + 3 * bn, 4 * ad * bd)
        else:
            xn, xd = an, ad
        # a box holds the probe when lo < probe <= hi, or probe == lo == hi;
        # every pair here is in lowest terms, so equal values are equal pairs
        if xn <= 0 or any((ln * xd < xn * ld and xn * hd <= hn * xd)
                          or (xn, xd) == (ln, ld) == (hn, hd)
                          for ln, ld, hn, hd in ends):
            raise ValueError("critical values are closer than the working "
                             "precision; retry with a smaller precision")
        regions.append(Region(Fraction(0) if i == 0 else reps[i - 1],
                              None if i == len(critical) else reps[i],
                              _level_count(sequence, Fraction(xn, xd))))
    return regions


def bifurcation_csv(report: BifurcationReport) -> str:
    """CSV rendering of the sampled branches: header L,A,branch,region_count."""
    lines = ["L,A,branch,region_count"]
    for pt in report.samples:
        for branch, box in enumerate(pt.roots):
            lines.append(",".join([
                decimal_str(pt.L, CSV_DIGITS),
                box.decimal(CSV_DIGITS),
                str(branch),
                str(pt.count),
            ]))
    return "\n".join(lines) + "\n"


def eliminant_text(p: LacParams) -> str:
    elim = eliminate_M(p)
    try:
        return format_poly(elim)
    except ValueError:  # an integer past the interpreter's conversion limit
        raise ValueError("the eliminant cannot be printed: a coefficient has more "
                         f"than {sys.get_int_max_str_digits()} digits") from None
