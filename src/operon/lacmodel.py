"""Steady-state and bifurcation analysis of a two-equation operon model.

The model tracks mRNA M and inducer A with a Hill-type production term:

    dM/dt = c0 + c * A^n / (1 + A^n) - gamma * M
    dA/dt = M * L - delta * A - v * M * A / (h + A)

Setting both right-hand sides to zero and clearing the (strictly positive)
denominators gives two polynomial equations, linear in M.  Eliminating M
with a resultant leaves one polynomial in A whose positive roots are the
steady states; its discriminant in A locates the lactose levels L where
that root count changes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .errors import ParseError
from .exactpoly import (
    Poly,
    clear_content,
    content_and_primitive,
    degree,
    discriminant,
    format_poly,
    homogeneous_value,
    integer_coeffs,
    is_zero,
    resultant,
)
from .realroots import (
    RootBox,
    count_real_roots,
    decimal_str,
    isolate_real_roots,
    refine_root_box,
)

RESIDUAL_TARGET = Fraction(1, 10 ** 9)
DEFAULT_PRECISION = Fraction(1, 10 ** 6)


@dataclass(frozen=True)
class LacParams:
    """Exact model constants; L is None while the lactose level is symbolic."""

    c0: Fraction
    c: Fraction
    gamma: Fraction
    v: Fraction
    delta: Fraction
    h: Fraction
    n: int
    L: Optional[Fraction] = None

    def __post_init__(self):
        for name in ("c0", "c", "gamma", "v", "delta", "h"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.L is not None:
            object.__setattr__(self, "L", Fraction(self.L))
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.h <= 0:
            raise ValueError("h must be positive")
        for name in ("c0", "c", "v", "delta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @classmethod
    def defaults(cls) -> "LacParams":
        return cls(c0=Fraction(1, 20), c=Fraction(1), gamma=Fraction(1),
                   v=Fraction(1), delta=Fraction(1, 5), h=Fraction(2), n=5)

    def with_lactose(self, L) -> "LacParams":
        return replace(self, L=Fraction(L))


_KEYS = ("c0", "c", "gamma", "v", "delta", "h", "n", "L")


def parse_ode_text(text: str) -> LacParams:
    """Read `key = value` model constants; `L = sym` keeps L symbolic."""
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S+)\Z", line)
        if not m:
            raise ParseError("expected 'key = value'", lineno)
        key, value = m.group(1), m.group(2)
        if key not in _KEYS:
            raise ParseError(f"unknown parameter {key!r}", lineno)
        if key in seen:
            raise ParseError(f"duplicate parameter {key!r}", lineno)
        if key == "n":
            if not value.isdigit() or int(value) < 1:
                raise ParseError("n must be a positive integer", lineno)
            seen[key] = int(value)
        elif key == "L" and value == "sym":
            seen[key] = None
        else:
            try:
                seen[key] = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"invalid rational {value!r}", lineno) from None
    missing = [k for k in _KEYS if k not in seen]
    if missing:
        raise ParseError("missing parameters: " + ", ".join(missing))
    try:
        return LacParams(**seen)  # type: ignore[arg-type]
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def load_ode(path) -> LacParams:
    with open(path, encoding="utf-8") as fh:
        return parse_ode_text(fh.read())


def _lactose_value(p: LacParams):
    if p.L is None:
        return Poly.x("L")
    return p.L


def build_system(p: LacParams) -> tuple[Poly, Poly]:
    """The two cleared steady-state equations as polynomials in M.

    eq1 is dM/dt = 0 times (1 + A^n); eq2 is dA/dt = 0 times (h + A).
    Both denominators are strictly positive for A >= 0, so no positive
    roots are created or lost.  Each equation is scaled by its positive
    rational content so the integer coefficients are as small as possible.
    """
    A = Poly.x("A")
    L = _lactose_value(p)
    hill = A ** p.n + 1
    eq1 = Poly("M", [p.c0 * hill + p.c * A ** p.n, -p.gamma * hill])
    eq2 = Poly("M", [-p.delta * A * (A + p.h), (A + p.h) * L - p.v * A])
    return clear_content(eq1), clear_content(eq2)


def eliminate_M(p: LacParams) -> Poly:
    """Resultant of the two steady-state equations with respect to M.

    Returns the primitive, sign-normalized polynomial in A (coefficients in
    L when the lactose level is symbolic) whose positive roots are exactly
    the steady-state A values.
    """
    eq1, eq2 = build_system(p)
    if degree(eq1) < 1 and degree(eq2) < 1:
        raise ValueError("degenerate system: M does not occur in either equation")
    res = resultant(eq1, eq2)
    if is_zero(res):
        raise ValueError("degenerate system: equations share a factor")
    return content_and_primitive(res)[1]


def critical_lactose_values(p: LacParams,
                            precision: Fraction = DEFAULT_PRECISION) -> list[RootBox]:
    """Positive L values where the steady-state count changes.

    These are the positive real roots of the discriminant (in A) of the
    eliminant, isolated to the requested precision.  Requires symbolic L.
    """
    if p.L is not None:
        raise ValueError("critical values need a symbolic lactose level (L = sym)")
    elim = eliminate_M(p)
    disc = discriminant(elim)
    if is_zero(disc):
        raise ValueError("identically zero discriminant: degenerate parameter values")
    if not isinstance(disc, Poly) or disc.degree < 1:
        return []
    return isolate_real_roots(disc, region="positive", precision=precision)


def _eliminant_at(p: LacParams, L) -> Poly:
    return eliminate_M(p.with_lactose(L))


def steady_state_count(p: LacParams, L) -> int:
    """Number of distinct positive steady-state A values at lactose level L."""
    L = Fraction(L)
    if L <= 0:
        raise ValueError("lactose level must be positive")
    elim = _eliminant_at(p, L)
    return count_real_roots(elim, Fraction(0), None)


@dataclass(frozen=True)
class Bounds:
    """Closed rational interval certifying one steady-state coordinate."""

    lo: Fraction
    hi: Fraction

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def decimal(self, digits: int = 5) -> str:
        return decimal_str(self.midpoint(), digits)


@dataclass(frozen=True)
class SteadyState:
    """One positive steady state with certified coordinate intervals."""

    A: Bounds
    M: Bounds
    R: Bounds
    multiplicity: int = 1

    def as_dict(self, digits: int = 5) -> dict:
        return {
            "A": self.A.decimal(digits),
            "M": self.M.decimal(digits),
            "R": self.R.decimal(digits),
            "intervals": {
                "A": [str(self.A.lo), str(self.A.hi)],
                "M": [str(self.M.lo), str(self.M.hi)],
                "R": [str(self.R.lo), str(self.R.hi)],
            },
        }


def _recover_state(p: LacParams, box: RootBox) -> SteadyState:
    """Propagate an A interval to M and R through the model's formulas.

    Both maps are monotone in t = A^n for A > 0 (M increasing since its
    derivative in t is gamma*c over a square; R = 1/(1+t) decreasing), so
    evaluating at the interval endpoints gives certified enclosures.
    """
    a_lo, a_hi = box.lo, box.hi
    if not box.is_exact and a_lo < 0:
        a_lo = Fraction(0)

    def m_of(a: Fraction) -> Fraction:
        t = a ** p.n
        return (p.c0 + (p.c0 + p.c) * t) / (p.gamma * (1 + t))

    def r_of(a: Fraction) -> Fraction:
        return 1 / (1 + a ** p.n)

    m_bounds = Bounds(m_of(a_lo), m_of(a_hi))
    r_bounds = Bounds(r_of(a_hi), r_of(a_lo))
    return SteadyState(Bounds(a_lo, a_hi), m_bounds, r_bounds, box.multiplicity)


def steady_states_at(p: LacParams, L,
                     precision: Fraction = DEFAULT_PRECISION) -> list[SteadyState]:
    """All positive steady states at lactose level L, sorted by A ascending.

    A intervals are refined until the eliminant residual at the midpoint is
    below RESIDUAL_TARGET; M and R intervals follow by monotone evaluation.
    """
    L = Fraction(L)
    if L <= 0:
        raise ValueError("lactose level must be positive")
    elim = _eliminant_at(p, L)
    boxes = isolate_real_roots(elim, region="positive", precision=precision)
    out = []
    for box in boxes:
        box = _refine_residual(elim, box)
        out.append(_recover_state(p, box))
    return out


def _refine_residual(elim: Poly, box: RootBox) -> RootBox:
    # |elim(n/d)| < t/s, for the integer eliminant of degree m, is
    # |d**m * elim(n/d)| * s < t * d**m
    coeffs = integer_coeffs(elim)
    m = len(coeffs) - 1
    t, s = RESIDUAL_TARGET.numerator, RESIDUAL_TARGET.denominator
    while not box.is_exact:
        mid = box.representative()
        n, d = mid.numerator, mid.denominator
        if abs(homogeneous_value(coeffs, n, d)) * s < t * d ** m:
            break
        box = refine_root_box(elim, box, box.width / 16)
    return box


@dataclass(frozen=True)
class Region:
    """Open lactose interval on which the steady-state count is constant.

    Edges are nominal rational stand-ins for the certified critical boxes
    (None marks an unbounded right edge).
    """

    lo: Fraction
    hi: Optional[Fraction]
    count: int


@dataclass(frozen=True)
class SamplePoint:
    """One sampled lactose level with its isolated steady-state branches."""

    L: Fraction
    roots: tuple[RootBox, ...]
    count: int
    boundary: bool


@dataclass(frozen=True)
class BifurcationReport:
    critical: tuple[RootBox, ...]
    regions: tuple[Region, ...]
    samples: tuple[SamplePoint, ...]


def bifurcation_curve(p: LacParams, l_range: tuple, samples: int,
                      precision: Fraction = DEFAULT_PRECISION) -> BifurcationReport:
    """Sampled steady-state branches over a lactose range plus region census.

    Samples are evenly spaced across [lo, hi].  A sample whose L falls
    inside a critical box is flagged boundary (its count is still the exact
    distinct-root count at that rational L).
    """
    if p.L is not None:
        raise ValueError("bifurcation analysis needs a symbolic lactose level (L = sym)")
    lo, hi = Fraction(l_range[0]), Fraction(l_range[1])
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi for the lactose range")
    if samples < 2:
        raise ValueError("need at least two samples")
    critical = tuple(critical_lactose_values(p, precision))
    regions = tuple(_census_regions(p, critical))
    pts = []
    for i in range(samples):
        L = lo + (hi - lo) * i / (samples - 1)
        elim = _eliminant_at(p, L)
        boxes = tuple(_refine_residual(elim, b)
                      for b in isolate_real_roots(elim, region="positive",
                                                  precision=precision))
        boundary = any(c.contains(L) or c.lo == L for c in critical)
        pts.append(SamplePoint(L, boxes, len(boxes), boundary))
    return BifurcationReport(critical, regions, tuple(pts))


def _census_regions(p: LacParams, critical: tuple) -> list[Region]:
    reps = [c.representative() for c in critical]
    regions = []
    for i in range(len(critical) + 1):
        left = critical[i - 1] if i > 0 else None
        right = critical[i] if i < len(critical) else None
        if left is None and right is None:
            probe = Fraction(1)
        elif left is None:
            probe = right.lo / 2
        elif right is None:
            probe = left.hi + 1
        else:
            # midpoint of the gap between the certified boxes
            probe = (left.hi + right.lo) / 2
        if probe <= 0 or any(c.contains(probe) for c in critical):
            raise ValueError("critical values are closer than the working "
                             "precision; retry with a smaller precision")
        regions.append(Region(Fraction(0) if left is None else reps[i - 1],
                              None if right is None else reps[i],
                              steady_state_count(p, probe)))
    return regions


def bifurcation_csv(report: BifurcationReport, digits: int = 6) -> str:
    """CSV rendering of the sampled branches: header L,A,branch,region_count."""
    lines = ["L,A,branch,region_count"]
    for pt in report.samples:
        for branch, box in enumerate(pt.roots):
            lines.append(",".join([
                decimal_str(pt.L, digits),
                decimal_str(box.representative(), digits),
                str(branch),
                str(pt.count),
            ]))
    return "\n".join(lines) + "\n"


def eliminant_text(p: LacParams) -> str:
    return format_poly(eliminate_M(p))
