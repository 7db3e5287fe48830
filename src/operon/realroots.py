"""Real-root counting and isolation for rational univariate polynomials.

Everything here is exact: root counts come from Sturm chains, isolating
intervals come from bisection and are narrowed by one integer refinement
kernel (`_Cells`) to the cell that halving would reach, and a root is
reported as `exact` only when a rational value satisfying the polynomial
was actually found.

Every sign is taken on integers: the sign of q(n/d) is the sign of
d**deg * q(n/d), evaluated by homogeneous Horner.  One integer remainder
sequence serves as the only gcd: the Sturm chain, the squarefree part and
Yun's decomposition all read it.  A polynomial is prepared once into an
oracle (`_Oracle`) on its integer coefficients, which counts, isolates
and refines.  Isolation bisects integer numerators over one denominator,
and each isolated interval goes on into one refinement kernel (`_Cells`).
The root boxes carry that kernel, and through it the oracle, so refining
a box later neither prepares the polynomial again nor evaluates it again
at the box's ends.  The public entries read a `Poly`'s coefficients once
as coprime integers to reach the oracle; Fractions are built only for the
endpoints of the boxes returned.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import gcd, lcm
from typing import Optional

from .errors import Frozen
from .exactpoly import Poly, homogeneous_value

MIN_PRECISION = Fraction(1, 10 ** 300)
"""The narrowest interval width that isolation and refinement accept.

Every halving adds a bit to each endpoint, so a finer request only costs
time and ends in endpoints too long to print."""


class RootBox(Frozen):
    """Certified rational interval around one real root, or around one
    steady-state coordinate.

    A non-degenerate root box is half-open, (lo, hi].  A rational root that
    was recovered exactly is stored with lo == hi.

    A box that isolation or refinement returns and that is not exact
    carries the kernel (`_Cells`) that certified it, and through the
    kernel the oracle of its polynomial: `narrow_until` refines on it, and
    `refine_root_box` goes on in it for that polynomial.  An exact box, a
    box made by hand and a pickled or copied box carry nothing.
    """

    # besides the fields, the kernel that certified the box and the box's
    # depth in it: the box is its cell of that depth, and refining goes on
    # from there.  Several boxes share one kernel, so the depth is kept
    # here, not on the kernel.
    __slots__ = ("lo", "hi", "multiplicity", "_cells", "_depth")
    _fields = ("lo", "hi", "multiplicity")

    def __init__(self, lo: Fraction, hi: Fraction, multiplicity: int = 1,
                 _cells: Optional["_Cells"] = None, _depth: int = 0):
        if lo > hi:
            raise ValueError("root box needs lo <= hi")
        if multiplicity < 1:
            raise ValueError("multiplicity must be at least 1")
        self._init(lo, hi, multiplicity, _cells, _depth)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def exact(self) -> Optional[Fraction]:
        return self.lo if self.lo == self.hi else None

    def representative(self) -> Fraction:
        if self.is_exact:
            return self.lo
        return (self.lo + self.hi) / 2

    def decimal(self, digits: int = 5) -> str:
        """The midpoint as a fixed-point decimal string."""
        lo, hi = self.lo, self.hi
        ld, hd = lo.denominator, hi.denominator
        return _decimal(lo.numerator * hd + hi.numerator * ld, 2 * ld * hd, digits)

    def __str__(self):
        if self.is_exact:
            return f"root {self.lo} (multiplicity {self.multiplicity})"
        return f"root in ({self.lo}, {self.hi}] (multiplicity {self.multiplicity})"


def _integers(p: Poly) -> tuple[int, ...]:
    """p over its positive rational content: coprime integers, sign kept.

    The one check of every entry that takes a `Poly`: p must be a nonzero
    polynomial with rational coefficients.  A coefficient that is a
    constant `Poly`, which arithmetic can leave behind, is read as its
    value."""
    if not isinstance(p, Poly):
        raise TypeError("expected a polynomial")
    coeffs = []
    for c in p.coeffs:
        while isinstance(c, Poly):
            if c.degree > 0:
                raise ValueError("real-root routines need rational coefficients")
            c = c.constant()
        coeffs.append(c)
    if not coeffs:
        raise ValueError("real-root routines need a nonzero polynomial")
    d = lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (d // c.denominator) for c in coeffs])


def _primitive(c) -> tuple[int, ...]:
    """Nonzero integer coefficients divided by their gcd, signs kept."""
    g = gcd(*c)
    return tuple(x // g for x in c)


def _trim(r: list[int]) -> list[int]:
    while r and r[-1] == 0:
        r.pop()
    return r


def _derivative(c) -> list[int]:
    return [i * x for i, x in enumerate(c)][1:]


def _pseudo_remainder(f, g) -> list[int]:
    """A positive multiple of the remainder of f by g, trailing zeros trimmed.

    Each step scales the dividend by |lc(g)| instead of dividing, so only
    integers occur; the positive factor vanishes once the content is cleared.
    """
    r = list(f)
    n = len(g) - 1
    scale = abs(g[-1])
    sign = 1 if g[-1] > 0 else -1
    for k in range(len(r) - 1, n - 1, -1):
        t = r.pop() * sign
        if t:
            if scale != 1:
                r = [scale * x for x in r]
            for i, gi in enumerate(g[:-1], start=k - n):
                r[i] -= t * gi
    return _trim(r)


def _remainder_sequence(f, g) -> list[tuple[int, ...]]:
    """f, g, then the negated pseudo-remainders until one is zero.

    Every entry after f is made primitive.  With g = f' this is the Sturm
    chain of f.  The last entry is gcd(f, g) up to sign (f itself when g is
    zero), so the squarefree part and Yun's decomposition read it too.
    """
    seq = [f]
    while g:
        seq.append(_primitive(g))
        g = [-x for x in _pseudo_remainder(seq[-2], seq[-1])]
    return seq


def _sturm(f) -> list[tuple[int, ...]]:
    return _remainder_sequence(f, _derivative(f))


def _quotient(f, g) -> tuple[int, ...]:
    """f / g for integer f and a primitive g that divides it; the quotient
    is integral (Gauss's lemma), so every step divides exactly."""
    n = len(g) - 1
    r = list(f)
    quo = [0] * (len(f) - n)
    for k in range(len(f) - 1, n - 1, -1):
        t = quo[k - n] = r[k] // g[-1]
        if t:
            for i, gi in enumerate(g, start=k - n):
                r[i] -= t * gi
    return tuple(quo)


def _squarefree(f, d) -> tuple[int, ...]:
    """f / gcd(f, f'), given the gcd d up to sign, with the sign of f."""
    q = _quotient(f, d)
    return q if (q[-1] > 0) == (f[-1] > 0) else tuple(-x for x in q)


def _yun(f, d) -> list[tuple[tuple[int, ...], int]]:
    """Yun's squarefree decomposition of a primitive f, given d = gcd(f, f').

    The factors are primitive and pairwise coprime, each up to its sign.
    b and w are always divided by the same polynomial, so w - b' stays
    Yun's sequence whatever sign the gcds come with.
    """
    b, w = _quotient(f, d), _quotient(_derivative(f), d)
    out, k = [], 1
    while len(b) > 1:
        w = _trim([x - y for x, y in zip_longest(w, _derivative(b), fillvalue=0)])
        a = _remainder_sequence(b, w)[-1]  # gcd(b, w), b when w is zero
        if len(a) > 1:
            out.append((a, k))
            b, w = _quotient(b, a), _quotient(w, a)
        k += 1
    return out


def _root_bound(c) -> Fraction:
    """Cauchy's bound B = 1 + max |c_i| / |lead|: every real root of the
    polynomial with coefficients c lies strictly inside (-B, B)."""
    return 1 + Fraction(max((abs(x) for x in c[:-1]), default=0), abs(c[-1]))


def squarefree_part(p: Poly) -> Poly:
    """p with repeated factors collapsed to multiplicity one (content cleared)."""
    f = _integers(p)
    if len(f) == 1:
        return Poly(p.var, (1,))
    return Poly(p.var, _squarefree(f, _sturm(f)[-1]))


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm sequence of p, each entry scaled to small integer coefficients."""
    return [Poly(p.var, c) for c in _sturm(_integers(p))]


def _sign(x) -> int:
    return -1 if x < 0 else (1 if x > 0 else 0)


def _variations(signs) -> int:
    signs = [s for s in signs if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def count_real_roots(p: Poly, lo: Optional[Fraction] = None, hi: Optional[Fraction] = None) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    Either bound may be None, meaning unbounded on that side.
    """
    return _Oracle(_integers(p)).count(lo, hi)


def _simplest(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """The smallest-denominator rational in the closed interval
    [an/ad, bn/bd], in lowest terms as (numerator, denominator), for
    positive ad and bd and a <= b; the fractions need not be in lowest terms."""
    if an <= 0 <= bn:
        return 0, 1
    if bn < 0:
        num, den = _simplest(-bn, bd, -an, ad)
        return -num, den
    # 0 < a <= b: walk the continued fraction of [a, b]
    terms = []
    while True:
        whole, rest = divmod(an, ad)
        if rest == 0:
            last = whole
            break
        if (whole + 1) * bd <= bn:
            last = whole + 1
            break
        terms.append(whole)
        # the rest of the expansion is the simplest rational in
        # [1/(b - whole), 1/(a - whole)]
        an, ad, bn, bd = bd, bn - whole * bd, ad, rest
    num, den = last, 1
    for whole in reversed(terms):
        num, den = whole * num + den, num
    return num, den


def _check_precision(precision) -> Fraction:
    precision = Fraction(precision)
    if precision < MIN_PRECISION:
        raise ValueError("precision must be at least 1e-300")
    return precision


class _Oracle:
    """Everything counting, isolation and refinement ask of one polynomial.

    It is given as integer coefficients f, lowest degree first, with a
    nonzero last entry.  The Sturm chain of f ends in gcd(f, f'); when that
    is not constant, the chain of the squarefree part q is taken.  Once
    asked, the oracle keeps the Yun factors too.  Every box it isolates
    carries it through its kernel, so the box is refined on this oracle and
    f is never prepared twice.
    """

    def __init__(self, f: tuple[int, ...]):
        self.f = f
        self.chain = _sturm(f)
        self.gcd = self.chain[-1]  # gcd(f, f') up to sign
        if len(self.gcd) > 1:
            self.chain = _sturm(_squarefree(f, self.gcd))
        self.coeffs = self.chain[0]  # q itself
        self.degree = len(self.coeffs) - 1
        self.lead = abs(self.coeffs[-1])
        self.bound = _root_bound(self.coeffs)  # at least 1
        # No root of q lies in [B, oo) or (-oo, -B], so the variations at
        # +-B are those at +-oo, the signs of the chain's leading terms
        # (times (-1)^degree at -oo); at 0 they are the constant terms' signs.
        self.above = _variations([_sign(c[-1]) for c in self.chain])
        self.below = _variations([_sign(c[-1]) if len(c) % 2 else -_sign(c[-1])
                                  for c in self.chain])
        self.at_zero = _variations([_sign(c[0]) for c in self.chain])

    def value(self, num: int, den: int) -> int:
        """den**deg * q(num/den): for den > 0, the sign of q(num/den)."""
        return homogeneous_value(self.coeffs, num, den)

    def variations(self, num: int, den: int) -> int:
        """The sign variations of the Sturm chain at num/den, for den > 0."""
        return _variations(_sign(homogeneous_value(c, num, den)) for c in self.chain)

    def count(self, lo=None, hi=None) -> int:
        """Distinct real roots of f in (lo, hi]; None leaves a side unbounded."""
        a = -self.bound if lo is None else Fraction(lo)
        b = self.bound if hi is None else Fraction(hi)
        if a >= b:
            return 0
        v_a = self.below if lo is None else self.variations(a.numerator, a.denominator)
        v_b = self.above if hi is None else self.variations(b.numerator, b.denominator)
        return v_a - v_b

    def isolate(self, precision: Fraction, positive: bool = False) -> list[RootBox]:
        """Boxes no wider than precision around the distinct real roots of f,
        or its positive roots only, in increasing order.

        Bisection runs on integer numerators over den << depth, where den is
        the denominator of the root bound B: (a, b] starts as (-B, B], or
        (0, B], and halves at (a + b)/2.  Each interval on the stack carries
        the Sturm variations at its ends, so every grid point is evaluated
        once, and the variations at the starting ends are read off the
        chain.  An interval with one root goes on into a refinement kernel,
        which the box it ends in carries along.
        """
        precision = _check_precision(precision)
        pn, pd = precision.numerator, precision.denominator
        b, den = self.bound.numerator, self.bound.denominator
        a, v_a = (0, self.at_zero) if positive else (-b, self.below)
        out = []
        # (lo, hi, depth, variations at lo, variations at hi), left half on top
        stack = [(a, b, 0, v_a, self.above)]
        while stack:
            lo, hi, depth, v_lo, v_hi = stack.pop()
            n = v_lo - v_hi
            if n == 1:
                cells = _Cells(self, lo, hi - lo, den << depth)
                out.append(cells.settle(cells.reach(cells.depth_for(pn, pd))))
            elif n > 1:
                mid, depth = lo + hi, depth + 1
                v_mid = self.variations(mid, den << depth)
                stack.append((mid, 2 * hi, depth, v_mid, v_hi))
                stack.append((2 * lo, mid, depth, v_lo, v_mid))
        return out

    @cached_property
    def factors(self) -> list[tuple[tuple[int, ...], int]]:
        """Yun factors of f as (integer coefficients, exponent) pairs."""
        if len(self.gcd) == 1:  # f is squarefree
            return [(self.coeffs, 1)]
        return _yun(self.f, self.gcd)

    def multiplicity(self, lo: int, hi: int, den: int) -> int:
        """The multiplicity in f of the root in the isolated box
        (lo/den, hi/den], or of the root lo/den when lo == hi."""
        factors = self.factors
        if len(factors) == 1:
            return factors[0][1]
        if lo == hi:
            for f, k in factors:
                if homogeneous_value(f, lo, den) == 0:
                    return k
        else:
            # q is nonzero at both ends of a box that is not exact, and the
            # box holds one simple root of q: only the factor owning that
            # root changes sign across it
            for f, k in factors:
                if _sign(homogeneous_value(f, lo, den)) != _sign(homogeneous_value(f, hi, den)):
                    return k
        raise ArithmeticError("isolated root matched no squarefree factor")


class _Cells:
    """The cells that halving an isolating box (a, b] of q ends in.

    Halving h times on one grid ends in the cell of depth h that holds the
    root r of q in (a, b]: the half-open cell (lo/den, hi/den] with
    lo = lo0*2^h + j*w, hi = lo + w and den = den0*2^h, where a = lo0/den0
    and b = (lo0 + w)/den0.  A halving keeps the left half exactly when
    q(mid) is zero or differs in sign from q just right of lo, so the cell
    depends on r and h only, and any method that finds it prints the same
    box.  Only the deepest cell certified so far is kept, as its depth, its
    index j and the values of q at its two ends; each shallower cell that
    holds r is its ancestor, of index j >> (depth - h).

    Cells are found by quadratic interval refinement (Abbott 2006) on that
    grid.  The secant through the two end values of the deepest cell, a
    Newton step without the derivative, names the grid point nearest r
    among the 2^m cells m depths further down; the signs of q there and at
    one neighbour certify the cell between them.  A hit doubles m, a miss
    halves it, and m = 1 is a plain halving, which always hits.  All of it
    is integer arithmetic; Fractions are built only for returned boxes.
    """

    def __init__(self, oracle: _Oracle, lo0: int, w: int, den: int):
        self.oracle = oracle
        self.lo0, self.w, self.den0 = lo0, w, den
        self.depth = self.index = 0
        self.f_lo = oracle.value(lo0, den)
        self.f_hi = oracle.value(lo0 + w, den)
        # s is the sign of q on (a, r); q is squarefree, so when a is a root
        # q' is not zero there and gives the sign just right of it
        self.a_is_root = not self.f_lo
        if self.a_is_root:
            self.s = _sign(homogeneous_value(_derivative(oracle.coeffs), self.lo0, den))
        else:
            self.s = _sign(self.f_lo)
        self.bits = 2  # m of the next secant step
        self._rational = None

    @classmethod
    def between(cls, oracle: _Oracle, a: Fraction, b: Fraction) -> "_Cells":
        """The kernel of the box (a, b], over the least common denominator."""
        den = lcm(a.denominator, b.denominator)
        lo0 = a.numerator * (den // a.denominator)
        return cls(oracle, lo0, b.numerator * (den // b.denominator) - lo0, den)

    def depth_for(self, num: int, den: int) -> int:
        """The fewest halvings that bring (a, b] to width at most num/den."""
        wide, per = self.w * den, num * self.den0
        return (-(-wide // per) - 1).bit_length()

    def cell(self, h: int) -> tuple[int, int, int]:
        """(lo, hi, den) of the cell of depth h <= self.depth holding r."""
        lo = (self.lo0 << h) + (self.index >> (self.depth - h)) * self.w
        return lo, lo + self.w, self.den0 << h

    def reach(self, h: int) -> int:
        """Certify the cell of depth h and return h, or the first depth past
        h whose cell does not start at a, when a is a root: halving (a, b]
        goes on until lo has left a root of q.  A secant step may certify a
        deeper cell, which serves the calls that follow.
        """
        while self.depth < h or not self.f_lo:
            self._step()
        if self.a_is_root:
            h = max(h, self.depth - self.index.bit_length() + 1)
        return h

    def _step(self) -> None:
        """One secant step from the deepest cell."""
        if not self.f_lo or _sign(self.f_hi) == self.s:
            # halve while lo is a root of q, where the secant vanishes, and
            # while q has one sign at both ends (the box holds no root of q)
            m, k = 1, 1
        else:
            m = self.bits
            d = self.f_lo - self.f_hi  # of sign s
            # the grid point nearest the zero of the secant, between 0 and 2^m
            k = ((2 * self.f_lo << m) + d) // (2 * d)
        lo, _, den = self.cell(self.depth)
        lo, den = lo << m, den << m  # grid point i is (lo + i*w)/den
        # the bracket (x_a, x_b] of r, with the values of q at its ends
        shift = m * self.oracle.degree
        a, f_a, b, f_b = 0, self.f_lo << shift, 1 << m, self.f_hi << shift

        def probe(i: int) -> None:
            nonlocal a, f_a, b, f_b
            v = self.oracle.value(lo + i * self.w, den)
            if _sign(v) == self.s:
                a, f_a = i, v
            else:
                b, f_b = i, v

        if a < k < b:
            probe(k)
        if b - a > 1:  # the neighbour of k on the side of r
            probe(k + 1 if a == k else k - 1)
        if b - a == 1:
            self.depth += m
            self.index = (self.index << m) + a
            self.f_lo, self.f_hi = f_a, f_b
            if m == self.bits:
                self.bits *= 2
        else:
            self.bits = max(1, m // 2)

    def _rational_root(self):
        """r as (num, den) when r is rational, else False.

        Every rational root of q is k/|lc(q)| for an integer k, so a cell
        no wider than 1/|lc(q)| holds at most one candidate: the kernel
        certifies such a cell once and evaluates q only there.
        """
        if self._rational is None:
            lead = self.oracle.lead
            self.reach(self.depth_for(1, lead))
            lo, hi, den = self.cell(self.depth)
            k = hi * lead // den
            self._rational = (k * den > lo * lead and not self.oracle.value(k, lead)
                              and (k, lead))
        return self._rational

    def exact(self, lo: int, hi: int, den: int) -> Optional[tuple[int, int]]:
        """r as (num, den), when r is rational and one of the probes of the
        halving loop names it: hi, the midpoint or the simplest rational of
        the cell (lo/den, hi/den].  The cell holds no root of q but r, so a
        probe is a root exactly when it is r."""
        root = self._rational_root()
        if not root:
            return None
        k, lead = root
        probes = ((hi, den), (lo + hi, 2 * den), _simplest(lo, den, hi, den))
        if any(num * lead == k * pden for num, pden in probes):
            return root
        return None

    def box(self, depth: int, multiplicity: int, root=None) -> RootBox:
        """The exact box of root, given as (num, den), which carries
        nothing, or else the cell of the given depth as a root box that
        carries this kernel."""
        if root is not None:
            x = Fraction(*root)
            return RootBox(x, x, multiplicity)
        lo, hi, den = self.cell(depth)
        return RootBox(Fraction(lo, den), Fraction(hi, den), multiplicity, self, depth)

    def settle(self, depth: int, multiplicity: Optional[int] = None) -> RootBox:
        """The box of the cell of the given depth, or of r when a probe of
        that cell names it.  Without a multiplicity, the oracle reads it off
        the cell or the root."""
        lo, hi, den = self.cell(depth)
        root = self.exact(lo, hi, den)
        if multiplicity is None:
            multiplicity = (self.oracle.multiplicity(lo, hi, den) if root is None
                            else self.oracle.multiplicity(root[0], root[0], root[1]))
        return self.box(depth, multiplicity, root)


def isolate_real_roots(p: Poly, region: str = "all",
                       precision: Fraction = Fraction(1, 10 ** 6)) -> list[RootBox]:
    """Disjoint isolating intervals for the distinct real roots of p.

    region selects which roots to report: "all", or "positive" for roots
    strictly greater than zero.  Intervals are narrowed below `precision`
    (at least MIN_PRECISION) and returned in increasing order.
    Multiplicities refer to p itself.
    """
    f = _integers(p)
    if region not in ("all", "positive"):
        raise ValueError(f"unknown region {region!r}")
    return _Oracle(f).isolate(precision, region == "positive")


def refine_root_box(p: Poly, box: RootBox, precision: Fraction) -> RootBox:
    """Narrow an existing isolating box for p to at most the requested width.

    The result is the box that halving (lo, hi] until it is no wider than
    precision ends in, collapsed to the root when the root is rational and
    hi, the midpoint or the simplest rational of that box names it.  Exact
    boxes pass through; for any other box, precision must be at least
    MIN_PRECISION.  A box from `isolate_real_roots(p)` or an earlier
    refinement carries the kernel that certified it, whose oracle holds p
    prepared, so refining goes on from the box's cell.  Any other box, or
    a box isolated for another polynomial, starts a new kernel on p, and
    must then hold exactly one root of p.
    """
    if box.is_exact:
        return box
    precision = _check_precision(precision)
    f = _integers(p)
    cells, depth = box._cells, box._depth
    if cells is None or cells.oracle.f != f:
        oracle = _Oracle(f)
        roots = oracle.count(box.lo, box.hi)
        if roots != 1:
            raise ValueError(f"the box ({box.lo}, {box.hi}] holds {roots} roots of "
                             "the polynomial, not one")
        cells, depth = _Cells.between(oracle, box.lo, box.hi), 0
    # the box is the cell of its depth, and the fewest halvings of it that
    # reach the width end at the deeper of that depth and depth_for's
    depth = max(depth, cells.depth_for(precision.numerator, precision.denominator))
    return cells.settle(cells.reach(depth), box.multiplicity)


def narrow_until(box: RootBox, bits: int, done) -> RootBox:
    """Narrow a box in stages, each 2**bits times narrower than the last,
    until done(lo, hi, den), in the kernel that the box carries.

    A box that is not exact must come from an isolation or a refinement,
    which attach the kernel that certified it.  Each stage is the box that
    `refine_root_box` gives for the stage before at width / 2**bits, with
    no floor on the width: the same boxes and the same exact roots.  done
    is asked about each box that is not exact, the given box first, as the
    integers of (lo/den, hi/den], and the first box it accepts is returned.
    The kernel's secant steps certify cells ahead of the stage that asks
    for them.
    """
    if box.is_exact:
        return box
    cells, depth = box._cells, box._depth
    if cells is None:
        raise ValueError("the box carries no oracle: isolate it first")
    lo, hi, den = cells.cell(depth)
    while not done(lo, hi, den):
        depth = cells.reach(depth + bits)
        lo, hi, den = cells.cell(depth)
        root = cells.exact(lo, hi, den)
        if root is not None:
            return cells.box(depth, box.multiplicity, root)
    return cells.box(depth, box.multiplicity)


def decimal_str(x: Fraction, digits: int = 5) -> str:
    """Fixed-point decimal string, rounded half-even to `digits` places."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return _decimal(x.numerator, x.denominator, digits)


def _decimal(num: int, den: int, digits: int) -> str:
    """decimal_str of num/den for den > 0, on integers."""
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    scale = 10 ** digits
    # num/den * scale = scaled + rest/den with 0 <= rest < den; round half-even
    scaled, rest = divmod(num * scale, den)
    if 2 * rest > den or (2 * rest == den and scaled & 1):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), scale)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"
