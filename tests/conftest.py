"""Shared test helpers: seeded generators and paths to the shipped models.

Everything random in the suite flows through a `random.Random` seeded here so
failures reproduce exactly.  The generators are plain functions (importable
from acceptance tests as well) with thin fixture wrappers.
"""

import heapq
import random
import re
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest

from operon import model_path
from operon import logic
from operon.errors import IDENT, ParseError
from operon.exactpoly import Poly, exact_div, homogeneous_value, is_zero, rational_content
from operon.lacmodel import Region, SteadyState
from operon.realroots import (
    RootBox,
    _Cells,
    count_real_roots,
    narrow_until,
    refine_root_box,
    simplest_rational,
    squarefree_part,
    sturm_chain,
)
from operon.gf2 import BoolPoly, VarSet, variable_tables
from operon.groebner import PolySystem

SEED = 20260816


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture
def lac_bn():
    return model_path("lac.bn")


@pytest.fixture
def lac_ode():
    return model_path("lac.ode")


@pytest.fixture
def lac_gf2():
    return model_path("lac_on.gf2")


# ---------------------------------------------------------------------------
# Boolean expressions


def random_expr(rng, names, depth=4):
    """Random expression tree over `names` with the given maximum depth."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.15:
            return logic.Const(rng.randrange(2))
        return logic.Var(rng.choice(names))
    op = rng.randrange(4)
    if op == 0:
        return logic.Not(random_expr(rng, names, depth - 1))
    cls = (logic.And, logic.Or, logic.Xor)[op - 1]
    return cls(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))


def all_assignments(names):
    """Every 0/1 environment over the given names, in binary-count order."""
    n = len(names)
    for code in range(1 << n):
        yield {name: (code >> (n - 1 - i)) & 1 for i, name in enumerate(names)}


# ---------------------------------------------------------------------------
# The Boolean front end as it was before the one-scan parsers: one `re.match`
# per token, and recursive descent for expressions.  The differential tests
# hold `logic.parse_expr` and `gf2.parse_poly` to the same trees,
# polynomials, error messages and lines.

_REF_EXPR_TOKEN = re.compile(rf"\s*(?:({IDENT})|([01])|([!&|^()]))")
_REF_POLY_TOKEN = re.compile(rf"\s*(?:({IDENT})|([01])|([+*]))")
_REF_KINDS = ("ident", "const", "op")


def _ref_tokenize(text, line, pattern, noun):
    """(kind, value, column) triples; kind is ident/const/op."""
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
        out.append((_REF_KINDS[group - 1], m.group(group), m.start(group)))
        pos = m.end()
    return out


class _RefParser:
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

    def parse(self):
        expr, _ = self.or_expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok[1]!r} at column {tok[2] + 1}", self.line)
        return expr

    def _check_depth(self, depth):
        if depth > logic.MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {logic.MAX_DEPTH} levels",
                             self.line)
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
        return self._chain("|", logic.Or, self.xor_expr)

    def xor_expr(self):
        return self._chain("^", logic.Xor, self.and_expr)

    def and_expr(self):
        return self._chain("&", logic.And, self.unary)

    def unary(self):
        nots = 0
        while self._at_op("!"):
            self.take()
            nots += 1
        expr, height = self.atom()
        for _ in range(nots):
            expr = logic.Not(expr)
        return expr, self._check_depth(height + nots)

    def atom(self):
        kind, value, col = self.take()
        if kind == "ident":
            return logic.Var(value), 0
        if kind == "const":
            return logic.Const(int(value)), 0
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


def ref_parse_expr(text, line=None):
    """`logic.parse_expr(text, line)` by tokens and recursive descent."""
    tokens = _ref_tokenize(text, line, _REF_EXPR_TOKEN, "expression")
    if not tokens:
        raise ParseError("empty expression", line)
    return _RefParser(tokens, line).parse()


def ref_parse_poly(text, vars, line=None):
    """`gf2.parse_poly(text, vars, line)` by the token loop with a closing
    '+' appended."""
    tokens = _ref_tokenize(text, line, _REF_POLY_TOKEN, "polynomial")
    if not tokens:
        raise ParseError("empty polynomial", line)
    monomials = set()
    mask, annihilated, want_factor = 0, False, True
    for kind, value, _ in tokens + [("op", "+", len(text))]:
        if kind == "op":
            if want_factor:
                raise ParseError("dangling operator in polynomial", line)
            want_factor = True
            if value == "+":
                if not annihilated:
                    monomials ^= {mask}
                mask, annihilated = 0, False
        elif not want_factor:
            raise ParseError("missing '+' or '*' between terms", line)
        else:
            want_factor = False
            if kind == "ident":
                if value not in vars:
                    raise ParseError(f"unknown identifier '{value}'", line)
                mask |= 1 << vars.index(value)
            elif value == "0":
                annihilated = True
    return BoolPoly(vars, monomials)


def parse_outcome(parse, *args):
    """What parse(*args) gives: ("ok", result) or ("error", message, line)."""
    try:
        return ("ok", parse(*args))
    except ParseError as exc:
        return ("error", str(exc), exc.line)


# ---------------------------------------------------------------------------
# GF(2) polynomials and systems


def random_mask(rng, n, max_degree=3):
    degree = rng.randint(0, min(max_degree, n))
    mask = 0
    for i in rng.sample(range(n), degree):
        mask |= 1 << i
    return mask


def random_bool_poly(rng, vars, max_terms=6, max_degree=3):
    n = len(vars)
    terms = {random_mask(rng, n, max_degree) for _ in range(rng.randint(0, max_terms))}
    return BoolPoly(vars, terms)


def random_system(rng, max_vars=10):
    """Random polynomial system small enough to solve by enumeration."""
    n = rng.randint(1, max_vars)
    vars = VarSet(f"x{i + 1}" for i in range(n))
    count = rng.randint(1, n + 2)
    gens = [random_bool_poly(rng, vars) for _ in range(count)]
    return PolySystem(vars, gens)


def planted_system(rng, n):
    """n quadratic equations of 3..8 terms in n unknowns, all vanishing at
    one random point, so the system has at least one solution."""
    vars = VarSet(f"x{i + 1}" for i in range(n))
    linear = [1 << i for i in range(n)]
    quadratic = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    planted = rng.getrandbits(n)
    gens = []
    for _ in range(n):
        terms = rng.randint(3, 8)
        monos = set(rng.sample(quadratic, rng.randint(max(1, terms - n), terms - 1)))
        monos |= set(rng.sample(linear, terms - len(monos)))
        if sum(1 for m in monos if m & planted == m) % 2:
            monos.add(0)
        gens.append(BoolPoly(vars, monos))
    return PolySystem(vars, gens), planted


def fix_leading(system, prefix):
    """The system with its leading variables fixed to the 0/1 values in
    prefix, over the variables that remain, so that `ref_enumerate` can
    check one slice of a system too large to enumerate whole."""
    h = len(prefix)
    vars = VarSet(system.vars.names[h:])
    gens = []
    for g in system.generators:
        for i, b in enumerate(prefix):
            g = g.substitute_index(i, b)
        gens.append(BoolPoly(vars, [m >> h for m in g.monomials]))
    return PolySystem(vars, gens)


def ref_evaluate(p, values):
    """The value of a BoolPoly at a 0/1 point given by name: the parity of
    its monomials whose variables are all 1.  Every variable occurring in p
    must be set."""
    names = p.vars.names
    return sum(all(values[names[i]] & 1 for i in range(len(names)) if m >> i & 1)
               for m in p.monomials) % 2


def ref_enumerate(system):
    """`solve_boolean_system(system, method)` for every method, as the
    per-point loop before the truth tables did it: each generator evaluated
    at each of the 2^n points, bit i of sigma the value of variable i."""
    n = len(system.vars)
    return sorted(
        tuple((sigma >> i) & 1 for i in range(n)) for sigma in range(1 << n)
        if all(g.evaluate_mask(sigma) == 0 for g in system.generators)
    )


# ---------------------------------------------------------------------------
# Rational polynomials


def random_fraction(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_rat_poly(rng, var="x", max_degree=8, span=9):
    """Random nonzero univariate polynomial with rational coefficients."""
    degree = rng.randint(0, max_degree)
    coeffs = [random_fraction(rng, span) for _ in range(degree + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[-1] = Fraction(1)
    elif coeffs[-1] == 0:
        coeffs[-1] = Fraction(rng.choice([-1, 1]), rng.randint(1, span))
    return Poly(var, coeffs)


def poly_from_roots(var, roots_with_mult, lead=Fraction(1)):
    """Expanded product of (var - r)^m for the given (root, multiplicity) pairs."""
    x = Poly.x(var)
    p = Poly(var, [lead])
    for root, mult in roots_with_mult:
        p = p * (x - root) ** mult
    return p


def random_distinct_rationals(rng, count, span=6):
    pool = set()
    while len(pool) < count:
        pool.add(random_fraction(rng, span))
    return sorted(pool)


def integer_coeffs(p):
    """The coefficients of p as ints, lowest degree first; p must have
    integer coefficients (a content-cleared univariate polynomial)."""
    out = []
    for c in p.coeffs:
        if isinstance(c, Poly) or c.denominator != 1:
            raise ValueError("expected integer coefficients")
        out.append(c.numerator)
    return tuple(out)


# ---------------------------------------------------------------------------
# Euclid over the rationals and the primitive part of a nested polynomial,
# as `exactpoly` computed them before the integer remainder sequence and the
# sign-only eliminant.  The Sturm, squarefree and Yun tests hold `realroots`
# to the Fraction Euclid, and the eliminant tests hold `eliminate_M` to the
# primitive part of the resultant.


def ref_divrem(f, g):
    """Quotient and remainder for univariate polynomials over the rationals."""
    if not isinstance(g, Poly) or not isinstance(f, Poly) or f.var != g.var:
        raise ValueError("divrem needs two polynomials in the same variable")
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = g.degree
    rem = list(f.coeffs)
    quo = [Fraction(0)] * max(len(rem) - dg, 0)
    for k in range(len(rem) - dg - 1, -1, -1):
        top = rem[k + dg]
        if is_zero(top):
            continue
        c = quo[k] = top / g.lc
        for i, gc in enumerate(g.coeffs):
            rem[k + i] = rem[k + i] - c * gc
    return Poly(f.var, quo), Poly(f.var, rem[:dg])


def ref_pgcd(f, g):
    """Monic gcd; ref_pgcd(0, 0) is 0."""
    a, b = f, g
    while b:
        a, b = b, ref_divrem(a, b)[1]
    if not a:
        return a
    return a * (Fraction(1) / a.lc)


def ref_primitive_part(p):
    """p over its rational content, signed so that the innermost leading
    coefficient is positive."""
    c = rational_content(p)
    if c == 0:
        return p
    lead = p
    while isinstance(lead, Poly):
        lead = lead.lc
    return exact_div(p, c if lead > 0 else -c)


# ---------------------------------------------------------------------------
# Root refinement by the stage loop the refinement kernel replaced: one
# halving per sign, then three exact-root probes.  The differential tests
# hold the kernel to these boxes.


@lru_cache(maxsize=None)
def _ref_oracle(p):
    """q, the squarefree part of p as integers, and its Sturm chain."""
    q = squarefree_part(p)
    return integer_coeffs(q), [integer_coeffs(c) for c in sturm_chain(q)]


def _ref_sign(coeffs, n, d):
    v = homogeneous_value(coeffs, n, d)
    return (v > 0) - (v < 0)


def _ref_count(chain, a, b):
    def variations(x):
        signs = [s for s in (_ref_sign(c, x.numerator, x.denominator) for c in chain) if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))
    return variations(a) - variations(b)


def ref_narrow(p, box, width):
    """`refine_root_box(p, box, width)`, as the Fraction stage loop did it.

    (lo, hi] is halved over one denominator until it is no wider than
    width, each step decided by the sign of q at the midpoint, or by a
    Sturm count while lo is a root of q.  Then hi, the midpoint and the
    simplest rational of the box are tried as roots of q, in that order.
    """
    if box.is_exact:
        return box
    q, chain = _ref_oracle(p)
    a, b = box.lo, box.hi
    den = lcm(a.denominator, b.denominator)
    lo = a.numerator * (den // a.denominator)
    hi = b.numerator * (den // b.denominator)
    pn, pd = width.numerator, width.denominator
    s_lo = _ref_sign(q, lo, den)
    while (hi - lo) * pd > pn * den or s_lo == 0:
        mid = lo + hi
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        if s_lo:
            left = _ref_sign(q, mid, den) != s_lo
        else:
            left = _ref_count(chain, Fraction(lo, den), Fraction(mid, den)) == 1
        if left:
            hi = mid
        else:
            lo = mid
            if not s_lo:
                s_lo = _ref_sign(q, lo, den)
    a, b = Fraction(lo, den), Fraction(hi, den)
    probe = simplest_rational(a, b)
    for x in (b, (a + b) / 2) + ((probe,) if a < probe else ()):
        if homogeneous_value(q, x.numerator, x.denominator) == 0:
            return RootBox(x, x, box.multiplicity)
    return RootBox(a, b, box.multiplicity)


def on_new_kernel(box, oracle=None):
    """box as a new kernel started on its ends alone certifies it, over the
    given oracle or the one the box carries.  An exact box, which carries
    nothing, comes back unchanged."""
    if box.is_exact:
        return box
    oracle = oracle or box._cells.oracle
    return _Cells.between(oracle, box.lo, box.hi).box(0, box.multiplicity)


def assert_handover_repeats(p, box, bits=4, stages=8):
    """Narrowing an isolated box goes on in the shared kernel that certified
    it.  Check that this gives the stages, the box and the exact root that a
    new kernel started on the box alone gives, when the box is narrowed
    twice, narrowed again after `refine_root_box` has moved the kernel on,
    and refined first and then narrowed; each against the same box rebuilt
    without a kernel.  p is the polynomial the box was isolated for."""
    def run(start):
        seen = []

        def done(lo, hi, den):
            seen.append((Fraction(lo, den), Fraction(hi, den)))
            return len(seen) > stages

        end = narrow_until(start, bits, done)
        return seen, end, end.exact

    if box.is_exact:
        return
    assert box._cells is not None
    expected = run(on_new_kernel(box))
    assert run(box) == expected
    assert run(box) == expected
    for k in (0, 3, 40):
        width = (box.hi - box.lo) / 2 ** k
        refined = refine_root_box(p, box, width)
        assert refined == refine_root_box(p, on_new_kernel(box), width) \
            == ref_narrow(p, box, width)
        assert refined.is_exact or refined._cells is box._cells
        assert run(box) == expected
        assert run(refined) == run(on_new_kernel(refined))


def ref_residual(elim, box, target):
    """`lacmodel._refine_residual`: width/16 stages until |elim(mid)| < target."""
    coeffs = integer_coeffs(elim)
    while not box.is_exact:
        mid = box.representative()
        n, d = mid.numerator, mid.denominator
        if abs(Fraction(homogeneous_value(coeffs, n, d), d ** (len(coeffs) - 1))) < target:
            break
        box = ref_narrow(elim, box, (box.hi - box.lo) / 16)
    return box


def ref_fold_level(P, Q, W, box, precision):
    """`lacmodel._fold_level`: halve the A box until its certified L box,
    (P(a)/Q(b), P(b)/Q(a)], is no wider than precision/4."""
    def value(f, x):
        return Fraction(homogeneous_value(integer_coeffs(f), x.numerator, x.denominator),
                        x.denominator ** f.degree)

    while not box.is_exact:
        a, b = box.lo, box.hi
        if value(Q, a):
            lo, hi = value(P, a) / value(Q, b), value(P, b) / value(Q, a)
            if hi - lo <= precision / 4:
                slack = precision / 8
                return RootBox(simplest_rational(lo - min(slack, lo / 2), lo),
                               simplest_rational(hi, hi + slack))
        box = ref_narrow(W, box, (box.hi - box.lo) / 2)
    level = value(P, box.lo) / value(Q, box.lo)
    return RootBox(level, level)


# ---------------------------------------------------------------------------
# The steady-state curve and the recovery of M and R as they were computed
# in Fraction arithmetic.  The differential tests hold the integer versions
# in `lacmodel` to them.


def ref_lactose_curve(p):
    """`lacmodel._lactose_curve(p)` up to a common positive factor: the
    terms accumulated as Fractions and scaled by the least common
    denominator of all of them, trailing zeros dropped."""
    n, h = p.n, p.h
    g, s = p.gamma * p.delta, p.c0 + p.c
    P = [Fraction(0)] * (n + 3)
    Q = [Fraction(0)] * (n + 2)
    for k, c in ((1, g * h + p.v * p.c0), (2, g), (n + 1, g * h + p.v * s), (n + 2, g)):
        P[k] += c
    for k, c in ((0, p.c0 * h), (1, p.c0), (n, s * h), (n + 1, s)):
        Q[k] += c
    scale = lcm(*(c.denominator for c in P + Q))
    P, Q = ([c.numerator * (scale // c.denominator) for c in f] for f in (P, Q))
    while P and not P[-1]:
        P.pop()
    while Q and not Q[-1]:
        Q.pop()
    return tuple(P), tuple(Q)


def ref_recover_state(p, box):
    """`lacmodel._recover_state(p, box)`, with t = a**n and M and R in
    Fraction arithmetic at both ends of the A box."""
    a_lo, a_hi = box.lo, box.hi
    if not box.is_exact and a_lo < 0:
        a_lo = Fraction(0)

    def m_of(a):
        t = a ** p.n
        return (p.c0 + (p.c0 + p.c) * t) / (p.gamma * (1 + t))

    def r_of(a):
        return 1 / (1 + a ** p.n)

    return SteadyState(RootBox(a_lo, a_hi), RootBox(m_of(a_lo), m_of(a_hi)),
                       RootBox(r_of(a_hi), r_of(a_lo)), box.multiplicity)


# ---------------------------------------------------------------------------
# The region census by a Sturm chain at each probe level, which the sign
# changes along the fold sequence replaced.


def ref_census_regions(P, Q, critical):
    """`lacmodel._census_regions` by a Sturm chain at each probe: the steady
    states at a level L in a gap between the critical boxes are the distinct
    positive roots of P - L*Q."""
    p, q = Poly("A", P), Poly("A", Q)
    regions = []
    for i in range(len(critical) + 1):
        left = critical[i - 1] if i > 0 else None
        right = critical[i] if i < len(critical) else None
        a = Fraction(0) if left is None else left.hi
        b = a + 2 if right is None else right.lo
        probe = simplest_rational(a + (b - a) / 4, b - (b - a) / 4) if a < b else a
        if probe <= 0 or any(c.contains(probe) for c in critical):
            raise ValueError("critical values are closer than the working "
                             "precision; retry with a smaller precision")
        regions.append(Region(Fraction(0) if left is None else left.representative(),
                              None if right is None else right.representative(),
                              count_real_roots(p - probe * q, Fraction(0))))
    return regions


# ---------------------------------------------------------------------------
# The GF(2) Buchberger engine before its key table, reducer list and cached
# leads: each key from the bit loop, both reducer lists rebuilt for every
# normal form and both leads recomputed for every S-polynomial.  The
# differential tests hold the engine to its reduced bases.


def ref_key(order):
    """The order's key function, by the bit loop over each mask; variable 0
    is the most significant bit of the lex word."""
    n = order.n

    @lru_cache(maxsize=None)
    def key(mask):
        lexint = 0
        for i in range(n):
            if mask >> i & 1:
                lexint |= 1 << (n - 1 - i)
        if order.kind == "lex":
            return lexint
        rest, rev = ((1 << n) - 1) ^ lexint, 0
        for _ in range(n):
            rev, rest = (rev << 1) | (rest & 1), rest >> 1
        return (mask.bit_count() << n) | rev

    return key


def rename(mask, priority):
    """mask with variable priority[pos] renamed to variable pos.  An order
    that ranks the variables by priority is the declaration order on the
    renamed masks."""
    return sum(1 << pos for pos, var in enumerate(priority) if mask >> var & 1)


def _ref_reduce(p, basis, leads, key):
    gens = list(zip(leads, (g.monomials for g in basis)))
    if not gens or not p:
        return p
    remainder = []
    work = {key(m): m for m in p.monomials}
    while work:
        m = work.pop(max(work))
        for lm, terms in gens:
            if lm & ~m == 0:
                cof = m & ~lm
                for t in terms:
                    mm = cof | t
                    if mm == m:
                        continue
                    k = key(mm)
                    if k in work:
                        del work[k]
                    else:
                        work[k] = mm
                break
        else:
            remainder.append(m)
    return BoolPoly(p.vars, remainder)


def ref_buchberger(system, order):
    """The reduced basis of `buchberger_reduced(system, order)`, as a tuple,
    and the number of reductions it took: the same pairs, criteria and pair
    order, on BoolPolys."""
    key = ref_key(order)
    lead = lambda g: max(g.monomials, key=key)  # noqa: E731
    vars = system.vars
    polys, lms, active, pairs = [], [], [], []
    reductions = 0

    def add(h):
        nonlocal pairs
        k = len(polys)
        lh = lead(h)
        polys.append(h)
        lms.append(lh)
        kept = [
            (sk, a, b, i, j) for sk, a, b, i, j in pairs
            if lh & ~a or ((lh | b) == a if b else lms[i] | lh == a or lms[j] | lh == a)
        ]
        lcms = {}
        for i in active:
            if lms[i] & lh:
                lcms[lms[i] | lh] = i
        for lcm, i in lcms.items():
            if not any(m & ~lcm == 0 and m != lcm for m in lcms):
                kept.append((key(lcm), lcm, 0, i, k))
        if lh & (lh - 1):
            for x in range(len(vars)):
                if lh >> x & 1:
                    kept.append((key(lh), lh, 1 << x, k, -1))
        heapq.heapify(kept)
        pairs = kept
        active[:] = [i for i in active if lh & ~lms[i]]
        active.append(k)

    def normal_form(p):
        nonlocal reductions
        reductions += 1
        return _ref_reduce(p, [polys[i] for i in active], [lms[i] for i in active], key)

    for f in system.generators:
        r = normal_form(f)
        if r.is_one:
            return (r,), reductions
        if r:
            add(r)
    while pairs:
        _, _, b, i, j = heapq.heappop(pairs)
        if b:
            s = polys[i] * BoolPoly(vars, (b,))
            if not s or s == polys[i]:
                continue
        else:
            f, g = polys[i], polys[j]
            lcm = lead(f) | lead(g)
            s = f * BoolPoly(vars, (lcm & ~lead(f),)) + g * BoolPoly(vars, (lcm & ~lead(g),))
        r = normal_form(s)
        if r.is_one:
            return (r,), reductions
        if r:
            add(r)
    active.sort(key=lambda i: key(lms[i]), reverse=True)
    basis = tuple(
        _ref_reduce(polys[i], [polys[j] for j in active if j != i],
                    [lms[j] for j in active if j != i], key)
        for i in active
    )
    return basis, reductions + len(active)


# ---------------------------------------------------------------------------
# Boolean network state graphs as they were read before lane-packed successor
# codes and the stamped walk: one string join per state, and a dict of path
# positions per walk.  The differential tests hold `state_graph` to them.


def encode_state(state):
    """The code of a state, its first variable the high bit: the inverse of
    `gf2.decode_state`."""
    code = 0
    for b in state:
        code = (code << 1) | (b & 1)
    return code


def ref_successors(net, params):
    """`net.state_graph(params).successors`, as a list: the rule tables read
    column by column spell out the successor codes."""
    size = 1 << len(net.vars)
    env = dict(zip(net.vars.names, variable_tables(len(net.vars))))
    env.update((p, ((1 << size) - 1) * v) for p, v in params.items())
    rule_tables = [logic.evaluate(rule, env, (1 << size) - 1) for rule in net.rules]
    columns = zip(*(format(t, f"0{size}b") for t in rule_tables))
    return [int("".join(column), 2) for column in columns]


def ref_attractors(succ):
    """The cycles of a functional graph, each from its smallest member and
    in order of discovery, and the index of each state's cycle."""
    n = len(succ)
    attr_id = [-1] * n
    attractors = []
    for start in range(n):
        if attr_id[start] != -1:
            continue
        path = []
        pos = {}
        cur = start
        while True:
            if attr_id[cur] != -1:
                aid = attr_id[cur]
                break
            if cur in pos:
                cycle = path[pos[cur] :]
                low = cycle.index(min(cycle))
                cycle = cycle[low:] + cycle[:low]
                aid = len(attractors)
                attractors.append(cycle)
                break
            pos[cur] = len(path)
            path.append(cur)
            cur = succ[cur]
        for c in path:
            attr_id[c] = aid
    return attractors, attr_id
