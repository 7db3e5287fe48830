"""Sturm chains, exact root counting and isolation with rational endpoints."""

import copy
import pickle
from fractions import Fraction

import pytest

from operon.exactpoly import Poly, clear_content, derivative, substitute
from operon import realroots
from operon.realroots import (
    MIN_PRECISION,
    RootBox,
    count_real_roots,
    decimal_str,
    isolate_real_roots,
    narrow_until,
    refine_root_box,
    simplest_rational,
    squarefree_part,
    sturm_chain,
)

from conftest import (
    _ref_count,
    _ref_oracle,
    assert_handover_repeats,
    integer_coeffs,
    on_new_kernel,
    poly_from_roots,
    random_distinct_rationals,
    random_rat_poly,
    ref_divrem,
    ref_narrow,
    ref_pgcd,
)

F = Fraction
X = Poly.x("x")


def ev(p, x):
    return substitute(p, p.var, F(x))


def oracle_of(p):
    return realroots._Oracle(integer_coeffs(clear_content(p)))


def oracle_factors(p):
    """The oracle's Yun factors of p, each made monic."""
    return [(Poly(p.var, f) * F(1, f[-1]), k) for f, k in oracle_of(p).factors]


# ---------------------------------------------------------------------------
# root boxes


def test_root_box_representation():
    box = RootBox(F(1, 3), F(1, 3))
    assert box.is_exact and box.exact == F(1, 3) and box.hi == box.lo
    assert box.representative() == F(1, 3)
    open_box = RootBox(F(1), F(2), multiplicity=2)
    assert not open_box.is_exact
    assert open_box.hi - open_box.lo == 1
    assert open_box.contains(F(3, 2)) and not open_box.contains(F(3))
    assert open_box.representative() == F(3, 2)
    assert open_box.multiplicity == 2


def test_root_box_validation():
    with pytest.raises(ValueError):
        RootBox(F(2), F(1))
    with pytest.raises(ValueError):
        RootBox(F(1), F(2), multiplicity=0)


def test_root_box_record():
    # a frozen record: what a frozen dataclass gave it, with the kernel
    # left out of equality, hashing and printing
    assert repr(RootBox(F(1, 3), F(1, 2), 2)) == \
        "RootBox(lo=Fraction(1, 3), hi=Fraction(1, 2), multiplicity=2)"
    assert RootBox(lo=F(1), hi=F(2), multiplicity=2) == RootBox(F(1), F(2), 2)
    assert RootBox(F(1), F(2)) != RootBox(F(1), F(2), 2) != RootBox(F(1), F(3), 2)
    assert (RootBox(F(1), F(2)) == (F(1), F(2), 1)) is False
    carried = isolate_real_roots((X**2 - 2) * (X - 5))[0]
    bare = RootBox(carried.lo, carried.hi, carried.multiplicity)
    assert carried._cells is not None and bare._cells is None
    assert bare == carried and hash(bare) == hash(carried) == hash((bare.lo, bare.hi, 1))
    assert repr(bare) == repr(carried) and str(bare) == str(carried)
    for name in ("lo", "hi", "multiplicity", "_cells", "_depth", "other"):
        with pytest.raises(AttributeError):
            setattr(carried, name, None)
        with pytest.raises(AttributeError):
            delattr(carried, name)


def test_isolated_boxes_pickle_and_copy():
    p = (X**2 - 2) * (X - 5) ** 2
    boxes = isolate_real_roots(p)
    for clone in (pickle.loads(pickle.dumps(boxes)), copy.deepcopy(boxes)):
        assert clone == boxes and repr(clone) == repr(boxes)
        assert [b.multiplicity for b in clone] == [1, 1, 2]
        assert [refine_root_box(p, b, F(1, 10**9)) for b in clone] == \
            [refine_root_box(p, b, F(1, 10**9)) for b in boxes]


def test_copied_boxes_carry_no_kernel():
    box = isolate_real_roots(X**2 - 2)[0]
    for clone in (pickle.loads(pickle.dumps(box)), copy.deepcopy(box), box.replace()):
        assert clone == box and clone._cells is None
        with pytest.raises(ValueError, match="no oracle"):
            narrow_until(clone, 1, lambda lo, hi, den: False)
        # refining builds a new kernel, which certifies the same cells
        assert refine_root_box(X**2 - 2, clone, F(1, 10**9)) == \
            refine_root_box(X**2 - 2, box, F(1, 10**9))


# ---------------------------------------------------------------------------
# squarefree machinery


def test_squarefree_part_drops_multiplicity():
    p = (X - 1) ** 3 * (X + 2)
    q = squarefree_part(p)
    assert ref_divrem(q, (X - 1) * (X + 2))[1] == 0
    assert q.degree == 2


def test_yun_factors_reconstruct(rng):
    for _ in range(15):
        roots = random_distinct_rationals(rng, rng.randint(1, 3))
        pairs = [(r, rng.randint(1, 3)) for r in roots]
        p = poly_from_roots("x", pairs, lead=F(rng.randint(1, 5)))
        factors = oracle_factors(p)
        rebuilt = Poly("x", [F(1)])
        for f, k in factors:
            rebuilt = rebuilt * f**k
            # factors are squarefree and monic
            assert f.lc == 1
            assert ref_pgcd(f, derivative(f)).degree == 0
        assert rebuilt * p.lc == p
        # pairwise coprime
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                assert ref_pgcd(factors[i][0], factors[j][0]).degree == 0
        # exponents match the planted multiplicities
        planted = sorted(k for _, k in pairs)
        recovered = sorted(
            k for f, k in factors for _ in range(f.degree)
        )
        assert recovered == planted


def test_sturm_chain_shape():
    chain = sturm_chain(X**2 - 2)
    assert chain[0] == X**2 - 2
    assert chain[-1].degree == 0
    assert len(chain) == 3


# ---------------------------------------------------------------------------
# counting


def test_count_golden_quadratics():
    assert count_real_roots(X**2 - 2) == 2
    assert count_real_roots(X**2 + 1) == 0
    assert count_real_roots(X**2) == 1  # distinct roots, not multiplicity


def test_count_respects_half_open_interval():
    p = X**2 - 1  # roots at -1 and 1
    assert count_real_roots(p, F(-1), F(1)) == 1  # -1 excluded, 1 included
    assert count_real_roots(p, F(-2), F(1)) == 2
    assert count_real_roots(p, F(-1), F(0)) == 0
    assert count_real_roots(p, F(1), F(5)) == 0
    assert count_real_roots(p, F(0), None) == 1
    assert count_real_roots(p, None, F(-1)) == 1


def test_count_empty_or_degenerate_interval():
    assert count_real_roots(X**2 - 1, F(3), F(3)) == 0
    assert count_real_roots(X**2 - 1, F(5), F(2)) == 0
    assert count_real_roots(Poly("x", [F(4)])) == 0


def test_count_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        count_real_roots(Poly("x"))


def test_count_ignores_multiplicity(rng):
    for _ in range(10):
        roots = random_distinct_rationals(rng, 3)
        p = poly_from_roots("x", [(roots[0], 2), (roots[1], 1), (roots[2], 3)])
        assert count_real_roots(p) == 3


def test_count_rejects_multivariate():
    p = Poly("A", [Poly.x("L"), F(1)])
    with pytest.raises(ValueError, match="rational coefficients"):
        count_real_roots(p)


# ---------------------------------------------------------------------------
# the simplest rational in an interval


def brute_simplest(a, b, max_den=200):
    for q in range(1, max_den + 1):
        k_lo = -((-a.numerator * q) // a.denominator)  # ceil(a*q)
        k_hi = (b.numerator * q) // b.denominator  # floor(b*q)
        if k_lo <= k_hi:
            # prefer the candidate closest to zero, matching minimality rules
            best = min(range(k_lo, k_hi + 1), key=lambda k: (abs(F(k, q)), k < 0))
            return F(best, q)
    raise AssertionError("no rational found")


def test_simplest_rational_golden():
    assert simplest_rational(F(21, 100), F(24, 100)) == F(2, 9)
    assert simplest_rational(F(-1, 2), F(1, 3)) == 0
    assert simplest_rational(F(5, 2), F(7, 2)) == 3
    assert simplest_rational(F(1, 3), F(1, 3)) == F(1, 3)


def test_simplest_rational_minimal_denominator(rng):
    for _ in range(60):
        a = F(rng.randint(-400, 400), rng.randint(1, 60))
        width = F(1, rng.randint(1, 150))
        b = a + width
        r = simplest_rational(a, b)
        assert a <= r <= b
        # nothing with a smaller denominator lies in [a, b]
        for q in range(1, r.denominator):
            k_lo = -((-a.numerator * q) // a.denominator)
            k_hi = (b.numerator * q) // b.denominator
            assert k_lo > k_hi, (a, b, r, q)


def test_simplest_rational_rejects_empty():
    with pytest.raises(ValueError):
        simplest_rational(F(1), F(0))


# ---------------------------------------------------------------------------
# isolation


def test_isolate_sqrt2():
    boxes = isolate_real_roots(X**2 - 2)
    assert len(boxes) == 2
    neg, pos = boxes
    assert neg.hi < 0 < pos.lo
    for box in boxes:
        assert not box.is_exact
        assert box.hi - box.lo <= F(1, 10**6)
        assert ev(X**2 - 2, box.lo) * ev(X**2 - 2, box.hi) < 0
    assert pos.contains(F(14142135, 10**7)) or pos.lo > F(14142135, 10**7)
    assert boxes == sorted(boxes, key=lambda b: b.lo)


def test_isolate_detects_exact_rational_roots():
    p = (X - F(1, 3)) * (X**2 - 2)
    boxes = isolate_real_roots(p)
    assert len(boxes) == 3
    exact = [b for b in boxes if b.is_exact]
    assert len(exact) == 1 and exact[0].exact == F(1, 3)


def test_isolate_reports_multiplicities():
    p = (X - 1) ** 2 * (X + 2) * (X - F(1, 3)) ** 3
    boxes = isolate_real_roots(p)
    assert [(b.exact, b.multiplicity) for b in boxes] == [
        (F(-2), 1),
        (F(1, 3), 3),
        (F(1), 2),
    ]


def test_isolate_irrational_with_multiplicity():
    p = (X**2 - 2) ** 2 * (X - 5)
    boxes = isolate_real_roots(p)
    assert [b.multiplicity for b in boxes] == [2, 2, 1]
    assert [b.is_exact for b in boxes] == [False, False, True]


def test_isolate_positive_region():
    boxes = isolate_real_roots(X**3 - 4 * X, region="positive")
    # roots are -2, 0, 2; only the strictly positive one is reported
    assert len(boxes) == 1
    assert boxes[0].exact == 2


def test_isolate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        isolate_real_roots(Poly("x"))
    with pytest.raises(ValueError, match="region"):
        isolate_real_roots(X, region="negative")
    with pytest.raises(ValueError):
        isolate_real_roots(X, precision=F(0))
    assert isolate_real_roots(Poly("x", [F(3)])) == []


def test_isolation_matches_sturm_count(rng):
    for _ in range(60):
        p = random_rat_poly(rng, max_degree=8)
        if p.degree < 1:
            continue
        boxes = isolate_real_roots(p)
        assert len(boxes) == count_real_roots(p)
        q = squarefree_part(p)
        for box in boxes:
            if box.is_exact:
                assert ev(p, box.exact) == 0
            else:
                assert ev(q, box.lo) * ev(q, box.hi) < 0
        for left, right in zip(boxes, boxes[1:]):
            assert left.hi <= right.lo


def test_isolate_planted_rational_roots(rng):
    for _ in range(25):
        roots = random_distinct_rationals(rng, rng.randint(1, 4))
        pairs = [(r, rng.randint(1, 3)) for r in roots]
        p = poly_from_roots("x", pairs, lead=F(rng.choice([-3, -1, 1, 2])))
        boxes = isolate_real_roots(p)
        assert [b.exact for b in boxes] == sorted(r for r, _ in pairs)
        assert {b.exact: b.multiplicity for b in boxes} == dict(pairs)


def test_cauchy_bound_contains_roots(rng):
    for _ in range(20):
        roots = random_distinct_rationals(rng, rng.randint(1, 4))
        p = poly_from_roots("x", [(r, 1) for r in roots], lead=F(rng.randint(1, 7)))
        if p.degree < 1:
            continue
        bound = realroots._root_bound(p.coeffs)
        # p is squarefree, and the oracle bisects within the same bound
        assert oracle_of(p).bound == bound
        assert all(abs(r) < bound for r in roots)


# ---------------------------------------------------------------------------
# refinement


def test_refine_root_box_narrows():
    boxes = isolate_real_roots(X**2 - 2, precision=F(1, 4))
    pos = boxes[-1]
    tight = refine_root_box(X**2 - 2, pos, F(1, 10**12))
    assert tight.hi - tight.lo <= F(1, 10**12)
    assert pos.lo <= tight.lo and tight.hi <= pos.hi
    assert ev(X**2 - 2, tight.lo) * ev(X**2 - 2, tight.hi) < 0
    assert tight.multiplicity == pos.multiplicity


def test_refine_preserves_exact_boxes():
    box = RootBox(F(2), F(2))
    assert refine_root_box(X**2 - 4, box, F(1, 100)) is box


def test_refine_can_discover_exactness():
    # a wide box around a rational root collapses once the probe finds it
    box = RootBox(F(0), F(3))
    refined = refine_root_box(X - 2, box, F(1, 1000))
    assert refined.is_exact and refined.exact == 2
    # the midpoint probe names a root that the simplest rational (0) misses
    half = refine_root_box(2 * X - 1, RootBox(F(0), F(1)), F(1))
    assert half.exact == F(1, 2)


def test_refine_refuses_a_new_box_without_one_root():
    # a box that carries no kernel for p starts a new one, which needs the
    # box to hold exactly one root of p
    for p, box, roots in [(Poly("x", [F(5)]), RootBox(F(0), F(2)), 0),
                          (X**2 - 2, RootBox(F(3), F(4)), 0),
                          (X**2 - 2, RootBox(F(-2), F(2)), 2)]:
        with pytest.raises(ValueError, match=f"holds {roots} roots of the polynomial, not one"):
            refine_root_box(p, box, F(1, 100))
    with pytest.raises(ValueError, match="nonzero polynomial"):
        refine_root_box(Poly("x"), RootBox(F(0), F(2)), F(1, 100))
    # so is a box isolated for another polynomial
    with pytest.raises(ValueError, match="holds 0 roots"):
        refine_root_box(X**2 - 2, isolate_real_roots(X**2 - 3)[-1], F(1, 100))
    # a root at hi is inside the half-open box, one at lo is not
    assert refine_root_box(X - 2, RootBox(F(1), F(2)), F(1, 100)).exact == 2
    with pytest.raises(ValueError, match="holds 0 roots"):
        refine_root_box(X - 2, RootBox(F(2), F(3)), F(1, 100))


@pytest.mark.parametrize("entry", [
    squarefree_part, sturm_chain, count_real_roots, isolate_real_roots,
    lambda p: refine_root_box(p, RootBox(F(0), F(2)), F(1, 100)),
], ids=["squarefree_part", "sturm_chain", "count_real_roots", "isolate_real_roots",
        "refine_root_box"])
def test_every_entry_checks_its_polynomial(entry):
    with pytest.raises(TypeError, match="expected a polynomial"):
        entry((F(1), F(2)))
    with pytest.raises(ValueError, match="rational coefficients"):
        entry(Poly("A", [Poly.x("L"), F(1)]))
    with pytest.raises(ValueError, match="real-root routines need a nonzero polynomial"):
        entry(Poly("x"))
    # a constant polynomial in another variable is a rational coefficient
    # too, however deep it is nested
    with pytest.raises(ValueError, match="rational coefficients"):
        entry(Poly("x", [Poly("y", [Poly.x("z")]), F(1)]))


@pytest.mark.parametrize("entry", [
    squarefree_part, sturm_chain, count_real_roots, isolate_real_roots,
    lambda p: refine_root_box(p, RootBox(F(1), F(2)), F(1, 100)),
    lambda p: refine_root_box(p, isolate_real_roots(X**2 - 2)[0], F(1, 10**9)),
], ids=["squarefree_part", "sturm_chain", "count_real_roots", "isolate_real_roots",
        "refine_root_box", "refine_isolated_box"])
def test_every_entry_reads_a_constant_coefficient(entry):
    # arithmetic can leave a constant Poly as a coefficient; the polynomial
    # equals x^2 - 2 and every entry treats it so
    y = Poly.x("y")
    p = (X * X + y) - (y + 2)
    assert p == X**2 - 2 and p.coeffs[0] == Poly("y", [F(-2)])
    assert entry(p) == entry(X**2 - 2)
    nested = Poly("x", [Poly("y", [Poly("z", [F(-2)])]), F(0), F(1)])
    assert entry(nested) == entry(X**2 - 2)


def test_precision_floor():
    isolate_real_roots(X**2 - 2, precision=MIN_PRECISION)
    for bad in (MIN_PRECISION / 2, F(0), F(-1)):
        with pytest.raises(ValueError, match="at least 1e-300"):
            isolate_real_roots(X**2 - 2, precision=bad)
        with pytest.raises(ValueError, match="at least 1e-300"):
            refine_root_box(X**2 - 2, RootBox(F(1), F(2)), bad)


# ---------------------------------------------------------------------------
# the integer engine against the Fraction-based Sturm bisection it replaced


def ref_variations(chain, x):
    signs = [s for s in (ev(c, x) for c in chain) if s != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if (u < 0) != (v < 0))


def ref_count(chain, a, b):
    return ref_variations(chain, a) - ref_variations(chain, b)


def ref_simplest(a, b):
    if a <= 0 <= b:
        return F(0)
    if b < 0:
        return -ref_simplest(-b, -a)
    floor_a = a.numerator // a.denominator
    if a == floor_a:
        return F(floor_a)
    if floor_a + 1 <= b:
        return F(floor_a + 1)
    return floor_a + 1 / ref_simplest(1 / (b - floor_a), 1 / (a - floor_a))


def ref_refine(q, chain, a, b, precision):
    while b - a > precision or ev(q, a) == 0:
        mid = (a + b) / 2
        if ref_count(chain, a, mid) == 1:
            b = mid
        else:
            a = mid
    for x in (b, (a + b) / 2, ref_simplest(a, b)):
        if a < x <= b and ev(q, x) == 0:
            return x, x
    return a, b


def ref_isolate(p, region, precision):
    q = ref_squarefree(p)
    chain = ref_chain(q)
    bound = realroots._root_bound(q.coeffs)
    stack = [(F(0) if region == "positive" else -bound, bound)]
    boxes = []
    while stack:
        a, b = stack.pop()
        n = ref_count(chain, a, b)
        if n == 1:
            boxes.append(ref_refine(q, chain, a, b, precision))
        elif n > 1:
            mid = (a + b) / 2
            stack += [(mid, b), (a, mid)]
    out = []
    for a, b in sorted(boxes):
        for f, k in ref_yun(p):
            if (ev(f, a) == 0 if a == b
                    else ref_count(ref_chain(f), a, b) == 1):
                out.append((a, b, k))
    return out


def planted_poly(rng):
    """Repeated rational roots (0 and k/2^j among them) times x^2 - c."""
    roots = {F(0), F(rng.randint(-7, 7), 2 ** rng.randint(0, 4))}
    roots |= set(random_distinct_rationals(rng, rng.randint(0, 2)))
    p = poly_from_roots("x", [(r, rng.randint(1, 3)) for r in sorted(roots)],
                        lead=F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)))
    if rng.random() < 0.7:
        p = p * (X**2 - rng.choice([2, 3, F(1, 5), F(9, 4)]))
    return p


def test_isolation_matches_fraction_reference(rng):
    for _ in range(40):
        p = planted_poly(rng) if rng.random() < 0.6 else random_rat_poly(rng)
        if p.degree < 1:
            continue
        for region in ("all", "positive"):
            precision = F(1, rng.choice([4, 1000, 10**6]))
            boxes = isolate_real_roots(p, region=region, precision=precision)
            assert [(b.lo, b.hi, b.multiplicity) for b in boxes] == \
                ref_isolate(p, region, precision)
            q = ref_squarefree(p)
            chain = ref_chain(q)
            for box in boxes:
                # narrow in steps of 16, as the residual loop does
                for _ in range(4):
                    if box.is_exact:
                        break
                    precision = (box.hi - box.lo) / 16
                    expected = ref_refine(q, chain, box.lo, box.hi, precision)
                    box = refine_root_box(p, box, precision)
                    assert (box.lo, box.hi) == expected


def ref_squarefree(p):
    """The squarefree part by the Fraction Euclid (`ref_pgcd`, `ref_divrem`)."""
    g = ref_pgcd(p, derivative(p))
    return clear_content(ref_divrem(p, g)[0] if g.degree > 0 else p)


def ref_chain(p):
    """The Sturm chain by Fraction division."""
    chain = [clear_content(p), clear_content(derivative(p))]
    while chain[-1].degree > 0:
        rem = ref_divrem(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(clear_content(-rem))
    return chain


def test_integer_kernels_match_fraction_arithmetic(rng):
    for _ in range(150):
        p = planted_poly(rng) if rng.random() < 0.5 else random_rat_poly(rng, max_degree=10)
        if p.degree < 1:
            continue
        assert squarefree_part(p) == ref_squarefree(p)
        assert sturm_chain(p) == ref_chain(p)
        assert sturm_chain(squarefree_part(p)) == ref_chain(ref_squarefree(p))


def ref_yun(p):
    """Yun's squarefree decomposition (Yun 1976) in Fraction arithmetic."""
    d = ref_pgcd(p, derivative(p))
    if d.degree == 0:
        return [(p * (F(1) / p.lc), 1)]
    b = ref_divrem(p, d)[0]
    w = ref_divrem(derivative(p), d)[0] - derivative(b)
    out = []
    k = 1
    while b.degree > 0:
        a = ref_pgcd(b, w)
        if a.degree > 0:
            out.append((a, k))
            b = ref_divrem(b, a)[0]
            w = ref_divrem(w, a)[0]
        w = w - derivative(b)
        k += 1
    return out


def test_yun_matches_fraction_reference(rng):
    # every factor with the same multiplicity drives Yun's w to zero, and
    # the next gcd is gcd(b, 0) = b
    cases = [(X - 1) ** 3 * (X + 2) ** 3, (X**2 - 2) ** 2 * (X - F(1, 3)) ** 2,
             (X - 1) * (X**2 - 3) ** 4, -(X**2 + 1) ** 5 * X**5]
    for _ in range(60):
        roots = random_distinct_rationals(rng, rng.randint(1, 4))
        p = poly_from_roots("x", [(r, rng.randint(1, 5)) for r in roots],
                            lead=F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)))
        if rng.random() < 0.5:
            p = p * (X**2 - rng.choice([2, 3, F(1, 5)])) ** rng.randint(1, 5)
        cases.append(p)
    for p in cases:
        assert oracle_factors(p) == ref_yun(p)
        # the multiplicities come from the oracle's own integer Yun
        boxes = isolate_real_roots(p, precision=F(1, 1000))
        assert [(b.lo, b.hi, b.multiplicity) for b in boxes] == \
            ref_isolate(p, "all", F(1, 1000))


def test_left_endpoint_on_a_root_falls_back_to_sturm():
    # region "positive" starts bisecting at 0, a root of p
    p = X * (X - F(1, 3)) * (X**2 - 2)
    boxes = isolate_real_roots(p, region="positive", precision=F(1, 10**6))
    assert [(b.lo, b.hi, b.multiplicity) for b in boxes] == \
        ref_isolate(p, "positive", F(1, 10**6))
    assert boxes[0].exact == F(1, 3)


# ---------------------------------------------------------------------------
# the refinement kernel against the stage loop it replaced (conftest.ref_narrow)


def assert_stages_match(p, box, bits, count):
    """count stages of narrow_until from box, against ref_narrow stage by stage."""
    seen = []

    def done(lo, hi, den):
        seen.append(RootBox(F(lo, den), F(hi, den), box.multiplicity))
        return len(seen) > count

    got = narrow_until(on_new_kernel(box, oracle_of(p)), bits, done)
    expected = [box]
    while len(expected) <= count and not expected[-1].is_exact:
        last = expected[-1]
        expected.append(ref_narrow(p, last, (last.hi - last.lo) / 2**bits))
    assert seen + ([got] if got.is_exact else []) == expected
    assert got == expected[-1]
    return got, len(expected) - 1


def test_long_refinements_match_the_halving_loop(rng):
    # forty stages of 16 drive the secant steps hundreds of bits deep
    for _ in range(50):
        p = planted_poly(rng) if rng.random() < 0.5 else random_rat_poly(rng)
        if p.degree < 1:
            continue
        for box in isolate_real_roots(p, precision=F(1, rng.choice([4, 1000]))):
            assert_stages_match(p, box, rng.choice([1, 4]), 40)
            width = (box.hi - box.lo) / 2 ** rng.randint(0, 300)
            assert refine_root_box(p, box, width) == ref_narrow(p, box, width)


def test_planted_rational_root_is_named_at_the_stage_a_probe_hits_it():
    # the stage-1 cells of (0, 1] are (j/16, (j + 1)/16]
    planted = {
        F(5, 16): 1,  # the right end of its cell
        F(9, 32): 1,  # the midpoint of (1/4, 5/16]
        F(1, 3): 1,  # the simplest rational of (5/16, 3/8]
        # in (1/4, 5/16], whose simplest rational 1/4 is its open end, so no
        # probe names it before the simplest rational of (69/256, 70/256]
        F(3, 11): 2,
    }
    for root, stage in planted.items():
        # |lc(q)| is small with X^2 - 2, so a stage-1 cell holds at most one
        # candidate k/|lc(q)|; with the second factor the kernel certifies a
        # cell far narrower than the stage before it can name the candidate
        for other in (X**2 - 2, 1000 * X**2 - 2001):
            p = (root.denominator * X - root.numerator) * other
            got, stages = assert_stages_match(p, RootBox(F(0), F(1)), 4, 5)
            assert (got.exact, stages) == (root, stage)
            assert refine_root_box(p, RootBox(F(0), F(1)), F(1, 16 ** stage)).exact == root
            if stage > 1:
                assert not refine_root_box(p, RootBox(F(0), F(1)), F(1, 16)).is_exact


def test_boxes_starting_at_a_root_match_the_sturm_path(rng):
    # (r, b] with r a root of q: halving goes on until lo has left r
    cases = [(X * (X**2 - 2), RootBox(F(0), F(2)))]
    for _ in range(30):
        roots = random_distinct_rationals(rng, rng.randint(1, 3))
        p = poly_from_roots("x", [(r, rng.randint(1, 2)) for r in roots])
        p = p * (X**2 - rng.choice([2, 3, F(1, 5), F(9, 4)]))
        boxes = isolate_real_roots(p, precision=F(1, rng.choice([4, 1000])))
        for left, right in zip(boxes, boxes[1:]):
            if left.is_exact:
                cases.append((p, RootBox(left.lo, right.hi, right.multiplicity)))
    for p, box in cases:
        for bits in (1, 4):
            assert_stages_match(p, box, bits, 12)
        for k in (0, 1, 5, 60):
            width = (box.hi - box.lo) / 2**k
            assert refine_root_box(p, box, width) == ref_narrow(p, box, width)


def test_handing_the_cell_over_repeats(rng):
    # an isolated box goes on in the kernel that certified it, however
    # often and in whatever order it is narrowed
    for _ in range(30):
        p = planted_poly(rng) if rng.random() < 0.7 else random_rat_poly(rng)
        if p.degree < 1:
            continue
        for box in isolate_real_roots(p, precision=F(1, rng.choice([4, 1000, 10**6]))):
            assert_handover_repeats(p, box, rng.choice([1, 4]))


def test_isolation_keeps_no_memo():
    # the variations at each end travel with the interval on the stack
    oracle = realroots._Oracle(integer_coeffs((X**2 - 2) * (X - 5) * (3 * X + 1)))
    assert len(oracle.isolate(F(1, 10**6))) == 4
    assert not any(isinstance(v, dict) for v in vars(oracle).values())


def test_variations_at_the_ends_read_off_the_chain(rng):
    # no root lies outside (-B, B), so the variations at +-B are those at
    # +-infinity, read off the leading terms, and at 0 they are the constant
    # terms' signs: each equals the chain evaluated there, on squarefree and
    # repeated factors and on polynomials vanishing at 0
    vanishing = 0
    for trial in range(400):
        p = random_rat_poly(rng, max_degree=6)
        if trial % 3 == 0:
            p = p * random_rat_poly(rng, max_degree=3) ** 2
        if trial % 4 == 1:
            p = p * X ** rng.randint(1, 2)
        oracle = oracle_of(p)
        b = oracle.bound
        vanishing += oracle.coeffs[0] == 0
        assert oracle.above == oracle.variations(b.numerator, b.denominator)
        assert oracle.below == oracle.variations(-b.numerator, b.denominator)
        assert oracle.at_zero == oracle.variations(0, 1)
        _, chain = _ref_oracle(p)
        assert oracle.count() == _ref_count(chain, -b, b)
        assert oracle.count(0) == _ref_count(chain, F(0), b)
        assert oracle.count(None, 0) == _ref_count(chain, -b, F(0))
        # isolation from the ends read off the chain, over both regions
        for positive, lo in ((False, -b), (True, F(0))):
            boxes = oracle.isolate(F(1, 64), positive)
            assert len(boxes) == _ref_count(chain, lo, b)
            for box in boxes:
                assert box.is_exact or _ref_count(chain, box.lo, box.hi) == 1
    assert vanishing > 50


def test_simplest_rational_matches_recursive(rng):
    for _ in range(2000):
        a = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        b = a + F(rng.randint(0, 1000), rng.randint(1, 10**rng.randint(0, 9)))
        assert simplest_rational(a, b) == ref_simplest(a, b)


def test_oracle_is_built_once_per_polynomial(monkeypatch):
    built = []
    original = realroots._Oracle.__init__
    monkeypatch.setattr(realroots._Oracle, "__init__",
                        lambda self, p: built.append(p) or original(self, p))
    p = (X**2 - 2) * (X - 5) * (X**2 - 3)
    boxes = isolate_real_roots(p)
    # a box reaches the oracle through its kernel; the exact box of 5
    # carries none
    assert [b.exact for b in boxes if b._cells is None] == [5]
    for box in boxes:
        for _ in range(10):
            box = refine_root_box(p, box, (box.hi - box.lo) / 16)
    assert len(built) == 1
    # an equal polynomial shares the oracle; another polynomial gets its own
    refine_root_box(p * 1, boxes[0], (boxes[0].hi - boxes[0].lo) / 16)
    assert len(built) == 1
    tight = refine_root_box(X**2 - 3, boxes[0], (boxes[0].hi - boxes[0].lo) / 16)
    assert len(built) == 2
    assert tight == RootBox(tight.lo, tight.hi)
    # a box made by hand carries no oracle to narrow on
    with pytest.raises(ValueError, match="no oracle"):
        narrow_until(RootBox(F(0), F(2)), 1, lambda lo, hi, den: False)


def test_root_counts_match_sympy(rng):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for _ in range(60):
        p = random_rat_poly(rng, max_degree=8) if rng.random() < 0.5 else planted_poly(rng)
        if p.degree < 1:
            continue
        sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                         for c in reversed(p.coeffs)], x)
        assert count_real_roots(p) == sp.count_roots()
        lo, hi = sorted(random_distinct_rationals(rng, 2))
        # sympy counts on the closed [lo, hi]; ours is (lo, hi]
        expected = sp.count_roots(lo, hi) - (1 if ev(p, lo) == 0 else 0)
        assert count_real_roots(p, lo, hi) == expected


# ---------------------------------------------------------------------------
# decimal rendering


def test_decimal_str_golden():
    assert decimal_str(F(1, 3)) == "0.33333"
    assert decimal_str(F(2, 3)) == "0.66667"
    assert decimal_str(F(-1, 3)) == "-0.33333"
    assert decimal_str(F(1, 4), 3) == "0.250"
    assert decimal_str(F(0), 5) == "0.00000"
    assert decimal_str(F(7), 2) == "7.00"


def test_decimal_str_rounds_half_even():
    assert decimal_str(F(1, 8), 2) == "0.12"
    assert decimal_str(F(3, 8), 2) == "0.38"
    assert decimal_str(F(5, 2), 0) == "2"
    assert decimal_str(F(7, 2), 0) == "4"


def ref_decimal_str(x, digits):
    """decimal_str by Fraction arithmetic: round(x * 10**digits)."""
    scale = 10 ** digits
    scaled = round(x * scale)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), scale)
    return f"{sign}{whole}" if digits == 0 else f"{sign}{whole}.{frac:0{digits}d}"


def test_decimal_str_matches_fraction_rounding(rng):
    for _ in range(3000):
        digits = rng.choice([0, 0, 1, 2, 5, 9])
        kind = rng.random()
        if kind < 0.3:  # an exact half in the last place
            x = F(2 * rng.randint(-10**4, 10**4) + 1, 2 * 10**digits)
        elif kind < 0.4:
            x = F(rng.randint(-50, 50))
        else:
            x = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**rng.randint(0, 12)))
        assert decimal_str(x, digits) == ref_decimal_str(x, digits)
        box = RootBox(x, x + F(rng.randint(0, 9), rng.randint(1, 10**6)))
        assert box.decimal(digits) == ref_decimal_str(box.representative(), digits)
    assert decimal_str(3, 2) == "3.00"
    assert decimal_str(0.5, 0) == "0"


def test_decimal_str_rejects_negative_digits():
    with pytest.raises(ValueError):
        decimal_str(F(1), -1)
