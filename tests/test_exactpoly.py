"""Exact multivariate polynomial arithmetic, resultants and discriminants."""

import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from operon.exactpoly import (
    Poly,
    bareiss_determinant,
    clear_content,
    degree,
    derivative,
    discriminant,
    exact_div,
    format_poly,
    homogeneous_value,
    rational_content,
    resultant,
    substitute,
    sylvester_matrix,
    uses_var,
)

from conftest import (
    integer_coeffs,
    poly_from_roots,
    random_distinct_rationals,
    random_fraction,
    random_rat_poly,
    ref_divrem,
    ref_pgcd,
    ref_primitive_part,
)

F = Fraction


def st_fraction(span=9):
    return st.builds(F, st.integers(-span, span), st.integers(1, span))


def st_rat_poly(var="x", max_degree=6):
    return st.lists(st_fraction(), min_size=1, max_size=max_degree + 1).map(
        lambda cs: Poly(var, cs)
    )


# ---------------------------------------------------------------------------
# construction and coercion


def test_constructor_trims_trailing_zeros():
    p = Poly("x", [F(1), F(2), F(0), F(0)])
    assert p.degree == 1
    assert Poly("x", [F(0), F(0)]).degree == -1
    assert not Poly("x")


def test_variable_and_constants():
    x = Poly.x("x")
    assert x.degree == 1 and x.lc == 1
    c = Poly("x", [F(7)])
    assert c.degree == 0 and c.constant() == 7


def test_constant_only_for_low_degree():
    with pytest.raises(ValueError):
        Poly.x("x").constant()


def test_constructor_rejects_nested_variable_reuse():
    inner = Poly("x", [F(0), F(1)])
    with pytest.raises(ValueError):
        Poly("x", [inner])
    doubly_nested = Poly("y", [inner])
    with pytest.raises(ValueError):
        Poly("x", [doubly_nested])


def test_uses_var_recurses():
    p = Poly("y", [Poly("z", [F(0), F(3)]), F(1)])
    assert uses_var(p, "y") and uses_var(p, "z")
    assert not uses_var(p, "x")
    assert not uses_var(F(5), "x")


def test_foreign_polynomials_act_as_scalars():
    a = Poly.x("A")
    l = Poly.x("L")
    p = a * l  # L becomes the coefficient of A
    assert p.var == "A"
    assert p.degree == 1
    assert p.coeffs[1] == l


def test_mixing_detection():
    a_with_l = Poly("A", [Poly.x("L"), F(1)])
    with pytest.raises(ValueError, match="cannot mix"):
        a_with_l + Poly("L", [Poly.x("A"), F(1)])


def test_equality_treats_degree_zero_as_scalar():
    assert Poly("x", [F(3)]) == F(3)
    assert Poly("x", [F(3)]) == Poly("y", [F(3)])
    assert hash(Poly("x", [F(3)])) == hash(F(3))
    assert Poly("x", []) == 0


def test_poly_is_a_frozen_record():
    p, twin = (Poly("A", [1, Poly("L", [0, F(1, 2)])]) for _ in range(2))
    assert p is not twin and p == twin and hash(p) == hash(twin)
    for clone in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert clone == p and hash(clone) == hash(p) and str(clone) == str(p)
    for field in ("var", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(p, field, getattr(twin, field))
        with pytest.raises(AttributeError):
            delattr(p, field)
    with pytest.raises(ValueError, match="reuses the variable 'L'"):
        p.replace(var="L")


# ---------------------------------------------------------------------------
# ring identities


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st_rat_poly(), st_rat_poly())
def test_addition_and_subtraction(p, q):
    assert (p + q) - q == p
    assert p - p == 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st_rat_poly(max_degree=4), st_rat_poly(max_degree=4), st_rat_poly(max_degree=4))
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st_rat_poly(max_degree=4), st_rat_poly(max_degree=4))
def test_commutativity(p, q):
    assert p * q == q * p
    assert p + q == q + p


def test_power():
    x = Poly.x("x")
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert (x + 1) ** 0 == 1
    with pytest.raises(ValueError):
        x ** (-1)


def test_scalar_operations():
    x = Poly.x("x")
    assert 2 * x + 1 - x == x + 1
    assert (x + F(1, 2)) * 2 == 2 * x + 1
    assert 1 - x == -(x - 1)


# ---------------------------------------------------------------------------
# evaluation, derivative, division


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st_rat_poly(), st_fraction())
def test_substitution_matches_power_sum(p, v):
    direct = sum(c * v**k for k, c in enumerate(p.coeffs))
    assert substitute(p, "x", v) == direct


def test_substitute_in_nested_coefficients():
    # (1 + L) + (2*L)*A evaluated at L = 3 must give 4 + 6*A
    l = Poly.x("L")
    p = Poly("A", [1 + l, 2 * l])
    fixed = substitute(p, "L", F(3))
    assert fixed == Poly("A", [F(4), F(6)])
    assert substitute(p, "A", F(2)) == 1 + l + 4 * l


def test_homogeneous_value_matches_fraction_horner(rng):
    # d**deg * p(n/d) exactly, so its sign is the sign of p(n/d)
    for _ in range(300):
        p = clear_content(random_rat_poly(rng, max_degree=12, span=10**rng.randint(1, 12)))
        coeffs = integer_coeffs(p)
        n = rng.randint(-10**rng.randint(0, 30), 10**rng.randint(0, 30))
        d = rng.randint(1, 10**rng.randint(0, 30))
        assert homogeneous_value(coeffs, n, d) == d**p.degree * substitute(p, "x", F(n, d))
    assert homogeneous_value((), 3, 4) == 0


def test_integer_coeffs_rejects_fractions():
    assert integer_coeffs(Poly("x", [F(-3), F(0), F(2)])) == (-3, 0, 2)
    with pytest.raises(ValueError, match="integer"):
        integer_coeffs(Poly("x", [F(1, 2), F(1)]))
    with pytest.raises(ValueError, match="integer"):
        integer_coeffs(Poly("A", [Poly.x("L"), F(1)]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st_rat_poly(max_degree=5), st_rat_poly(max_degree=5))
def test_derivative_product_rule(p, q):
    assert derivative(p * q) == derivative(p) * q + p * derivative(q)


def test_derivative_golden():
    x = Poly.x("x")
    assert derivative(x**3 - 2 * x + 5) == 3 * x**2 - 2
    assert derivative(Poly("x", [F(7)])) == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st_rat_poly(), st_rat_poly())
def test_divrem_invariant(f, g):
    if not g:
        return
    q, r = ref_divrem(f, g)
    assert q * g + r == f
    assert degree(r) < degree(g)


def test_divrem_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        ref_divrem(Poly.x("x"), Poly("x"))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st_rat_poly(max_degree=4), st_rat_poly(max_degree=4))
def test_pgcd_divides_both(p, q):
    g = ref_pgcd(p, q)
    if not g:
        assert not p and not q
        return
    assert g.lc == 1
    for h in (p, q):
        if h:
            _, r = ref_divrem(h, g)
            assert r == 0


def test_pgcd_finds_planted_factor():
    x = Poly.x("x")
    common = x**2 + 1
    g = ref_pgcd(common * (x - 3), common * (x + 5))
    assert g == common


def test_exact_div_round_trip(rng):
    for _ in range(30):
        f = random_rat_poly(rng, max_degree=5)
        g = random_rat_poly(rng, max_degree=4)
        assert exact_div(f * g, g) == f
    with pytest.raises(ArithmeticError):
        exact_div(Poly.x("x") + 1, Poly.x("x"))
    with pytest.raises(ZeroDivisionError):
        exact_div(Poly.x("x"), F(0))


# ---------------------------------------------------------------------------
# content and sign normalization


def test_content_helpers():
    x = Poly.x("x")
    p = 6 * x**2 - 4 * x + 2
    assert rational_content(p) == 2
    prim = ref_primitive_part(p)
    assert 2 * prim == p
    assert rational_content(prim) == 1
    assert prim == 3 * x**2 - 2 * x + 1


def test_primitive_part_flips_negative_lead():
    x = Poly.x("x")
    assert ref_primitive_part(-2 * x + 4) == x - 2
    l = Poly.x("L")
    assert ref_primitive_part(Poly("A", [2 * l, 4 - 6 * l])) == Poly("A", [-l, 3 * l - 2])


def test_clear_content_keeps_sign():
    x = Poly.x("x")
    p = -6 * x + 3
    cleared = clear_content(p)
    assert cleared == -2 * x + 1  # scaled by the positive content only
    assert rational_content(cleared) == 1


def test_content_of_fractional_coefficients():
    x = Poly.x("x")
    p = F(3, 4) * x + F(9, 2)
    assert rational_content(p) == F(3, 4)
    assert ref_primitive_part(p) == x + 6


def test_content_sees_nested_leaves():
    l = Poly.x("L")
    p = Poly("A", [2 * l, 4 * l + 6])
    assert rational_content(p) == 2


# ---------------------------------------------------------------------------
# determinants


def permutation_determinant(rows):
    n = len(rows)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = F(1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def test_bareiss_matches_permutation_expansion(rng):
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[random_fraction(rng) for _ in range(n)] for _ in range(n)]
        assert bareiss_determinant(rows) == permutation_determinant(rows)


def test_bareiss_handles_zero_pivots():
    rows = [[F(0), F(1)], [F(1), F(0)]]
    assert bareiss_determinant(rows) == -1
    assert bareiss_determinant([[F(0), F(0)], [F(1), F(1)]]) == 0


def test_bareiss_rejects_ragged_input():
    with pytest.raises(ValueError):
        bareiss_determinant([[F(1), F(2)], [F(3)]])


def test_bareiss_with_polynomial_entries():
    x = Poly.x("x")
    rows = [[x, x + 1], [x - 1, x]]
    assert bareiss_determinant(rows) == x * x - (x + 1) * (x - 1)


# ---------------------------------------------------------------------------
# resultants


def test_sylvester_shape():
    x = Poly.x("x")
    m = sylvester_matrix(x**2 + 1, x**3 - x)
    assert len(m) == 5 and all(len(r) == 5 for r in m)


def test_resultant_of_linear_pair():
    x = Poly.x("x")
    a, b = F(3), F(-7)
    r = resultant(x - a, x - b)
    assert r in (a - b, b - a)
    assert resultant(x - a, x - a) == 0


def test_resultant_detects_planted_common_factor(rng):
    x = Poly.x("x")
    for _ in range(20):
        root = random_fraction(rng)
        f = (x - root) * random_rat_poly(rng, max_degree=3)
        g = (x - root) * random_rat_poly(rng, max_degree=3)
        if f.degree < 1 or g.degree < 1:
            continue
        assert resultant(f, g) == 0


def test_resultant_nonzero_for_coprime_inputs(rng):
    x = Poly.x("x")
    for _ in range(20):
        roots = random_distinct_rationals(rng, 4)
        f = poly_from_roots("x", [(roots[0], 1), (roots[1], 1)])
        g = poly_from_roots("x", [(roots[2], 1), (roots[3], 1)])
        r = resultant(f, g)
        assert r == (roots[0] - roots[2]) * (roots[0] - roots[3]) * (
            roots[1] - roots[2]
        ) * (roots[1] - roots[3])


def test_resultant_with_constant_argument():
    x = Poly.x("x")
    assert resultant(Poly("x", [F(5)]), x**3 + 1) == 125
    assert resultant(x**2 + 1, Poly("x", [F(2)])) == 4
    with pytest.raises(ValueError):
        resultant(Poly("x", [F(1)]), Poly("x", [F(2)]))
    assert resultant(Poly("x"), x + 1) == 0


def test_resultant_requires_shared_main_variable():
    with pytest.raises(ValueError, match="same main variable"):
        resultant(Poly.x("x") + 1, Poly.x("y") + 1)


def test_resultant_two_conservation_laws():
    # intersect x^2 + k1*x*y - 1 = 0 with y^2 + k2*x*y - 1 = 0, eliminating x
    y = Poly.x("y")
    k1, k2 = F(2), F(3)
    f = Poly("x", [F(-1), k1 * y, F(1)])
    g = Poly("x", [y**2 - 1, k2 * y])
    r = resultant(f, g)
    expected = -(5 * y**4 + 5 * y**2 - 1)
    assert r == expected or r == -expected


def test_resultant_vanishes_at_shared_zeros():
    # specialize the same pair at a point where both curves pass through
    x = Poly.x("x")
    f = x**2 + 2 * x - 3  # roots 1, -3
    g = x**2 - 4 * x + 3  # roots 1, 3
    assert resultant(f, g) == 0


# ---------------------------------------------------------------------------
# discriminants


def test_discriminant_quadratic_formula(rng):
    x = Poly.x("x")
    for _ in range(20):
        a = random_fraction(rng)
        if a == 0:
            a = F(1)
        b, c = random_fraction(rng), random_fraction(rng)
        assert discriminant(a * x**2 + b * x + c) == b * b - 4 * a * c


def test_discriminant_zero_iff_repeated_root(rng):
    for _ in range(15):
        roots = random_distinct_rationals(rng, 3)
        simple = poly_from_roots("x", [(r, 1) for r in roots])
        assert discriminant(simple) != 0
        repeated = poly_from_roots("x", [(roots[0], 2), (roots[1], 1)])
        assert discriminant(repeated) == 0


def test_discriminant_cubic_golden():
    x = Poly.x("x")
    # disc(x^3 + p*x + q) = -4p^3 - 27q^2
    assert discriminant(x**3 - x) == 4
    assert discriminant(x**3 + x + 1) == -31


def test_discriminant_requires_degree_two():
    with pytest.raises(ValueError):
        discriminant(Poly.x("x") + 1)


def test_discriminant_with_symbolic_coefficients():
    x = Poly.x("x")
    t = Poly.x("t")
    d = discriminant(Poly("x", [t, F(0), F(1)]))  # x^2 + t
    assert d == -4 * t


def to_sympy(p, symbols):
    if not isinstance(p, Poly):
        return symbols["Rational"](p.numerator, p.denominator)
    var = symbols[p.var]
    return sum((to_sympy(c, symbols) * var**i for i, c in enumerate(p.coeffs)), 0)


def test_resultant_and_discriminant_match_sympy(rng):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import sylvester

    symbols = {"x": sympy.Symbol("x"), "y": sympy.Symbol("y"), "Rational": sympy.Rational}
    x = symbols["x"]

    def sympy_resultant(f, g):
        # sympy.resultant has the wrong sign when deg f < deg g and
        # deg f * deg g is odd (sympy 1.14); in degree order it is right
        sf, sg = to_sympy(f, symbols), to_sympy(g, symbols)
        if f.degree >= g.degree:
            return sympy.resultant(sf, sg, x)
        return (-1) ** (f.degree * g.degree) * sympy.resultant(sg, sf, x)

    # the failing case: 8^3 * g(-3/8) = 1062, where sympy.resultant gives -1062
    f = Poly("x", [F(3), F(8)])
    g = Poly("x", [F(3), F(-1), F(-7), F(6)])
    assert resultant(f, g) == 1062 == sympy_resultant(f, g)
    assert sylvester(to_sympy(f, symbols), to_sympy(g, symbols), x).det() == 1062

    def random_poly(bivariate):
        if not bivariate:
            return random_rat_poly(rng, max_degree=6)
        coeffs = [random_rat_poly(rng, var="y", max_degree=2) for _ in range(rng.randint(2, 4))]
        return Poly("x", [c if rng.random() < 0.7 else F(0) for c in coeffs[:-1]] + coeffs[-1:])

    cases = 0
    while cases < 150:
        f, g = random_poly(cases >= 120), random_poly(cases >= 120)
        if f.degree < 1 or g.degree < 1:
            continue
        cases += 1
        ours = to_sympy(resultant(f, g), symbols)
        assert sympy.expand(ours - sympy_resultant(f, g)) == 0
        if f.degree >= 2:
            ours = to_sympy(discriminant(f), symbols)
            assert sympy.expand(ours - sympy.discriminant(to_sympy(f, symbols), x)) == 0


# ---------------------------------------------------------------------------
# formatting


def test_format_descending_main_variable():
    x = Poly.x("x")
    assert format_poly(x**2 - 1) == "x^2 - 1"
    assert format_poly(2 * x) == "2*x"
    assert format_poly(Poly("x")) == "0"
    assert format_poly(-x + 2) == "-x + 2"
    assert format_poly(-2 * x**2 + 3) == "-2*x^2 + 3"


def test_format_fractions_are_parenthesized():
    x = Poly.x("x")
    assert format_poly(F(1, 2) * x + F(1, 3)) == "(1/2)*x + 1/3"


def test_format_nested_coefficients():
    l = Poly.x("L")
    p = Poly("A", [-2 * l, 29 - 21 * l, F(4)])
    assert format_poly(p) == "4*A^2 + (29 - 21*L)*A - 2*L"


def test_format_ascending():
    x = Poly.x("x")
    assert format_poly(x**2 + 2 * x + 3, ascending=True) == "3 + 2*x + x^2"
