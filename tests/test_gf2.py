"""Polynomial arithmetic over GF(2) with the idempotency relations built in."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from operon import gf2
from operon.errors import TOKEN, ParseError
from operon.gf2 import (
    BoolPoly,
    MonomialOrder,
    VarSet,
    format_poly,
    monomial_str,
    parse_poly,
    translate_expr,
)
from operon import logic
from operon.groebner import load_system, parse_system

from conftest import (
    all_assignments,
    parse_outcome,
    planted_system,
    random_bool_poly,
    random_expr,
    ref_evaluate,
    ref_key,
    ref_parse_poly,
    rename,
)

V4 = VarSet(["x1", "x2", "x3", "x4"])


def masks(vars, *terms):
    """Monomial bitmask from variable-name tuples, e.g. ("x1", "x3")."""
    out = set()
    for term in terms:
        m = 0
        for name in term:
            m |= 1 << vars.index(name)
        out.add(m)
    return out


def st_poly(n_vars=4, max_terms=6):
    vars = VarSet([f"x{i + 1}" for i in range(n_vars)])
    mask = st.integers(min_value=0, max_value=(1 << n_vars) - 1)
    return st.frozensets(mask, max_size=max_terms).map(lambda ms: BoolPoly(vars, ms))


# ---------------------------------------------------------------------------
# variable sets


def test_varset_basics():
    assert len(V4) == 4
    assert list(V4) == ["x1", "x2", "x3", "x4"]
    assert V4.index("x3") == 2
    assert "x2" in V4 and "y" not in V4


def test_varset_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate variable name"):
        VarSet(["a", "b", "a"])
    with pytest.raises(ValueError, match="must not be empty"):
        VarSet([])
    with pytest.raises(ValueError, match="invalid variable name"):
        VarSet(["2x"])
    assert len(VarSet(f"x{i}" for i in range(64))) == 64
    with pytest.raises(ValueError, match="at most 64 variables are supported, got 65"):
        VarSet(f"x{i}" for i in range(65))
    with pytest.raises(ValueError, match="unknown identifier 'z'"):
        V4.index("z")


# ---------------------------------------------------------------------------
# ring axioms under x^2 = x


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st_poly(), st_poly())
def test_addition_is_involutive(p, q):
    assert (p + q) + q == p
    assert p + p == BoolPoly.zero(p.vars)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st_poly())
def test_squaring_is_identity(p):
    # (a + b)^2 = a^2 + b^2 over GF(2) and m^2 = m for square-free monomials.
    assert p * p == p


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st_poly(), st_poly(), st_poly())
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st_poly(), st_poly())
def test_multiplication_commutes(p, q):
    assert p * q == q * p


def test_one_and_zero():
    one = BoolPoly.one(V4)
    zero = BoolPoly.zero(V4)
    x = BoolPoly.variable(V4, "x2")
    assert x * one == x
    assert x * zero == zero
    assert x + zero == x
    assert bool(zero) is False and bool(one) is True
    assert not zero.monomials and one.is_one


def test_idempotent_monomial_product():
    x1 = BoolPoly.variable(V4, "x1")
    x2 = BoolPoly.variable(V4, "x2")
    assert x1 * x1 == x1
    assert (x1 * x2) * x1 == x1 * x2


def test_parity_cancellation_in_products():
    # (x1 + x2) * (x1 + x2) would duplicate the cross term; it must cancel.
    x1 = BoolPoly.variable(V4, "x1")
    x2 = BoolPoly.variable(V4, "x2")
    p = x1 + x2
    assert p * p == p  # squaring identity is exactly parity cancellation


# ---------------------------------------------------------------------------
# evaluation and substitution


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st_poly(), st_poly(), st.integers(min_value=0, max_value=15))
def test_evaluation_is_a_ring_homomorphism(p, q, sigma):
    assert (p + q).evaluate_mask(sigma) == p.evaluate_mask(sigma) ^ q.evaluate_mask(sigma)
    assert (p * q).evaluate_mask(sigma) == p.evaluate_mask(sigma) & q.evaluate_mask(sigma)


def test_evaluate_name_map_matches_mask():
    p = parse_poly("x1*x3 + x2 + 1", V4)
    for env in all_assignments(list(V4)):
        sigma = sum(env[name] << i for i, name in enumerate(V4))
        assert ref_evaluate(p, env) == p.evaluate_mask(sigma)


def test_substitute_agrees_with_evaluate(rng):
    for _ in range(30):
        p = random_bool_poly(rng, V4)
        name = rng.choice(list(V4))
        value = rng.randrange(2)
        fixed = p.substitute_index(V4.index(name), value)
        assert (fixed.support_mask() >> V4.index(name)) & 1 == 0
        for env in all_assignments(list(V4)):
            assert ref_evaluate(fixed, env) == ref_evaluate(p, env | {name: value})


# ---------------------------------------------------------------------------
# translation from expression trees


def test_translate_golden_forms():
    vars = VarSet(["a", "b"])
    a = 1 << vars.index("a")
    b = 1 << vars.index("b")
    assert translate_expr(logic.parse_expr("a & b"), vars) == BoolPoly(vars, {a | b})
    assert translate_expr(logic.parse_expr("a ^ b"), vars) == BoolPoly(vars, {a, b})
    assert translate_expr(logic.parse_expr("!a"), vars) == BoolPoly(vars, {a, 0})
    assert translate_expr(logic.parse_expr("a | b"), vars) == BoolPoly(vars, {a, b, a | b})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_translate_matches_truth_table(data):
    names = [f"x{i + 1}" for i in range(data.draw(st.integers(1, 10), label="n"))]
    vars = VarSet(names)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    expr = random_expr(random.Random(seed), names, depth=5)
    poly = translate_expr(expr, vars)
    for env in all_assignments(names):
        assert ref_evaluate(poly, env) == logic.evaluate(expr, env)


def test_translate_rejects_unknown_identifier():
    with pytest.raises(ValueError, match="unknown identifier 'q'"):
        translate_expr(logic.parse_expr("q & x1"), V4)


# ---------------------------------------------------------------------------
# monomial orders


def test_lex_order_golden():
    order = MonomialOrder.lex(V4)
    x1 = 1 << V4.index("x1")
    x2 = 1 << V4.index("x2")
    x4 = 1 << V4.index("x4")
    # x1 beats any monomial not containing x1, regardless of degree
    assert order.keys[x1] > order.keys[x2 | x4]
    assert order.keys[x1 | x4] > order.keys[x1]
    assert order.keys[0] < order.keys[x4]


def test_degrevlex_grades_by_degree_first():
    order = MonomialOrder.degrevlex(V4)
    x1 = 1 << V4.index("x1")
    x2 = 1 << V4.index("x2")
    x3 = 1 << V4.index("x3")
    assert order.keys[x2 | x3] > order.keys[x1]  # degree 2 beats degree 1
    assert order.keys[x1 | x2] > order.keys[x2 | x3]  # ties break toward x1


def old_degrevlex_key(mask, priority):
    # the tuple key the int key replaced: (degree, bit-reversed complement of
    # the lex word), where priority position 0 is the most significant bit
    n = len(priority)
    lexint = 0
    for pos, var in enumerate(priority):
        if mask >> var & 1:
            lexint |= 1 << (n - 1 - pos)
    complement = ((1 << n) - 1) ^ lexint
    return (mask.bit_count(), int(format(complement, f"0{n}b")[::-1], 2))


def test_degrevlex_int_key_sorts_like_the_tuple_key(rng):
    for n in range(1, 7):
        vars = VarSet(f"x{i + 1}" for i in range(n))
        priorities = [list(range(n)), list(range(n))[::-1]]
        priorities += [rng.sample(range(n), n) for _ in range(3)]
        order = MonomialOrder.degrevlex(vars)
        masks = range(1 << n)
        assert all(isinstance(order.keys[m], int) for m in masks)
        for priority in priorities:
            # the order that ranks the variables by priority is the
            # declaration order on the renamed masks
            assert (sorted(masks, key=lambda m: order.keys[rename(m, priority)])
                    == sorted(masks, key=lambda m: old_degrevlex_key(m, priority)))


@pytest.mark.parametrize("n", [1, 8, 9, 17, 64])
def test_key_table_matches_the_bit_loop(rng, n):
    for kind in MonomialOrder.KINDS:
        order = MonomialOrder(kind, n)
        expected = ref_key(order)
        sample = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(300)]
        sample += [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                   for _ in range(100)]
        for mask in sample:
            assert order.keys[mask] == expected(mask)


def test_order_is_multiplicative(rng):
    # m1 < m2 implies m1*t < m2*t when t shares no variable with either.
    for order in (MonomialOrder.lex(V4), MonomialOrder.degrevlex(V4)):
        for _ in range(200):
            m1 = rng.randrange(16)
            m2 = rng.randrange(16)
            if m1 == m2:
                continue
            free = [i for i in range(4) if not ((m1 | m2) >> i) & 1]
            t = 0
            for i in free:
                if rng.randrange(2):
                    t |= 1 << i
            lo, hi = sorted((m1, m2), key=order.keys.__getitem__)
            assert order.keys[lo | t] < order.keys[hi | t]


def test_leading_monomial():
    p = parse_poly("x1*x2 + x3 + 1", V4)
    lex = MonomialOrder.lex(V4)
    assert monomial_str(p.leading_monomial(lex), V4) == "x1*x2"


# ---------------------------------------------------------------------------
# text round trips


def test_format_golden():
    p = parse_poly("x2 + x1*x3 + 1", V4)
    assert format_poly(p, MonomialOrder.lex(V4)) == "x1*x3 + x2 + 1"
    assert format_poly(BoolPoly.zero(V4)) == "0"
    assert format_poly(BoolPoly.one(V4)) == "1"


def test_parse_format_round_trip(rng):
    order = MonomialOrder.lex(V4)
    for _ in range(100):
        p = random_bool_poly(rng, V4)
        assert parse_poly(format_poly(p, order), V4) == p


V_PARSE = VarSet(["x1", "x2", "x3", "x12"])
# the format's tokens, names outside V_PARSE, whitespace of several kinds,
# characters just outside it (\u200b is no whitespace) and characters
# outside the syntax
POLY_TOKENS = ["x1", "x2", "x12", "y", "1x", "102", "0", "1", "+", "*", "+", "*",
               " ", "\t", "\xa0", "\u2003", "\x1c", "\x85", "\u2028", "\r", "\u200b",
               "$", "2", "\xe9", "!"]


def assert_parses_poly_as_reference(text, line=None):
    outcome = parse_outcome(parse_poly, text, V_PARSE, line)
    assert outcome == parse_outcome(ref_parse_poly, text, V_PARSE, line), text
    return outcome


def test_parse_poly_matches_reference_on_random_strings(rng):
    for _ in range(20000):
        text = "".join(rng.choice(POLY_TOKENS) for _ in range(rng.randint(0, 14)))
        assert_parses_poly_as_reference(text, rng.choice([None, 3]))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(POLY_TOKENS), max_size=20).map("".join),
       st.sampled_from([None, 5]))
def test_parse_poly_matches_reference_hypothesis(text, line):
    assert_parses_poly_as_reference(text, line)


def formatted_polys(rng):
    """500 random polynomials on V_PARSE, each with its text, the spaces
    of `format_poly` replaced by one kind of whitespace or none."""
    for _ in range(500):
        p = random_bool_poly(rng, V_PARSE)
        yield format_poly(p).replace(" ", rng.choice(["", " ", "\t", "\xa0", "\u2003"])), p


def test_parse_poly_reads_formatted_polys(rng):
    for spaced, p in formatted_polys(rng):
        assert assert_parses_poly_as_reference(spaced) == ("ok", p)


@pytest.mark.parametrize("text, expected", [
    ("x12*x1\t+\xa0x2\u2003+ 1", BoolPoly(V_PARSE, {0b1001, 0b0010, 0})),
    ("1x", "missing '+' or '*' between terms"),
    ("102", "unexpected character '2' in polynomial"),
    ("x1 x2 $", "unexpected character '$' in polynomial"),
    ("y + 2", "unexpected character '2' in polynomial"),
])
def test_parse_poly_fixed_cases(text, expected):
    outcome = assert_parses_poly_as_reference(text, 9)
    if isinstance(expected, str):
        assert outcome == ("error", f"line 9: {expected}", 9)
    else:
        assert outcome == ("ok", expected)


def test_parse_poly_cancels_pairs_and_zero_terms():
    assert parse_poly("x1 + x1*0 + x1 + 1 + x2*x2 + 1*x3", V4) == parse_poly("x2 + x3 + 1", V4)
    assert parse_poly("x1*x2 + x2*x1", V4) == BoolPoly.zero(V4)


MALFORMED_POLYS = {
    "": "empty polynomial",
    "x1 +": "dangling operator in polynomial",
    "+ x1": "dangling operator in polynomial",
    "x1 ** x2": "dangling operator in polynomial",
    "x9": "unknown identifier 'x9'",
    "x1 x2": "missing '+' or '*' between terms",
    "2*x1": "unexpected character '2' in polynomial",
}


@pytest.mark.parametrize("text", list(MALFORMED_POLYS))
def test_parse_poly_rejects_malformed(text):
    with pytest.raises(ParseError) as excinfo:
        parse_poly(text, V4)
    assert str(excinfo.value) == MALFORMED_POLYS[text]


def test_strip_removes_exactly_the_whitespace_token_skips():
    # parse_poly strips its factors with str.strip and reports the errors
    # of the lines it rejects by TOKEN, so both must agree on whitespace
    for c in range(sys.maxunicode + 1):
        text = "x" + chr(c)
        assert (text.strip() == "x") == (TOKEN.findall(text) == ["x"]), hex(c)


def test_valid_lines_never_reach_the_token_scan(rng, lac_gf2, monkeypatch):
    def refuse(text, index, line):
        raise AssertionError(f"scanned the valid line {text!r}")

    monkeypatch.setattr(gf2, "_poly_error", refuse)
    assert len(load_system(lac_gf2).generators) == 9
    for spaced, p in formatted_polys(rng):
        assert parse_poly(spaced, V_PARSE) == p
    assert parse_poly("x12*x1\t+\xa0x2\u2003+ 1", V_PARSE).monomials == {0b1001, 0b0010, 0}
    # a planted system as the benchmark writes it: terms in descending mask
    # order, each with its names in declaration order
    system, _ = planted_system(rng, 8)
    text = "vars: " + " ".join(system.vars) + "\n" + "".join(
        " + ".join(monomial_str(m, system.vars) for m in sorted(g.monomials, reverse=True)) + "\n"
        for g in system.generators)
    assert parse_system(text) == system
    with pytest.raises(AssertionError, match="scanned"):
        parse_poly("x1 + x9", V_PARSE)
