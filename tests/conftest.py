"""Shared test helpers: seeded generators and paths to the shipped models.

Everything random in the suite flows through a `random.Random` seeded here so
failures reproduce exactly.  The generators are plain functions (importable
from acceptance tests as well) with thin fixture wrappers.
"""

import random
from fractions import Fraction

import pytest

from operon import model_path
from operon import logic
from operon.exactpoly import Poly
from operon.gf2 import BoolPoly, VarSet
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
