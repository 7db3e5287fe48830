"""Buchberger-based bases and the Boolean system solver."""

import copy
import pickle
import random
import time
from collections import Counter

import pytest

from operon import gf2, groebner
from operon.boolnet import load_network
from operon.errors import ParseError
from operon.gf2 import BoolPoly, MonomialOrder, VarSet, parse_poly
from operon.groebner import (
    ENUMERATE_CAP,
    PolySystem,
    buchberger_reduced,
    load_system,
    parse_system,
    reduce,
    s_polynomial,
    solve_boolean_system,
)

from conftest import (SEED, fix_leading, planted_system, random_bool_poly, random_system,
                      ref_buchberger, ref_enumerate, rename)

ON_STATE_BASIS = [
    "x1 + 1",
    "x2 + 1",
    "x3 + 1",
    "x4 + 1",
    "x5",
    "x6 + 1",
    "x7 + 1",
    "x8 + 1",
    "x9 + 1",
]


def basis_set(basis):
    return set(basis.polys)


# ---------------------------------------------------------------------------
# the shipped fixed-point system


def test_fixed_point_basis_same_under_both_orders(lac_gf2):
    system = load_system(lac_gf2)
    expected = {parse_poly(s, system.vars) for s in ON_STATE_BASIS}
    for order in (MonomialOrder.lex(system.vars), MonomialOrder.degrevlex(system.vars)):
        assert basis_set(buchberger_reduced(system, order)) == expected


def test_fixed_point_solution(lac_gf2):
    system = load_system(lac_gf2)
    expected = [(1, 1, 1, 1, 0, 1, 1, 1, 1)]
    assert solve_boolean_system(system, "groebner") == expected
    assert solve_boolean_system(system, "enumerate") == expected


# ---------------------------------------------------------------------------
# structural properties of reduced bases


def divides(a, b):
    """Square-free monomial divisibility is containment of bitmasks."""
    return a & ~b == 0


def assert_reduced(basis, order):
    lms = [p.leading_monomial(order) for p in basis.polys]
    assert len(set(lms)) == len(lms)
    for i, p in enumerate(basis.polys):
        for j, lm in enumerate(lms):
            if i == j:
                continue
            for m in p.monomials:
                assert not divides(lm, m)


def normal_form(p, polys, order):
    """The normal form of the BoolPoly p modulo the BoolPolys polys, by
    `reduce` on the reducer list of their (lead, tail) pairs."""
    reducers = [(lm := g.leading_monomial(order), g.monomials - {lm}) for g in polys if g]
    return BoolPoly(p.vars, reduce(p.monomials, reducers, order))


def assert_groebner(system, basis, order):
    polys = list(basis.polys)
    # generators of the original system lie in the ideal of the basis
    for g in system.generators:
        assert not normal_form(g, polys, order)
    # every S-polynomial reduces to zero
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            assert not normal_form(s_polynomial(polys[i], polys[j], order), polys, order)
    # so does every product with a field relation survivor x*g
    for g in polys:
        for name in system.vars:
            x = BoolPoly.variable(system.vars, name)
            assert not normal_form(x * g, polys, order)


def test_random_bases_are_reduced_groebner_bases(rng):
    for _ in range(25):
        system = random_system(rng, max_vars=6)
        for order in (MonomialOrder.lex(system.vars), MonomialOrder.degrevlex(system.vars)):
            basis = buchberger_reduced(system, order)
            assert_reduced(basis, order)
            assert_groebner(system, basis, order)


def zero_set(system):
    """Every 0/1 point where all generators vanish, by direct evaluation: a
    squarefree monomial is 1 at sigma exactly when its mask lies in sigma."""
    n = len(system.vars)
    return [
        sigma for sigma in range(1 << n)
        if all(sum(m & ~sigma == 0 for m in g.monomials) % 2 == 0
               for g in system.generators)
    ]


def assert_certified(system, points, basis, order):
    """basis is the reduced Groebner basis of the system's ideal, whose zero
    set is points.

    In the Boolean ring every ideal is the vanishing ideal of its zero set V.
    A basis that vanishes on V generates an ideal J inside I(V); if its leads
    leave exactly |V| standard monomials, J has the codimension of I(V), so
    J = I(V) and the leads generate the lead ideal.  A reduced Groebner basis
    of an ideal is unique.
    """
    n = len(system.vars)
    if not points:
        assert basis.polys == (BoolPoly.one(system.vars),)
        return
    for p in basis.polys:
        for sigma in points:
            assert sum(m & ~sigma == 0 for m in p.monomials) % 2 == 0
    lms = [p.leading_monomial(order) for p in basis.polys]
    standard = sum(1 for m in range(1 << n) if not any(divides(lm, m) for lm in lms))
    assert standard == len(points)
    assert_reduced(basis, order)
    keys = [order.keys[lm] for lm in lms]
    assert keys == sorted(keys, reverse=True)


def certificate_orders(system, rng):
    """(system, order) cases: both orders on the system, and both on a copy
    whose variables are renamed at random, which is the same as ranking
    the variables of the system in a shuffled order."""
    vars = system.vars
    priority = list(range(len(vars)))
    rng.shuffle(priority)
    renamed = PolySystem(vars, [BoolPoly(vars, [rename(m, priority) for m in g.monomials])
                                for g in system.generators])
    return [(s, order(vars)) for s in (system, renamed)
            for order in (MonomialOrder.degrevlex, MonomialOrder.lex)]


def sparse_system(rng):
    """One to three random polynomials in three to six variables: an
    underdetermined system with a large zero set."""
    vars = VarSet(f"x{i + 1}" for i in range(rng.randint(3, 6)))
    gens = [random_bool_poly(rng, vars, max_terms=7) for _ in range(rng.randint(1, 3))]
    return PolySystem(vars, gens)


def test_bases_are_certified_by_the_zero_set(rng):
    # the sparse systems catch a B criterion that also drops pairs whose lcm
    # equals one partner's lcm with the new generator
    systems = [random_system(rng, max_vars=10) for _ in range(60)]
    systems += [sparse_system(rng) for _ in range(300)]
    systems += [planted_system(rng, n)[0] for n in range(6, 13)]
    for base in systems:
        for system, order in certificate_orders(base, rng):
            points = zero_set(system)
            assert_certified(system, points, buchberger_reduced(system, order), order)


def test_bases_match_the_old_engine(rng, monkeypatch):
    # the same pairs, criteria and pair order as the engine before its key
    # table, reducer list and cached leads: the same reduced bases, from the
    # same number of reductions
    reductions = 0
    engine_reduce = groebner.reduce

    def counted(*args, **kwargs):
        nonlocal reductions
        reductions += 1
        return engine_reduce(*args, **kwargs)

    monkeypatch.setattr(groebner, "reduce", counted)
    systems = [random_system(rng, max_vars=10) for _ in range(60)]
    systems += [sparse_system(rng) for _ in range(150)]
    systems += [planted_system(rng, n)[0] for n in range(6, 11) for _ in range(4)]
    for base in systems:
        for system, order in certificate_orders(base, rng):
            reductions = 0
            basis = buchberger_reduced(system, order)
            assert (basis.polys, reductions) == ref_buchberger(system, order)


def test_each_key_is_computed_once_per_order(rng, monkeypatch):
    # a key table computes a monomial's key on its first lookup only; the
    # tables are kept alive, so no id is reused
    misses = Counter()
    tables = []
    compute = gf2._KeyTable.__missing__

    def counted(table, mask):
        tables.append(table)
        misses[id(table), mask] += 1
        return compute(table, mask)

    monkeypatch.setattr(gf2._KeyTable, "__missing__", counted)
    for n in range(6, 11):
        for _ in range(3):
            base, _ = planted_system(rng, n)
            solve_boolean_system(base, "groebner")
            for system, order in certificate_orders(base, rng):
                basis = buchberger_reduced(system, order)
                for p in basis:
                    gf2.format_poly(p, order)
    assert len(misses) > 1000
    assert max(misses.values()) == 1


def test_bases_match_sympy(rng):
    # sympy works in GF(2)[x] with the field equations added; the members of
    # its reduced basis that are squarefree form the quotient-ring basis
    sympy = pytest.importorskip("sympy")
    for _ in range(80):
        system = random_system(rng, max_vars=6)
        gens = sympy.symbols(list(system.vars))
        n = len(gens)
        field = [x**2 - x for x in gens]
        exprs = [
            sympy.Add(*(sympy.Mul(*(gens[i] for i in range(n) if m >> i & 1))
                        for m in g.monomials))
            for g in system.generators
        ]
        for sympy_order, order in (("grevlex", MonomialOrder.degrevlex(system.vars)),
                                   ("lex", MonomialOrder.lex(system.vars))):
            expected = set()
            for poly in sympy.groebner(exprs + field, *gens, modulus=2, order=sympy_order).polys:
                monos = [e for e, c in poly.terms() if c % 2]
                if all(k <= 1 for e in monos for k in e):
                    masks = [sum(k << i for i, k in enumerate(e)) for e in monos]
                    expected.add(BoolPoly(system.vars, masks))
            assert basis_set(buchberger_reduced(system, order)) == expected


def test_basis_is_idempotent(rng):
    for _ in range(20):
        system = random_system(rng, max_vars=7)
        order = MonomialOrder.lex(system.vars)
        basis = buchberger_reduced(system, order)
        again = buchberger_reduced(PolySystem(system.vars, basis.polys), order)
        assert basis_set(again) == basis_set(basis)


def test_inconsistent_system_collapses_to_one():
    vars = VarSet(["x1", "x2"])
    x1 = BoolPoly.variable(vars, "x1")
    one = BoolPoly.one(vars)
    system = PolySystem(vars, [x1, x1 + one])
    basis = buchberger_reduced(system)
    assert [p for p in basis.polys] == [one]
    assert solve_boolean_system(system, "groebner") == []


def test_empty_ideal_has_all_points():
    vars = VarSet(["x1", "x2"])
    zero = BoolPoly.zero(vars)
    system = PolySystem(vars, [zero])
    assert len(solve_boolean_system(system, "groebner")) == 4


# ---------------------------------------------------------------------------
# reduction


def test_reduce_leaves_normal_forms(rng):
    for _ in range(25):
        system = random_system(rng, max_vars=6)
        order = MonomialOrder.degrevlex(system.vars)
        basis = buchberger_reduced(system, order)
        polys = list(basis.polys)
        if polys and polys[0].is_one:
            continue
        p = random_bool_poly(rng, system.vars)
        r = normal_form(p, polys, order)
        lms = [q.leading_monomial(order) for q in polys]
        for m in r.monomials:
            assert not any(divides(lm, m) for lm in lms)
        # p - r is in the ideal, so it must reduce to zero
        assert not normal_form(p + r, polys, order)


def boolean_value(kind):
    """A value of one of the Boolean value types, built afresh."""
    vars = VarSet(["x", "y", "z"])
    order = MonomialOrder.lex(vars)
    poly = parse_poly("x*y + z + 1", vars)
    system = PolySystem(vars, [poly, parse_poly("x + y", vars)])
    return {"VarSet": vars, "MonomialOrder": order, "BoolPoly": poly, "PolySystem": system,
            "GroebnerBasis": buchberger_reduced(system, order)}[kind]


@pytest.mark.parametrize("kind", ["VarSet", "MonomialOrder", "BoolPoly", "PolySystem",
                                  "GroebnerBasis"])
def test_boolean_values_are_frozen_records(kind):
    value, twin = boolean_value(kind), boolean_value(kind)
    assert value is not twin and value == twin and hash(value) == hash(twin)
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert clone == value and hash(clone) == hash(value)
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(twin, field))
        with pytest.raises(AttributeError):
            delattr(value, field)


def test_boolean_values_compare_every_field():
    vars = VarSet(["x", "y"])
    assert MonomialOrder.lex(vars) != MonomialOrder.degrevlex(vars)
    assert MonomialOrder.lex(vars) != MonomialOrder.lex(VarSet(["x", "y", "z"]))
    system = PolySystem(vars, [parse_poly("x", vars), parse_poly("y + 1", vars)])
    assert system != PolySystem(VarSet(["x", "y"]), [parse_poly("x", vars)])
    lex = buchberger_reduced(system, MonomialOrder.lex(vars))
    degrevlex = buchberger_reduced(system, MonomialOrder.degrevlex(vars))
    # the same polynomials, reduced under different orders
    assert lex.polys == degrevlex.polys and lex != degrevlex
    assert len({lex, degrevlex, buchberger_reduced(system, MonomialOrder.lex(vars))}) == 2
    with pytest.raises(ValueError, match="duplicate variable name 'x'"):
        VarSet(["x"]).replace(names=("x", "x"))
    # the name index is built with the names and cannot go stale
    assert vars.replace(names=("y", "x")).index("x") == 1


def test_s_polynomial_rejects_zero():
    vars = VarSet(["x1"])
    zero = BoolPoly.zero(vars)
    one = BoolPoly.one(vars)
    with pytest.raises(ValueError):
        s_polynomial(zero, one, MonomialOrder.lex(vars))


# ---------------------------------------------------------------------------
# solver equivalence and guard rails


def edge_systems():
    one_var = VarSet(["x1"])
    x = BoolPoly.variable(one_var, "x1")
    two = VarSet(["x1", "x2"])
    x1, x2, one = BoolPoly.variable(two, "x1"), BoolPoly.variable(two, "x2"), BoolPoly.one(two)
    six = VarSet(f"x{i + 1}" for i in range(6))
    return [
        PolySystem(two, [BoolPoly.zero(two), x1 * x2]),  # a zero generator
        PolySystem(two, [x1, x1 + one]),  # inconsistent
        PolySystem(one_var, [x]),
        PolySystem(one_var, [x + BoolPoly.one(one_var)]),
        PolySystem(one_var, []),  # every point a solution
        PolySystem(six, [BoolPoly.zero(six)]),
    ]


def test_solver_methods_agree_on_random_systems(rng):
    systems = [random_system(rng, max_vars=8) for _ in range(60)] + edge_systems()
    for system in systems:
        expected = ref_enumerate(system)
        for method in (None, "groebner", "enumerate"):
            assert solve_boolean_system(system, method) == expected
    assert [len(ref_enumerate(s)) for s in edge_systems()] == [3, 0, 1, 1, 2, 64]


def test_route_choice_at_the_table_width(monkeypatch):
    # ENUMERATE_CAP variables: truth tables, and no Buchberger run; one
    # variable more: the reduced basis
    runs = 0
    engine = groebner.buchberger_reduced

    def counted(*args, **kwargs):
        nonlocal runs
        runs += 1
        return engine(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger_reduced", counted)
    for n, expected_runs in ((ENUMERATE_CAP, 0), (ENUMERATE_CAP + 1, 1)):
        vars = VarSet(f"x{i + 1}" for i in range(n))
        system = PolySystem(vars, [BoolPoly.variable(vars, name) for name in vars.names])
        assert solve_boolean_system(system) == [(0,) * n]
        assert runs == expected_runs


@pytest.mark.parametrize("width", [2, 3])
def test_table_blocks_match_the_point_loop(monkeypatch, rng, width):
    # tables in blocks of 2 or 3 variables, so that systems in up to 10
    # variables cross up to 256 blocks and their monomials split into every
    # mix of high and low parts
    monkeypatch.setattr(gf2, "BLOCK_VARS", width)
    systems = [random_system(rng) for _ in range(60)] + edge_systems()
    systems += [planted_system(rng, n)[0] for n in range(5, 11)]
    for system in systems:
        expected = ref_enumerate(system)
        assert solve_boolean_system(system) == expected
        assert solve_boolean_system(system, "enumerate") == expected


def planted_point(planted, n):
    return tuple((planted >> i) & 1 for i in range(n))


def assert_slices_enumerate(system, solutions, prefixes):
    # the solutions whose leading variables read prefix, against the point
    # loop over the other variables
    h = len(next(iter(prefixes)))
    for prefix in prefixes:
        assert ([s[h:] for s in solutions if s[:h] == prefix]
                == ref_enumerate(fix_leading(system, prefix)))


@pytest.mark.parametrize("n", range(17, 21))
def test_table_blocks_at_the_real_width(n):
    # 2 to 16 blocks of 16 variables; each checked slice is one block
    rng = random.Random(SEED + n)
    system, planted = planted_system(rng, n)
    solutions = solve_boolean_system(system)
    h = n - gf2.BLOCK_VARS
    point = planted_point(planted, n)
    assert point in solutions
    prefixes = {point[:h], (0,) * h, (1,) * h}
    assert_slices_enumerate(system, solutions, prefixes)


@pytest.mark.parametrize("n", [21, 22, 24])
def test_default_solve_past_twenty_variables(n):
    # without a method these took the Buchberger route past 20 variables,
    # which needed more than 2 s for the pair at n = 21 and more than 30 s
    # at n = 22 and 24; on tables in blocks of 16 variables each solve takes
    # milliseconds
    rng = random.Random(SEED + n)
    systems = [planted_system(rng, n) for _ in range(2)]
    start = time.perf_counter()
    solutions = [solve_boolean_system(system) for system, _ in systems]
    assert time.perf_counter() - start < 2.0
    for (system, planted), sols in zip(systems, solutions):
        assert sols == solve_boolean_system(system, "enumerate")
        point = planted_point(planted, n)
        assert point in sols
        assert_slices_enumerate(system, sols, {point[:n - gf2.BLOCK_VARS]})


def test_planted_solve_budget(rng):
    # before pair pruning and the forced-variable read-off, one solve of this
    # size took a median of 29 s
    systems = [planted_system(rng, 12) for _ in range(5)]
    start = time.perf_counter()
    solutions = [solve_boolean_system(system, "groebner") for system, _ in systems]
    assert time.perf_counter() - start < 2.0
    for (system, planted), sols in zip(systems, solutions):
        assert sols == solve_boolean_system(system, "enumerate")
        assert tuple((planted >> i) & 1 for i in range(12)) in sols


def test_solutions_are_sorted(rng):
    for _ in range(10):
        system = random_system(rng, max_vars=6)
        sols = solve_boolean_system(system, "groebner")
        assert sols == sorted(sols)
        assert len(set(sols)) == len(sols)


def test_enumerate_cap():
    vars = VarSet([f"x{i}" for i in range(1, 26)])
    system = PolySystem(vars, [BoolPoly.variable(vars, "x1")])
    with pytest.raises(ValueError, match=r"enumeration is capped at 24 variables \(got 25\)\Z"):
        solve_boolean_system(system, "enumerate")


def test_unknown_method():
    vars = VarSet(["x1"])
    system = PolySystem(vars, [BoolPoly.variable(vars, "x1")])
    with pytest.raises(ValueError, match="unknown method"):
        solve_boolean_system(system, "newton")


def test_fixed_points_refuse_an_unknown_method(lac_bn):
    net = load_network(lac_bn)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        net.fixed_points({"a": 1, "g": 0}, method="bogus")
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        net.fixed_points_by_setting("bogus")


# ---------------------------------------------------------------------------
# file format


def test_parse_system_golden(lac_gf2):
    system = load_system(lac_gf2)
    assert list(system.vars) == [f"x{i}" for i in range(1, 10)]
    assert len(system.generators) == 9


def test_parse_system_requires_header():
    with pytest.raises(ParseError, match="vars:"):
        parse_system("x1 + 1\n")
    with pytest.raises(ParseError, match="missing 'vars:'"):
        parse_system("# only a comment\n")
    with pytest.raises(ParseError, match="no variables"):
        parse_system("vars:\nx1\n")
    with pytest.raises(ParseError, match="line 1: duplicate variable name 'x'"):
        parse_system("vars: x x\nx + 1\n")


def test_poly_system_refuses_foreign_generators():
    vars = VarSet(["x", "y"])
    with pytest.raises(TypeError, match="generators must be BoolPoly instances"):
        PolySystem(vars, [parse_poly("x", vars), "y"])
    with pytest.raises(ValueError, match="generator uses a different variable set"):
        PolySystem(vars, [parse_poly("x", VarSet(["x", "y", "z"]))])


def test_parse_system_reports_line_numbers():
    text = "# header\nvars: x1 x2\nx1 + x2\nx1 + q\n"
    with pytest.raises(ParseError, match="line 4"):
        parse_system(text)


def test_parse_system_ignores_comments_and_blanks():
    system = parse_system("\n# c\nvars: a b  # trailing\n\na + b # sum\n")
    assert len(system.generators) == 1
