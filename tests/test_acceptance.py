"""Top-level acceptance checks, one per shipped guarantee.

Each test prints exactly one `criterion NN PASS/FAIL` line (visible with
`pytest -s`; pytest's own PASS/FAIL report carries the same information).
Timed criteria assert generous wall-clock budgets on top of exactness.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from operon import logic
from operon.boolnet import decode_state, load_network
from operon.cli import main as cli_main
from operon.exactpoly import Poly, degree, discriminant, resultant, substitute
from operon.gf2 import MonomialOrder, parse_poly, translate_expr
from operon.groebner import buchberger_reduced, load_system, solve_boolean_system
from operon.lacmodel import (
    LacParams,
    critical_lactose_values,
    eliminant_text,
    eliminate_M,
    steady_state_count,
    steady_states_at,
)
from operon.realroots import count_real_roots, isolate_real_roots, squarefree_part

from conftest import (SEED, all_assignments, random_expr, random_rat_poly, random_system,
                      ref_evaluate)

F = Fraction


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL  {description}")
        raise
    print(f"criterion {number:02d} PASS  {description}")


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


# ---------------------------------------------------------------------------
# Boolean side


def test_criterion_01_fixed_points_all_settings(capsys, lac_bn):
    with criterion(1, "fixed points of the Boolean model across all settings"):
        with budget(1.0):
            assert cli_main(["fixed-points", lac_bn, "--all-params"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "a=0,g=0: 000110000",
            "a=0,g=1: 000010000",
            "a=1,g=0: 111101111",
            "a=1,g=1: 000010000",
        ]


def test_criterion_02_single_attractor_with_full_basin(lac_bn):
    with criterion(2, "every parameter setting yields one attractor owning all 512 states"):
        net = load_network(lac_bn)
        expected = {
            (0, 0): "000110000",
            (0, 1): "000010000",
            (1, 0): "111101111",
            (1, 1): "000010000",
        }
        with budget(1.0):
            for (a, g), fixed in expected.items():
                graph = net.state_graph({"a": a, "g": g})
                assert graph.basin_sizes == (512,)
                assert [graph.bitstring(c) for c in graph.attractors[0]] == [fixed]


def test_criterion_03_reduced_basis_and_solution(lac_gf2):
    with criterion(3, "reduced basis of the induced-state system under both orders"):
        system = load_system(lac_gf2)
        expected = {
            parse_poly(s, system.vars)
            for s in ("x1 + 1", "x2 + 1", "x3 + 1", "x4 + 1", "x5",
                      "x6 + 1", "x7 + 1", "x8 + 1", "x9 + 1")
        }
        with budget(1.0):
            for order in (MonomialOrder.lex(system.vars),
                          MonomialOrder.degrevlex(system.vars)):
                basis = buchberger_reduced(system, order)
                assert set(basis.polys) == expected
            assert solve_boolean_system(system, "groebner") == [(1, 1, 1, 1, 0, 1, 1, 1, 1)]


def test_criterion_04_solver_equals_enumeration():
    with criterion(4, "basis-driven solver matches enumeration on 100 random systems"):
        rng = random.Random(SEED + 4)
        with budget(30.0):
            for _ in range(100):
                system = random_system(rng, max_vars=10)
                assert solve_boolean_system(system, "groebner") == \
                    solve_boolean_system(system, "enumerate")


# ---------------------------------------------------------------------------
# continuous side


def test_criterion_05_eliminant_golden():
    with criterion(5, "one-variable steady-state polynomial, exact coefficients"):
        with budget(1.0):
            text = eliminant_text(LacParams.defaults())
        assert text == "4*A^7 + (29 - 21*L)*A^6 - 42*L*A^5 + 4*A^2 + (9 - L)*A - 2*L"


def test_criterion_06_critical_lactose_values():
    with criterion(6, "two fold points located to 1e-4 via exact discriminant"):
        p = LacParams.defaults()
        with budget(10.0):
            disc = discriminant(eliminate_M(p))
            assert degree(disc) == 12
            boxes = critical_lactose_values(p)
        assert len(boxes) == 2
        refs = (F(68454, 10**5), F(151054, 10**5))
        for box, ref in zip(boxes, refs):
            assert abs(box.representative() - ref) < F(1, 10**4)


def test_criterion_07_bistable_coordinates():
    with criterion(7, "three certified steady states at unit lactose, residual 1e-9"):
        p = LacParams.defaults()
        refs = [
            (F(227213, 10**6), F(50605, 10**6), F(999395, 10**6)),
            (F(690706, 10**6), F(185849, 10**6), F(864151, 10**6)),
            (F(2371720, 10**6), F(1036850, 10**6), F(13150, 10**6)),
        ]
        with budget(5.0):
            states = steady_states_at(p, 1, precision=F(1, 10**12))
        assert len(states) == 3
        elim = eliminate_M(p.with_lactose(1))
        for state, (a, m, r) in zip(states, refs):
            assert abs(state.A.representative() - a) < F(1, 10**3)
            assert abs(state.M.representative() - m) < F(1, 10**3)
            assert abs(state.R.representative() - r) < F(1, 10**3)
            assert abs(substitute(elim, "A", state.A.representative())) < F(1, 10**9)


def test_criterion_08_steady_state_census():
    with criterion(8, "steady-state counts 1/3/3/3/1 across the lactose sweep"):
        p = LacParams.defaults()
        expected = {F(1, 2): 1, F(7, 10): 3, F(1): 3, F(3, 2): 3, F(2): 1}
        for L, count in sorted(expected.items()):
            assert steady_state_count(p, L) == count


def test_criterion_09_conservation_intersection():
    with criterion(9, "intersection counts of the two conserved quantities"):
        y = Poly.x("y")

        def quartic(k1, k2):
            f = Poly("x", [F(-1), k1 * y, F(1)])  # x^2 + k1*x*y - 1
            g = Poly("x", [y**2 - 1, k2 * y])  # y^2 + k2*x*y - 1
            r = resultant(f, g)
            ref = (1 - k1 * k2) * y**4 + (k1 * k2 - k2**2 - 2) * y**2 + 1
            assert r == ref or r == -ref
            return r

        for k, expected_roots in ((F(1, 2), 4), (F(2), 2)):
            r = quartic(k, k)
            boxes = isolate_real_roots(r, precision=F(1, 10**12))
            assert len(boxes) == expected_roots
            assert count_real_roots(r) == expected_roots
            # push each y through the x-linear equation and check the other one
            for box in boxes:
                y0 = box.representative()
                assert y0 != 0
                x0 = (1 - y0 * y0) / (k * y0)
                f_val = x0 * x0 + k * x0 * y0 - 1
                g_val = y0 * y0 + k * x0 * y0 - 1
                assert g_val == 0
                assert abs(f_val) < F(1, 10**9)


def test_criterion_10_property_suites(lac_bn):
    with criterion(10, "randomized invariants: isolation, truth tables, two-path steps"):
        rng = random.Random(SEED + 10)

        # 200 isolation cases agree with the exact count and bracket roots
        cases = 0
        while cases < 200:
            p = random_rat_poly(rng, max_degree=8)
            if p.degree < 1:
                continue
            cases += 1
            boxes = isolate_real_roots(p)
            assert len(boxes) == count_real_roots(p)
            q = squarefree_part(p)
            for box in boxes:
                if box.is_exact:
                    assert substitute(p, "x", box.exact) == 0
                else:
                    lo = substitute(q, "x", box.lo)
                    hi = substitute(q, "x", box.hi)
                    assert lo * hi < 0

        # 100 random expressions translate to polynomials with equal truth tables
        from operon.gf2 import VarSet

        for _ in range(100):
            n = rng.randint(1, 10)
            names = [f"x{i + 1}" for i in range(n)]
            vars = VarSet(names)
            expr = random_expr(rng, names, depth=5)
            poly = translate_expr(expr, vars)
            for env in all_assignments(names):
                assert ref_evaluate(poly, env) == logic.evaluate(expr, env)

        # stepping through logic agrees with the algebraic fixed-point system
        # on every state under every parameter setting: 2048 evaluations
        net = load_network(lac_bn)
        n = len(net.vars)
        evaluations = 0
        for a in (0, 1):
            for g in (0, 1):
                setting = {"a": a, "g": g}
                gens = net.to_polynomial_system(setting).generators
                for code in range(1 << n):
                    state = decode_state(code, n)
                    sigma = sum(b << i for i, b in enumerate(state))
                    nxt = net.step(state, setting)
                    assert all(
                        gens[i].evaluate_mask(sigma) == (nxt[i] ^ state[i])
                        for i in range(n)
                    )
                    evaluations += 1
        assert evaluations == 2048
