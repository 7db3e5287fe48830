"""Steady states and bifurcation structure of the continuous operon model."""

import copy
import pickle
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from operon.errors import ParseError
from operon.exactpoly import (
    Poly,
    degree,
    derivative,
    discriminant,
    resultant,
    substitute,
)
from operon.lacmodel import (
    DEFAULT_PRECISION,
    MAX_HILL,
    RESIDUAL_TARGET,
    BifurcationReport,
    LacParams,
    Region,
    SamplePoint,
    SteadyState,
    bifurcation_csv,
    bifurcation_curve,
    build_system,
    critical_lactose_values,
    eliminant_text,
    eliminate_M,
    load_ode,
    parse_ode_text,
    steady_state_count,
    steady_states_at,
)
from operon.lacmodel import (
    _by_level,
    _census_regions,
    _eliminant,
    _fold_level,
    _fold_sequence,
    _lactose_curve,
    _level_box,
    _level_count,
    _recover_state,
    _refine_residual,
    _wronskian,
)
from operon.realroots import RootBox, _integers, _Oracle, isolate_real_roots

from conftest import (
    assert_handover_repeats,
    box_contains,
    integer_coeffs,
    on_new_kernel,
    ref_census_regions,
    ref_fold_level,
    ref_lactose_curve,
    ref_level_box,
    ref_primitive_part,
    ref_recover_state,
    ref_residual,
)

F = Fraction

ELIMINANT = "4*A^7 + (29 - 21*L)*A^6 - 42*L*A^5 + 4*A^2 + (9 - L)*A - 2*L"

# reference coordinates at L = 1, accurate to the shown digits
TRIPLES = [
    (F(227213, 10**6), F(50605, 10**6), F(999395, 10**6)),
    (F(690706, 10**6), F(185849, 10**6), F(864151, 10**6)),
    (F(2371720, 10**6), F(1036850, 10**6), F(13150, 10**6)),
]

CRITICAL = (F(6845390, 10**7), F(15105398, 10**7))

COUNTS = {F(1, 2): 1, F(7, 10): 3, F(1): 3, F(3, 2): 3, F(2): 1}

LAC = dict(c0=F(1, 20), c=F(1), gamma=F(1), v=F(1), delta=F(1, 5), h=F(2))

# its discriminant has a root at L = 0.05723 from a collision at negative A
SPURIOUS = dict(c0=F(9, 20), c=F(7, 2), gamma=F(3, 5), v=F(4, 5), delta=F(4),
                h=F(3, 10))

# with c0 = 0 and n = 1, L(A) = P/Q tends to gamma*delta/c = 3/2 as A -> 0
LEVEL_AT_ZERO = dict(c0=F(0), c=F(13, 10), gamma=F(1, 2), v=F(23, 4),
                     delta=F(39, 10), h=F(7, 5))

# constant sets for the oracle tests, with c0, c, v and delta at zero too
CONSTANT_SETS = [
    LAC,
    SPURIOUS,
    LEVEL_AT_ZERO,
    {**LAC, "c": F(0)},
    {**LAC, "v": F(0)},
    {**LAC, "delta": F(0)},
    {**LAC, "c0": F(0), "delta": F(0)},
    {**LAC, "c0": F(0), "c": F(0)},
]


# ---------------------------------------------------------------------------
# parameters and the file format


def test_defaults():
    p = LacParams.defaults()
    assert (p.c0, p.c, p.gamma, p.v, p.delta, p.h, p.n) == (
        F(1, 20), F(1), F(1), F(1), F(1, 5), F(2), 5,
    )
    assert p.L is None


def test_param_coercion_and_with_lactose():
    p = LacParams(c0="1/20", c=1, gamma=1, v=1, delta="0.2", h=2, n=5)
    assert p.delta == F(1, 5)
    q = p.with_lactose("3/2")
    assert q.L == F(3, 2)
    assert p.L is None  # original is untouched


@pytest.mark.parametrize(
    "kwargs,message",
    [
        (dict(n=0), "positive integer"),
        (dict(n=2.0), "positive integer"),
        (dict(gamma=0), "gamma"),
        (dict(h=0), "h must be positive"),
        (dict(c0=-1), "c0 must be nonnegative"),
        (dict(delta="-1/5"), "delta"),
        (dict(L="-1/2", c="-1"), "c must be nonnegative"),  # L is checked last
    ],
)
def test_param_validation(kwargs, message):
    base = dict(c0=F(1, 20), c=1, gamma=1, v=1, delta=F(1, 5), h=2, n=5)
    with pytest.raises(ValueError, match=message):
        LacParams(**{**base, **kwargs})


@pytest.mark.parametrize("level", [-1, 0, "-1/3"])
def test_with_lactose_refuses_a_level_that_is_not_positive(level):
    with pytest.raises(ValueError, match="^L must be positive$"):
        LacParams.defaults().with_lactose(level)


def test_load_shipped_model(lac_ode):
    assert load_ode(lac_ode) == LacParams.defaults()


def test_parse_ode_text_golden():
    text = "c0 = 1/20\nc = 1\ngamma = 1\nv = 1\ndelta = 1/5\nh = 2\nn = 5\nL = sym\n"
    assert parse_ode_text(text) == LacParams.defaults()
    fixed = parse_ode_text(text.replace("L = sym", "L = 3/2"))
    assert fixed.L == F(3, 2)


@pytest.mark.parametrize(
    "text,message",
    [
        ("c0 : 1\n", "expected 'key = value'"),
        ("zap = 1\n", "unknown parameter 'zap'"),
        ("c0 = 1\nc0 = 2\n", "duplicate parameter"),
        ("n = -3\n", "n must be a positive integer"),
        ("c0 = one\n", "invalid rational 'one'"),
        ("c0 = 1\n", "missing parameters: c, gamma"),
        ("c0 = 1 # inline\nc0 = 2\n", "line 2"),
        ("n = \u00b2\n", "n must be a positive integer"),
        ("n = 000\n", "n must be a positive integer"),
        ("c0 = 1\nn = 65\n", "line 2: n must be at most 64"),
        ("n = 1" + "0" * 5000 + "\n", "n must be at most 64"),
        # a constant out of its range names its line, and the first bad line wins
        ("c0 = 1\nc = 1\ngamma = 0\n", "line 3: gamma must be positive"),
        ("h = -1/2\n", "line 1: h must be positive"),
        ("h = 0\nn = 0\n", "line 1: h must be positive"),
        ("n = 0\nh = 0\n", "line 1: n must be a positive integer"),
        ("c = 1\nc0 = -1\n", "line 2: c0 must be nonnegative"),
        ("c = -0.5\n", "line 1: c must be nonnegative"),
        ("v = -1e-3\n", "line 1: v must be nonnegative"),
        ("c0 = 1\ndelta = -1/5\n", "line 2: delta must be nonnegative"),
        ("L = -1\n", "line 1: L must be positive"),
        ("c = 1\nL = 0\n", "line 2: L must be positive"),
        ("L = 0.0\nc0 = -1\n", "line 1: L must be positive"),
        ("c0 = 1\nn = 1" + "0" * 5000 + "\n", "line 2: n must be at most 64"),
    ],
)
def test_parse_ode_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_ode_text(text)


def test_exact_fold_level():
    # L(A) = A + 1/A folds at A = 1 exactly, so its level is the exact box 2
    p = LacParams(c0=0, c=1, gamma=1, v=0, delta=1, h=1, n=2)
    assert critical_lactose_values(p) == [RootBox(F(2), F(2))]
    report = bifurcation_curve(p, (F(1), F(3)), 3)
    assert [r.count for r in report.regions] == [0, 2]
    assert [s.boundary for s in report.samples] == [False, True, False]


def test_hill_exponent_cap():
    text = "c0 = 1/20\nc = 1\ngamma = 1\nv = 1\ndelta = 1/5\nh = 2\nn = 64\nL = sym\n"
    assert parse_ode_text(text).n == MAX_HILL == 64
    assert parse_ode_text(text.replace("n = 64", "n = 0064")).n == 64
    assert LacParams.defaults().replace(n=MAX_HILL).n == MAX_HILL
    with pytest.raises(ValueError, match="n must be at most 64"):
        LacParams.defaults().replace(n=MAX_HILL + 1)


# ---------------------------------------------------------------------------
# the polynomial system


def test_build_system_symbolic_golden():
    l = Poly.x("L")
    eq1, eq2 = build_system(LacParams.defaults())
    assert eq1 == Poly("M", [
        Poly("A", [F(1), 0, 0, 0, 0, F(21)]),
        Poly("A", [F(-20), 0, 0, 0, 0, F(-20)]),
    ])
    assert eq2 == Poly("M", [
        Poly("A", [0, F(-2), F(-1)]),
        Poly("A", [10 * l, 5 * l - 5]),
    ])
    assert degree(eq1) == 1 and degree(eq2) == 1


def test_build_system_at_fixed_lactose():
    eq1, eq2 = build_system(LacParams.defaults().with_lactose(1))
    assert eq2 == Poly("M", [Poly("A", [0, F(-2), F(-1)]), F(10)])
    assert eq1 == build_system(LacParams.defaults())[0]


def test_eliminant_symbolic_golden():
    p = LacParams.defaults()
    l = Poly.x("L")
    expected = Poly("A", [
        -2 * l, 9 - l, F(4), F(0), F(0), -42 * l, 29 - 21 * l, F(4),
    ])
    elim = eliminate_M(p)
    assert elim == expected
    assert eliminant_text(p) == ELIMINANT
    assert ref_primitive_part(elim) == elim


def test_eliminant_specializes_to_fixed_lactose():
    # substituting L = 1 into the symbolic eliminant and eliminating after
    # fixing L = 1 agree up to the removed rational content
    p = LacParams.defaults()
    fixed = eliminate_M(p.with_lactose(1))
    substituted = substitute(eliminate_M(p), "L", F(1))
    assert substituted == 2 * fixed
    x = Poly.x("A")
    assert fixed == 2 * x**7 + 4 * x**6 - 21 * x**5 + 2 * x**2 + 4 * x - 1


def test_eliminant_degree_grows_with_hill_exponent():
    for n in (1, 2, 3, 6):
        p = LacParams(c0=F(1, 20), c=1, gamma=1, v=1, delta=F(1, 5), h=2, n=n)
        assert degree(eliminate_M(p.with_lactose(1))) == n + 2


def test_eliminate_rejects_degenerate_system():
    p = LacParams(c0=0, c=0, gamma=1, v=1, delta=0, h=2, n=1, L=F(1))
    with pytest.raises(ValueError, match="share a factor"):
        eliminate_M(p)
    symbolic = p.replace(L=None)
    assert resultant(*build_system(symbolic)) == 0
    with pytest.raises(ValueError, match="share a factor"):
        eliminate_M(symbolic)
    with pytest.raises(ValueError, match="share a factor"):
        critical_lactose_values(symbolic)


# v = delta = 0 makes P = 0: the symbolic eliminant is L*Q, its sign
# flipped from that of P - L*Q
P_VANISHES = [
    {**LAC, "v": F(0), "delta": F(0)},
    {**LAC, "c0": F(0), "v": F(0), "delta": F(0)},
]


@pytest.mark.parametrize("consts", CONSTANT_SETS + P_VANISHES)
def test_eliminant_matches_resultant(consts):
    # the 2x2 determinant P - L*Q, formed on integers as d*P - n*Q at a
    # fixed L = n/d, against the Sylvester/Bareiss resultant
    for n in (*range(1, 9), 16, 64):
        for L in (None, F(1, 3), F(2), F(12345, 678)):
            p = LacParams(n=n, L=L, **consts)
            expected = ref_primitive_part(resultant(*build_system(p)))
            assert eliminate_M(p) == expected
            assert eliminant_text(p) == str(expected)


# ---------------------------------------------------------------------------
# critical lactose levels


def test_critical_values_golden():
    boxes = critical_lactose_values(LacParams.defaults())
    # the certified fold boxes themselves, each no wider than the precision
    assert [(box.lo, box.hi) for box in boxes] == [
        (F(4060, 5931), F(1864, 2723)),
        (F(6521, 4317), F(5231, 3463)),
    ]
    for box, ref in zip(boxes, CRITICAL):
        assert box.hi - box.lo <= DEFAULT_PRECISION
        assert abs(box.representative() - ref) < F(2, 10**6)
    # 5-digit reference roundings agree with the certified boxes to 1e-4
    assert abs(boxes[0].representative() - F(68454, 10**5)) < F(1, 10**4)
    assert abs(boxes[1].representative() - F(151054, 10**5)) < F(1, 10**4)


def test_critical_values_are_discriminant_roots():
    p = LacParams.defaults()
    disc = discriminant(eliminate_M(p))
    assert degree(disc) == 12
    for box in critical_lactose_values(p):
        assert not box.is_exact
        lo_val = substitute(disc, "L", box.lo)
        hi_val = substitute(disc, "L", box.hi)
        assert lo_val * hi_val < 0
    # every fold box brackets a sign change of the discriminant; exact
    # boxes are the limits of L(A) at the ends, not folds.  n = 2 has no
    # folds with the first two sets.
    checked = 0
    for consts, top in ((LAC, 8), (SPURIOUS, 8), (LEVEL_AT_ZERO, 6)):
        for n in range(2, top + 1):
            p = LacParams(n=n, **consts)
            disc = discriminant(eliminate_M(p))
            for precision in (DEFAULT_PRECISION, F(1, 10), F(1, 2)):
                boxes = critical_lactose_values(p, precision)
                folds = [b for b in boxes if not b.is_exact]
                checked += len(folds)
                for box in folds:
                    assert box.hi - box.lo <= precision
                    lo_val = substitute(disc, "L", box.lo)
                    hi_val = substitute(disc, "L", box.hi)
                    assert lo_val * hi_val < 0
    assert checked == 3 * (6 * 2 + 6 * 2 + 5)


def test_inflection_is_no_level():
    # L(A) = P/Q = 8 + (A - 1)^3 rises through a horizontal inflection at
    # A = 1, where W = Q^2 * L' has a double root; the count changes only
    # at L(0+) = 7
    A = Poly.x("A")
    Q = (A + 1) ** 6
    P = Q * ((A - 1) ** 3 + 8)
    assert all(c >= 0 for c in P.coeffs)
    (box,) = _by_level(_fold_sequence(integer_coeffs(P), integer_coeffs(Q), DEFAULT_PRECISION))
    assert box.exact == 7


def test_critical_values_budget_at_hill_16():
    p = LacParams(n=16, **LAC)
    start = time.perf_counter()
    boxes = critical_lactose_values(p)
    assert time.perf_counter() - start < 2.0
    assert len(boxes) == 2


def test_level_at_infinity():
    # with delta = 0, L(A) = P/Q rises to v as A -> infinity: one steady
    # state below v, none above
    p = LacParams.defaults()
    p = p.replace(delta=F(0))
    (box,) = critical_lactose_values(p)
    assert box.exact == p.v
    report = bifurcation_curve(p, (F(1, 10), F(5, 2)), samples=5)
    assert [r.count for r in report.regions] == [1, 0]
    (state,) = steady_states_at(p, F(1, 2))
    assert state.A.lo == state.A.hi == 2


def test_no_spurious_level():
    p = LacParams(n=4, **SPURIOUS)
    disc = discriminant(eliminate_M(p))
    assert substitute(disc, "L", F(5, 100)) * substitute(disc, "L", F(6, 100)) < 0
    report = bifurcation_curve(p, (F(1, 10), F(5, 2)), samples=5)
    assert len(report.critical) == 2
    assert [r.count for r in report.regions] == [1, 3, 1]
    assert steady_state_count(p, F(5, 100)) == steady_state_count(p, F(6, 100)) == 1


def test_no_levels_without_hill_production():
    # c0 = c = 0: Q is zero, and the count is 0 at every positive level
    p = LacParams(n=3, **{**LAC, "c0": F(0), "c": F(0)})
    assert critical_lactose_values(p) == []
    assert steady_state_count(p, F(1)) == 0


def test_level_at_infinity_with_repeated_factor():
    # c0 = delta = 0: L(A) = v*A/(h + A), and A^n divides both P and Q,
    # so the discriminant vanishes identically
    p = LacParams(n=3, **{**LAC, "c0": F(0), "delta": F(0)})
    assert discriminant(eliminate_M(p)) == 0
    (box,) = critical_lactose_values(p)
    assert box.exact == p.v
    assert steady_state_count(p, F(1, 2)) == 1
    assert steady_state_count(p, F(3, 2)) == 0


def test_critical_values_need_symbolic_lactose():
    with pytest.raises(ValueError, match="symbolic"):
        critical_lactose_values(LacParams.defaults().with_lactose(1))


# ---------------------------------------------------------------------------
# steady-state counts and coordinates


def test_steady_state_counts_golden():
    p = LacParams.defaults()
    for L, expected in sorted(COUNTS.items()):
        assert steady_state_count(p, L) == expected


def test_steady_state_count_requires_positive_lactose():
    with pytest.raises(ValueError, match="positive"):
        steady_state_count(LacParams.defaults(), 0)
    with pytest.raises(ValueError, match="positive"):
        steady_states_at(LacParams.defaults(), F(-1))


def test_steady_states_at_reference_point():
    p = LacParams.defaults()
    states = steady_states_at(p, 1, precision=F(1, 10**12))
    assert len(states) == 3
    elim = eliminate_M(p.with_lactose(1))
    for state, (a_ref, m_ref, r_ref) in zip(states, TRIPLES):
        assert abs(state.A.representative() - a_ref) < F(1, 10**3)
        assert abs(state.M.representative() - m_ref) < F(1, 10**3)
        assert abs(state.R.representative() - r_ref) < F(1, 10**3)
        assert abs(substitute(elim, "A", state.A.representative())) < RESIDUAL_TARGET
        assert state.multiplicity == 1
    assert [s.A.representative() for s in states] == sorted(s.A.representative() for s in states)


def test_steady_state_intervals_are_consistent():
    p = LacParams.defaults()
    for L in (F(7, 10), F(1), F(2)):
        for state in steady_states_at(p, L):
            a = state.A.representative()
            t = a**p.n
            m = (p.c0 + (p.c0 + p.c) * t) / (p.gamma * (1 + t))
            r = 1 / (1 + t)
            assert state.M.lo <= m <= state.M.hi
            assert state.R.lo <= r <= state.R.hi
            assert state.A.lo <= a <= state.A.hi
            assert 0 < state.R.lo and state.R.hi <= 1


def test_steady_states_stay_on_integers(monkeypatch):
    # from the constants to the boxes the analysis runs on integer tuples:
    # no Poly is built and no content is cleared
    from operon import exactpoly, lacmodel, realroots

    cases = [(p, L) for p in (LacParams.defaults(), LacParams(n=4, **{**LAC, "c0": F(0)}))
             for L in (F(1), F(2), F(5))]
    expected = [steady_states_at(p, L) for p, L in cases]
    assert all(expected)

    def refuse(*args, **kwargs):
        raise AssertionError("left the integer path")

    monkeypatch.setattr(exactpoly.Poly, "__init__", refuse)
    for module in (exactpoly, lacmodel, realroots):
        if hasattr(module, "clear_content"):
            monkeypatch.setattr(module, "clear_content", refuse)
    assert [steady_states_at(p, L) for p, L in cases] == expected


def test_residuals_hold_at_default_precision():
    p = LacParams.defaults()
    elim = eliminate_M(p.with_lactose(F(7, 10)))
    for state in steady_states_at(p, F(7, 10)):
        assert abs(substitute(elim, "A", state.A.representative())) < RESIDUAL_TARGET


def test_recover_state_limits():
    p = LacParams.defaults()
    at_zero = _recover_state(p, RootBox(F(0), F(0)))
    assert at_zero.M.lo == at_zero.M.hi == p.c0 / p.gamma
    assert at_zero.R.lo == at_zero.R.hi == 1
    at_one = _recover_state(p, RootBox(F(1), F(1)))
    assert at_one.R.lo == at_one.R.hi == F(1, 2)


def test_recover_state_matches_fraction_reference(rng):
    jitter = [F(k, 20) for k in range(18, 23)]
    for n in range(1, MAX_HILL + 1):
        consts = {k: v * rng.choice(jitter) for k, v in LAC.items()}
        if n % 4 == 0:
            consts[rng.choice(["c0", "c"])] = F(0)
        p = LacParams(n=n, **consts)
        a = F(rng.randint(1, 3000), rng.randint(1, 1000))
        boxes = [RootBox(F(0), F(0)), RootBox(F(1), F(1)), RootBox(a, a),
                 RootBox(a, a + F(1, rng.randint(1, 10**9)), rng.randint(1, 3)),
                 # lo < 0 is clamped to 0
                 RootBox(-a, F(1, rng.randint(1, 100)))]
        for box in boxes:
            state = _recover_state(p, box)
            assert state == ref_recover_state(p, box)
            assert state.multiplicity == box.multiplicity
            assert state.as_dict(9) == ref_recover_state(p, box).as_dict(9)


def test_as_dict_rendering():
    state = steady_states_at(LacParams.defaults(), 1)[0]
    d = state.as_dict(digits=5)
    assert set(d) == {"A", "M", "R", "intervals"}
    assert d["A"] == "0.22721"
    assert d["intervals"]["A"] == [str(state.A.lo), str(state.A.hi)]
    assert F(d["intervals"]["R"][0]) == state.R.lo


def test_count_matches_enumeration_of_states(rng):
    p = LacParams.defaults()
    critical = critical_lactose_values(p)
    trials = 0
    while trials < 12:
        L = F(rng.randint(2, 50), 20)
        if any(c.lo <= L <= c.hi for c in critical):
            continue
        trials += 1
        assert steady_state_count(p, L) == len(steady_states_at(p, L))


# ---------------------------------------------------------------------------
# residual and fold refinement against the halving loop they replaced


def assert_refinements_match(p, levels, precision=DEFAULT_PRECISION):
    """The residual boxes at each level and the fold boxes of p are those of
    the stage loop in conftest (`ref_residual`, `ref_fold_level`)."""
    P, Q = _lactose_curve(p)
    for L in levels:
        elim = _eliminant(P, Q, L)
        ref = Poly("A", elim)
        for box in isolate_real_roots(ref, region="positive", precision=precision):
            assert _refine_residual(elim, box) == ref_residual(ref, box, RESIDUAL_TARGET)
    p_ref, q_ref = Poly("A", P), Poly("A", Q)
    W = derivative(p_ref) * q_ref - p_ref * derivative(q_ref)
    for box in isolate_real_roots(W, region="positive", precision=precision) if W else []:
        assert _fold_level(P, Q, box, precision) == \
            ref_fold_level(p_ref, q_ref, W, box, precision)


def test_refinement_matches_halving_loop_on_jittered_models(rng):
    jitter = [F(k, 20) for k in range(18, 23)]
    for n in range(1, 17):
        for consts in (LAC, rng.choice(CONSTANT_SETS)):
            p = LacParams(n=n, **{k: v * rng.choice(jitter) for k, v in consts.items()})
            levels = [F(rng.randint(10, 250), rng.randint(90, 110)) for _ in range(2)]
            assert_refinements_match(p, levels, F(1, 10 ** rng.choice([3, 6, 12])))


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_refinement_matches_halving_loop_on_the_bundled_model(n):
    assert_refinements_match(LacParams(n=n, **LAC), [F(7, 10), F(1), F(13, 10)])


# the integers P(a), Q(a), P(b), Q(b) at the ends of the last A stage run
# to hundreds of bits; precisions from the floor of isolation to wide
LEVEL_ENDS = st.integers(0, 2 ** 300)
PRECISIONS = st.builds(F, st.integers(1, 10 ** 6), st.sampled_from([1, 7, 10 ** 6, 10 ** 300]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(LEVEL_ENDS, LEVEL_ENDS.map(lambda x: x + 1), LEVEL_ENDS, LEVEL_ENDS.map(lambda x: x + 1),
       PRECISIONS)
# p_a = 0, where the lower bound is lo/2 = 0
@example(0, 5, 3, 7, F(1, 10 ** 6))
# the tie 2*pn*q_b == 8*pd*p_a, where slack = lo/2: at 1/4 with precision 1,
# and at 3/(4*10^6) with precision 3/10^6
@example(1, 3, 5, 4, F(1))
@example(3, 3 * 10 ** 6 - 1, 10 ** 12, 4 * 10 ** 6, F(3, 10 ** 6))
def test_level_box_matches_fraction_expression(p_a, q_a, extra, q_b, precision):
    # hi = p_b/q_a is at least lo = p_a/q_b, as P(b) >= P(a) and Q(b) >= Q(a)
    p_b = -(-p_a * q_a // q_b) + extra
    box = _level_box(p_a, q_a, p_b, q_b, precision)
    assert box == ref_level_box(F(p_a, q_b), F(p_b, q_a), precision)
    assert box.lo <= F(p_a, q_b) and box.hi >= F(p_b, q_a)


def test_residual_refinement_with_repeated_factors():
    # the residual is taken on the eliminant itself, the cells on its
    # squarefree part
    A = Poly.x("A")
    elims = [(A**2 - 2) ** 2 * (3 * A - 1) * (A - 5) ** 3 * (7 * A**2 - 3)]
    # c0 = 0 puts the factor A^n into P and Q, so into every eliminant
    P, Q = _lactose_curve(LacParams(n=4, **{**LAC, "c0": F(0)}))
    elims += [Poly("A", _eliminant(P, Q, L)) for L in (F(1, 2), F(1), F(2))]
    for elim in elims:
        for box in isolate_real_roots(elim, precision=F(1, 1000)):
            assert _refine_residual(integer_coeffs(elim), box) == \
                ref_residual(elim, box, RESIDUAL_TARGET)


def test_lactose_curve_is_proportional_to_the_fraction_reference(rng):
    # every reader of P and Q takes ratios or primitive parts, so the
    # integer curve may differ from the reference by one positive factor
    jitter = [F(k, 20) for k in range(18, 23)]
    for n in range(1, MAX_HILL + 1):
        for zero in (None, "c0", "c", "v", "delta"):
            consts = {k: v * rng.choice(jitter) for k, v in LAC.items()}
            if zero:
                consts[zero] = F(0)
            p = LacParams(n=n, **consts)
            (P, Q), (ref_p, ref_q) = _lactose_curve(p), ref_lactose_curve(p)
            assert len(P) == len(ref_p) and len(Q) == len(ref_q)
            factor = F(P[-1], ref_p[-1])
            assert factor > 0
            assert [F(x) for x in P + Q] == [factor * x for x in ref_p + ref_q]
    # c0 = c = delta = 0: P and Q both vanish, and the analyses refuse it
    p = LacParams(n=3, **{**LAC, "c0": F(0), "c": F(0), "delta": F(0)})
    assert _lactose_curve(p) == ref_lactose_curve(p) == ((), ())
    for analyse in (critical_lactose_values, eliminate_M):
        with pytest.raises(ValueError, match="degenerate system"):
            analyse(p)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 16, 32, 64])
def test_handing_the_cell_over_repeats_on_the_bundled_model(n):
    # the residual and fold-level loops go on in the kernel that isolation
    # left on each box; narrowing it again, after refine_root_box or from a
    # box rebuilt without a kernel gives the same stages and boxes
    p = LacParams(n=n, **LAC)
    P, Q = _lactose_curve(p)
    W = _wronskian(P, Q)
    for precision in (F(1, 10**3), F(1, 10**6), F(1, 10**12)):
        for L in (F(7, 10), F(1), F(13, 10)):
            elim = _eliminant(P, Q, L)
            for box in _Oracle(elim).isolate(precision, positive=True):
                assert_handover_repeats(Poly("A", elim), box)
                rebuilt = on_new_kernel(box)
                assert _refine_residual(elim, box) == _refine_residual(elim, rebuilt) \
                    == _refine_residual(elim, box)
        for box in _Oracle(W).isolate(precision, positive=True):
            assert_handover_repeats(Poly("A", W), box, bits=1)
            rebuilt = on_new_kernel(box)
            assert _fold_level(P, Q, box, precision) == _fold_level(P, Q, rebuilt, precision) \
                == _fold_level(P, Q, box, precision)


def test_isolation_and_refinement_stay_on_integers(lac_ode, monkeypatch):
    # isolation and residual refinement build Fractions only for the boxes
    # they return, not per bisection or secant step, and one refinement
    # kernel per isolated root: the residual loop goes on in it
    from operon import realroots

    class Counted(F):
        """A Fraction that counts itself and every arithmetic result of it,
        which it makes a Counted too."""

        built = 0

        def __new__(cls, *args, **kwargs):
            Counted.built += 1
            return super().__new__(cls, *args, **kwargs)

    def counting(op):
        def counted(*args):
            out = op(*args)
            return Counted(out) if isinstance(out, F) else out
        return counted

    for name in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
        for prefix in ("__", "__r"):
            op = f"{prefix}{name}__"
            setattr(Counted, op, counting(getattr(F, op)))
    for op in ("__neg__", "__pos__", "__abs__"):
        setattr(Counted, op, counting(getattr(F, op)))

    kernels = []
    cells_init = realroots._Cells.__init__
    monkeypatch.setattr(realroots._Cells, "__init__",
                        lambda self, *args: kernels.append(1) or cells_init(self, *args))
    elim = _eliminant(*_lactose_curve(load_ode(lac_ode)), F(1))
    expected = [_refine_residual(elim, box)
                for box in _Oracle(elim).isolate(DEFAULT_PRECISION, positive=True)]
    kernels.clear()
    monkeypatch.setattr(realroots, "Fraction", Counted)
    boxes = [_refine_residual(elim, box)
             for box in _Oracle(elim).isolate(DEFAULT_PRECISION, positive=True)]
    assert boxes == expected and len(boxes) == 3
    assert len(kernels) == len(boxes)
    # the root bound (two), the precision, and two ends per box in each of
    # isolation and refinement: 15 when written, where the bisection on
    # Fraction endpoints built 26 and started a second kernel per root
    assert Counted.built <= 4 * len(boxes) + 3


def test_evaluation_budget(monkeypatch):
    # homogeneous_value calls, the unit of work of every refinement, in the
    # default `ode bifurcation` at n = 64 and in `ode steady-states --L 1`
    # with c0 = 1e-300 at n = 5; the halving loop made 11,585 and 6,657, and
    # a new kernel per refined box 314, 4,293 and 914
    from operon import exactpoly, lacmodel, realroots

    calls = []

    def counted(coeffs, num, den):
        calls.append(1)
        return exactpoly.homogeneous_value(coeffs, num, den)

    for module in (realroots, lacmodel):
        monkeypatch.setattr(module, "homogeneous_value", counted)
    report = bifurcation_curve(LacParams(n=64, **LAC), (F(1, 10), F(5, 2)), 25)
    # the critical levels and the census; the branches wait for a caller
    assert len(calls) <= 320  # 288 when written
    for pt in report.samples:
        pt.roots
    assert len(calls) <= 4_000  # 3,349 when written
    calls.clear()
    steady_states_at(LacParams(n=5, **{**LAC, "c0": F(1, 10**300)}), F(1))
    assert len(calls) <= 900  # 867 when written


def test_bifurcation_report_structure():
    p = LacParams.defaults()
    report = bifurcation_curve(p, (F(1, 10), F(5, 2)), samples=13)
    assert len(report.critical) == 2
    assert [r.count for r in report.regions] == [1, 3, 1]
    assert report.regions[0].lo == 0 and report.regions[-1].hi is None
    assert report.regions[0].hi == report.critical[0].representative()
    assert report.regions[1].lo == report.critical[0].representative()
    assert len(report.samples) == 13
    step = (F(5, 2) - F(1, 10)) / 12
    for i, pt in enumerate(report.samples):
        assert pt.L == F(1, 10) + i * step
        assert pt.count == len(pt.roots)


def test_bifurcation_counts_follow_regions():
    p = LacParams.defaults()
    report = bifurcation_curve(p, (F(1, 10), F(5, 2)), samples=13)
    lo1, hi1 = report.critical[0].lo, report.critical[0].hi
    lo2, hi2 = report.critical[1].lo, report.critical[1].hi
    for pt in report.samples:
        if pt.boundary:
            continue
        if pt.L < lo1:
            assert pt.count == 1
        elif hi1 < pt.L < lo2:
            assert pt.count == 3
        elif pt.L > hi2:
            assert pt.count == 1


def test_region_counts_are_constant_within_regions(rng):
    p = LacParams.defaults()
    (c1, c2) = critical_lactose_values(p)
    spans = [
        (F(1, 100), c1.lo),
        (c1.hi, c2.lo),
        (c2.hi, F(4)),
    ]
    for (lo, hi), expected in zip(spans, (1, 3, 1)):
        for i in range(10):
            L = lo + (hi - lo) * F(2 * i + 1, 20)
            assert steady_state_count(p, L) == expected


def test_bifurcation_residuals():
    p = LacParams.defaults()
    report = bifurcation_curve(p, (F(1, 2), F(2)), samples=7)
    for pt in report.samples:
        elim = eliminate_M(p.with_lactose(pt.L))
        for box in pt.roots:
            if box.is_exact:
                assert substitute(elim, "A", box.exact) == 0
            else:
                assert abs(substitute(elim, "A", box.representative())) < RESIDUAL_TARGET


def test_bifurcation_csv_shape():
    p = LacParams.defaults()
    report = bifurcation_curve(p, (F(1, 2), F(2)), samples=5)
    text = bifurcation_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "L,A,branch,region_count"
    assert len(lines) == 1 + sum(pt.count for pt in report.samples)
    first = lines[1].split(",")
    assert first[0] == "0.500000" and first[2] == "0" and first[3] == "1"
    # deterministic output
    assert bifurcation_csv(bifurcation_curve(p, (F(1, 2), F(2)), samples=5)) == text


def test_bifurcation_argument_validation():
    p = LacParams.defaults()
    with pytest.raises(ValueError, match="symbolic"):
        bifurcation_curve(p.with_lactose(1), (F(1, 2), F(2)), samples=5)
    with pytest.raises(ValueError, match="0 < lo < hi"):
        bifurcation_curve(p, (F(2), F(1)), samples=5)
    with pytest.raises(ValueError, match="0 < lo < hi"):
        bifurcation_curve(p, (F(0), F(1)), samples=5)
    with pytest.raises(ValueError, match="two samples"):
        bifurcation_curve(p, (F(1, 2), F(2)), samples=1)


# ---------------------------------------------------------------------------
# the census from the fold sequence, and sample branches on demand


def census_models(rng):
    """Jittered models at n = 1..16, and models with c0, c, v or delta at
    zero, some with an exact end level (delta = 0)."""
    jitter = [F(k, 20) for k in range(18, 23)]
    models = []
    for n in range(1, 17):
        for consts in (LAC, SPURIOUS, rng.choice(CONSTANT_SETS)):
            models.append(LacParams(n=n, **{k: v * rng.choice(jitter) for k, v in consts.items()}))
    for n in (1, 2, 3, 5, 8):
        for zero in ("c0", "c", "v", "delta"):
            models.append(LacParams(n=n, **{**LAC, zero: F(0)}))
        for consts in ({**LEVEL_AT_ZERO, "delta": F(0)}, {**LAC, "c0": F(0), "delta": F(0)},
                       {**LAC, "v": F(0), "delta": F(0)}, {**LAC, "c0": F(0), "c": F(0)}):
            models.append(LacParams(n=n, **consts))
    return models


def test_census_matches_sturm_chains(rng):
    closer = 0
    for p in census_models(rng):
        P, Q = _lactose_curve(p)
        # boxes up to 1 wide merge some folds
        for precision in (F(2), F(1, 10 ** rng.choice([1, 3, 6]))):
            sequence = _fold_sequence(P, Q, precision)
            critical = tuple(_by_level(sequence))
            assert list(critical) == critical_lactose_values(p, precision)
            try:
                expected = ref_census_regions(P, Q, critical)
            except ValueError:
                closer += 1
                with pytest.raises(ValueError, match="closer than the working precision"):
                    _census_regions(sequence, critical)
                continue
            assert _census_regions(sequence, critical) == expected
            # levels outside every box: random ones, and the open lower
            # ends of the fold boxes
            levels = [F(rng.randint(1, 400), rng.randint(1, 100)) for _ in range(6)]
            levels += [c.lo for c in critical if not c.is_exact and c.lo > 0]
            for L in levels:
                if not any(box_contains(c, L) for c in critical):
                    assert _level_count(sequence, L) == steady_state_count(p, L)
    assert closer


@pytest.mark.parametrize("p", [
    LacParams.defaults(),
    # L(A) = A + 1/A: the exact fold level 2
    LacParams(c0=0, c=1, gamma=1, v=0, delta=1, h=1, n=2),
    # the exact end levels L(0+) = 3/2 and L(infinity) = 1
    LacParams(n=1, **LEVEL_AT_ZERO),
    LacParams(n=3, **{**LAC, "delta": F(0)}),
])
def test_sample_flags_match_fraction_loop(p):
    # ranges whose ends are a box's lo, a box's hi or an exact level, and
    # two levels outside every box
    critical = critical_lactose_values(p)
    ends = sorted({x for c in critical for x in (c.lo, c.hi)} | {F(1, 10), F(5, 2)})
    flagged = 0
    for lo, hi in ((lo, hi) for lo in ends for hi in ends if lo < hi):
        for samples in (2, 3, 4, 5, 7, 12, 25, 60):
            report = bifurcation_curve(p, (lo, hi), samples)
            assert report.critical == tuple(critical)
            expected = []
            for i in range(samples):
                L = lo + (hi - lo) * i / (samples - 1)
                expected.append((L, any(box_contains(c, L) or c.lo == L for c in critical)))
            assert [(pt.L, pt.boundary) for pt in report.samples] == expected
            # the end samples are flagged exactly when the range ends on a box
            assert report.samples[0].boundary == any(c.lo <= lo <= c.hi for c in critical)
            assert report.samples[-1].boundary == any(c.lo <= hi <= c.hi for c in critical)
            flagged += sum(pt.boundary for pt in report.samples)
    assert flagged


def test_wronskian_on_integers(rng):
    for p in census_models(rng):
        P, Q = _lactose_curve(p)
        p_ref, q_ref = Poly("A", P), Poly("A", Q)
        W = derivative(p_ref) * q_ref - p_ref * derivative(q_ref)
        assert _wronskian(P, Q) == (_integers(W) if W else ())


def eager_samples(p, l_range, samples, precision):
    """Every sample's branches built at once, from the public eliminant and
    the halving loop in conftest."""
    lo, hi = l_range
    out = []
    for i in range(samples):
        L = lo + (hi - lo) * i / (samples - 1)
        elim = eliminate_M(p.with_lactose(L))
        roots = tuple(ref_residual(elim, box, RESIDUAL_TARGET)
                      for box in isolate_real_roots(elim, "positive", precision))
        out.append(SimpleNamespace(L=L, roots=roots, count=len(roots)))
    return out


def test_lazy_samples_match_eager_reference(rng, monkeypatch):
    from operon import lacmodel

    built = []
    branches = lacmodel._branches
    monkeypatch.setattr(lacmodel, "_branches", lambda *args: built.append(1) or branches(*args))
    jitter = [F(k, 20) for k in range(18, 23)]
    models = [LacParams.defaults(), LacParams(n=4, **SPURIOUS),
              LacParams(n=3, **{**LAC, "delta": F(0)}), LacParams(n=1, **LEVEL_AT_ZERO)]
    models += [LacParams(n=n, **{k: v * rng.choice(jitter) for k, v in LAC.items()})
               for n in (2, 3, 6, 9)]
    for p in models:
        l_range, samples = (F(1, 10), F(5, 2)), rng.randint(2, 9)
        precision = F(1, 10 ** rng.choice([3, 6, 9]))
        report = bifurcation_curve(p, l_range, samples, precision)
        assert not built
        eager = eager_samples(p, l_range, samples, precision)
        assert [pt.L for pt in report.samples] == [e.L for e in eager]
        assert [pt.roots for pt in report.samples] == [e.roots for e in eager]
        assert [pt.count for pt in report.samples] == [e.count for e in eager]
        assert bifurcation_csv(report) == bifurcation_csv(
            BifurcationReport(report.critical, report.regions, tuple(eager)))
        assert len(built) == samples  # each sample builds its branches once
        built.clear()


def test_bifurcation_stays_on_integers(monkeypatch):
    # P and Q are built once per call, and neither the critical levels nor
    # the census nor the branches build a Poly or clear a content
    from operon import exactpoly, lacmodel, realroots

    models = [LacParams.defaults(), LacParams(n=4, **SPURIOUS), LacParams(n=1, **LEVEL_AT_ZERO),
              LacParams(n=3, **{**LAC, "delta": F(0)}), LacParams(n=3, **{**LAC, "c0": F(0), "c": F(0)})]

    def analyse(p):
        report = bifurcation_curve(p, (F(1, 10), F(5, 2)), 4)
        return report, [pt.roots for pt in report.samples], critical_lactose_values(p)

    expected = [analyse(p) for p in models]
    curves = []
    lactose_curve = lacmodel._lactose_curve
    monkeypatch.setattr(lacmodel, "_lactose_curve", lambda p: curves.append(p) or lactose_curve(p))

    def refuse(*args, **kwargs):
        raise AssertionError("left the integer path")

    monkeypatch.setattr(exactpoly.Poly, "__init__", refuse)
    for module in (exactpoly, lacmodel, realroots):
        if hasattr(module, "clear_content"):
            monkeypatch.setattr(module, "clear_content", refuse)
    assert [analyse(p) for p in models] == expected
    assert len(curves) == 2 * len(models)


# ---------------------------------------------------------------------------
# the records are frozen plain classes: what a frozen dataclass gave them

DEFAULTS_REPR = ("LacParams(c0=Fraction(1, 20), c=Fraction(1, 1), gamma=Fraction(1, 1), "
                 "v=Fraction(1, 1), delta=Fraction(1, 5), h=Fraction(2, 1), n=5, L=None)")


FIELDS = {
    LacParams: ("c0", "c", "gamma", "v", "delta", "h", "n", "L"),
    SteadyState: ("A", "M", "R", "multiplicity"),
    Region: ("lo", "hi", "count"),
    SamplePoint: ("L", "boundary"),
    BifurcationReport: ("critical", "regions", "samples"),
}


def fields_of(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def small_records():
    """One record of each ODE class, each with a twin equal to it."""
    state = SteadyState(RootBox(F(1), F(1)), RootBox(F(1, 2), F(1)), RootBox(F(0), F(1, 4)))
    region = Region(F(0), None, 1)
    return [LacParams.defaults(), state, region, BifurcationReport((), (region,), ())]


def test_ode_records_print_as_before():
    assert repr(LacParams.defaults()) == DEFAULTS_REPR
    assert repr(LacParams.defaults().with_lactose(1)) == DEFAULTS_REPR.replace(
        "L=None", "L=Fraction(1, 1)")
    params, state, region, report = small_records()
    assert repr(state) == (
        "SteadyState(A=RootBox(lo=Fraction(1, 1), hi=Fraction(1, 1), multiplicity=1), "
        "M=RootBox(lo=Fraction(1, 2), hi=Fraction(1, 1), multiplicity=1), "
        "R=RootBox(lo=Fraction(0, 1), hi=Fraction(1, 4), multiplicity=1), multiplicity=1)")
    assert repr(region) == "Region(lo=Fraction(0, 1), hi=None, count=1)"
    assert repr(report) == ("BifurcationReport(critical=(), regions=(Region(lo=Fraction(0, 1), "
                            "hi=None, count=1),), samples=())")
    samples = bifurcation_curve(params, (F(1, 10), F(5, 2)), 2).samples
    assert repr(samples) == ("(SamplePoint(L=Fraction(1, 10), boundary=False), "
                             "SamplePoint(L=Fraction(5, 2), boundary=False))")


def test_ode_records_compare_and_hash_by_class_and_fields():
    for record, twin in zip(small_records(), small_records()):
        assert record is not twin and record == twin and hash(record) == hash(twin)
        assert hash(record) == hash(fields_of(record))
        assert (record == fields_of(record)) is False
    params = LacParams.defaults()
    assert params != params.with_lactose(1) and params != LacParams(**{**LAC, "n": 4})
    assert Region(F(0), None, 1) != Region(F(0), None, 3)
    assert len({params, LacParams.defaults(), params.with_lactose(1)}) == 2
    # a sample compares by L and boundary, not by its curve or its roots
    first, second = (bifurcation_curve(params, (F(1, 10), F(5, 2)), 3).samples
                     for _ in range(2))
    first[1].roots
    assert first == second and hash(first) == hash(second)
    assert first[0] != first[1]


def test_ode_records_are_frozen():
    params, state, region, report = small_records()
    sample = bifurcation_curve(params, (F(1, 10), F(5, 2)), 2).samples[0]
    for record in (params, state, region, report, sample):
        for name in (*FIELDS[type(record)], "_curve", "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_ode_records_take_keywords():
    params = LacParams(c0=F(1, 20), c=1, gamma=1, v=1, delta=F(1, 5), h=2, n=5)
    assert params == LacParams.defaults()
    assert all(type(getattr(params, name)) is F for name in ("c", "gamma", "v", "h"))
    assert type(params.with_lactose(3).L) is F
    assert type(LacParams(**{**LAC, "n": 5, "L": 3}).L) is F
    box = RootBox(F(1), F(1))
    assert SteadyState(A=box, M=box, R=box, multiplicity=2) == SteadyState(box, box, box, 2)
    assert Region(lo=F(0), hi=None, count=1) == Region(F(0), None, 1)
    assert BifurcationReport(critical=(), regions=(), samples=()) == BifurcationReport((), (), ())
    with pytest.raises(TypeError):
        SteadyState(box, box)


def test_replace_runs_the_checks_again():
    params = LacParams.defaults()
    # test_hill_exponent_cap checks replace against MAX_HILL
    assert params.replace() == params
    assert params.replace(L=3) == params.with_lactose(3) and type(params.replace(L=3).L) is F
    with pytest.raises(ValueError, match="gamma must be positive"):
        params.replace(gamma=0)
    with pytest.raises(TypeError):
        params.replace(m=1)
    # a sample keeps its curve, so the copy still finds its branches
    sample = bifurcation_curve(params, (F(1, 10), F(5, 2)), 2).samples[0]
    moved = sample.replace(L=F(1))
    assert moved == SamplePoint(F(1), False, sample._curve)
    assert moved.count == steady_state_count(params, 1) == 3


def test_sample_roots_are_found_once(monkeypatch):
    from operon import lacmodel

    report = bifurcation_curve(LacParams.defaults(), (F(1, 10), F(5, 2)), 3)
    found = []
    branches = lacmodel._branches
    monkeypatch.setattr(lacmodel, "_branches", lambda *args: found.append(args) or branches(*args))
    sample = report.samples[1]
    assert found == []
    roots = sample.roots
    assert len(found) == 1 and len(roots) == sample.count == 3
    assert sample.roots is roots and len(found) == 1


def test_ode_records_pickle_and_copy(lac_ode):
    params = load_ode(lac_ode)
    states = steady_states_at(params, 1)
    report = bifurcation_curve(params, (F(1, 10), F(5, 2)), 5)
    counts = [pt.count for pt in report.samples]
    for record in (params, params.with_lactose(1), states, report, *small_records()):
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert clone == record and repr(clone) == repr(record)
    # a copied report's samples carry the curve: their branches can still
    # be found, whether or not the original had found them
    fresh = bifurcation_curve(params, (F(1, 10), F(5, 2)), 5)
    for original in (report, fresh):
        for clone in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
            assert [pt.count for pt in clone.samples] == counts
            assert [pt.roots for pt in clone.samples] == [pt.roots for pt in report.samples]
