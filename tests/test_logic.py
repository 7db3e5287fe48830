"""Parser and evaluator for Boolean expressions."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from operon import logic
from operon.errors import ParseError
from operon.gf2 import VarSet, translate_expr
from operon.logic import And, Const, Not, Or, Var, Xor, evaluate, parse_expr

from conftest import all_assignments, parse_outcome, random_expr, ref_evaluate, ref_parse_expr


def test_precedence_not_and_xor_or():
    # NOT binds tightest, then AND, XOR, OR.
    assert parse_expr("a | b & c") == Or(Var("a"), And(Var("b"), Var("c")))
    assert parse_expr("!a & b") == And(Not(Var("a")), Var("b"))
    assert parse_expr("!a ^ b & c | d") == Or(
        Xor(Not(Var("a")), And(Var("b"), Var("c"))), Var("d")
    )


def test_left_associativity():
    assert parse_expr("a ^ b ^ c") == Xor(Xor(Var("a"), Var("b")), Var("c"))
    assert parse_expr("a | b | c") == Or(Or(Var("a"), Var("b")), Var("c"))
    assert parse_expr("a & b & c") == And(And(Var("a"), Var("b")), Var("c"))


def test_parentheses_and_constants():
    assert parse_expr("(a | b) & c") == And(Or(Var("a"), Var("b")), Var("c"))
    assert parse_expr("!(a)") == Not(Var("a"))
    assert parse_expr("1 ^ 0") == Xor(Const(1), Const(0))
    assert parse_expr("!!x") == Not(Not(Var("x")))


MALFORMED_EXPRS = {
    "": "empty expression",
    "a &": "unexpected end of expression",
    "& a": "unexpected '&' at column 1",
    "(a": "unexpected end of expression",
    "a)": "unexpected ')' at column 2",
    "a b": "unexpected 'b' at column 3",
    "a $ b": "unexpected character '$' in expression",
    "a !b": "unexpected '!' at column 3",
}


@pytest.mark.parametrize("text", list(MALFORMED_EXPRS))
def test_parse_errors(text):
    with pytest.raises(ParseError) as excinfo:
        parse_expr(text)
    assert str(excinfo.value) == MALFORMED_EXPRS[text]


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError, match="line 7"):
        parse_expr("a &", line=7)
    err = None
    try:
        parse_expr("(a", line=7)
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 7


def test_evaluate_golden():
    expr = parse_expr("!R & C")
    assert evaluate(expr, {"R": 0, "C": 1}) == 1
    assert evaluate(expr, {"R": 1, "C": 1}) == 0
    assert evaluate(expr, {"R": 0, "C": 0}) == 0


def test_evaluate_truncates_to_bit():
    assert evaluate(Var("a"), {"a": 3}) == 1
    assert evaluate(Var("a"), {"a": 2}) == 0


def test_evaluate_truth_tables_match_rows(rng):
    # one wide evaluation gives every row of the scalar truth table
    names = ["a", "b", "c", "d"]
    rows = list(all_assignments(names))
    full = (1 << len(rows)) - 1
    tables = {n: sum(env[n] << r for r, env in enumerate(rows)) for n in names}
    for _ in range(50):
        expr = random_expr(rng, names)
        wide = evaluate(expr, tables, full)
        assert wide == sum(evaluate(expr, env) << r for r, env in enumerate(rows))


def test_evaluate_missing_identifier():
    with pytest.raises(ValueError, match="no value for identifier 'q'"):
        evaluate(Var("q"), {})


def variables(expr):
    """The identifiers of an expression, by a walk over its tree."""
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Not):
        return variables(expr.arg)
    return variables(expr.left) | variables(expr.right)


def test_variables():
    names = {}
    expr = parse_expr("!g & (L | a) ^ 1", names=names)
    assert variables(expr) == set(names) == {"g", "L", "a"}
    assert variables(Const(0)) == set()


def test_substitute_matches_evaluation(rng):
    # values are substituted as the expression is translated: bound variables
    # drop out of the polynomial, whose values are the expression's under the
    # same binding
    names = ["a", "b", "c", "d"]
    vars = VarSet(names)
    for _ in range(50):
        expr = random_expr(rng, names)
        bound = {n: rng.randrange(2) for n in rng.sample(names, rng.randint(0, 4))}
        partial = translate_expr(expr, vars, bound)
        mask = partial.support_mask()
        assert not any(mask >> i & 1 for i, n in enumerate(names) if n in bound)
        for env in all_assignments(names):
            assert ref_evaluate(partial, env) == evaluate(expr, env | bound)


def test_substitute_full_binding_leaves_constants(rng):
    names = ["p", "q"]
    expr = parse_expr("p & !q | p ^ q")
    for env in all_assignments(names):
        reduced = translate_expr(expr, VarSet(names), env)
        assert reduced.support_mask() == 0
        assert ref_evaluate(reduced, {}) == evaluate(expr, env)


def test_depth_cap_boundaries():
    cap = logic.MAX_DEPTH
    inside = [
        "(" * cap + "a" + ")" * cap,
        "!" * cap + "a",
        " | ".join(["a"] * (cap + 1)),
        "a & (" * cap + "a" + ")" * cap,
    ]
    for text in inside:
        expr = parse_expr(text)
        # the walkers recurse once per level and stay inside the stack
        assert evaluate(expr, {"a": 1}) in (0, 1)
        assert variables(expr) == {"a"}
        bound = translate_expr(expr, VarSet(["a"]), {"a": 0})
        assert ref_evaluate(bound, {}) == evaluate(expr, {"a": 0})
        translate_expr(expr, VarSet(["a"]))
    outside = [
        "(" * (cap + 1) + "a" + ")" * (cap + 1),
        "!" * (cap + 1) + "a",
        " | ".join(["a"] * (cap + 2)),
        "!(" + " ^ ".join(["a"] * (cap + 1)) + ")",
    ]
    for text in outside:
        with pytest.raises(ParseError, match=f"deeper than {cap} levels") as info:
            parse_expr(text, line=4)
        assert info.value.line == 4


# the format's tokens, whitespace of several kinds, and characters outside
# the syntax; "x12", "1x" and "102" probe where an identifier ends
EXPR_TOKENS = ["a", "b", "x12", "1x", "102", "_q", "0", "1", "!", "&", "|", "^", "(", ")",
               " ", "\t", "\xa0", "\u2003", "$", "2", "\xe9", "'"]
SPACES = ["", " ", "  ", "\t", "\xa0", "\u2003"]


def assert_parses_as_reference(text, line=None):
    outcome = parse_outcome(parse_expr, text, line)
    assert outcome == parse_outcome(ref_parse_expr, text, line), text
    return outcome


def test_parse_expr_matches_reference_on_random_strings(rng):
    for _ in range(20000):
        text = "".join(rng.choice(EXPR_TOKENS) for _ in range(rng.randint(0, 16)))
        assert_parses_as_reference(text, rng.choice([None, 3]))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(EXPR_TOKENS), max_size=24).map("".join),
       st.sampled_from([None, 5]))
def test_parse_expr_matches_reference_hypothesis(text, line):
    assert_parses_as_reference(text, line)


def render(expr, rng):
    """expr as text, every binary node in parentheses, random whitespace."""
    space = lambda: rng.choice(SPACES)  # noqa: E731
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Not):
        return "!" + space() + render(expr.arg, rng)
    op = {And: "&", Or: "|", Xor: "^"}[type(expr)]
    left, right = render(expr.left, rng), render(expr.right, rng)
    return f"({space()}{left}{space()}{op}{space()}{right}{space()})"


def test_parse_expr_reads_rendered_trees(rng):
    names = ["a", "b", "x12", "_q"]
    for _ in range(2000):
        expr = random_expr(rng, names, depth=rng.randint(0, 8))
        text = render(expr, rng)
        assert assert_parses_as_reference(text) == ("ok", expr)


def test_parse_expr_collects_the_identifiers(rng):
    # the names a parse enters are those the tree walk finds, each with the
    # one Var that every occurrence shares
    for _ in range(500):
        expr = random_expr(rng, ["a", "b", "x12", "_q"], depth=rng.randint(0, 8))
        names = {}
        parsed = parse_expr(render(expr, rng), names=names)
        assert parsed == expr
        assert set(names) == variables(expr)
        assert all(var == Var(name) for name, var in names.items())


DEPTH = f"expression nested deeper than {logic.MAX_DEPTH} levels"
FIXED_EXPRS = {
    # an unexpected character is reported before a depth error
    "(" * 101 + "$": "unexpected character '$' in expression",
    # the depth error comes at the 101st operator, before the stray name
    " | ".join(["a"] * 102) + " x": DEPTH,
    # 60 outer NOT signs over a parenthesis of height 41
    "!" * 60 + "(" + "!" * 41 + "a)": DEPTH,
    "(" * 100 + "a" + ")" * 99: "unexpected end of expression",
    "(" * 100 + "a" + ")" * 99 + " b": "expected ')' at column 202",
    "a\t&\xa0b\u2003|\tc": Or(And(Var("a"), Var("b")), Var("c")),
    "!\xa0(\u2003x12 ^\t1)": Not(Xor(Var("x12"), Const(1))),
    "x12": Var("x12"),
    "1x": "unexpected 'x' at column 2",
    "102": "unexpected character '2' in expression",
    "a &\u2003)": "unexpected ')' at column 5",
}


@pytest.mark.parametrize("text", list(FIXED_EXPRS), ids=range(len(FIXED_EXPRS)))
def test_parse_expr_fixed_cases(text):
    expected = FIXED_EXPRS[text]
    outcome = assert_parses_as_reference(text, 9)
    if isinstance(expected, str):
        assert outcome == ("error", f"line 9: {expected}", 9)
    else:
        assert outcome == ("ok", expected)


# ---------------------------------------------------------------------------
# the nodes are frozen records: what a frozen dataclass gave them


def test_nodes_compare_by_class_and_fields():
    a, b, c = Var("a"), Var("b"), Var("c")
    assert And(a, b) == And(Var("a"), Var("b"))
    assert And(a, b) != And(a, c) and And(a, b) != And(c, b)
    assert And(a, b) != Or(a, b) and Or(a, b) != Xor(a, b) and And(a, b) != Xor(a, b)
    assert Not(a) != Not(b) and Const(0) != Const(1) and Var("a") != Const(1)
    assert parse_expr("!a ^ b & c | d") != parse_expr("!a ^ b & c | e")
    assert (And(a, b) == (a, b)) is False


def test_equal_nodes_hash_equal():
    first, second = parse_expr("!(a | 1) ^ b & c"), parse_expr("!(a|1)^b&c")
    assert first is not second and first == second
    assert hash(first) == hash(second)
    assert hash(And(Var("a"), Var("b"))) == hash((Var("a"), Var("b")))
    assert len({first, second, parse_expr("a")}) == 2


def test_node_repr():
    assert repr(parse_expr("!a & b")) == "And(left=Not(arg=Var(name='a')), right=Var(name='b'))"
    assert repr(parse_expr("0 ^ x | y")) == \
        "Or(left=Xor(left=Const(value=0), right=Var(name='x')), right=Var(name='y'))"


@pytest.mark.parametrize("node,field", [
    (Var("a"), "name"), (Const(1), "value"), (Not(Var("a")), "arg"),
    (And(Var("a"), Var("b")), "left"), (Or(Var("a"), Var("b")), "right"),
    (Xor(Var("a"), Var("b")), "left"), (Var("a"), "other"),
])
def test_nodes_are_frozen(node, field):
    with pytest.raises(AttributeError):
        setattr(node, field, Var("z"))
    with pytest.raises(AttributeError):
        delattr(node, field)


def test_nodes_pickle_and_copy():
    expr = parse_expr("!(a | 1) ^ b & c | !a")
    for clone in (pickle.loads(pickle.dumps(expr)), copy.deepcopy(expr), copy.copy(expr)):
        assert clone == expr and repr(clone) == repr(expr)
    assert pickle.loads(pickle.dumps(expr)) is not expr


def test_nodes_take_keywords():
    assert And(left=Var(name="a"), right=Const(value=1)) == And(Var("a"), Const(1))
    assert Not(arg=Var("a")) == Not(Var("a"))
    assert Or(Var("a"), right=Var("b")) == Or(Var("a"), Var("b"))
    with pytest.raises(TypeError):
        And(Var("a"))
