"""Synchronous Boolean network dynamics and the network file format."""

import copy
import io
import json
import pickle
import random
import sys
import tracemalloc
from array import array
from collections import Counter

import pytest

from operon import boolnet, gf2, logic
from operon.boolnet import (
    BooleanNetwork,
    decode_state,
    load_network,
    parse_network,
)
from operon.errors import ParseError
from operon.gf2 import VarSet
from operon.groebner import ENUMERATE_CAP, solve_boolean_system

from conftest import (SEED, encode_state, leaves, parse_outcome, random_expr, ref_attractors,
                      ref_parse_expr, ref_successors, render)

FIXED_POINTS = {
    (0, 0): ["000110000"],
    (0, 1): ["000010000"],
    (1, 0): ["111101111"],
    (1, 1): ["000010000"],
}


def bits(s):
    return tuple(int(c) for c in s)


@pytest.fixture
def net(lac_bn):
    return load_network(lac_bn)


# ---------------------------------------------------------------------------
# parsing


def test_parse_golden_network(net):
    assert net.name == "lac"
    assert list(net.vars) == ["M", "P", "B", "C", "R", "A", "Al", "L", "Ll"]
    assert net.params == ("a", "g")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_network("network n\nvars: a, b\na' = b &\nb' = a\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("vars: a\na' = a\n", "network"),
        ("network n\na' = a\n", "vars"),
        ("network n\nvars: a, a\na' = a\n", "duplicate"),
        ("network n\nvars: a, b\na' = a\n", "missing update rule"),
        ("network n\nvars: a\na' = a\na' = a\n", "duplicate update rule"),
        ("network n\nvars: a\na' = q\n", "undeclared identifier"),
        ("network n\nvars: a\nparams: a\na' = a\n", "both"),
        ("network n\nvars: a\nq' = a\na' = a\n", "q"),
        ("network n\nvars: a\nparams: p, p\na' = p\n", "duplicate parameter name 'p'"),
        ("network n\n", "missing 'vars:' line"),
        ("network n\nvars: a,,b\na' = a\n", "empty name in list"),
        # the header, in order: network, vars:, then at most one params: line
        ("", "empty network file"),
        ("# c\n", "empty network file"),
        ("network n\n\n# only\n", "missing 'vars:' line"),
        ("network n\nparams: p\nvars: a\n", "line 2: expected a 'vars:' line"),
        ("network n\nvars: a\na' = a\nparams: p\n",
         "line 4: expected an update rule of the form \"X' = <expr>\""),
        ("network n\nvars: a\nparams: p\nparams: q\na' = a\n",
         "line 4: expected an update rule of the form \"X' = <expr>\""),
        ("network n\nvars: a\nparams:\na' = a\n", "line 3: empty name list"),
        ("network n\nvars: a\nparams: p\n", "missing update rule for: a"),
        ("network n\n# c\n\nvars: a\n", "missing update rule for: a"),
    ],
)
def test_parse_rejects_malformed(text, message):
    with pytest.raises(ParseError, match=message):
        parse_network(text)


@pytest.mark.parametrize("rule,name", [
    ("a' = q & b", "b"),
    ("a' = zz | !q", "q"),
    ("a' = (y ^ x) & a & y", "x"),
])
def test_parse_names_the_first_undeclared_identifier(rule, name):
    # two undeclared names in one rule: the alphabetically first is named
    with pytest.raises(ParseError) as err:
        parse_network(f"network n\nvars: a\n{rule}\n")
    assert str(err.value) == f"line 3: undeclared identifier '{name}'"
    assert err.value.line == 3


def ref_rules(first_line, declared, bodies):
    """The rules parse_network reads from bodies, one a line from first_line
    on, each by ref_parse_expr with its undeclared names found by a walk."""
    rules = []
    for lineno, body in enumerate(bodies, first_line):
        expr = ref_parse_expr(body, lineno)
        undeclared = {leaf.name for leaf in leaves(expr)} - set(declared)
        if undeclared:
            raise ParseError(f"undeclared identifier '{min(undeclared)}'", lineno)
        rules.append(expr)
    return tuple(rules)


RULE_SOUP = ["x0", "x1", "p0", "zz", "0", "!", "&", "|", "^", "(", ")", "$"]


def test_parse_network_matches_reference_rule_by_rule(rng):
    for _ in range(1500):
        names = [f"x{i}" for i in range(rng.randint(1, 4))]
        params = [f"p{i}" for i in range(rng.randint(0, 3))]
        declared = names + params
        bodies = []
        for _ in names:
            roll = rng.random()
            if roll < 0.1:
                bodies.append("".join(rng.choice(RULE_SOUP) for _ in range(rng.randint(1, 6))))
            else:
                # the same few names in every rule, now and then undeclared ones
                pool = declared + ["zz", "q"] if roll < 0.25 else declared
                bodies.append(render(random_expr(rng, pool, depth=rng.randint(0, 4)), rng))
        header = ["network n", "vars: " + ", ".join(names)]
        header += ["params: " + ", ".join(params)] if params else []
        text = "\n".join(header + [f"{v}' = {b}" for v, b in zip(names, bodies)]) + "\n"
        expected = parse_outcome(ref_rules, len(header) + 1, declared, bodies)
        outcome = parse_outcome(parse_network, text)
        if outcome[0] == "ok":
            outcome = ("ok", outcome[1].rules)
            # every occurrence of a name, across all the rules, is one Var
            shared = {}
            for leaf in (leaf for rule in outcome[1] for leaf in leaves(rule)):
                assert shared.setdefault(leaf.name, leaf) is leaf, text
        assert outcome == expected, text


def test_rule_lookup(net):
    from operon import logic

    # rules are aligned with vars
    assert net.rules[net.vars.index("P")] == logic.Var("M")
    with pytest.raises(ValueError):
        net.vars.index("nope")


def test_check_params(net):
    assert net.check_params({"a": 1, "g": 0}) == {"a": 1, "g": 0}
    with pytest.raises(ValueError, match="missing value"):
        net.check_params({"a": 1})
    with pytest.raises(ValueError, match="unknown parameter"):
        net.check_params({"a": 1, "g": 0, "z": 1})
    with pytest.raises(ValueError, match="0 or 1"):
        net.check_params({"a": 2, "g": 0})


def test_check_state(net):
    with pytest.raises(ValueError, match="9"):
        net.check_state((1, 0))
    with pytest.raises(ValueError, match="0 or 1"):
        net.check_state((2, 0, 0, 0, 0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# dynamics


def test_step_golden(net):
    after = net.step(bits("111010011"), {"a": 1, "g": 0})
    assert after == bits("011111111")


def test_step_from_all_off(net):
    assert net.step((0,) * 9, {"a": 0, "g": 1}) == bits("000010000")


def test_trajectory_golden(net):
    t = net.trajectory(bits("111010011"), {"a": 1, "g": 0})
    expected = [
        "111010011",
        "011111111",
        "000101111",
        "100100101",
        "111100101",
        "111100111",
        "111101111",
    ]
    assert ["".join(map(str, s)) for s in t.states] == expected
    assert t.cycle_start == 6
    assert t.truncated is False
    assert t.cycle == (bits("111101111"),)


def test_trajectory_truncation(net):
    t = net.trajectory(bits("111010011"), {"a": 1, "g": 0}, max_steps=2)
    assert t.truncated is True
    assert t.cycle_start is None
    assert len(t.states) == 3
    with pytest.raises(ValueError):
        _ = t.cycle
    t = net.trajectory(bits("111010011"), {"a": 1, "g": 0}, max_steps=0)
    assert t.states == (bits("111010011"),) and t.truncated is True
    with pytest.raises(ValueError, match="must be nonnegative"):
        net.trajectory(bits("111010011"), {"a": 1, "g": 0}, max_steps=-1)


def test_full_orbit_past_the_cap_names_the_keyword():
    # the API names its own keyword; `operon simulate` names its flag
    names = [f"x{i}" for i in range(ENUMERATE_CAP + 1)]
    net = BooleanNetwork("copy", VarSet(names), (), tuple(logic.Var(x) for x in names))
    with pytest.raises(ValueError) as excinfo:
        net.trajectory((0,) * len(names), {})
    assert str(excinfo.value) == (
        f"a full orbit is followed only up to {ENUMERATE_CAP} variables "
        f"(got {len(names)}); set a step limit with max_steps")
    assert net.trajectory((0,) * len(names), {}, max_steps=1).cycle_start == 0


def test_trajectory_from_fixed_point(net):
    t = net.trajectory(bits("111101111"), {"a": 1, "g": 0})
    assert t.cycle_start == 0
    assert t.cycle == (bits("111101111"),)


# ---------------------------------------------------------------------------
# fixed points, both methods


@pytest.mark.parametrize("a,g", sorted(FIXED_POINTS))
def test_fixed_points_golden(net, a, g):
    expected = [bits(s) for s in FIXED_POINTS[a, g]]
    assert net.fixed_points({"a": a, "g": g}, method="groebner") == expected
    assert net.fixed_points({"a": a, "g": g}, method="enumerate") == expected


def test_step_agrees_with_polynomial_system(net):
    # every variable's update polynomial must match the logical rule on all
    # 512 states under every parameter setting: 2048 state evaluations
    n = len(net.vars)
    for a in (0, 1):
        for g in (0, 1):
            setting = {"a": a, "g": g}
            system = net.to_polynomial_system(setting)
            gens = system.generators
            assert len(gens) == n
            for code in range(1 << n):
                state = decode_state(code, n)
                sigma = sum(b << i for i, b in enumerate(state))
                nxt = net.step(state, setting)
                # generator i is x_i + f_i, so at a state it evaluates to
                # current bit XOR next bit and vanishes exactly at fixed points
                for i in range(n):
                    assert gens[i].evaluate_mask(sigma) == (nxt[i] ^ state[i])


def test_agreement_table_matches_step(net):
    # a fixed point is a state that step maps to itself: all 512 states
    # under every parameter setting
    n = len(net.vars)
    states = [decode_state(code, n) for code in range(1 << n)]
    for a in (0, 1):
        for g in (0, 1):
            setting = {"a": a, "g": g}
            expected = [s for s in states if net.step(s, setting) == s]
            assert net.fixed_points(setting, method="enumerate") == expected
            assert net.fixed_points(setting) == expected


def test_route_choice_at_the_table_width(monkeypatch):
    # a ring shift register in ENUMERATE_CAP variables takes the agreement
    # table; one variable more, the Groebner basis
    solves = []
    monkeypatch.setattr(boolnet, "solve_boolean_system",
                        lambda *args: solves.append(args) or solve_boolean_system(*args))
    for n, expected_solves in ((ENUMERATE_CAP, 0), (ENUMERATE_CAP + 1, 1)):
        names = [f"x{i}" for i in range(n)]
        rules = tuple(logic.Var(names[(i + 1) % n]) for i in range(n))
        net = BooleanNetwork("shift", VarSet(names), (), rules)
        assert net.fixed_points({}) == [(0,) * n, (1,) * n]
        assert len(solves) == expected_solves


# ---------------------------------------------------------------------------
# state graphs


def test_state_graph_single_attractor(net):
    for a in (0, 1):
        for g in (0, 1):
            graph = net.state_graph({"a": a, "g": g})
            assert len(graph.attractors) == 1
            assert graph.basin_sizes == (512,)
            (cycle,) = graph.attractors
            assert [graph.bitstring(c) for c in cycle] == FIXED_POINTS[a, g]


def test_state_graph_invariants(net):
    graph = net.state_graph({"a": 1, "g": 0})
    assert len(graph.successors) == 512
    assert sum(graph.basin_sizes) == 512
    # cycles are closed under the successor map
    for cycle in graph.attractors:
        members = set(cycle)
        for c in cycle:
            assert graph.successors[c] in members
    # following the successors from every state reaches an attractor, and
    # each attractor is reached from as many states as its basin size
    label = {c: i for i, cycle in enumerate(graph.attractors) for c in cycle}
    landed = Counter()
    for code in range(512):
        current = code
        for _ in range(512):
            if current in label:
                break
            current = graph.successors[current]
        landed[label[current]] += 1
    assert tuple(landed[i] for i in range(len(graph.attractors))) == graph.basin_sizes


def test_state_graph_outputs(net):
    graph = net.state_graph({"a": 1, "g": 0})
    dot = "".join(graph.dot_pieces())
    assert dot.startswith("digraph states {\n")
    assert dot.endswith("}\n")
    assert '"111010011" -> "011111111";' in dot
    adj = json.loads("".join(graph.adjacency_pieces()))
    assert len(adj) == 512
    assert adj["111010011"] == "011111111"
    report = json.loads("".join(graph.attractor_pieces()))
    assert report == [{"cycle": ["111101111"], "basin_size": 512}]


def random_network(rng, n, k=None):
    """Random network with k parameters (by default up to two), constant
    rules and nested !/^."""
    names = [f"x{i}" for i in range(n)]
    params = tuple(f"p{i}" for i in range(rng.randint(0, 2) if k is None else k))
    idents = names + list(params)
    rules = []
    for _ in names:
        roll = rng.random()
        if roll < 0.1:
            rule = logic.Const(rng.randrange(2))
        else:
            rule = random_expr(rng, idents, depth=3)
            if roll < 0.4:
                rule = logic.Not(logic.Xor(logic.Not(rule), random_expr(rng, idents, depth=2)))
        rules.append(rule)
    return BooleanNetwork("random", VarSet(names), params, tuple(rules))


def settings_of(net):
    """Every parameter setting of net, in the order of its code."""
    k = len(net.params)
    return [dict(zip(net.params, decode_state(code, k))) for code in range(1 << k)]


@pytest.mark.parametrize("n", range(1, 11))
def test_truth_table_kernel_matches_step(n):
    # the all-states kernel against one independent step per state
    rng = random.Random(SEED + n)
    for _ in range(2):
        net = random_network(rng, n)
        for setting in settings_of(net):
            graph = net.state_graph(setting)
            for c in range(1 << n):
                assert graph.successors[c] == encode_state(net.step(decode_state(c, n), setting))
            cycles = [decode_state(cyc[0], n) for cyc in graph.attractors if len(cyc) == 1]
            for method in (None, "enumerate", "groebner"):
                assert net.fixed_points(setting, method=method) == cycles


def half_identity_network(rng, n, k):
    """A random network whose even-indexed variables copy themselves, so
    that its fixed points are many and spread over every block."""
    net = random_network(rng, n, k)
    rules = tuple(logic.Var(x) if i % 2 == 0 else rule
                  for i, (x, rule) in enumerate(zip(net.vars.names, net.rules)))
    return BooleanNetwork("half", net.vars, net.params, rules)


@pytest.mark.parametrize("width", [2, 3])
def test_agreement_blocks_match_step(monkeypatch, width):
    # agreement tables and state graphs in blocks of 2 or 3 variables: the
    # parameters, and after them the leading state variables, are the fixed
    # high bits of many blocks
    monkeypatch.setattr(gf2, "BLOCK_VARS", width)
    rng = random.Random(SEED + 300 + width)
    for n in range(1, 9):
        for k in range(4):
            for net in (random_network(rng, n, k), half_identity_network(rng, n, k)):
                states = [decode_state(code, n) for code in range(1 << n)]
                rows = []
                for setting in settings_of(net):
                    expected = [s for s in states if net.step(s, setting) == s]
                    assert net.fixed_points(setting) == expected
                    assert net.fixed_points(setting, "enumerate") == expected
                    rows.append((setting, expected))
                    check_against_references(net, setting)
                assert net.fixed_points_by_setting() == rows


@pytest.mark.parametrize("n", range(17, 21))
def test_agreement_blocks_at_the_real_width(n):
    # 2 to 16 blocks of 16 state variables, and up to 64 over the
    # parameters and variables together, against the Groebner engine
    rng = random.Random(SEED + 500 + n)
    for k in (0, 2):
        net = half_identity_network(rng, n, k)
        rows = net.fixed_points_by_setting()
        assert rows == [(s, net.fixed_points(s, "groebner")) for s in settings_of(net)]
        assert [points for _, points in rows] == [net.fixed_points(s) for s in settings_of(net)]
        assert any(points for _, points in rows)


def check_against_references(net, setting):
    # the state graph against the column join and the dict walk it replaced,
    # ranked and counted here as state_graph presents them
    graph = net.state_graph(setting)
    succ = ref_successors(net, setting)
    assert list(graph.successors) == succ
    cycles, attr_id = ref_attractors(succ)
    ranked = sorted(range(len(cycles)), key=lambda a: (len(cycles[a]), cycles[a][0]))
    basins = Counter(attr_id)
    assert graph.attractors == tuple(tuple(cycles[a]) for a in ranked)
    assert graph.basin_sizes == tuple(basins[a] for a in ranked)
    return graph


def counter_network(n):
    """The state code plus one, modulo 2^n: one cycle through every state."""
    names = [f"x{i}" for i in range(n)]
    rules = []
    for i in range(n):
        carry = None
        for name in names[i + 1 :]:
            carry = logic.Var(name) if carry is None else logic.And(carry, logic.Var(name))
        bit = logic.Var(names[i])
        rules.append(logic.Not(bit) if carry is None else logic.Xor(bit, carry))
    return BooleanNetwork("counter", VarSet(names), (), tuple(rules))


# 1-byte successor lanes up to 8 variables, 2-byte up to 16, then 4-byte
LANE_WIDTHS = (1, 2, 8, 9, 16, 17)


@pytest.mark.parametrize("n", LANE_WIDTHS)
def test_state_graph_matches_references(n):
    rng = random.Random(SEED + 100 + n)
    net = random_network(rng, n)
    for setting in settings_of(net):
        graph = check_against_references(net, setting)
        if n <= 10:
            for c in range(1 << n):
                assert graph.successors[c] == encode_state(net.step(decode_state(c, n), setting))


@pytest.mark.parametrize("n", (9, 17))
def test_successor_lanes_follow_the_byte_order(monkeypatch, n):
    # lanes are packed little-endian and swapped on a big-endian host, so
    # under the other byte order each successor reads byte-swapped
    net = random_network(random.Random(SEED + 600 + n), n)
    native = net._successors({p: 1 for p in net.params})
    monkeypatch.setattr(sys, "byteorder", "big" if sys.byteorder == "little" else "little")
    swapped = net._successors({p: 1 for p in net.params})
    swapped.byteswap()
    assert swapped == native


@pytest.mark.parametrize("n", LANE_WIDTHS)
def test_state_graph_edge_networks(n):
    size = 1 << n
    names = [f"x{i}" for i in range(n)]
    # constant rules: every state steps to one fixed point
    rules = tuple(logic.Const(i % 2) for i in range(n))
    graph = check_against_references(BooleanNetwork("constant", VarSet(names), (), rules), {})
    code = encode_state(i % 2 for i in range(n))
    assert tuple(graph.successors) == (code,) * size
    assert graph.attractors == ((code,),) and graph.basin_sizes == (size,)
    # the identity: 2^n fixed points, each its own basin
    rules = tuple(logic.Var(name) for name in names)
    graph = check_against_references(BooleanNetwork("identity", VarSet(names), (), rules), {})
    assert tuple(graph.successors) == tuple(range(size))
    assert graph.attractors == tuple((c,) for c in range(size))
    assert graph.basin_sizes == (1,) * size
    # a counter: one walk along a cycle through all 2^n states
    graph = check_against_references(counter_network(n), {})
    assert tuple(graph.successors) == tuple(range(1, size)) + (0,)
    assert graph.attractors == (tuple(range(size)),) and graph.basin_sizes == (size,)


def xor_ring(n):
    """x_i' = x_(i+1) XOR x_(i+2), indices modulo n."""
    names = [f"x{i}" for i in range(n)]
    rules = tuple(logic.Xor(logic.Var(names[(i + 1) % n]), logic.Var(names[(i + 2) % n]))
                  for i in range(n))
    return BooleanNetwork("ring", VarSet(names), (), rules)


def test_state_graph_memory():
    # 2^18 successors as 4-byte lanes in one array, built in blocks of 2^16
    # states, peak at 7.3 MB under tracemalloc; Python ints per state do not
    # fit under the bound
    net = xor_ring(18)
    tracemalloc.start()
    try:
        graph = net.state_graph({})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert sum(graph.basin_sizes) == len(graph.successors) == 1 << 18
    for code in (0, 1, 12345, (1 << 18) - 1):
        assert graph.successors[code] == encode_state(net.step(decode_state(code, 18), {}))


def identity_network(n):
    names = [f"x{i}" for i in range(n)]
    return BooleanNetwork("identity", VarSet(names), (), tuple(logic.Var(x) for x in names))


def ref_reports(graph):
    """The DOT, adjacency and attractor reports built as whole lists and
    dicts of bit strings and encoded by `json.dumps`, as they were before
    the reports were rendered by blocks, each ending with a line break."""
    bs = graph.bitstring
    edges = list(enumerate(graph.successors))
    dot = "\n".join(["digraph states {", *[f'  "{bs(c)}" -> "{bs(s)}";' for c, s in edges],
                     "}"]) + "\n"
    adjacency = json.dumps({bs(c): bs(s) for c, s in edges}, indent=2)
    attractors = json.dumps([{"cycle": [bs(c) for c in cycle], "basin_size": size}
                             for cycle, size in zip(graph.attractors, graph.basin_sizes)],
                            indent=2)
    return dot, adjacency + "\n", attractors + "\n"


def check_reports(graph):
    assert ("".join(graph.dot_pieces()), "".join(graph.adjacency_pieces()),
            "".join(graph.attractor_pieces())) == ref_reports(graph)


def test_reports_on_lac(net):
    for setting in settings_of(net):
        check_reports(net.state_graph(setting))


@pytest.mark.parametrize("width", [2, 3, 16])
def test_reports_match_json_dumps(monkeypatch, width):
    # blocks of 4 or 8 states: counters whose one cycle spans many blocks,
    # identity networks whose many one-state cycles fill a block, and
    # random networks, on whole blocks and on fewer states than one block
    monkeypatch.setattr(gf2, "BLOCK_VARS", width)
    rng = random.Random(SEED + 700 + width)
    nets = [counter_network(n) for n in (1, 2, 3, 5, 7)] + [xor_ring(n) for n in (3, 5, 6)]
    nets += [identity_network(n) for n in (1, 3, 6)]
    for n in range(1, 9):
        nets += [random_network(rng, n), half_identity_network(rng, n, 1)]
    long_cycles = 0
    for net in nets:
        for setting in settings_of(net):
            graph = net.state_graph(setting)
            check_reports(graph)
            long_cycles += len(graph.attractors[-1]) > 1 << width
    assert long_cycles or width == 16


def test_reports_of_a_graph_made_by_hand():
    # the record takes any successor array, attractors and basin sizes
    graph = boolnet.StateGraph(VarSet(["x", "y"]), array("B", [1, 0, 3, 2]),
                               ((0, 1), (2, 3)), (2, 2))
    check_reports(graph)
    check_reports(graph.replace(attractors=(), basin_sizes=()))


class CountingSink(io.TextIOBase):
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


@pytest.mark.parametrize("net,report", [
    (xor_ring(18), "attractor_pieces"),
    (counter_network(18), "attractor_pieces"),
    (identity_network(14), "attractor_pieces"),
    (counter_network(18), "adjacency_pieces"),
    (counter_network(18), "dot_pieces"),
], ids=["attractors-ring", "attractors-counter", "attractors-identity", "adjacency", "dot"])
def test_report_memory(monkeypatch, net, report):
    # written piece by piece, a report holds at most a block of 2^10 states
    # at once, one long cycle or a fixed point per state alike (2^14 of
    # them); held whole, these reports of 0.6 to 12.6 MB peaked at 1.3 to
    # 24 MB
    monkeypatch.setattr(gf2, "BLOCK_VARS", 10)
    graph = net.state_graph({})
    sink = CountingSink()
    tracemalloc.start()
    try:
        sink.writelines(getattr(graph, report)())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > len(graph.successors) * 4
    assert peak < 2 ** 20


@pytest.mark.parametrize("k", range(5))
def test_fixed_points_by_setting_matches_each_setting(k):
    # one agreement table over parameters and variables, against one solve
    # per setting by every method; every method lists the points ascending,
    # and the CLI prints them in that order
    rng = random.Random(SEED + 200 + k)
    ordered = 0
    for n in (1, 2, 4, 6):
        for net in (random_network(rng, n, k), half_identity_network(rng, n, k)):
            settings = settings_of(net)
            for method in (None, "enumerate", "groebner"):
                expected = [(s, net.fixed_points(s, method)) for s in settings]
                assert net.fixed_points_by_setting(method) == expected
                for _, points in expected:
                    assert points == sorted(points)
                    ordered += len(points) > 1
    assert ordered


def test_fixed_points_by_setting_on_lac(net):
    rows = net.fixed_points_by_setting()
    assert [tuple(s.values()) for s, _ in rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for setting, points in rows:
        assert points == [bits(FIXED_POINTS[setting["a"], setting["g"]][0])]


# ---------------------------------------------------------------------------
# state codes


def test_encode_decode_round_trip():
    for code in range(64):
        assert encode_state(decode_state(code, 6)) == code


def test_encoding_is_msb_first():
    assert encode_state((1, 0, 0)) == 4
    assert encode_state((0, 0, 1)) == 1
    assert decode_state(4, 3) == (1, 0, 0)


# ---------------------------------------------------------------------------
# networks, trajectories and state graphs are frozen records


def test_network_record(net, lac_bn):
    assert net == load_network(lac_bn) and hash(net) == hash(load_network(lac_bn))
    other = BooleanNetwork(net.name, net.vars, net.params, net.rules[::-1])
    assert net != other
    assert BooleanNetwork(name=net.name, vars=net.vars, params=net.params,
                          rules=net.rules) == net
    assert repr(net).startswith(f"BooleanNetwork(name='lac', vars={net.vars!r}, "
                                f"params=('a', 'g'), rules=({net.rules[0]!r}, ")
    for clone in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        assert clone == net and repr(clone) == repr(net)
        assert clone.fixed_points({"a": 1, "g": 0}) == net.fixed_points({"a": 1, "g": 0})
    with pytest.raises(AttributeError):
        net.name = "other"
    with pytest.raises(AttributeError):
        del net.rules


def test_trajectory_record(net):
    traj = net.trajectory(bits("000000000"), {"a": 1, "g": 0})
    assert traj == net.trajectory(bits("000000000"), {"a": 1, "g": 0})
    assert traj != net.trajectory(bits("000000000"), {"a": 1, "g": 0}, max_steps=1)
    assert hash(traj) == hash((traj.states, traj.cycle_start, traj.truncated))
    assert boolnet.Trajectory(states=traj.states, cycle_start=traj.cycle_start,
                              truncated=traj.truncated) == traj
    assert repr(boolnet.Trajectory(((0, 1),), 0, False)) == \
        "Trajectory(states=((0, 1),), cycle_start=0, truncated=False)"
    assert pickle.loads(pickle.dumps(traj)) == traj == copy.deepcopy(traj)
    with pytest.raises(AttributeError):
        traj.truncated = True


def test_state_graph_record(net):
    graph = net.state_graph({"a": 1, "g": 0})
    again = net.state_graph({"a": 1, "g": 0})
    assert graph == again and graph != net.state_graph({"a": 0, "g": 0})
    with pytest.raises(TypeError):
        hash(graph)
    fields = (graph.vars, graph.successors, graph.attractors, graph.basin_sizes)
    assert boolnet.StateGraph(*fields) == graph
    assert boolnet.StateGraph(vars=graph.vars, successors=graph.successors,
                              attractors=graph.attractors,
                              basin_sizes=graph.basin_sizes) == graph
    assert boolnet.StateGraph(graph.vars, array(graph.successors.typecode, [1] * 512),
                              graph.attractors, graph.basin_sizes) != graph
    assert repr(graph) == (f"StateGraph(vars={graph.vars!r}, successors={graph.successors!r}, "
                           f"attractors={graph.attractors!r}, "
                           f"basin_sizes={graph.basin_sizes!r})")
    for clone in (pickle.loads(pickle.dumps(again)), copy.deepcopy(again)):
        assert clone == graph and list(clone.attractor_pieces()) == list(graph.attractor_pieces())
        assert clone.successors == graph.successors
    for field in ("successors", "basin_sizes", "attractors"):
        with pytest.raises(AttributeError):
            setattr(graph, field, None)
        with pytest.raises(AttributeError):
            delattr(graph, field)
