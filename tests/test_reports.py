"""The indented JSON reports are `errors.json_text`'s rendering, which is
byte for byte `json.dumps(..., indent=2)`'s."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from operon import boolnet, lacmodel
from operon.cli import main
from operon.errors import json_text, parse_rational

from conftest import SEED

# str, non-ASCII and control characters and lone surrogates included
texts = st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=0x10FFFF,
                                       blacklist_categories=()), max_size=6)
trees = st.recursive(
    texts | st.integers() | st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=30)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(trees)
def test_json_text_is_json_dumps(tree):
    assert json_text(tree) == json.dumps(tree, indent=2)


def test_json_text_edge_shapes():
    for tree in ([], {}, [[]], [{}], {"": []}, {"": {"": ""}}, "", 0, -1,
                 {"é\n\x00 \ud800": ["\x7f", "\U0001f600"]}):
        assert json_text(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize("tree", [
    True, [False], 1.0, [0.5], None, {"a": None}, {1: "a"}, {None: 1}, {True: 1},
    (1, 2), {"a": {2.0: 1}}, [b"x"],
])
def test_json_text_refuses_other_types(tree):
    # json would print these (some with changed keys); json_text never
    # prints anything json would print differently
    with pytest.raises(TypeError):
        json_text(tree)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def random_network_text(rng, n, k):
    names = [f"x{i}" for i in range(n)]
    params = [f"p{i}" for i in range(k)]
    idents = names + params

    def expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return ("!" if rng.random() < 0.3 else "") + rng.choice(idents)
        op = rng.choice(" & | ^ ".split())
        return f"({expr(depth - 1)} {op} {expr(depth - 1)})"

    lines = ["network random", f"vars: {', '.join(names)}"]
    if params:
        lines.append(f"params: {', '.join(params)}")
    lines += [f"{x}' = {expr(3)}" for x in names]
    return "\n".join(lines) + "\n"


def test_all_params_json_bytes(capsys, tmp_path, lac_bn):
    # the rows as json.dumps printed them, on the bundled network and on
    # random ones with zero to four parameters, under every method
    rng = random.Random(SEED + 900)
    models = [lac_bn]
    for i in range(12):
        path = tmp_path / f"net{i}.bn"
        path.write_text(random_network_text(rng, rng.randint(1, 6), i % 5))
        models.append(str(path))
    for model in models:
        net = boolnet.load_network(model)
        for method in (None, "enumerate", "groebner"):
            rows = {",".join(f"{p}={v}" for p, v in setting.items()):
                    ["".join(map(str, point)) for point in points]
                    for setting, points in net.fixed_points_by_setting(method)}
            argv = ["fixed-points", model, "--all-params", "--json"]
            assert run(capsys, *argv, *(["--method", method] if method else [])) == (
                0, json.dumps(rows, indent=2) + "\n", "")


@pytest.mark.parametrize("model,level,digits", [
    ("lac", "1", "5"), ("lac", "1", "0"), ("lac", "1/2", "12"), ("no-steady-state", "1/100", "5"),
])
def test_steady_states_bytes(capsys, tmp_path, lac_ode, model, level, digits):
    # with c0 = 0 and little lactose the only steady state is A = 0, which
    # is not positive: the report is an empty list
    path = lac_ode
    if model == "no-steady-state":
        path = tmp_path / "c0zero.ode"
        text = Path(lac_ode).read_text(encoding="utf-8")
        assert "\nc0    = 1/20\n" in text
        path.write_text(text.replace("\nc0    = 1/20\n", "\nc0    = 0\n"))
    params = lacmodel.load_ode(path)
    states = lacmodel.steady_states_at(params, parse_rational(level))
    expected = json.dumps([state.as_dict(int(digits)) for state in states], indent=2) + "\n"
    assert run(capsys, "ode", "steady-states", str(path), "--L", level,
               "--digits", digits) == (0, expected, "")
    assert (expected == "[]\n") == (model == "no-steady-state")
