"""End-to-end behavior of the `operon` command-line interface."""

import argparse
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from operon import __version__, boolnet, cli, gf2, groebner, model_path
from operon.cli import lactose_range, main, parse_rational
from operon.errors import source_lines

from conftest import SEED, planted_system

F = Fraction

# child processes find the package where this process imported it from
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}

FIXED_POINT_LINES = [
    "a=0,g=0: 000110000",
    "a=0,g=1: 000010000",
    "a=1,g=0: 111101111",
    "a=1,g=1: 000010000",
]

GB_LINES = [
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

ELIMINANT = "4*A^7 + (29 - 21*L)*A^6 - 42*L*A^5 + 4*A^2 + (9 - L)*A - 2*L"

GOLDEN = Path(__file__).parent / "golden"
# the goldens that bench/run.py also checks
BENCH_GOLDEN = Path(__file__).parents[1] / "bench" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    captured = capsys.readouterr()
    return excinfo.value.code, captured.err


# ---------------------------------------------------------------------------
# argument helpers


def test_parse_rational_forms():
    assert parse_rational("1/3") == F(1, 3)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational("1e-6") == F(1, 10**6)
    assert parse_rational("-2") == -2
    assert parse_rational("1_000") == 1000
    # no infinities, no stray underscores, no exponent beyond 10^6
    for bad in ("abc", "inf", "-Infinity", "nan", "15_", "1e1000001", "1E-1_000_001"):
        with pytest.raises(ValueError, match="invalid rational"):
            parse_rational(bad)


def test_lactose_range():
    assert lactose_range("0.1:2.5") == (F(1, 10), F(5, 2))
    with pytest.raises(ValueError, match="lo:hi"):
        lactose_range("1..2")


# ---------------------------------------------------------------------------
# Boolean commands


def test_groebner_golden(capsys, lac_gf2):
    code, out, _ = run(capsys, "groebner", lac_gf2, "--order", "lex")
    assert code == 0
    assert out.splitlines() == GB_LINES
    code, out, _ = run(capsys, "groebner", lac_gf2, "--order", "degrevlex")
    assert code == 0
    assert set(out.splitlines()) == set(GB_LINES)


def test_solve_golden(capsys, lac_gf2):
    for method in ("groebner", "enumerate"):
        code, out, _ = run(capsys, "solve", lac_gf2, "--method", method)
        assert code == 0
        assert out.splitlines() == ["111101111"]


def test_fixed_points_single_setting(capsys, lac_bn):
    code, out, _ = run(capsys, "fixed-points", lac_bn, "--set", "a=1,g=0")
    assert code == 0
    assert out.splitlines() == ["111101111"]


def test_fixed_points_json(capsys, lac_bn):
    code, out, _ = run(capsys, "fixed-points", lac_bn, "--set", "a=1,g=0", "--json")
    assert code == 0
    assert out.strip() == '["111101111"]'


def test_fixed_points_all_params(capsys, lac_bn):
    code, out, _ = run(capsys, "fixed-points", lac_bn, "--all-params")
    assert code == 0
    assert out.splitlines() == FIXED_POINT_LINES


def test_fixed_points_all_params_json(capsys, lac_bn):
    code, out, _ = run(capsys, "fixed-points", lac_bn, "--all-params", "--json")
    assert code == 0
    assert json.loads(out) == {
        "a=0,g=0": ["000110000"],
        "a=0,g=1": ["000010000"],
        "a=1,g=0": ["111101111"],
        "a=1,g=1": ["000010000"],
    }


def test_fixed_points_methods_agree(capsys, lac_bn):
    _, fast, _ = run(capsys, "fixed-points", lac_bn, "--all-params", "--method", "groebner")
    _, slow, _ = run(capsys, "fixed-points", lac_bn, "--all-params", "--method", "enumerate")
    assert fast == slow


def test_fixed_points_with_parameter_gated_products(capsys, tmp_path):
    # x0' = (p1 | x1) & ... & (p20 | x20) over 25 variables, the others
    # copying x0: over free parameters the rule has 3^20 monomials, but in one
    # setting it is a single product, and past ENUMERATE_CAP variables the
    # default route is the Groebner basis
    names = [f"x{i}" for i in range(25)]
    params = [f"p{i}" for i in range(1, 21)]
    gated = " & ".join(f"({p} | x{i})" for i, p in enumerate(params, 1))
    rules = [f"x0' = {gated}"] + [f"{x}' = x0" for x in names[1:]]
    model = tmp_path / "gated.bn"
    model.write_text("\n".join(["network gated", f"vars: {', '.join(names)}",
                                f"params: {', '.join(params)}", *rules]) + "\n")
    for bits, expected in (("1" * 20, ["1" * 25]), ("0" * 20, ["0" * 25, "1" * 25]),
                           ("01" * 10, ["0" * 25, "1" * 25])):
        setting = ",".join(f"{p}={b}" for p, b in zip(params, bits))
        start = time.perf_counter()
        code, out, _ = run(capsys, "fixed-points", str(model), "--set", setting)
        assert time.perf_counter() - start < 2.0
        assert code == 0 and out.splitlines() == expected


def test_fixed_points_param_validation(capsys, lac_bn):
    code, err = run_usage_error(capsys, "fixed-points", lac_bn, "--set", "a=2,g=0")
    assert code == 2
    assert "parameter values must be 0 or 1" in err
    code, err = run_usage_error(capsys, "fixed-points", lac_bn, "--set", "a=1")
    assert code == 2
    assert "missing value for parameter 'g'" in err
    code, err = run_usage_error(capsys, "fixed-points", lac_bn, "--set", "a=1,g=0,z=1")
    assert code == 2
    assert "unknown parameter 'z'" in err
    code, err = run_usage_error(capsys, "fixed-points", lac_bn, "--set", "a")
    assert code == 2
    assert "expected name=value" in err
    code, err = run_usage_error(capsys, "fixed-points", lac_bn, "--set", "a=1,a=0,g=0")
    assert code == 2
    assert "duplicate parameter 'a'" in err


def test_fixed_points_requires_exactly_one_mode(capsys, lac_bn):
    code, _ = run_usage_error(capsys, "fixed-points", lac_bn)
    assert code == 2
    code, _ = run_usage_error(capsys, "fixed-points", lac_bn, "--set", "a=1,g=0", "--all-params")
    assert code == 2


def test_simulate_golden(capsys, lac_bn):
    code, out, _ = run(capsys, "simulate", lac_bn, "--set", "a=1,g=0",
                       "--init", "111010011")
    assert code == 0
    assert out.splitlines() == [
        "0 111010011",
        "1 011111111",
        "2 000101111",
        "3 100100101",
        "4 111100101",
        "5 111100111",
        "6 111101111",
        "fixed point 111101111 reached at step 6",
    ]


def test_simulate_truncation(capsys, lac_bn):
    code, out, _ = run(capsys, "simulate", lac_bn, "--set", "a=1,g=0",
                       "--init", "111010011", "--steps", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "truncated after 2 steps"
    assert len(lines) == 4


def test_simulate_needs_a_step_limit_past_the_cap(capsys, tmp_path):
    # a binary counter, x24 the low bit: the orbit of 0...0 has 2^25 states
    names = [f"x{i}" for i in range(25)]
    rules = [f"{x}' = {x} ^ ({' & '.join(names[i + 1:])})" for i, x in enumerate(names[:-1])]
    rules.append("x24' = !x24")
    model = tmp_path / "counter.bn"
    model.write_text("\n".join(["network counter", f"vars: {', '.join(names)}", *rules]) + "\n")
    argv = ["simulate", str(model), "--set", "", "--init", "0" * 25]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == ("operon: a full orbit is followed only up to 24 variables (got 25); "
                   "set a step limit with --steps\n")
    code, out, _ = run(capsys, *argv, "--steps", "3")
    assert code == 0
    assert out.splitlines() == [f"{k} {k:025b}" for k in range(4)] + ["truncated after 3 steps"]


def test_simulate_zero_steps(capsys, lac_bn):
    code, out, _ = run(capsys, "simulate", lac_bn, "--set", "a=1,g=0",
                       "--init", "111010011", "--steps", "0")
    assert code == 0
    assert out.splitlines() == ["0 111010011", "truncated after 0 steps"]


def test_simulate_limit_cycle(capsys, tmp_path):
    model = tmp_path / "flip.bn"
    model.write_text("network flip\nvars: x\nx' = !x\n")
    code, out, _ = run(capsys, "simulate", str(model), "--set", "", "--init", "0")
    assert code == 0
    assert out.splitlines() == ["0 0", "1 1", "cycle of length 2 entered at step 0"]


def test_simulate_input_validation(capsys, lac_bn):
    code, err = run_usage_error(capsys, "simulate", lac_bn, "--set", "a=1,g=0",
                                "--init", "111")
    assert code == 2 and "9 characters" in err
    code, err = run_usage_error(capsys, "simulate", lac_bn, "--set", "a=1,g=0",
                                "--init", "111010011", "--steps", "-1")
    assert code == 2 and "nonnegative" in err


def test_state_graph_attractors(capsys, lac_bn):
    code, out, _ = run(capsys, "state-graph", lac_bn, "--set", "a=1,g=0",
                       "--attractors")
    assert code == 0
    assert json.loads(out) == [{"cycle": ["111101111"], "basin_size": 512}]


def test_state_graph_adjacency(capsys, lac_bn):
    code, out, _ = run(capsys, "state-graph", lac_bn, "--set", "a=0,g=1")
    assert code == 0
    adj = json.loads(out)
    assert len(adj) == 512
    assert adj["000000000"] == "000010000"


def test_state_graph_dot(capsys, lac_bn, tmp_path):
    target = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "state-graph", lac_bn, "--set", "a=1,g=0",
                       "--dot", str(target))
    assert code == 0
    assert out == ""  # writing a file replaces the default report
    text = target.read_text()
    assert text.startswith("digraph states {")
    assert text.count("->") == 512


def test_state_graph_golden_bytes(capsys, lac_bn, tmp_path):
    # each report is written piece by piece, in the bytes it had when it
    # was printed whole, to stdout in process and as a child process
    code, out, _ = run(capsys, "state-graph", lac_bn, "--set", "a=1,g=0", "--attractors")
    assert code == 0 and out == (GOLDEN / "state_graph_attractors.out").read_text()
    code, out, _ = run(capsys, "state-graph", lac_bn, "--set", "a=0,g=1")
    assert code == 0 and out == (GOLDEN / "state_graph_adjacency.out").read_text()
    child = subprocess.run([sys.executable, "-m", "operon", "state-graph", lac_bn,
                            "--set", "a=0,g=1"], capture_output=True, env=CHILD_ENV)
    assert child.returncode == 0
    assert child.stdout == (GOLDEN / "state_graph_adjacency.out").read_bytes()
    target = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "state-graph", lac_bn, "--set", "a=1,g=0", "--dot", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == (GOLDEN / "state_graph.dot").read_bytes()


@pytest.mark.parametrize("argv", [
    ["state-graph", "--set", ""],
    ["fixed-points", "--set", "", "--method", "enumerate"],
    ["fixed-points", "--all-params", "--method", "enumerate"],
])
def test_enumeration_cap(capsys, tmp_path, argv):
    names = [f"x{i}" for i in range(25)]
    rules = [f"{x}' = {names[(i + 1) % 25]}" for i, x in enumerate(names)]
    model = tmp_path / "wide.bn"
    model.write_text("network wide\nvars: " + ", ".join(names) + "\n" + "\n".join(rules) + "\n")
    code, out, err = run(capsys, argv[0], str(model), *argv[1:])
    assert code == 1 and out == ""
    assert err == "operon: enumeration is capped at 24 variables (got 25)\n"


def test_gf2_header_with_a_repeated_name(capsys, tmp_path):
    system = tmp_path / "dup.gf2"
    system.write_text("vars: x x\nx + 1\n")
    for command in ("solve", "groebner"):
        assert run(capsys, command, str(system)) == (
            1, "", "operon: line 1: duplicate variable name 'x'\n")


def test_closed_stdout_prints_nothing(tmp_path):
    # a 14-variable XOR ring's adjacency report is 622,595 bytes, more than a
    # pipe holds, so the child is still writing when its reader goes away
    names = [f"x{i}" for i in range(14)]
    model = tmp_path / "ring.bn"
    model.write_text(f"network ring\nvars: {', '.join(names)}\n" + "".join(
        f"{x}' = {names[(i + 1) % 14]} ^ {names[(i + 2) % 14]}\n" for i, x in enumerate(names)))
    child = subprocess.Popen([sys.executable, "-m", "operon", "state-graph", str(model),
                              "--set", ""], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=CHILD_ENV)
    first = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 1 and err == b""
    assert first == b"{\n"


def test_solve_enumeration_cap(capsys, tmp_path):
    # the same message as the network commands, with no Python syntax in it
    system = tmp_path / "wide.gf2"
    system.write_text("vars: " + " ".join(f"x{i}" for i in range(25)) + "\nx0 + x1\n")
    code, out, err = run(capsys, "solve", str(system), "--method", "enumerate")
    assert code == 1 and out == ""
    assert err == "operon: enumeration is capped at 24 variables (got 25)\n"


def _parameter_network(path, k):
    params = [f"p{i}" for i in range(k)]
    path.write_text("network knobs\nvars: x, y\nparams: " + ", ".join(params) + "\n"
                    + "x' = " + " ^ ".join(["y"] + params) + "\ny' = x\n")
    return str(path)


@pytest.mark.parametrize("extra", [[], ["--json"], ["--method", "enumerate"]])
def test_all_params_cap(capsys, tmp_path, monkeypatch, extra):
    # --all-params solves once for each of the 2^k settings; k = 40 ran
    # without bound
    model = _parameter_network(tmp_path / "wide.bn", 40)
    start = time.perf_counter()
    code, out, err = run(capsys, "fixed-points", model, "--all-params", *extra)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == "operon: --all-params is capped at 12 parameters (got 40); use --set\n"
    # the cap itself is allowed
    monkeypatch.setattr(cli, "MAX_ALL_PARAMS", 2)
    code, out, err = run(capsys, "fixed-points", _parameter_network(tmp_path / "two.bn", 2),
                         "--all-params", *extra)
    assert code == 0 and err == "" and "p0=1,p1=1" in out
    code, out, err = run(capsys, "fixed-points", _parameter_network(tmp_path / "three.bn", 3),
                         "--all-params", *extra)
    assert code == 1 and out == ""
    assert err == "operon: --all-params is capped at 2 parameters (got 3); use --set\n"


def _random_parameter_network(path, rng, n, k):
    names = [f"x{i}" for i in range(n)]
    idents = names + [f"p{i}" for i in range(k)]
    rules = []
    for x in names:
        a, b, c = (("!" if rng.random() < 0.3 else "") + rng.choice(idents) for _ in range(3))
        rules.append(f"{x}' = {a} {rng.choice('&|^')} ({b} {rng.choice('&|^')} {c})")
    params = f"params: {', '.join(idents[n:])}\n" if k else ""
    path.write_text(f"network rnd\nvars: {', '.join(names)}\n{params}" + "\n".join(rules) + "\n")
    return str(path)


@pytest.mark.parametrize("k", range(5))
def test_all_params_output_is_the_same_by_every_method(capsys, tmp_path, k):
    rng = random.Random(SEED + k)
    for n in (1, 3, 6):
        model = _random_parameter_network(tmp_path / f"rnd{n}.bn", rng, n, k)
        for extra in ([], ["--json"]):
            outputs = {run(capsys, "fixed-points", model, "--all-params", *extra, *method)
                       for method in ([], ["--method", "enumerate"], ["--method", "groebner"])}
            (output,) = outputs
            assert output[0] == 0 and output[2] == ""


@pytest.mark.parametrize("method", [[], ["--method", "enumerate"], ["--method", "groebner"]])
def test_all_params_without_parameters(capsys, tmp_path, method):
    # one setting, with an empty label
    model = tmp_path / "swap.bn"
    model.write_text("network swap\nvars: x, y\nx' = y\ny' = x\n")
    assert run(capsys, "fixed-points", str(model), "--all-params", *method) == (0, ": 00 11\n", "")
    code, out, _ = run(capsys, "fixed-points", str(model), "--all-params", "--json", *method)
    assert code == 0 and out == '{\n  "": [\n    "00",\n    "11"\n  ]\n}\n'


def test_all_params_routes(capsys, tmp_path, monkeypatch):
    # by default every setting is read off one agreement table over the
    # parameters and variables, and so it is with "enumerate" when parameters
    # and variables together pass ENUMERATE_CAP; --method groebner solves
    # each setting
    model = _parameter_network(tmp_path / "four.bn", 4)
    monkeypatch.setattr(groebner, "ENUMERATE_CAP", 6)
    tables, solves = [], []
    variable_tables = gf2.variable_tables
    monkeypatch.setattr(gf2, "variable_tables",
                        lambda n: tables.append(n) or variable_tables(n))
    monkeypatch.setattr(boolnet, "solve_boolean_system",
                        lambda *args: solves.append(args) or groebner.solve_boolean_system(*args))
    code, table, _ = run(capsys, "fixed-points", model, "--all-params")
    assert code == 0 and tables == [6] and solves == []
    tables.clear()
    assert run(capsys, "fixed-points", model, "--all-params", "--method", "groebner")[1] == table
    assert tables == [] and len(solves) == 16
    solves.clear()
    monkeypatch.setattr(groebner, "ENUMERATE_CAP", 5)
    assert run(capsys, "fixed-points", model, "--all-params", "--method", "enumerate")[1] == table
    assert tables == [6] and solves == []


def _cap_network(path, n=12):
    # 12 parameters over n variables, each rule reading two of each
    names = [f"x{i}" for i in range(n)]
    params = [f"p{i}" for i in range(12)]
    rules = [f"{x}' = (x{(i + 1) % n} & p{i % 12}) ^ (x{(i + 2) % n} | !p{(i + 1) % 12})"
             for i, x in enumerate(names)]
    path.write_text(f"network cap\nvars: {', '.join(names)}\nparams: {', '.join(params)}\n"
                    + "\n".join(rules) + "\n")
    return str(path), params


def test_all_params_at_the_cap_is_one_pass(capsys, tmp_path):
    # 12 parameters over 12 variables: the one agreement table over 2^24
    # codes, in 256 blocks, takes about 0.2 s; cutting a flat table into
    # the 4,096 settings by one shift per setting took 1.4 s more
    model, params = _cap_network(tmp_path / "cap.bn")
    start = time.perf_counter()
    code, out, err = run(capsys, "fixed-points", model, "--all-params")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 4096
    net = boolnet.load_network(model)
    for c in (0, 1, 2047, 4095):
        setting = dict(zip(params, gf2.decode_state(c, 12)))
        label = ",".join(f"{p}={v}" for p, v in setting.items())
        points = " ".join("".join(map(str, p)) for p in net.fixed_points(setting, "groebner"))
        assert lines[c] == f"{label}: {points}"


def test_all_params_table_cap(capsys, tmp_path, monkeypatch):
    # the agreement table spans k + n variables: 20 + 12 took 14 s
    model, _ = _cap_network(tmp_path / "wide.bn", 20)
    start = time.perf_counter()
    code, out, err = run(capsys, "fixed-points", model, "--all-params")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == ("operon: --all-params is capped at 30 parameters and variables together "
                   "on the tables (got 32); use --set\n")
    # "groebner" solves each setting alone, past the cap
    calls = []
    monkeypatch.setattr(boolnet.BooleanNetwork, "fixed_points_by_setting",
                        lambda net, method: calls.append(method) or [])
    assert run(capsys, "fixed-points", model, "--all-params", "--method", "groebner") \
        == (0, "", "")
    assert calls == ["groebner"]
    monkeypatch.undo()
    # the cap itself is allowed, on every route
    monkeypatch.setattr(cli, "MAX_ALL_PARAMS_TABLE", 6)
    for method in ([], ["--method", "enumerate"], ["--method", "groebner"]):
        code, out, err = run(capsys, "fixed-points", _parameter_network(tmp_path / "four.bn", 4),
                             "--all-params", *method)
        assert code == 0 and err == "" and "p0=1,p1=1,p2=1,p3=1" in out
    code, out, err = run(capsys, "fixed-points", _parameter_network(tmp_path / "five.bn", 5),
                         "--all-params")
    assert (code, out) == (1, "")
    assert err == ("operon: --all-params is capped at 6 parameters and variables together "
                   "on the tables (got 7); use --set\n")


def test_table_memory_at_the_cap(capsys, tmp_path):
    # flat truth tables over 2^24 codes held one 2 MB table per variable and
    # a 16 MB digit string: tracemalloc peaks of 67 MB for --all-params on
    # 12 + 12 and 60 MB for a solve in 24 variables.  Blocks of 16 variables
    # hold 8 KB tables; the peaks are 4 MB, most of it the 4,096 printed
    # rows, and 1 MB
    model, _ = _cap_network(tmp_path / "cap.bn")
    system, _ = planted_system(random.Random(SEED), 24)
    planted = tmp_path / "planted.gf2"
    planted.write_text(f"vars: {' '.join(system.vars.names)}\n"
                       + "".join(f"{gf2.format_poly(g)}\n" for g in system.generators))
    for argv in (("fixed-points", model, "--all-params"), ("solve", str(planted))):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out and err == ""
        assert peak < 8 * 2 ** 20, argv


# ---------------------------------------------------------------------------
# continuous-model commands


def test_ode_eliminate_golden(capsys, lac_ode):
    code, out, _ = run(capsys, "ode", "eliminate", lac_ode)
    assert code == 0
    assert out.strip() == ELIMINANT


def test_ode_steady_states(capsys, lac_ode):
    code, out, _ = run(capsys, "ode", "steady-states", lac_ode, "--L", "1")
    assert code == 0
    states = json.loads(out)
    assert [s["A"] for s in states] == ["0.22721", "0.69071", "2.37172"]
    for s, (a, m, r) in zip(states, [
        (F(227213, 10**6), F(50605, 10**6), F(999395, 10**6)),
        (F(690706, 10**6), F(185849, 10**6), F(864151, 10**6)),
        (F(2371720, 10**6), F(1036850, 10**6), F(13150, 10**6)),
    ]):
        assert abs(F(s["intervals"]["A"][0]) - a) < F(1, 10**3)
        assert abs(F(s["M"]) - m) < F(1, 10**3)
        assert abs(F(s["R"]) - r) < F(1, 10**3)


def test_ode_steady_states_at_the_models_lactose_level(capsys, tmp_path, lac_ode):
    # with no --L, a model that fixes L is solved at its own level, and
    # --L overrides it
    model = tmp_path / "lac_L1.ode"
    text = Path(lac_ode).read_text()
    assert "\nL     = sym\n" in text
    model.write_text(text.replace("\nL     = sym\n", "\nL     = 1\n"))
    assert run(capsys, "ode", "steady-states", str(model)) == (
        0, (BENCH_GOLDEN / "ode_steady_states_L1.out").read_text(), "")
    half = run(capsys, "ode", "steady-states", lac_ode, "--L", "1/2")
    assert half[0] == 0 and run(capsys, "ode", "steady-states", str(model), "--L", "1/2") == half


def test_ode_steady_states_requires_lactose_level(capsys, lac_ode):
    code, err = run_usage_error(capsys, "ode", "steady-states", lac_ode)
    assert code == 2
    assert "--L is required" in err


def test_ode_steady_states_digits(capsys, lac_ode):
    code, out, _ = run(capsys, "ode", "steady-states", lac_ode, "--L", "1",
                       "--digits", "3")
    assert code == 0
    assert json.loads(out)[0]["A"] == "0.227"


def test_ode_bifurcation_default_report(capsys, lac_ode):
    code, out, _ = run(capsys, "ode", "bifurcation", lac_ode)
    assert code == 0
    assert out.splitlines() == [
        "critical L1 = 0.68454",
        "critical L2 = 1.51054",
        "region counts: 1, 3, 1",
        "samples: 25, boundary: 0",
    ]


def test_ode_bifurcation_near_cusp_refused(capsys, lac_ode, tmp_path):
    # near the cusp c0 = 0.30299 the two fold levels are closer than the
    # default precision: the run is refused, with nothing on stdout
    model = tmp_path / "cusp.ode"
    text, found = re.subn(r"^c0 *=.*$", "c0 = 0.30299", Path(lac_ode).read_text(),
                          flags=re.MULTILINE)
    assert found == 1
    model.write_text(text)
    assert run(capsys, "ode", "bifurcation", str(model)) == (
        1, "", "operon: critical values are closer than the working precision; "
               "retry with a smaller precision\n")


def test_ode_bifurcation_csv(capsys, lac_ode, tmp_path):
    target = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "ode", "bifurcation", lac_ode,
                       "--range", "0.5:2", "--samples", "5", "--csv", str(target))
    assert code == 0
    assert out.splitlines()[-1] == f"wrote {target}"
    lines = target.read_text().splitlines()
    assert lines[0] == "L,A,branch,region_count"
    assert lines[1].startswith("0.500000,")


def test_ode_bifurcation_csv_write_failure_prints_nothing(capsys, lac_ode, tmp_path):
    target = tmp_path / "missing" / "sweep.csv"
    code, out, err = run(capsys, "ode", "bifurcation", lac_ode, "--csv", str(target))
    assert code == 1 and out == ""
    assert err.startswith("operon: ") and str(target) in err
    # on success the report reads as without --csv, then names the file
    target = tmp_path / "sweep.csv"
    _, plain, _ = run(capsys, "ode", "bifurcation", lac_ode)
    code, out, _ = run(capsys, "ode", "bifurcation", lac_ode, "--csv", str(target))
    assert code == 0 and out == plain + f"wrote {target}\n"


def test_ode_steady_states_golden_bytes(capsys, lac_ode):
    # every interval endpoint, not only the rounded values
    code, out, _ = run(capsys, "ode", "steady-states", lac_ode, "--L", "1")
    assert code == 0
    assert out == (BENCH_GOLDEN / "ode_steady_states_L1.out").read_text()


def test_ode_bifurcation_csv_golden_bytes(capsys, lac_ode, tmp_path):
    target = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "ode", "bifurcation", lac_ode, "--csv", str(target))
    assert code == 0
    assert target.read_bytes() == (GOLDEN / "ode_bifurcation.csv").read_bytes()


def test_ode_bifurcation_boundary_golden_bytes(capsys, lac_ode):
    # the range runs from the lo of the first critical box to the hi of the
    # second, so the two end samples are boundary samples and the middle one
    # is not
    code, out, _ = run(capsys, "ode", "bifurcation", lac_ode,
                       "--range", "4060/5931:5231/3463", "--samples", "3")
    assert code == 0
    assert out == (GOLDEN / "ode_bifurcation_boundary.out").read_text()
    assert out.endswith("samples: 3, boundary: 2\n")


def _ode_variant(tmp_path, **values) -> str:
    """The bundled lac.ode with some constants replaced."""
    lines = []
    for line in Path(model_path("lac.ode")).read_text().splitlines():
        key = line.split("=")[0].strip()
        lines.append(f"{key} = {values[key]}" if key in values else line)
    path = tmp_path / "variant.ode"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("values,expected", [
    # delta = 0: the level L(oo) = v, where the one steady state leaves
    (dict(delta="0"),
     ["critical L1 = 1.00000", "region counts: 1, 0", "samples: 25, boundary: 1"]),
    # c0 = 0, n = 1: the level L(0+) = gamma*delta/c, where one enters
    (dict(c0="0", c="13/10", gamma="1/2", v="23/4", delta="39/10", h="7/5", n="1"),
     ["critical L1 = 1.50000", "region counts: 0, 1", "samples: 25, boundary: 1"]),
    # the discriminant's extra root at L = 0.05723 is no fold
    (dict(c0="9/20", c="7/2", gamma="3/5", v="4/5", delta="4", h="3/10", n="4"),
     ["critical L1 = 1.66425", "critical L2 = 2.33167", "region counts: 1, 3, 1",
      "samples: 25, boundary: 0"]),
])
def test_ode_bifurcation_levels(capsys, tmp_path, values, expected):
    model = _ode_variant(tmp_path, **values)
    code, out, _ = run(capsys, "ode", "bifurcation", model)
    assert code == 0
    assert out.splitlines() == expected


@pytest.mark.parametrize("values,precision,expected", [
    # v = delta = 0: L(A) = 0 for every A, so W is zero and nothing is
    # isolated before the samples; the floor still holds for them
    (dict(v="0", delta="0"), "1e-6", (0, "region counts: 0\nsamples: 25, boundary: 0\n", "")),
    (dict(v="0", delta="0"), "1e-301",
     (1, "", "operon: precision must be at least 1e-300\n")),
    # c0 = c = delta = 0: P and Q are both zero, at any precision
    (dict(c0="0", c="0", delta="0"), "1e-6",
     (1, "", "operon: degenerate system: equations share a factor\n")),
    (dict(c0="0", c="0", delta="0"), "1e-301",
     (1, "", "operon: degenerate system: equations share a factor\n")),
])
def test_ode_bifurcation_exit_codes(capsys, tmp_path, values, precision, expected):
    model = _ode_variant(tmp_path, **values)
    assert run(capsys, "ode", "bifurcation", model, "--precision", precision) == expected


def test_ode_bifurcation_exact_fold(capsys, tmp_path):
    # L(A) = A + 1/A folds at A = 1, where the level is found exactly: L = 2
    model = _ode_variant(tmp_path, c0="0", c="1", gamma="1", v="0", delta="1", h="1", n="2")
    assert run(capsys, "ode", "bifurcation", model, "--range", "1:3", "--samples", "3") == (
        0, "critical L1 = 2.00000\nregion counts: 0, 2\nsamples: 3, boundary: 1\n", "")


@pytest.mark.parametrize("values,message", [
    (dict(gamma="0"), "line 11: gamma must be positive"),
    (dict(v="-1", n="65"), "line 12: v must be nonnegative"),
    # a fixed lactose level in the file is checked as the file is read, so
    # --L does not get past it
    (dict(L="-1"), "line 16: L must be positive"),
    (dict(L="0"), "line 16: L must be positive"),
])
def test_ode_constant_out_of_range_names_its_line(capsys, tmp_path, values, message):
    model = _ode_variant(tmp_path, **values)
    for command in (["eliminate"], ["steady-states", "--L", "1"], ["bifurcation"]):
        assert run(capsys, "ode", *command, model) == (1, "", f"operon: {message}\n")


@pytest.mark.parametrize("level", ["0", "-1/2"])
def test_steady_states_level_not_positive(capsys, lac_ode, level):
    assert run(capsys, "ode", "steady-states", lac_ode, f"--L={level}") == (
        1, "", "operon: lactose level must be positive\n")


def test_ode_bifurcation_builds_branches_only_for_csv(capsys, lac_ode, tmp_path, monkeypatch):
    from operon import lacmodel

    def refuse(*args):
        raise AssertionError("built the sample branches")

    monkeypatch.setattr(lacmodel, "_branches", refuse)
    code, out, _ = run(capsys, "ode", "bifurcation", lac_ode)
    assert code == 0 and out.endswith("samples: 25, boundary: 0\n")
    with pytest.raises(AssertionError, match="branches"):
        main(["ode", "bifurcation", lac_ode, "--csv", str(tmp_path / "sweep.csv")])


@pytest.mark.parametrize("precision", ["1e-1000", "1e-200000"])
def test_precision_floor(capsys, lac_ode, precision):
    start = time.perf_counter()
    code, out, err = run(capsys, "ode", "steady-states", lac_ode, "--L", "1",
                         "--precision", precision)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == "operon: precision must be at least 1e-300\n"


@pytest.mark.parametrize("argv,bad", [
    (["steady-states", "--L", "inf"], "'inf'"),
    (["steady-states", "--L", "1", "--precision", "Infinity"], "'Infinity'"),
    (["steady-states", "--L", "15_"], "'15_'"),
    (["steady-states", "--L", "1", "--precision", "1e999999999"], "'1e999999999'"),
    (["bifurcation", "--range", "0.1:inf"], "'0.1:inf'"),
])
def test_bad_rational_is_a_usage_error(capsys, lac_ode, argv, bad):
    start = time.perf_counter()
    code, err = run_usage_error(capsys, "ode", argv[0], lac_ode, *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "Traceback" not in err
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert error_lines == [err.splitlines()[-1]]
    # the message parse_rational builds, not "invalid parse_rational value"
    named = bad.rpartition(":")[2].strip("'")
    assert error_lines[0] == (f"operon ode {argv[0]}: error: argument {argv[-2]}: "
                              f"invalid rational {named!r}")


@pytest.mark.parametrize("value,message", [
    ("1", "expected lo:hi"),
    ("1..2", "expected lo:hi"),
    ("1:x", "invalid rational 'x'"),
])
def test_bad_range_is_a_usage_error(capsys, lac_ode, value, message):
    code, err = run_usage_error(capsys, "ode", "bifurcation", lac_ode, "--range", value)
    assert code == 2
    assert err.splitlines()[-1] == \
        f"operon ode bifurcation: error: argument --range: {message}"


def test_model_rational_exponent_bound(capsys, tmp_path):
    model = _ode_variant(tmp_path, c0="1e1000001")
    start = time.perf_counter()
    code, out, err = run(capsys, "ode", "steady-states", model, "--L", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == "operon: line 9: invalid rational '1e1000001'\n"


def test_tiny_constant_is_not_held_to_the_precision_floor(capsys, tmp_path):
    # refining to the 1e-9 residual narrows the boxes of this model far
    # below 1e-300, which only a user's --precision is held to
    model = _ode_variant(tmp_path, c0="1e-300")
    code, out, err = run(capsys, "ode", "steady-states", model, "--L", "1")
    assert code == 0 and err == ""
    assert [(s["A"], s["M"], s["R"]) for s in json.loads(out)] == [
        ("0.00000", "0.00000", "1.00000"),
        ("0.77037", "0.21342", "0.78658"),
        ("2.29314", "0.98447", "0.01553"),
    ]


@pytest.mark.parametrize("argv", [
    ["steady-states", "--L", "1"],
    ["bifurcation", "--samples", "2"],
])
def test_digits_bound(capsys, lac_ode, argv):
    # more digits than CPython converts from an int to a string
    start = time.perf_counter()
    code, err = run_usage_error(capsys, "ode", argv[0], lac_ode, *argv[1:],
                                "--digits", "3000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "Traceback" not in err
    assert err.splitlines()[-1].endswith("error: argument --digits: at most 4300 digits")
    code, out, err = run(capsys, "ode", argv[0], lac_ode, *argv[1:], "--digits", "4300")
    assert code == 0 and err == ""
    assert len(re.search(r"\d\.(\d+)", out).group(1)) == 4300


@pytest.mark.parametrize("value,message", [
    ("-1", "argument --digits: digits must be nonnegative"),
    ("x", "argument --digits: invalid int value: 'x'"),
    ("2.5", "argument --digits: invalid int value: '2.5'"),
])
@pytest.mark.parametrize("argv", [
    ["steady-states", "--L", "1"],
    ["bifurcation", "--samples", "2"],
])
def test_digits_usage_errors(capsys, lac_ode, argv, value, message):
    code, err = run_usage_error(capsys, "ode", argv[0], lac_ode, *argv[1:],
                                "--digits", value)
    assert code == 2 and "_digits" not in err
    assert err.splitlines()[-1].endswith(f"error: {message}")


def test_unprintable_interval(capsys, lac_ode):
    # at L = 1e200 an endpoint of the exact M interval has more digits than
    # CPython converts from an int to a string
    code, out, err = run(capsys, "ode", "steady-states", lac_ode, "--L", "1e200")
    assert code == 1 and out == ""
    assert err == ("operon: the exact M interval cannot be printed: "
                   "an endpoint has more than 4300 digits\n")


def test_unprintable_eliminant(capsys, tmp_path):
    # at c0 = 1e-5000 an eliminant coefficient has more digits than CPython
    # converts from an int to a string
    code, out, err = run(capsys, "ode", "eliminate", _ode_variant(tmp_path, c0="1e-5000"))
    assert code == 1 and out == ""
    assert err == ("operon: the eliminant cannot be printed: "
                   "a coefficient has more than 4300 digits\n")
    code, out, err = run(capsys, "ode", "eliminate", _ode_variant(tmp_path, c0="1e-4000"))
    assert code == 0 and err == "" and len(out) > 4000


def test_samples_bound(capsys, lac_ode):
    start = time.perf_counter()
    code, out, err = run(capsys, "ode", "bifurcation", lac_ode, "--samples", "10001")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == "operon: at most 10000 samples\n"


@pytest.mark.parametrize("argv", [
    ["steady-states", "--L", "1"],
    ["bifurcation"],
])
def test_hill_exponent_cap(capsys, tmp_path, argv):
    model = _ode_variant(tmp_path, n="2000")
    start = time.perf_counter()
    code, out, err = run(capsys, "ode", argv[0], model, *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == "operon: line 15: n must be at most 64\n"


def test_ode_bifurcation_range_validation(capsys, lac_ode):
    code, out, err = run(capsys, "ode", "bifurcation", lac_ode, "--range", "2:1")
    assert code == 1
    assert err.startswith("operon: ")
    code, err2 = run_usage_error(capsys, "ode", "bifurcation", lac_ode,
                                 "--range", "nonsense")
    assert code == 2


# ---------------------------------------------------------------------------
# process-level behavior


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"operon {__version__}"


def test_unknown_command(capsys):
    code, _ = run_usage_error(capsys, "frobnicate")
    assert code == 2


def test_missing_file_is_a_domain_error(capsys):
    code, out, err = run(capsys, "solve", "no_such_file.gf2")
    assert code == 1
    assert err.startswith("operon: ")


def test_malformed_model_is_a_domain_error(capsys, tmp_path):
    bad = tmp_path / "bad.bn"
    bad.write_text("network x\nvars: a\na' = a &\n")
    code, out, err = run(capsys, "fixed-points", str(bad), "--set", "")
    assert code == 1
    assert "line 3" in err


def test_lines_end_only_at_newlines():
    # \r\n and \r end a line as \n does; \v, \f, \x1c-\x1e, \x85, \u2028 and
    # \u2029, where str.splitlines also breaks, are whitespace inside a line
    text = "a\x0bb\r\nc\rd\x0c\x1c\x1d\x1e\x85e\u2028\u2029f\n\n g # h\n"
    assert list(source_lines(text)) == [
        (1, "a\x0bb"), (2, "c"), (3, "d\x0c\x1c\x1d\x1e\x85e\u2028\u2029f"), (5, "g")]


@pytest.mark.parametrize("name, text, argv, message", [
    # one equation, not the two equations x1 and x2 + 1
    ("sep.gf2", "vars: x1 x2\nx1\x1cx2 + 1\n", ["solve"],
     "line 2: missing '+' or '*' between terms"),
    # one rule line, not the two rules a' = b and b' = a
    ("sep.bn", "network n\nvars: a, b\na' = b\x1db' = a\n", ["fixed-points", "--set", ""],
     "line 3: unexpected character \"'\" in expression"),
    # a form feed ends no line, so the error is on line 3, not line 4
    ("feed.gf2", "vars: x1 x2\nx1 + x2\x0c\nx1 +\n", ["solve"],
     "line 3: dangling operator in polynomial"),
])
def test_line_breaks_in_files(capsys, tmp_path, name, text, argv, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (1, "", f"operon: {message}\n")


@pytest.mark.parametrize("body", [
    "(" * 3000 + "a" + ")" * 3000,
    "!" * 5000 + "a",
    " & ".join(["a"] * 3000),
])
def test_deep_expression_is_a_parse_error(capsys, tmp_path, body):
    deep = tmp_path / "deep.bn"
    deep.write_text(f"network deep\nvars: a\na' = {body}\n")
    code, out, err = run(capsys, "state-graph", str(deep), "--set", "")
    assert code == 1 and out == ""
    assert err == "operon: line 3: expression nested deeper than 100 levels\n"


def test_module_entry_point(lac_gf2):
    proc = subprocess.run(
        [sys.executable, "-m", "operon", "solve", lac_gf2],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["111101111"]


def test_parser_is_built_once(capsys, monkeypatch, lac_ode, lac_gf2):
    # usage errors and valid commands in one process print the same bytes,
    # with the same exit codes, as each command run in a fresh process
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    sequence = [
        ["ode", "bifurcation", lac_ode, "--range", "nonsense"],
        ["solve", lac_gf2],
        ["frobnicate"],
        ["ode", "eliminate", lac_ode],
        ["ode", "steady-states", lac_ode, "--L", "1", "--digits", "-1"],
        ["ode", "steady-states", lac_ode, "--L", "1"],
    ]
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "operon", *argv],
                               capture_output=True, text=True, env=CHILD_ENV)
        assert (code, captured.out, captured.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr)
    assert len(builds) == 1


LEAF_ARGV = [
    # every command with valid arguments
    "solve GF2", "solve GF2 --method groebner", "groebner GF2 --order lex",
    "fixed-points BN --all-params --json", "fixed-points BN --set a=1,g=0 --method groebner",
    "simulate BN --set a=1,g=0 --init 000000000 --steps 3",
    "state-graph BN --set a=1,g=0 --attractors", "state-graph BN --set a=0,g=0",
    "ode eliminate ODE", "ode bifurcation ODE --range 0.5:2 --samples 3 --digits 3",
    "ode steady-states ODE --L=1 --precision 1e-8", "solve -- GF2",
    # -h after each command
    "groebner -h", "solve -h", "fixed-points -h", "simulate -h", "state-graph -h",
    "ode eliminate -h", "ode bifurcation -h", "ode steady-states -h", "solve GF2 -h --bogus",
    # missing required arguments, bad choices and bad values
    "solve", "ode eliminate", "simulate BN --set a=1,g=0", "fixed-points BN",
    "fixed-points BN --set a=1,g=0 --all-params", "groebner GF2 --order x",
    "solve GF2 --method", "simulate BN --set a=1,g=0 --init 000000000 --steps x",
    "ode steady-states ODE --L 1 --digits x", "ode bifurcation ODE --range 1",
    "ode bifurcation ODE --samples 2.5", "ode steady-states ODE --L inf",
    # unknown options, stray positionals, --version after a command
    "solve GF2 --bogus", "solve --bogus", "ode eliminate ODE --bogus", "solve GF2 extra",
    "ode steady-states ODE extra --L 1", "solve GF2 --version", "ode eliminate ODE --version",
    "ode --version", "ode eliminate -- ODE extra",
    # no command
    "ode", "ode -h", "ode frobnicate", "frobnicate", "", "-h", "--version", "-- solve GF2",
    # errors the command reports
    "solve no_such_file.gf2", "fixed-points BN --set a=2", "state-graph BN --set q=1",
    "simulate BN --set a=1,g=0 --init 01", "ode steady-states ODE --L -1",
    # forms where a table read off a parser could part from argparse: an
    # option before the positional, a repeat, an abbreviation, a negative
    # value, an option string as a value, an empty value
    "ode steady-states --L 1 ODE", "solve GF2 --method groebner --method enumerate",
    "solve GF2 --meth enumerate", "simulate BN --set a=1,g=0 --init 000000000 --steps -1",
    "fixed-points BN --set --json", "state-graph BN --set ''",
]


# the valid lines that are plain; the `=` form and the `--` line go to the whole tree
PLAIN_VALID = [line for line in LEAF_ARGV[:12] if line not in (
    "ode steady-states ODE --L=1 --precision 1e-8", "solve -- GF2")]


@pytest.mark.parametrize("line", LEAF_ARGV)
def test_leaf_parser_matches_the_whole_tree(capsys, monkeypatch, lac_gf2, lac_bn, lac_ode,
                                            line):
    paths = {"GF2": lac_gf2, "BN": lac_bn, "ODE": lac_ode}
    argv = [paths.get(word, word) for word in shlex.split(line)]

    def outcome():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    leaf = outcome()
    monkeypatch.setattr(cli, "parse_args", lambda argv: cli.build_parser().parse_args(argv))
    assert leaf == outcome()


LEAVES = [words for words, (_, func, _) in cli.COMMANDS.items() if func]

# values drawn for any option or positional, beside each option's choices:
# plain ones, negative numbers, an empty string, option strings, bad types
VALUES = ["F", "G", "1", "3/2", "0", "25", "0.5:2", "1e-8", "a=1,g=0", "000000000", "",
          "-1", "-3", "-", "- 1", "x", "2.5", "inf", "1:", "--json", "--set", "-h", "--"]
PLAIN = VALUES[:10]


def takes(action, value) -> bool:
    try:
        action.type is None or action.type(value)
    except (ValueError, argparse.ArgumentTypeError):
        return False
    return True


@st.composite
def leaf_argvs(draw, words):
    """An argv after the command words: each argument of the command, most
    often given, with a value drawn from its choices and VALUES, in any
    order; then a few pieces of the command's vocabulary inserted (an
    option with or without a value, an abbreviation, an `=` form, `--`,
    `-h`, a stray value) or a token left out."""
    leaf, _ = cli._leaf(words)
    chunks, noise = [], [[token] for token in ["--", "-h", "--help", "--bogus", *VALUES]]
    for action in leaf._actions[1:]:
        values = [] if action.nargs == 0 else list(action.choices or ()) + VALUES
        for option in action.option_strings:
            noise += [[option]] + [[option, value] for value in values]
            noise += [[option[:k]] for k in range(3, len(option))]
            noise += [[f"{option}={value}"] for value in values[:3] or ["1"]]
        if draw(st.sampled_from((True, True, True, False))):
            # half the time a value argparse takes: a choice, or a plain
            # value of the action's type
            plain = list(action.choices or (v for v in PLAIN if takes(action, v)))
            value = [draw(st.sampled_from(plain) | st.sampled_from(values))] if values else []
            chunks.append(action.option_strings[:1] + value)
    argv = [token for chunk in draw(st.permutations(chunks)) for token in chunk]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = draw(st.sampled_from(noise))
    if argv and draw(st.sampled_from((True, False, False, False))):
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


def fast_path_agrees(words, argv) -> bool:
    """Whether the table read argv; when it did, its Namespace is the one
    the command's parser returns, with nothing left over."""
    leaf, table = cli._leaf(words)
    fast = cli._plain_args(table, list(argv))
    if fast is None:
        return False
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        try:
            args, rest = leaf.parse_known_args(list(argv))
        except SystemExit:
            pytest.fail(f"the table read {argv}, argparse refused it: {err.getvalue()}")
    assert rest == [] and vars(fast) == vars(args), argv
    return True


def first_plain(action) -> list[str]:
    """The action given with its first choice or the first plain value its
    type takes."""
    if action.nargs == 0:
        return action.option_strings[:1]
    values = action.choices or [v for v in PLAIN if takes(action, v)]
    return action.option_strings[:1] + [next(iter(values))]


def one_argv_per_action(words) -> list[list[str]]:
    """For each action of the command, the fewest arguments it takes: the
    positionals, the required options and one member of each required
    group, then that action."""
    leaf, _ = cli._leaf(words)
    actions = leaf._actions[1:]
    argvs = []
    for action in actions:
        chosen = [a for a in actions if a.required or not a.option_strings]
        for group in leaf._mutually_exclusive_groups:
            members = group._group_actions
            if group.required:
                chosen.append(action if action in members else members[0])
        if action not in chosen:
            chosen.append(action)
        argvs.append([token for a in chosen for token in first_plain(a)])
    return argvs


@pytest.mark.parametrize("words", LEAVES)
def test_the_table_defers_or_gives_the_parsers_namespace(words):
    # each interpreter's argparse is the oracle.  First one argv per action,
    # so an action the table does not model (count, append, nargs, version)
    # fails on every run; then one hypothesis run per command, so both
    # outcomes can be counted
    for argv in one_argv_per_action(words):
        assert fast_path_agrees(words, argv), argv
    read = []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(leaf_argvs(words))
    def check(argv):
        read.append(fast_path_agrees(words, argv))

    check()
    assert 0 < sum(read) < len(read)


def test_valid_argv_never_reaches_argparse(capsys, monkeypatch, tmp_path, bench_runner,
                                           lac_gf2, lac_bn, lac_ode):
    def refuse(self, args=None, namespace=None):
        raise AssertionError(f"argparse read {args}")

    def no_tree():
        raise AssertionError("built the whole tree")

    net = tmp_path / "u.bn"
    net.write_text("network u\nvars: x, y\nparams: u1, u2\nx' = u1 & y\ny' = !x | u2\n")
    paths = {"GF2": lac_gf2, "BN": lac_bn, "ODE": lac_ode, "NET": str(net)}
    lines = list(PLAIN_VALID)
    assert len(lines) == 10
    # the options-first form, and one argv of each shape of the benchmark pools
    lines += ["ode steady-states --L 1 ODE", "fixed-points --all-params BN",
              "solve GF2", "solve GF2 --method enumerate",
              "state-graph NET --set u1=0,u2=1 --attractors", "fixed-points NET --all-params",
              "ode steady-states ODE --L 3/2", "ode bifurcation ODE --samples 2"]
    argvs = [argv for _, argv in bench_runner.GOLDEN] + [
        [paths.get(word, word) for word in shlex.split(line)] for line in lines]
    assert len(argvs) == 23
    build = cli.build_parser
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    monkeypatch.setattr(cli, "build_parser", no_tree)
    monkeypatch.setattr(cli, "_PARSER", None)
    for argv in argvs:
        assert main(argv) == 0, argv
    capsys.readouterr()
    # an abbreviation is not plain: the whole tree is built, and argparse reads it
    abbreviated = ["solve", lac_gf2, "--meth", "enumerate"]
    with pytest.raises(AssertionError, match="built the whole tree"):
        main(abbreviated)
    monkeypatch.setattr(cli, "build_parser", build)
    with pytest.raises(AssertionError, match="argparse read"):
        main(abbreviated)


def test_cli_output_is_byte_deterministic(lac_ode):
    argv = [sys.executable, "-m", "operon", "ode", "bifurcation", lac_ode,
            "--range", "0.5:2", "--samples", "5"]
    first = subprocess.run(argv, capture_output=True, env=CHILD_ENV)
    second = subprocess.run(argv, capture_output=True, env=CHILD_ENV)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
