"""Self-tests of the benchmark: seeded inputs, checkers, failure accounting.

    python3 -m pytest -q bench/test_bench.py

Run from the repository root; scratch files go under .bench_work/.
"""

import json
import os
import shutil
import sys
from fractions import Fraction

import pytest

import checks
import run
import tracer
import workloads
from timing import SpeedLog

sys.path.insert(0, os.path.join(run.ROOT, "src"))

@pytest.fixture
def workdir(request):
    path = os.path.join(run.ROOT, ".bench_work", "selftest", request.node.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def cli():
    from operon import cli as module

    return module


def output(cli, op):
    _, ok, out = run.run_op(cli, op.argv)
    assert ok
    return out


def file_bytes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


# ---------------------------------------------------------------------------
# seeded inputs


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_same_files_other_seed_other_files(workload, workdir):
    dirs = [os.path.join(workdir, d) for d in ("a", "b", "c")]
    pools = [workloads.generate(workload, seed, d) for seed, d in zip((7, 7, 8), dirs)]
    first, again, other = (file_bytes(d) for d in dirs)
    assert first == again
    assert first != other
    assert [op.argv[1:] for op in pools[0].ops] != [op.argv[1:] for op in pools[2].ops]


# ---------------------------------------------------------------------------
# checkers accept the program's outputs and reject corrupted ones


def shift_box(text, state, delta):
    data = json.loads(text)
    lo, hi = (Fraction(x) for x in data[state]["intervals"]["A"])
    data[state]["intervals"]["A"] = [str(lo + delta), str(hi + delta)]
    return json.dumps(data)


def test_steady_state_checker(cli, workdir):
    pool = workloads.generate("ode-sweep", 3, workdir)
    op = next(op for op in pool.ops if checks.count_positive_roots(
        checks.eliminant(op.facts["consts"], op.facts["L"])) == 3)
    out = output(cli, op)
    assert checks.check_steady_states(out, op.facts) is None
    data = json.loads(out)
    lo, hi = (Fraction(x) for x in data[1]["intervals"]["A"])
    assert checks.check_steady_states(shift_box(out, 1, hi - lo), op.facts)
    assert checks.check_steady_states(shift_box(out, 1, Fraction(1, 10)), op.facts)
    assert checks.check_steady_states(json.dumps(data[:1] + data[2:]), op.facts)
    assert checks.check_steady_states(json.dumps(data[::-1]), op.facts)
    assert checks.check_steady_states("not json", op.facts)


def test_bifurcation_checker(cli, workdir):
    pool = workloads.generate("ode-folds", 1, workdir)
    op = next(op for op in pool.ops if op.facts["consts"]["n"] >= 4)
    out = output(cli, op)
    assert checks.check_bifurcation(out, op.facts) is None
    lines = out.splitlines(keepends=True)
    assert lines[0].startswith("critical L1 = ") and lines[1].startswith("critical L2 = ")
    value = Fraction(lines[0].split(" = ")[1])
    shifted = f"critical L1 = {float(value + Fraction(1, 100)):.5f}\n"
    assert checks.check_bifurcation(shifted + "".join(lines[1:]), op.facts)
    dropped = "".join(lines[1:2]) + "region counts: 1, 1\n" + lines[-1]
    assert checks.check_bifurcation(dropped, op.facts)
    assert checks.check_bifurcation(out.replace("1, 3, 1", "1, 1, 1"), op.facts)
    assert checks.check_bifurcation(out.replace("samples: 2", "samples: 3"), op.facts)


def flip_first_bit(line):
    return ("1" if line[0] == "0" else "0") + line[1:]


def test_solve_checker(cli, workdir):
    pool = workloads.generate("gf2-solve", 2, workdir)
    op = next(op for op in pool.ops
              if len(checks.gf2_zeros(op.facts["n"], op.facts["equations"])) > 1)
    out = output(cli, op)
    enumerated = output(cli, workloads.Op(op.key, op.argv + ["--method", "enumerate"]))
    assert checks.check_solve(out, op.facts, enumerated) is None
    lines = out.splitlines(keepends=True)
    flipped = "".join([flip_first_bit(lines[0])] + lines[1:])
    assert checks.check_solve(flipped, op.facts, enumerated)
    assert checks.check_solve("".join(lines[1:]), op.facts, enumerated)
    assert checks.check_solve(out, op.facts, "".join(lines[1:]))
    assert checks.check_solve(out, op.facts, None)
    # the planted point is checked on its own as well
    zeros = checks.gf2_zeros(op.facts["n"], op.facts["equations"])
    nonzero = next(x for x in range(1 << op.facts["n"]) if x not in zeros)
    assert checks.check_solve(out, dict(op.facts, planted=nonzero), enumerated)


def test_network_checkers(cli, workdir):
    pool = workloads.generate("bn-dynamics", 5, workdir)
    graph_op, fixed_op = pool.ops[0], pool.ops[1]
    graph, fixed = output(cli, graph_op), output(cli, fixed_op)
    assert checks.check_state_graph(graph, graph_op.facts) is None
    assert checks.check_fixed_points(fixed, fixed_op.facts) is None

    report = json.loads(graph)
    report[0]["cycle"][0] = flip_first_bit(report[0]["cycle"][0])
    assert checks.check_state_graph(json.dumps(report), graph_op.facts)
    report = json.loads(graph)
    report[0]["basin_size"] += 1
    assert checks.check_state_graph(json.dumps(report), graph_op.facts)
    assert checks.check_state_graph(json.dumps(json.loads(graph)[1:]), graph_op.facts)

    # corrupt a setting that has fixed points
    lines = fixed.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.strip().partition(": ")[2])
    label, _, points = lines[row].strip().partition(": ")

    def with_row(text):
        return "".join(lines[:row] + [f"{label}: {text}\n"] + lines[row + 1:])

    assert with_row(points) == fixed
    assert checks.check_fixed_points(with_row(flip_first_bit(points)), fixed_op.facts)
    assert checks.check_fixed_points(with_row(" ".join(points.split()[1:])), fixed_op.facts)


def test_descartes_count():
    def expand(roots):
        p = [1]
        for r in roots:  # multiply by (den*x - num)
            q = [0] * (len(p) + 1)
            for i, c in enumerate(p):
                q[i] -= c * r.numerator
                q[i + 1] += c * r.denominator
            p = q
        return p

    F = Fraction
    assert checks.count_positive_roots(expand([F(1), F(2), F(3)])) == 3
    assert checks.count_positive_roots(expand([F(-1), F(2)])) == 1
    assert checks.count_positive_roots(expand([F(1, 2), F(3), F(-5)])) == 2
    assert checks.count_positive_roots(expand([F(1, 1000), F(2, 1000)])) == 2
    assert checks.count_positive_roots([1, 0, 1]) == 0


# ---------------------------------------------------------------------------
# failure accounting


class FakeCli:
    def __init__(self, behaviour):
        self.behaviour = behaviour

    def main(self, argv):
        return self.behaviour(argv)


def raise_value_error(argv):
    raise ValueError("boom")


def usage_error(argv):
    raise SystemExit(2)


@pytest.mark.parametrize("behaviour,ok", [
    (lambda argv: 0, True),
    (lambda argv: 1, False),
    (raise_value_error, False),
    (usage_error, False),
])
def test_exception_or_nonzero_exit_is_a_failure(behaviour, ok):
    assert run.run_op(FakeCli(behaviour), ["x"])[1] is ok


def test_failed_ops_are_counted(cli, workdir):
    pool = workloads.generate("gf2-solve", 1, workdir)
    ops = pool.ops[:3]
    os.remove(ops[1].argv[1])  # the program now exits with code 1 on this input
    loop = run.Loop(cli, ops, SpeedLog())
    loop.run(0, ops=3)
    loop.run(0, ops=3)
    failed, reasons = run.failures(cli, "gf2-solve", loop)
    assert failed == 2 and len(loop.samples) == 6
    assert len(reasons) == 1


# ---------------------------------------------------------------------------
# tracing and the metric lists


TRACED_OPS = 12


def test_traced_counts_repeat(workdir):
    cli = run.fresh_import()  # the modules the tracer finds in sys.modules
    counts = []
    for _ in range(2):
        pool = workloads.generate("bn-dynamics", 2, workdir)
        trace = tracer.Tracer()
        trace.install()
        try:
            run.Loop(cli, pool.ops, SpeedLog()).run(0, ops=TRACED_OPS)
        finally:
            trace.uninstall()
        counts.append({name: t[0] for name, t in trace.totals().items()})
    assert counts[0] == counts[1]
    assert counts[0]["boolnet.step"] > 0 and counts[0]["cli.main"] == TRACED_OPS
    assert not hasattr(cli.main, "__wrapped__")


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.GENERATORS)


def test_quantile_estimates():
    xs = list(range(1, 1001))
    assert abs(run.quantile(xs, 0.5) - 500.5) < 1
    assert abs(run.quantile(xs, 0.9) - 900.5) < 2
    # across a gap the estimate moves by a fraction of the gap per sample
    low, high = [10.0] * 50, [100.0] * 50
    shift = run.quantile(low + high + [100.0], 0.5) - run.quantile(low + high, 0.5)
    assert 0 < shift < 10


def test_speed_scale():
    speed = SpeedLog()
    speed.at = [1.0, 2.0, 3.0]
    speed.took = [0.004, 0.005, 0.006]
    # an op between two calibrations runs at the mean of their speeds
    assert speed.scale(1.5) == pytest.approx(0.0025 / 0.0045)
    assert speed.scale(9.0) == pytest.approx(0.0025 / 0.006)


def test_golden_mismatch_reports_no_numbers(monkeypatch, capsys):
    assert run.golden_gate(run.fresh_import()) == []
    wrong = [("solve_lac_on", ["fixed-points", f"{run.MODELS}/lac.bn", "--all-params"])]
    monkeypatch.setattr(run, "GOLDEN", wrong)
    code = run.main(["--workload", "gf2-solve", "--seed", "1", "--seconds", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "golden gate failed" in err and out == ""
