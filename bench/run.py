"""operon benchmark: seeded CLI workloads in a closed loop with one client.

    python3 bench/run.py --workload ode-sweep --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each operation is one in-process call of
`operon.cli.main(argv)` on a generated model file with stdout captured:
the command a user types, minus interpreter start-up.  Every output is
checked after the timed phase by code that shares nothing with the path
being timed (see checks.py).  Before any timing the golden commands on the
bundled models must reproduce their stored stdout byte for byte; otherwise
the run exits with code 1 and reports no numbers.

--trace 0 prints the end-to-end metrics.  Times are scaled to a nominal
machine speed (timing.py), and each input counts once, at the median of its
runs.  --trace 1 runs the same untraced loop, then the first TRACE_OPS
inputs once more with every traced function wrapped (tracer.py), and prints
the per-layer metrics summed over that traced pass, plus the tracing
overhead on those inputs.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from timing import SpeedLog  # noqa: E402

MODELS = "src/operon/models"
GOLDEN = [
    ("fixed_points_all_params", ["fixed-points", f"{MODELS}/lac.bn", "--all-params"]),
    ("solve_lac_on", ["solve", f"{MODELS}/lac_on.gf2"]),
    ("ode_eliminate", ["ode", "eliminate", f"{MODELS}/lac.ode"]),
    ("ode_bifurcation", ["ode", "bifurcation", f"{MODELS}/lac.ode"]),
    ("ode_steady_states_L1", ["ode", "steady-states", f"{MODELS}/lac.ode", "--L", "1"]),
]

# Fixed operations on the bundled models, run after each import in set-up so
# the timed loop starts warm; they are the same for every seed.
WARMUP = {
    "ode-sweep": [["ode", "steady-states", f"{MODELS}/lac.ode", "--L", "1"]],
    "ode-folds": [["ode", "bifurcation", f"{MODELS}/lac.ode", "--samples", "2"]],
    "gf2-solve": [["solve", f"{MODELS}/lac_on.gf2"]],
    "bn-dynamics": [["state-graph", f"{MODELS}/lac.bn", "--set", "a=1,g=0", "--attractors"],
                    ["fixed-points", f"{MODELS}/lac.bn", "--all-params"]],
}
SETUP_REPEATS = 5
TRACE_OPS = 120  # the traced pass: this many ops from the start of the pool

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics over one traced pass.  A name ending in .calls, .ms or
# .self_ms reads that column of the span totals; the rest are derived below.
PER_LAYER = [
    "cli.main.self_ms",
    "logic.parse_expr.ms", "gf2.translate_expr.ms",
    "logic.evaluate.calls", "boolnet.step.calls", "boolnet.step.ms",
    "boolnet.state_graph.ms", "boolnet.state_graph.self_ms", "boolnet.fixed_points.ms",
    "gf2.parse_poly.ms",
    "groebner.buchberger_reduced.calls", "groebner.buchberger_reduced.ms",
    "groebner.split_branches", "groebner.reduce.calls", "groebner.reduce.ms",
    "groebner.reduce.zero_ratio", "groebner.s_polynomial.calls",
    "groebner.solve_boolean_system.ms",
    "exactpoly.resultant.calls", "exactpoly.resultant.ms",
    "exactpoly.bareiss_determinant.ms", "exactpoly.discriminant.ms",
    "exactpoly.substitute.calls", "exactpoly.substitute.ms",
    "realroots.isolate_real_roots.calls", "realroots.isolate_real_roots.ms",
    "realroots.refine_root_box.calls", "realroots.refine_root_box.ms",
    "realroots.sturm_chain.calls", "realroots.sturm_chain.per_isolation",
    "realroots.squarefree_part.ms", "realroots.count_real_roots.ms",
    "lacmodel.build_system.ms", "lacmodel.eliminate_M.calls", "lacmodel.eliminate_M.ms",
    "lacmodel.critical_lactose_values.ms", "lacmodel.steady_states_at.self_ms",
    "lacmodel.bifurcation_curve.self_ms",
    "trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead",
]


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith((".calls", "split_branches")):
        return "count"
    return "ratio"


def run_op(cli, argv):
    """One CLI call: (seconds, succeeded, stdout).

    An exception, including the SystemExit of a usage error, or a nonzero
    return code counts as a failed operation.
    """
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit):
        code = None
    return perf_counter() - start, code == 0, out.getvalue()


def fresh_import():
    for name in [m for m in sys.modules if m == "operon" or m.startswith("operon.")]:
        del sys.modules[name]
    return importlib.import_module("operon.cli")


def set_up(workload: str, speed: SpeedLog):
    """Import operon afresh and run the warm-up ops, SETUP_REPEATS times.

    Returns the module and the median nominal seconds per set-up.
    """
    spans = []
    for _ in range(SETUP_REPEATS):
        speed.calibrate()
        start = perf_counter()
        cli = fresh_import()
        for argv in WARMUP[workload]:
            if not run_op(cli, argv)[1]:
                raise SystemExit(f"warm-up command failed: operon {' '.join(argv)}")
        spans.append((start, perf_counter() - start))
    speed.calibrate()
    return cli, statistics.median(took * speed.scale(t + took / 2) for t, took in spans)


def golden_gate(cli) -> list:
    """Names of golden commands whose stdout differs from the stored copy."""
    bad = []
    for name, argv in GOLDEN:
        with open(os.path.join(BENCH, "golden", f"{name}.out"), encoding="utf-8") as fh:
            expected = fh.read()
        _, ok, out = run_op(cli, argv)
        if not ok or out != expected:
            bad.append(name)
    return bad


class Loop:
    """Closed loop over the pool; keeps the first output of each input."""

    def __init__(self, cli, ops, speed: SpeedLog):
        self.cli = cli
        self.ops = ops
        self.speed = speed
        self.first: dict[int, str] = {}
        # (op index, start, seconds, ran cleanly with the same output as before)
        self.samples: list[tuple[int, float, float, bool]] = []

    def run(self, seconds: float, ops: int | None = None) -> float:
        """Run for `seconds`, or exactly `ops` operations when given; returns
        the wall seconds, calibrations included."""
        count = 0
        start = perf_counter()
        while count != ops and (ops is not None or perf_counter() - start < seconds):
            self.speed.calibrate()
            idx = count % len(self.ops)
            began = perf_counter()
            took, ok, out = run_op(self.cli, self.ops[idx].argv)
            seen = self.first.setdefault(idx, out)
            self.samples.append((idx, began, took, ok and out == seen))
            count += 1
        wall = perf_counter() - start
        self.speed.calibrate()
        return wall

    def nominal_ms(self) -> list[float]:
        """Each op's latency at nominal machine speed, in milliseconds."""
        return [1000 * took * self.speed.scale(began + took / 2)
                for _, began, took, _ in self.samples]

    def per_input_ms(self) -> list[float]:
        """Median nominal latency of each input run, in pool order.

        Metrics count each input once, so a run that gets through more
        passes, on a faster machine, still weighs the inputs alike.
        """
        runs: dict[int, list[float]] = {}
        for (idx, _, _, _), ms in zip(self.samples, self.nominal_ms()):
            runs.setdefault(idx, []).append(ms)
        return [statistics.median(runs[idx]) for idx in sorted(runs)]


def quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of the order statistics, with
    the weights taken at rank midpoints.  Where the sample has a gap, say
    between two input sizes, it moves smoothly as the counts on either side
    change; a single order statistic would jump across the gap.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logw = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n)
            for i in range(n)]
    top = max(logw)
    w = [math.exp(x - top) for x in logw]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def check_output(cli, workload: str, op, out: str):
    """Reason the output is wrong, or None."""
    try:
        if workload == "ode-sweep":
            return checks.check_steady_states(out, op.facts)
        if workload == "ode-folds":
            return checks.check_bifurcation(out, op.facts)
        if workload == "gf2-solve":
            _, ok, enumerated = run_op(cli, op.argv + ["--method", "enumerate"])
            return checks.check_solve(out, op.facts, enumerated if ok else None)
        if op.argv[0] == "state-graph":
            return checks.check_state_graph(out, op.facts)
        return checks.check_fixed_points(out, op.facts)
    except Exception as exc:  # a checker that cannot read the output rejects it
        return f"checker raised {type(exc).__name__}: {exc}"


def failures(cli, workload: str, loop: Loop) -> tuple[int, list]:
    """Failed executions and the distinct reasons, checked after timing."""
    verdict = {idx: check_output(cli, workload, loop.ops[idx], out)
               for idx, out in loop.first.items()}
    failed = sum(1 for idx, _, _, clean in loop.samples if not clean or verdict[idx])
    reasons = sorted({f"{loop.ops[i].key}: {r}" for i, r in verdict.items() if r})
    return failed, reasons


def layer_metrics(totals: dict) -> dict:
    def col(name, k):
        return totals.get(name, (0, 0, 0, 0))[k]

    out = {}
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = col(base, 0)
        elif kind == "ms":
            out[metric] = col(base, 1) / 1e6
        elif kind == "self_ms":
            out[metric] = col(base, 2) / 1e6
    calls = col("groebner.reduce", 0)
    out["groebner.reduce.zero_ratio"] = col("groebner.reduce", 3) / calls if calls else 0.0
    out["groebner.split_branches"] = (col("groebner.buchberger_reduced", 0)
                                      - col("groebner.solve_boolean_system", 0))
    isolations = col("realroots.isolate_real_roots", 0)
    out["realroots.sturm_chain.per_isolation"] = (
        col("realroots.sturm_chain", 0) / isolations if isolations else 0.0)
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next(line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return "unknown"


def run_record(args, pool, loop: Loop, speed: SpeedLog, traced: int) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": cpu_model(), "commit": git_commit(),
        "distinct_inputs": len(pool.ops), "inputs_timed": len(loop.first),
        "ops_timed": len(loop.samples), "passes": len(loop.samples) / len(pool.ops),
        "ops_traced": traced, "input_shares": pool.shares,
        "reference_ms_median": 1000 * statistics.median(speed.took),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workdir = os.path.join(".bench_work", f"{args.workload}-s{args.seed}")
    pool = workloads.generate(args.workload, args.seed, workdir)

    speed = SpeedLog()
    cli, setup_s = set_up(args.workload, speed)
    bad = golden_gate(cli)
    if bad:
        print("golden gate failed, no numbers reported: " + ", ".join(bad), file=sys.stderr)
        return 1

    loop = Loop(cli, pool.ops, speed)
    wall = loop.run(args.seconds)
    done = len(loop.samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ms = loop.per_input_ms()
    raw_ms = [1000 * took for _, _, took, _ in loop.samples]
    print(f"timed phase: {done} ops in {wall:.3f} s wall; at measured speed "
          f"{done / sum(raw_ms) * 1000:.4f} ops/s, p50 {quantile(raw_ms, 0.5):.3f} ms, "
          f"p90 {quantile(raw_ms, 0.9):.3f} ms")
    if args.trace:
        trace = tracer.Tracer()
        traced = Loop(cli, pool.ops, speed)
        trace.install()
        try:
            traced.run(0, ops=min(TRACE_OPS, len(pool.ops)))
        finally:
            trace.uninstall()
        spans = trace.write_spans(os.path.join(workdir, "spans.tsv"))
        metrics = layer_metrics(trace.totals())
        # overhead on the same inputs: the untraced loop began with them too
        both = min(len(ms), len(traced.samples))
        untraced, traced_ms = sum(ms[:both]), sum(traced.nominal_ms()[:both])
        metrics["trace.untraced_ops_per_s"] = 1000 * both / untraced
        metrics["trace.traced_ops_per_s"] = 1000 * both / traced_ms
        metrics["trace.overhead"] = traced_ms / untraced
        units = {m: layer_unit(m) for m in PER_LAYER}
    else:
        p90 = quantile(ms, 0.9)
        metrics = {"setup_s": setup_s, "ops_per_s": 1000 * len(ms) / sum(ms),
                   "op_ms.p50": quantile(ms, 0.5), "op_ms.p90": p90,
                   "peak_rss_mb": rss_mb}
        units = END_TO_END
        print(f"latency samples: {len(ms)} inputs, each the median of its runs; "
              f"beyond p90: {sum(1 for x in ms if x > p90)}")

    failed, reasons = failures(cli, args.workload, loop)
    if args.trace:
        traced_failed, traced_reasons = failures(cli, args.workload, traced)
        failed += traced_failed
        reasons = sorted(set(reasons) | set(traced_reasons))
        print(f"spans recorded: {spans}, dropped: {trace.dropped}")
    attempted = done + (len(traced.samples) if args.trace else 0)
    for reason in reasons:
        print(f"FAILED {reason}")
    print(f"fail_ratio {failed / attempted} ({failed} of {attempted} ops)")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    record = run_record(args, pool, loop, speed, len(traced.samples) if args.trace else 0)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
