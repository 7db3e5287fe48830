"""Seeded input generators for the four benchmark workloads.

Each generator writes model files into a work directory and returns the
operation pool: a list of `Op`s, each one `operon` command line plus the
facts the checker needs (the generated model, not anything the program
computed).  The same seed always writes byte-identical files and the same
pool; the program only ever sees the files.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from checks import count_positive_roots, eliminant, fold_levels, gf2_zeros

# Constants of the bundled lac.ode; generated models jitter each of them.
LAC_CONSTANTS = {
    "c0": Fraction(1, 20), "c": Fraction(1), "gamma": Fraction(1),
    "v": Fraction(1), "delta": Fraction(1, 5), "h": Fraction(2),
}
JITTER = [Fraction(k, 20) for k in range(18, 23)]  # 0.90 .. 1.10


@dataclass
class Op:
    """One CLI invocation; `key` names the distinct input it runs on."""

    key: str
    argv: list
    facts: dict = field(default_factory=dict)


@dataclass
class Pool:
    ops: list
    # measured shares of input properties the costs depend on
    shares: dict = field(default_factory=dict)


def _interleave(rng: random.Random, strata: list) -> list:
    """Shuffle each stratum, then deal them out in proportion to their sizes,
    so that every prefix of the pool (a run that stops mid-pass) holds the
    strata in the same shares as the whole pool."""
    for stratum in strata:
        rng.shuffle(stratum)
    dealt = sorted(((i + 0.5) / len(s), k, i) for k, s in enumerate(strata) for i in range(len(s)))
    return [strata[k][i] for _, k, i in dealt]


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# ODE models


def _ode_model(rng: random.Random, n: int) -> dict:
    consts = {k: v * rng.choice(JITTER) for k, v in LAC_CONSTANTS.items()}
    consts["n"] = n
    return consts


def _ode_text(consts: dict) -> str:
    lines = [f"{k} = {consts[k]}" for k in ("c0", "c", "gamma", "v", "delta", "h", "n")]
    return "\n".join(lines + ["L = sym"]) + "\n"


def _lactose(rng: random.Random) -> Fraction:
    """Rational L in [0.1, 2.5] with denominator at most 100."""
    d = rng.randint(1, 100)
    lo = -(-d // 10)
    return Fraction(rng.randint(lo, 5 * d // 2), d)


def ode_sweep(rng: random.Random, workdir: str) -> Pool:
    """`ode steady-states m.ode --L x` over Hill n = 2..6."""
    strata = []
    for n in range(2, 7):
        strata.append([])
        for j in range(80):
            consts = _ode_model(rng, n)
            path = _write(os.path.join(workdir, f"sweep_n{n}_{j}.ode"), _ode_text(consts))
            L = _lactose(rng)
            strata[-1].append(Op(path, ["ode", "steady-states", path, "--L", str(L)],
                                 {"consts": consts, "L": L}))
    ops = _interleave(rng, strata)
    three = sum(1 for op in ops
                if count_positive_roots(eliminant(op.facts["consts"], op.facts["L"])) == 3)
    return Pool(ops, {"three_root_share": three / len(ops)})


# The program refuses, with exit code 1, a model whose two folds lie closer
# than its working precision ("critical values are closer than the working
# precision"), as documented.  Such near-cusp models are drawn again, found
# by the benchmark's own fold finder, and the record counts them.
MIN_FOLD_GAP = Fraction(1, 10 ** 4)

# Models per Hill n.  The cost of one op grows about 2x per step in n, with
# little spread inside a size.  With these shares op_ms.p50 falls in the
# middle of n = 3 and op_ms.p90 in the middle of n = 5, not in the gap
# between two sizes, where it moved most from seed to seed.
FOLD_MODELS = {2: 30, 3: 40, 4: 15, 5: 15}


def ode_folds(rng: random.Random, workdir: str) -> Pool:
    """`ode bifurcation m.ode --samples 2` with L symbolic, Hill n = 2..5."""
    strata = []
    redrawn = 0
    for n, count in FOLD_MODELS.items():
        strata.append([])
        for j in range(count):
            while True:
                consts = _ode_model(rng, n)
                folds = fold_levels(consts)
                if all(b - a >= MIN_FOLD_GAP for a, b in zip(folds, folds[1:])):
                    break
                redrawn += 1
            path = _write(os.path.join(workdir, f"folds_n{n}_{j}.ode"), _ode_text(consts))
            strata[-1].append(Op(path, ["ode", "bifurcation", path, "--samples", "2"],
                                 {"consts": consts, "folds": folds}))
    return Pool(_interleave(rng, strata), {"near_cusp_models_redrawn": redrawn})


# ---------------------------------------------------------------------------
# Planted GF(2) systems


# Systems per size.  n = 9 is left out: its mean solve, 434 ms at nominal
# speed with a standard deviation of 423 ms, leaves too few ops in a run for
# figures that hold from one seed to the next.  n = 8 is a tenth of the
# systems and about a third of the time.  op_ms.p90 then falls where the
# tail of n = 7 meets n = 8; inside the heavy tail of n = 8, with 2:2:1
# shares, it moved half as much again from seed to seed.
GF2_SYSTEMS = {6: 300, 7: 300, 8: 60}


def gf2_solve(rng: random.Random, workdir: str) -> Pool:
    """`solve s.gf2` on planted quadratic systems: n unknowns, n equations."""
    strata = []
    for n, count in GF2_SYSTEMS.items():
        strata.append([])
        linear = [1 << i for i in range(n)]
        quadratic = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
        for k in range(count):
            planted = rng.getrandbits(n)
            equations = []
            for _ in range(n):
                terms = rng.randint(3, 8)
                monos = set(rng.sample(quadratic, rng.randint(max(1, terms - n), terms - 1)))
                monos |= set(rng.sample(linear, terms - len(monos)))
                if sum(1 for m in monos if m & planted == m) % 2:
                    monos.add(0)  # constant term makes the planted point a zero
                equations.append(sorted(monos, reverse=True))
            names = [f"x{i + 1}" for i in range(n)]
            text = "vars: " + " ".join(names) + "\n" + "".join(
                " + ".join(_monomial(m, names) for m in eq) + "\n" for eq in equations)
            path = _write(os.path.join(workdir, f"planted_n{n}_{k}.gf2"), text)
            strata[-1].append(Op(path, ["solve", path],
                                 {"n": n, "equations": equations, "planted": planted}))
    ops = _interleave(rng, strata)
    multi = sum(1 for op in ops if len(gf2_zeros(op.facts["n"], op.facts["equations"])) > 1)
    return Pool(ops, {"multi_solution_systems": multi})


def _monomial(mask: int, names: list) -> str:
    if mask == 0:
        return "1"
    return "*".join(names[i] for i in range(len(names)) if mask >> i & 1)


# ---------------------------------------------------------------------------
# Random Boolean networks

# Rule shapes over three literals; `_tree` fills in the literals and operators.
_OPS = ("&", "|", "^")


def _tree(rng: random.Random, inputs: list):
    lits = [(rng.random() < 0.3, name) for name in inputs]
    op1, op2 = rng.choice(_OPS), rng.choice(_OPS)
    return (op1, lits[0], (op2, lits[1], lits[2]))


def _literal(neg: bool, name: str) -> str:
    return ("!" if neg else "") + name


def _render(tree) -> str:
    op1, first, (op2, second, third) = tree
    return f"{_literal(*first)} {op1} ({_literal(*second)} {op2} {_literal(*third)})"


def bn_dynamics(rng: random.Random, workdir: str) -> Pool:
    """Alternating `state-graph --attractors` and `fixed-points --all-params`.

    Networks have 8..11 variables, two parameters and in-degree three.
    """
    strata = []
    for n in range(8, 12):
        strata.append([])
        for k in range(100):
            names = [f"x{i + 1}" for i in range(n)]
            params = ["u1", "u2"]
            rules = [_tree(rng, rng.sample(names + params, 3)) for _ in names]
            text = (f"network rnd{n}_{k}\nvars: {', '.join(names)}\n"
                    f"params: {', '.join(params)}\n"
                    + "".join(f"{v}' = {_render(r)}\n" for v, r in zip(names, rules)))
            path = _write(os.path.join(workdir, f"net_n{n}_{k}.bn"), text)
            facts = {"names": names, "params": params, "rules": rules}
            setting = {p: rng.randint(0, 1) for p in params}
            arg = ",".join(f"{p}={v}" for p, v in setting.items())
            # each network's two commands stay adjacent, so the commands alternate
            strata[-1].append((
                Op(f"{path}#graph", ["state-graph", path, "--set", arg, "--attractors"],
                   dict(facts, setting=setting)),
                Op(f"{path}#fixed", ["fixed-points", path, "--all-params"], facts)))
    return Pool([op for pair in _interleave(rng, strata) for op in pair])


GENERATORS = {
    "ode-sweep": ode_sweep,
    "ode-folds": ode_folds,
    "gf2-solve": gf2_solve,
    "bn-dynamics": bn_dynamics,
}


def generate(workload: str, seed: int, workdir: str) -> Pool:
    os.makedirs(workdir, exist_ok=True)
    # string seeds hash deterministically across processes
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, workdir)
