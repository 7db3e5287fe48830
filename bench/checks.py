"""Output checks that share no code with the program under test.

The ODE checks build the eliminant P(A) - L*Q(A) straight from the model
constants and count its positive roots with Descartes' rule of signs
(Vincent-Collins-Akritas bisection) instead of Sturm chains; the folds are
L(A) = P(A)/Q(A) at the positive roots of P'Q - PQ', not roots of a
discriminant.  The Boolean
checks evaluate the generated rules and GF(2) equations with their own
evaluators.  Every checker returns None for a correct output and a short
reason string otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

# ---------------------------------------------------------------------------
# Polynomials as coefficient lists, lowest degree first


def _add(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return out


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _scale(p, k):
    return [k * c for c in p]


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _integer(p) -> list:
    """Integer coefficients of a positive multiple of a rational polynomial."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    den = lcm(*(x.denominator for x in p))
    return [int(x * den) for x in p]


def _model(consts: dict):
    """P and Q with steady states at P(A) = L*Q(A).

    With t = A^n the steady state gives M = (c0 + (c0+c) t) / (gamma (1+t)),
    and dA/dt = 0 times (h+A) then reads P(A) = L*Q(A) with
    P = delta*gamma*A*(h+A)*(1+t) + v*A*(c0+(c0+c)t) and Q = (c0+(c0+c)t)*(h+A).
    """
    c0, c, gamma, v, delta, h, n = (consts[k] for k in ("c0", "c", "gamma", "v", "delta", "h", "n"))
    t = [Fraction(0)] * n + [Fraction(1)]
    one_plus_t = _add([Fraction(1)], t)
    hill = _add([c0], _scale(t, c0 + c))
    a_h = [h, Fraction(1)]
    A = [Fraction(0), Fraction(1)]
    P = _add(_scale(_mul(_mul(A, a_h), one_plus_t), delta * gamma), _scale(_mul(A, hill), v))
    return P, _mul(hill, a_h)


def eliminant(consts: dict, L: Fraction) -> list:
    """Integer coefficients of P(A) - L*Q(A), a positive multiple of the eliminant."""
    P, Q = _model(consts)
    return _integer(_add(P, _scale(Q, -Fraction(L))))


def fold_levels(consts: dict) -> list:
    """L at every positive critical point of L(A) = P(A)/Q(A), ascending.

    These are the folds: the levels where two positive steady states meet.
    """
    P, Q = _model(consts)
    W = _integer(_add(_mul(_derivative(P), Q), _scale(_mul(P, _derivative(Q)), -1)))
    levels = []
    for lo, hi in positive_root_boxes(W, Fraction(1, 10 ** 9)):
        a = (lo + hi) / 2
        levels.append(value(P, a) / value(Q, a))
    return sorted(levels)


def value(p: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(coeffs) -> int:
    signs = [s for s in map(_sign, coeffs) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _shift1(p: list) -> list:
    """Coefficients of p(x + 1)."""
    a = list(p)
    d = len(a) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            a[j] += a[j + 1]
    return a


def positive_root_boxes(p: list, width: Fraction | None = None) -> list:
    """One interval (lo, hi) around each positive root, ascending; lo == hi
    for a root hit exactly.  p has integer coefficients, no repeated factor
    and p(0) != 0.  With `width`, open intervals are bisected below it."""
    if p[0] == 0:
        raise ValueError("zero is a root")
    bound = 1 + max(abs(Fraction(c, p[-1])) for c in p[:-1])
    k = 0
    while (1 << k) <= bound:
        k += 1
    boxes = []

    def isolate(q, lo, w, depth):
        # q's roots in (0, 1) are the roots of p in (lo, lo + w); the sign
        # variations of (x+1)^d q(1/(x+1)) bound their number
        v = _variations(_shift1(q[::-1]))
        if v < 2:
            if v:
                boxes.append((lo, lo + w))
            return
        if depth > 200:
            raise ArithmeticError("Descartes bisection did not separate the roots")
        d = len(q) - 1
        left = [c << (d - i) for i, c in enumerate(q)]  # 2^d q(x/2)
        right = _shift1(left)
        isolate(left, lo, w / 2, depth + 1)
        if right[0] == 0:  # q(1/2) = 0
            boxes.append((lo + w / 2, lo + w / 2))
            right = right[1:]
        isolate(right, lo + w / 2, w / 2, depth + 1)

    isolate([c << (k * i) for i, c in enumerate(p)], Fraction(0), Fraction(1 << k), 0)
    if width is None:
        return boxes
    out = []
    for lo, hi in boxes:
        while hi - lo > width:
            mid = (lo + hi) / 2
            s = _sign(value(p, mid))
            if s == 0:
                lo = hi = mid
            elif s == _sign(value(p, lo)):
                lo = mid
            else:
                hi = mid
        out.append((lo, hi))
    return out


def count_positive_roots(p: list) -> int:
    """Distinct positive roots of an integer polynomial without repeated factors."""
    return len(positive_root_boxes(p))


# ---------------------------------------------------------------------------
# ODE outputs


def check_steady_states(out: str, facts: dict):
    f = eliminant(facts["consts"], facts["L"])
    try:
        states = json.loads(out)
        boxes = [tuple(Fraction(x) for x in s["intervals"]["A"]) for s in states]
    except (ValueError, KeyError, TypeError):
        return "unparsable steady-state output"
    for lo, hi in boxes:
        if lo > hi or lo <= 0:
            return f"bad A interval [{lo}, {hi}]"
        if lo == hi:
            if value(f, lo) != 0:
                return f"exact A = {lo} is not a root"
        elif _sign(value(f, lo)) * _sign(value(f, hi)) >= 0:
            return f"A interval [{lo}, {hi}] brackets no sign change"
    for (_, hi), (lo, _) in zip(boxes, boxes[1:]):
        if hi > lo:
            return "A intervals are not sorted and disjoint"
    expected = count_positive_roots(f)
    if len(boxes) != expected:
        return f"{len(boxes)} steady states reported, {expected} exist"
    return None


FOLD_SLACK = Fraction(2, 10 ** 5)  # > half a unit in the 5th digit plus the 1e-6 box


def check_bifurcation(out: str, facts: dict):
    consts = facts["consts"]
    lines = out.splitlines()
    try:
        crit = [Fraction(line.split(" = ")[1]) for line in lines if line.startswith("critical L")]
        counts = [int(x) for x in lines[len(crit)].removeprefix("region counts: ").split(", ")]
        samples, boundary = (int(x.split(": ")[1]) for x in lines[len(crit) + 1].split(", "))
    except (ValueError, IndexError):
        return "unparsable bifurcation output"
    if len(lines) != len(crit) + 2 or len(counts) != len(crit) + 1 or samples != 2:
        return "bifurcation output has the wrong shape"
    if crit != sorted(crit) or any(c <= 0 for c in crit):
        return "critical values are not positive and sorted"

    folds = facts["folds"]  # fold_levels(consts), found when the model was drawn
    if len(folds) != len(crit) or any(abs(c - f) > FOLD_SLACK for c, f in zip(crit, folds)):
        return "critical values differ from the folds of L(A) = P(A)/Q(A)"

    def count(L):
        return count_positive_roots(eliminant(consts, L))

    # each region's count must hold at the program's probe and just inside
    # both edges, and neighbouring regions must differ, so a dropped, shifted
    # or spurious critical value shows
    edges = [None] + crit + [None]
    for left, right, k in zip(edges, edges[1:], counts):
        if left is None:
            points = [right / 2, right - FOLD_SLACK] if right is not None else [Fraction(1)]
        elif right is None:
            points = [left + FOLD_SLACK, left + 1]
        else:
            points = [left + FOLD_SLACK, (left + right) / 2, right - FOLD_SLACK]
        for L in points:
            if count(L) != k:
                return f"region count {k} is wrong at L = {L}"
    if any(a == b for a, b in zip(counts, counts[1:])):
        return "the steady-state count does not change at a critical value"
    ends = (Fraction(1, 10), Fraction(5, 2))
    if boundary and not any(abs(c - e) <= FOLD_SLACK for c in crit for e in ends):
        return "a sample is flagged boundary away from every critical value"
    return None


# ---------------------------------------------------------------------------
# GF(2) systems


def _columns(n: int) -> list:
    """Truth table of each variable over all 2^n points, one bit per point.

    Point x (bit i = value of variable i) is bit x of every column.
    """
    cols = []
    for i in range(n):
        block = ((1 << (1 << i)) - 1) << (1 << i)  # 2^i zeros, then 2^i ones
        period = 1 << (i + 1)
        col = 0
        for start in range(0, 1 << n, period):
            col |= block << start
        cols.append(col)
    return cols


def gf2_zeros(n: int, equations: list) -> list:
    """All 0/1 points (bit i = variable i) where every equation vanishes."""
    cols = _columns(n)
    full = (1 << (1 << n)) - 1
    nonzero = 0
    for eq in equations:
        value = 0
        for m in eq:
            term = full
            for i in range(n):
                if m >> i & 1:
                    term &= cols[i]
            value ^= term
        nonzero |= value
    zeros = full & ~nonzero
    return [x for x in range(1 << n) if zeros >> x & 1]


def gf2_point(x: int, n: int) -> str:
    return "".join(str(x >> i & 1) for i in range(n))


def check_solve(out: str, facts: dict, enumerated: str | None):
    n = facts["n"]
    points = sorted(gf2_point(x, n) for x in gf2_zeros(n, facts["equations"]))
    expected = "".join(p + "\n" for p in points)
    if out != expected:
        return "solutions differ from the benchmark's own enumeration"
    if out != enumerated:
        return "solutions differ from solve --method enumerate"
    if gf2_point(facts["planted"], n) not in out.split():
        return "planted point missing"
    return None


# ---------------------------------------------------------------------------
# Boolean networks


def _rule_column(tree, cols: dict, full: int) -> int:
    """Truth table of one generated rule, evaluated on whole columns at once."""
    def lit(neg_name):
        neg, name = neg_name
        return cols[name] ^ full if neg else cols[name]

    def apply(op, a, b):
        return a & b if op == "&" else (a | b if op == "|" else a ^ b)

    op1, first, (op2, second, third) = tree
    return apply(op1, lit(first), apply(op2, lit(second), lit(third)))


def _state_columns(facts: dict, setting: dict):
    """(full mask, state columns, successor columns); state code x is bit x,
    and the first variable is the top bit of the code."""
    names = facts["names"]
    n = len(names)
    full = (1 << (1 << n)) - 1
    code_bits = _columns(n)
    cols = {name: code_bits[n - 1 - i] for i, name in enumerate(names)}
    cols.update((p, full if setting[p] else 0) for p in facts["params"])
    successors = [_rule_column(t, cols, full) for t in facts["rules"]]
    return full, [cols[name] for name in names], successors


def successor_map(facts: dict, setting: dict) -> list:
    """Successor code of every state code."""
    _, _, nxt = _state_columns(facts, setting)
    size = 1 << len(nxt)
    # one string per variable, character x its value in state x
    rows = [format(col, f"0{size}b")[::-1] for col in nxt]
    return [int("".join(bits), 2) for bits in zip(*rows)]


def attractors(succ: list) -> list:
    """(cycle, basin size) pairs, each cycle rotated to start at its least state,
    ordered short cycles first and then by least state."""
    owner = [-1] * len(succ)
    cycles = []
    for start in range(len(succ)):
        path = []
        x = start
        while owner[x] == -1 and x not in path:
            path.append(x)
            x = succ[x]
        if owner[x] == -1:
            cyc = path[path.index(x):]
            low = cyc.index(min(cyc))
            cycles.append(cyc[low:] + cyc[:low])
            owner[x] = len(cycles) - 1
        for y in path:
            owner[y] = owner[x]
    basins = [0] * len(cycles)
    for o in owner:
        basins[o] += 1
    return sorted(zip(cycles, basins), key=lambda cb: (len(cb[0]), cb[0][0]))


def check_state_graph(out: str, facts: dict):
    n = len(facts["names"])
    try:
        entries = json.loads(out)
        report = [([int(s, 2) for s in e["cycle"]], e["basin_size"]) for e in entries]
    except (ValueError, KeyError, TypeError):
        return "unparsable attractor report"
    if any(len(s) != n for e in entries for s in e["cycle"]):
        return "state strings have the wrong length"
    if report != attractors(successor_map(facts, facts["setting"])):
        return "attractors or basins differ from the benchmark's own state graph"
    return None


def check_fixed_points(out: str, facts: dict):
    """Every setting's fixed points are the states where each rule keeps its variable."""
    params, n = facts["params"], len(facts["names"])
    expected = []
    for code in range(1 << len(params)):
        setting = {p: code >> (len(params) - 1 - i) & 1 for i, p in enumerate(params)}
        full, cols, nxt = _state_columns(facts, setting)
        moved = 0
        for now, then in zip(cols, nxt):
            moved |= now ^ then
        still = full & ~moved
        points = " ".join(format(x, f"0{n}b") for x in range(1 << n) if still >> x & 1)
        label = ",".join(f"{p}={setting[p]}" for p in params)
        expected.append(f"{label}: {points}\n")
    if out != "".join(expected):
        return "fixed points differ from the benchmark's own evaluation of the rules"
    return None
