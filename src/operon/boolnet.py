"""Synchronous Boolean network models: parsing, dynamics, and algebra export.

States are 0/1 tuples in variable declaration order.  The canonical integer
code of a state puts the first declared variable in the most significant bit,
so sorting codes sorts the printed bit-strings lexicographically.
"""

from __future__ import annotations

import re
import sys
from array import array
from functools import reduce
from operator import or_, xor
from typing import Iterator, Mapping, Sequence

from . import logic
from .errors import IDENT, Frozen, ParseError, source_lines
from .gf2 import (BoolPoly, VarSet, block_width, blocks, decode_state, translate_expr,
                  zero_codes)
from .groebner import ENUMERATE_CAP, PolySystem, route, solve_boolean_system

_RULE = re.compile(rf"({IDENT})\s*'\s*=\s*(.+)\Z")

# a truth table's digits as the bytes 0 and 1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")

State = tuple[int, ...]


class BooleanNetwork(Frozen):
    """name a str, vars a VarSet, params a tuple of str, rules one logic.Expr per var."""

    __slots__ = _fields = ("name", "vars", "params", "rules")

    def check_params(self, params: Mapping[str, int]) -> dict[str, int]:
        setting = {}
        for p in self.params:
            if p not in params:
                raise ValueError(f"missing value for parameter '{p}'")
            v = params[p]
            if v not in (0, 1):
                raise ValueError("parameter values must be 0 or 1")
            setting[p] = v
        for k in params:
            if k not in self.params:
                raise ValueError(f"unknown parameter '{k}'")
        return setting

    def check_state(self, state: Sequence[int]) -> State:
        state = tuple(state)
        if len(state) != len(self.vars):
            raise ValueError(f"state must have {len(self.vars)} coordinates, got {len(state)}")
        if any(b not in (0, 1) for b in state):
            raise ValueError("state coordinates must be 0 or 1")
        return state

    def step(self, state: Sequence[int], params: Mapping[str, int]) -> State:
        """One synchronous update: every rule is evaluated on the old state."""
        state = self.check_state(state)
        env = dict(zip(self.vars.names, state))
        env.update(self.check_params(params))
        return tuple(logic.evaluate(r, env) for r in self.rules)

    def trajectory(self, state, params, max_steps: int | None = None) -> "Trajectory":
        """The orbit of state, truncated after max_steps steps.

        With no max_steps the orbit is followed until it repeats, which can
        take 2^n steps; past ENUMERATE_CAP variables a limit is required.
        """
        state = self.check_state(state)
        setting = self.check_params(params)
        if max_steps is None:
            n = len(self.vars)
            if n > ENUMERATE_CAP:
                raise ValueError(f"a full orbit is followed only up to {ENUMERATE_CAP} "
                                 f"variables (got {n}); set a step limit with max_steps")
            max_steps = (1 << n) + 1
        if max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        seen = {state: 0}  # each visited state and its step, in order
        for _ in range(max_steps):
            state = self.step(state, setting)
            if state in seen:
                return Trajectory(tuple(seen), seen[state], False)
            seen[state] = len(seen)
        return Trajectory(tuple(seen), None, True)

    def to_polynomial_system(self, params: Mapping[str, int]) -> PolySystem:
        """Fixed-point system: one generator per variable, update rule plus x.

        Parameters translate to their values in the setting, so the
        generators live over the state variables only.  Rules that reduce to
        the identity contribute nothing.
        """
        setting = self.check_params(params)
        gens = [translate_expr(rule, self.vars, setting) + BoolPoly.variable(self.vars, name)
                for name, rule in zip(self.vars.names, self.rules)]
        return PolySystem(self.vars, gens)

    def fixed_points(self, params, method: str | None = None) -> list[State]:
        """States equal to their successor, sorted.

        "enumerate" reads them off the agreement table (`_agreement_zeros`)
        and "groebner" solves the polynomial system; `groebner.route` checks
        the method, or with none chooses it by the number of variables.
        """
        n = len(self.vars)
        if route(n, method) == "enumerate":
            return [decode_state(code, n) for code in self._agreement_zeros(params)]
        return solve_boolean_system(self.to_polynomial_system(params), "groebner")

    def fixed_points_by_setting(self, method: str | None = None
                                ) -> list[tuple[dict[str, int], list[State]]]:
        """Every parameter setting with its fixed points, the first parameter
        the most significant bit of the setting's code, in code order.

        On tables one agreement table over the parameters and variables
        answers every setting; "groebner" solves each setting alone.
        """
        n, k = len(self.vars), len(self.params)
        method = route(n, method)
        settings = [dict(zip(self.params, decode_state(c, k))) for c in range(1 << k)]
        if method == "groebner":
            return [(s, self.fixed_points(s, method)) for s in settings]
        rows = [(s, []) for s in settings]
        for code in self._agreement_zeros(None):
            rows[code >> n][1].append(decode_state(code, n))
        return rows

    def state_graph(self, params) -> "StateGraph":
        """Successors, attractors and basins of all 2^n states under one setting.

        Attractors are listed short cycles first, then by smallest member,
        and each cycle starts at its smallest member.
        """
        succ = self._successors(params)
        return StateGraph(self.vars, succ, *_attractors(succ))

    def _successors(self, params) -> array:
        """Successor code of every state code, read off the rule tables.

        In each block of `gf2.blocks`, each rule's table has its digits turned
        into the bytes 0 and 1, one per state; shifted to the rule's bit of
        the code, these are ORed into one integer per byte of the code, which
        fill little-endian lanes of 1, 2 or 4 bytes per state in the array.
        """
        setting = self.check_params(params)
        n = len(self.vars)
        size = 1 << block_width(n)
        succ = array("B" if n <= 8 else "H" if n <= 16 else "I")
        lane = succ.itemsize
        for _, rule_tables in self._block_tables(self.vars.names, setting):
            parts = [0] * lane
            for bit, table in zip(range(n - 1, -1, -1), rule_tables):
                digits = format(table, f"0{size}b").encode().translate(_DIGIT_BYTES)
                parts[bit >> 3] |= int.from_bytes(digits, "little") << (bit & 7)
            codes = bytearray(size * lane)
            for byte, part in enumerate(parts):
                codes[byte::lane] = part.to_bytes(size, "little")
            succ.frombytes(codes)
        if sys.byteorder == "big":
            succ.byteswap()
        return succ

    def _agreement_zeros(self, params) -> Iterator[int]:
        """Ascending codes where the OR over the variables of rule XOR variable
        reads 0: the fixed points under params, or with params None the
        (setting, state) pairs, parameters leading."""
        if params is None:
            setting, names = {}, self.params + self.vars.names
        else:
            setting, names = self.check_params(params), self.vars.names
        disagree = (reduce(or_, map(xor, var_tables, rule_tables), 0)
                    for var_tables, rule_tables in self._block_tables(names, setting))
        return zero_codes(len(names), disagree)

    def _block_tables(self, names, setting) -> Iterator[tuple[list[int], list[int]]]:
        """In each block of `gf2.blocks` over names, the leading ones the high
        bits, in order of the high code: the tables of the variables and of
        their rules, with the parameters not in names bound to setting."""
        route(len(self.vars), "enumerate")
        h, tables, full = blocks(len(names))
        env = {p: full * v for p, v in setting.items()}
        env.update(zip(names[h:], tables))
        for high in range(1 << h):
            env.update(zip(names, [full * b for b in decode_state(high, h)]))
            yield ([env[x] for x in self.vars.names],
                   [logic.evaluate(rule, env, full) for rule in self.rules])


class Trajectory(Frozen):
    """Synchronous orbit up to the first repeated state.

    states holds the distinct visited states; cycle_start is the index where
    the eventual cycle begins (None when the walk was truncated).
    """

    __slots__ = _fields = ("states", "cycle_start", "truncated")

    @property
    def cycle(self) -> tuple[State, ...]:
        if self.cycle_start is None:
            raise ValueError("trajectory was truncated before a cycle appeared")
        return self.states[self.cycle_start :]


class StateGraph(Frozen):
    """Complete successor map on all 2^n states (out-degree one everywhere).

    successors holds state codes; each attractor is a tuple of state codes,
    smallest member first, and basin_sizes counts the states that flow to
    each.
    """

    __slots__ = _fields = ("vars", "successors", "attractors", "basin_sizes")

    def bitstring(self, code: int) -> str:
        return format(code, f"0{len(self.vars)}b")

    # The reports are rendered straight from the codes, in the bytes that
    # `json.dumps(..., indent=2)` gives for their shapes, and yielded one
    # piece per block of `gf2.block_width` states: no dict, list or string
    # holds a bit string for every state.  The JSON reports end with a line
    # break, so the joined pieces are the bytes the command writes.

    def _blocks(self) -> Iterator[tuple[str, list[str], array]]:
        """(prefix, low bit strings, successors) of each block of states in
        code order: the codes of a block share their high bits, so a state's
        bit string is the block's prefix and one of 2^w low bit strings, made
        once for every block."""
        n = len(self.vars)
        w = block_width(n)
        size = 1 << w
        low = [format(j, f"0{w}b") for j in range(size)]
        for start in range(0, len(self.successors), size):
            yield self.bitstring(start)[: n - w], low, self.successors[start : start + size]

    def dot_pieces(self) -> Iterator[str]:
        spec = f"0{len(self.vars)}b"
        yield "digraph states {\n"
        for prefix, low, succ in self._blocks():
            yield "".join([f'  "{prefix}{key}" -> "{format(nxt, spec)}";\n'
                           for key, nxt in zip(low, succ)])
        yield "}\n"

    def adjacency_pieces(self) -> Iterator[str]:
        spec = f"0{len(self.vars)}b"
        yield "{\n"
        sep = ""
        for prefix, low, succ in self._blocks():
            yield sep + ",\n".join([f'  "{prefix}{key}": "{format(nxt, spec)}"'
                                    for key, nxt in zip(low, succ)])
            sep = ",\n"
        yield "\n}\n"

    def attractor_pieces(self) -> Iterator[str]:
        """Each attractor's cycle, as bit strings, and its basin size: a
        cycle's rows in pieces of up to a block of states, then its foot."""
        n = len(self.vars)
        spec, size = f"0{n}b", 1 << block_width(n)
        head = "[" + _CYCLE_HEAD
        for cycle, basin in zip(self.attractors, self.basin_sizes):
            for start in range(0, len(cycle), size):
                yield (_CYCLE_ROW if start else head) + _CYCLE_ROW.join(
                    [format(c, spec) for c in cycle[start : start + size]])
            head = "," + _CYCLE_HEAD
            yield f'"\n    ],\n    "basin_size": {basin}\n  }}'
        yield "\n]\n" if self.attractors else "[]\n"


_CYCLE_HEAD = '\n  {\n    "cycle": [\n      "'
_CYCLE_ROW = '",\n      "'


def _attractors(succ):
    """The cycles of a functional graph and the number of states that flow
    to each.

    A state flows where its successor does, so a walk starts at each state's
    successor and counts the state.  A walk marks the states on its path
    -2: reaching a marked state closes a new cycle, reaching a labelled one
    joins an old basin.  Cycles are ranked short first, then by smallest
    member, and start at their smallest member.
    """
    label = [-1] * len(succ)
    cycles: list[list[int]] = []
    sizes: list[int] = []
    for start in succ:
        found = label[start]
        if found == -1:
            path = []
            cur = start
            while label[cur] == -1:
                label[cur] = -2
                path.append(cur)
                cur = succ[cur]
            found = label[cur]
            if found == -2:
                cycle = path[path.index(cur) :]
                low = cycle.index(min(cycle))
                found = len(cycles)
                cycles.append(cycle[low:] + cycle[:low])
                sizes.append(0)
            for c in path:
                label[c] = found
        sizes[found] += 1
    ranked = sorted(range(len(cycles)), key=lambda a: (len(cycles[a]), cycles[a][0]))
    return tuple(tuple(cycles[a]) for a in ranked), tuple(sizes[a] for a in ranked)


def parse_network(text: str) -> BooleanNetwork:
    """Read the network file format.

    Layout: a ``network <name>`` line, a ``vars:`` line, an optional
    ``params:`` line, then one ``X' = <expr>`` rule per variable.  ``#``
    starts a comment; blank lines are ignored.
    """
    lines = list(source_lines(text))
    if not lines:
        raise ParseError("empty network file")
    lineno, line = lines[0]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "network":
        raise ParseError("expected 'network <name>'", lineno)
    if len(lines) == 1:
        raise ParseError("missing 'vars:' line")
    lineno, line = lines[1]
    if not line.startswith("vars:"):
        raise ParseError("expected a 'vars:' line", lineno)
    names = _split_names(line[len("vars:") :], lineno)
    try:
        vars = VarSet(names)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    params: tuple[str, ...] = ()
    rest = lines[2:]
    if rest and rest[0][1].startswith("params:"):
        lineno, line = rest.pop(0)
        names = _split_names(line[len("params:") :], lineno)
        dup = _first_duplicate(names)
        if dup is not None:
            raise ParseError(f"duplicate parameter name {dup!r}", lineno)
        for p in names:
            if not re.fullmatch(IDENT, p):
                raise ParseError(f"invalid parameter name {p!r}", lineno)
            if p in vars:
                raise ParseError(f"'{p}' is declared both as variable and parameter", lineno)
        params = tuple(names)
    # one Var per declared name, shared by every rule
    leaves = {ident: logic.Var(ident) for ident in (*vars.names, *params)}
    declared = len(leaves)
    rules: dict[str, logic.Expr] = {}
    rule_lines: dict[str, int] = {}
    for lineno, line in rest:
        m = _RULE.match(line)
        if m is None:
            raise ParseError("expected an update rule of the form \"X' = <expr>\"", lineno)
        target, body = m.groups()
        if target not in vars:
            raise ParseError(f"update rule for undeclared variable '{target}'", lineno)
        if target in rules:
            raise ParseError(
                f"duplicate update rule for '{target}' (first on line {rule_lines[target]})",
                lineno,
            )
        expr = logic.parse_expr(body, line=lineno, names=leaves)
        if len(leaves) > declared:
            raise ParseError(f"undeclared identifier '{min(list(leaves)[declared:])}'", lineno)
        rules[target] = expr
        rule_lines[target] = lineno

    missing = [v for v in vars.names if v not in rules]
    if missing:
        raise ParseError(f"missing update rule for: {', '.join(missing)}")
    return BooleanNetwork(parts[1], vars, params, tuple(rules[v] for v in vars.names))


def _split_names(rest: str, lineno: int) -> list[str]:
    names = [piece.strip() for piece in rest.split(",")]
    if names == [""]:
        raise ParseError("empty name list", lineno)
    if any(not n for n in names):
        raise ParseError("empty name in list", lineno)
    return names


def _first_duplicate(names):
    seen = set()
    for n in names:
        if n in seen:
            return n
        seen.add(n)
    return None


def load_network(path) -> BooleanNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network(fh.read())
