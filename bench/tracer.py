"""Outside-in tracing of operon's public functions.

`Tracer.install` replaces each traced function with a timing wrapper in its
own module and in every operon module that imported it by name (methods are
replaced on their class), and `uninstall` puts the originals back.  Only the
outermost call of a recursive function is recorded.  Spans are kept in
memory as flat integer records and written out after the run; per-function
calls, total time and self time (duration minus child spans) are summed as
the spans close.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

# (module, attribute) of every traced function; "Class.method" names a method
TRACED = [
    ("cli", "main"),
    ("logic", "parse_expr"), ("logic", "evaluate"),
    ("gf2", "translate_expr"), ("gf2", "parse_poly"),
    ("boolnet", "BooleanNetwork.step"), ("boolnet", "BooleanNetwork.state_graph"),
    ("boolnet", "BooleanNetwork.fixed_points"),
    ("groebner", "buchberger_reduced"), ("groebner", "reduce"),
    ("groebner", "s_polynomial"), ("groebner", "solve_boolean_system"),
    ("exactpoly", "resultant"), ("exactpoly", "bareiss_determinant"),
    ("exactpoly", "discriminant"), ("exactpoly", "substitute"),
    ("realroots", "isolate_real_roots"), ("realroots", "refine_root_box"),
    ("realroots", "sturm_chain"), ("realroots", "squarefree_part"),
    ("realroots", "count_real_roots"),
    ("lacmodel", "build_system"), ("lacmodel", "eliminate_M"),
    ("lacmodel", "critical_lactose_values"), ("lacmodel", "steady_states_at"),
    ("lacmodel", "bifurcation_curve"),
]

# results that count as wasted work, by span name
ZERO_RESULT = {"groebner.reduce"}

SPAN_FIELDS = ("op", "span", "parent", "name", "start_ns", "end_ns")
MAX_SPANS = 400_000  # kept in memory; later spans are only counted


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.zero: list[int] = []
        self.spans = array("q")
        self.dropped = 0
        self._op = 0  # operations so far; each root span starts one
        self._next_span = 0
        self._stack: list[list[int]] = []  # open spans: [span id, child ns]
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        for counts in (self.calls, self.total_ns, self.self_ns, self.zero):
            counts.append(0)
        count_zero = name in ZERO_RESULT
        active = False
        stack = self._stack

        def traced(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            active = True
            span = self._next_span
            self._next_span += 1
            if not stack:
                self._op += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                active = False
                dur = end - start
                self.calls[nid] += 1
                self.total_ns[nid] += dur
                self.self_ns[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(self.spans) < MAX_SPANS * len(SPAN_FIELDS):
                    self.spans.extend((self._op, span, parent, nid, start, end))
                else:
                    self.dropped += 1
            if count_zero and not result:
                self.zero[nid] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "operon" or k.startswith("operon.")]
        for mod_name, attr in TRACED:
            module = sys.modules[f"operon.{mod_name}"]
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[fn_name]
                owners = [owner]
            else:
                original = getattr(module, fn_name)
                owners = [m for m in modules if getattr(m, fn_name, None) is original]
            wrapper = self._wrap(span_name(mod_name, attr), original)
            for owner in owners:
                setattr(owner, fn_name, wrapper)
                self._undo.append((owner, fn_name, original))

    def uninstall(self) -> None:
        for owner, fn_name, original in reversed(self._undo):
            setattr(owner, fn_name, original)
        self._undo.clear()

    def totals(self) -> dict:
        """{name: (calls, total ns, self ns, zero results)}."""
        return {name: (self.calls[i], self.total_ns[i], self.self_ns[i], self.zero[i])
                for i, name in enumerate(self.names)}

    def write_spans(self, path: str) -> int:
        """Write recorded spans as tab-separated rows; returns the row count."""
        width = len(SPAN_FIELDS)
        rows = len(self.spans) // width
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(SPAN_FIELDS) + "\n")
            for r in range(rows):
                op, span, parent, nid, start, end = self.spans[r * width:(r + 1) * width]
                fh.write(f"{op}\t{span}\t{parent}\t{self.names[nid]}\t{start}\t{end}\n")
        return rows
