"""Groebner bases and solving for GF(2) polynomial systems.

Buchberger's algorithm runs directly in the squarefree quotient ring, with the
field polynomials x*x + x as explicit pair partners.  A leading term is written
(a, b): a holds the variables of exponent >= 1 and b those of exponent 2, which
is nonzero only for a field polynomial, so lcm((a1, b1), (a2, b2)) is
(a1 | a2, b1 | b2).  The S-polynomial of g with the field polynomial of a
variable x dividing lm(g) is the quotient-ring product x*g.  New pairs pass the
Gebauer-Moeller criteria (Gebauer & Moeller 1988, in the form of Becker &
Weispfenning's UPDATE) before they are queued.
"""

from __future__ import annotations

import heapq
from itertools import product
from typing import Iterable, Sequence

from .errors import Frozen, ParseError, source_lines
from .gf2 import (BoolPoly, MonomialOrder, VarSet, _bit_indices, blocks, decode_state,
                  parse_poly, zero_codes)

ENUMERATE_CAP = 24


class PolySystem(Frozen):
    """A finite generating set over one variable set; zero generators are dropped."""

    __slots__ = _fields = ("vars", "generators")

    def __init__(self, vars: VarSet, generators: Iterable[BoolPoly]):
        gens = []
        for g in generators:
            if not isinstance(g, BoolPoly):
                raise TypeError("generators must be BoolPoly instances")
            if g.vars != vars:
                raise ValueError("generator uses a different variable set")
            if g:
                gens.append(g)
        self._init(vars, tuple(gens))


class GroebnerBasis(Frozen):
    """Reduced basis, sorted by leading monomial in descending order."""

    __slots__ = _fields = ("vars", "order", "polys")

    def __init__(self, vars: VarSet, order: MonomialOrder, polys: Sequence[BoolPoly]):
        self._init(vars, order, tuple(polys))

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)


def reduce(p: Iterable[int], basis: Sequence[tuple[int, Sequence[int]]],
           order: MonomialOrder) -> list[int]:
    """Full normal form of p: no remaining monomial is divisible by any lead.

    p is any iterable of monomials, standing for their sum (a repeated
    monomial cancels); basis is a reducer list of (lead, tail) pairs, the
    tail being the other monomials of the generator.  The normal form comes
    back as a list of monomials in descending order.

    Divisibility of squarefree monomials is mask containment, and the
    cofactor of a reduction step is disjoint from the divisor's leading
    monomial, so the lead times the cofactor is the rewritten monomial itself,
    which leaves the work set; only the tail is multiplied out, and everything
    it introduces is strictly smaller.
    """
    keys = order.keys
    remainder = []
    # the work set maps each monomial's order key to the monomial, so the
    # largest is max() over ints and each key is looked up once per insertion
    work = {}
    for m in p:
        k = keys[m]
        if k in work:
            del work[k]
        else:
            work[k] = m
    while work:
        m = work.pop(max(work))
        outside = ~m
        for lm, tail in basis:
            if lm & outside == 0:
                cof = m ^ lm
                for t in tail:
                    mm = cof | t
                    k = keys[mm]
                    if k in work:
                        del work[k]
                    else:
                        work[k] = mm
                break
        else:
            remainder.append(m)
    return remainder


def s_polynomial(f: BoolPoly, g: BoolPoly, order: MonomialOrder) -> BoolPoly:
    """lcm-cancelling combination of f and g in the quotient ring."""
    if not f or not g:
        raise ValueError("S-polynomial of the zero polynomial is undefined")
    lf = f.leading_monomial(order)
    lg = g.leading_monomial(order)
    lcm = lf | lg
    return f * BoolPoly(f.vars, (lcm & ~lf,)) + g * BoolPoly(g.vars, (lcm & ~lg,))


def buchberger_reduced(system: PolySystem, order: MonomialOrder | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the system's ideal in the quotient ring.

    Pair selection follows the normal strategy (smallest lcm first).  Each
    new generator is the normal form of a generator or S-polynomial modulo
    the reducer set, whose leads are pairwise non-dividing: adding h drops
    every member whose lead lm(h) divides.  So the reducer set ends as a
    minimal basis, and one pass of tail reduction makes it the reduced one.
    An ideal containing 1 yields the basis {1}.

    Inside, a generator is a frozenset of monomials whose lead is computed
    once: it is the first monomial of the normal form that `reduce` returns.
    """
    vars = system.vars
    if order is None:
        order = MonomialOrder.degrevlex(vars)
    keys = order.keys
    one = GroebnerBasis(vars, order, (BoolPoly.one(vars),))

    gens: list[frozenset[int]] = []  # every generator so far; pairs refer to them by index
    lms: list[int] = []
    tails: list[list[int]] = []  # the monomials below each lead, in descending order
    active: list[int] = []  # the reducer set, as indices into gens
    reducers: list[tuple[int, list[int]]] = []  # the same, as (lead, tail) for reduce
    # a pair is (sort key, lcm a, lcm b, i, j): j indexes gens when b == 0,
    # else b is the bit of x and the partner is the field polynomial of x
    pairs: list[tuple] = []

    def add(r: list[int]) -> None:
        nonlocal pairs
        k = len(gens)
        lh = r[0]
        gens.append(frozenset(r))
        lms.append(lh)
        tails.append(r[1:])
        # B criterion: drop an old pair when lm(h) divides its lcm and that
        # lcm equals neither partner's lcm with h; lcm(h, x*x + x) is
        # (lh | x, x), and lcm(h, g) has b = 0, so never equals a field lcm
        def spared(pair):
            _, a, b, i, j = pair
            return (lh | b) == a if b else lms[i] | lh == a or lms[j] | lh == a

        kept = [pair for pair in pairs if lh & ~pair[1] or spared(pair)]
        # new pairs with the reducer set.  Coprime ones are skipped (product
        # criterion); they could rule out no other, since no reducer lead
        # divides another or lh.  Of the rest, the F criterion keeps one per
        # lcm and the M criterion drops those with a proper divisor lcm.
        lcms = {}
        for i in active:
            if lms[i] & lh:
                lcms[lms[i] | lh] = i
        for lcm, i in lcms.items():
            outside = ~lcm
            for l in lcms:
                if l & outside == 0 and l != lcm:
                    break
            else:
                kept.append((keys[lcm], lcm, 0, i, k))
        # pairs with the field polynomials of the variables of lm(h); those of
        # other variables are coprime to h, and no pair with h rules these out
        # or is ruled out by them, because no lead in the reducer set divides
        # lh.  When lh is one variable x, h = x + r with r free of x, and x*h
        # = (1 + r)*h reduces to zero at once.
        if lh & (lh - 1):
            klh = keys[lh]
            for x in _bit_indices(lh):
                kept.append((klh, lh, 1 << x, k, -1))
        heapq.heapify(kept)
        pairs = kept
        active[:] = [i for i in active if lh & ~lms[i]]
        active.append(k)
        reducers[:] = [(lms[i], tails[i]) for i in active]

    for f in system.generators:
        r = reduce(f.monomials, reducers, order)
        if r == [0]:
            return one
        if r:
            add(r)

    while pairs:
        _, lcm, b, i, j = heapq.heappop(pairs)
        g = gens[i]
        if b:
            # x*g: a monomial and its partner across x both become m | x and
            # cancel, so only monomials without a partner in g survive
            s = {m | b for m in g if m ^ b not in g}
            if not s or s == g:
                continue  # g = (x + 1)*q or x*q: x*g is 0 or g itself
        else:
            # the S-polynomial as a sum of monomials, for reduce to cancel
            # the pairs; both leads become the lcm and cancel at once
            cf, cg = lcm ^ lms[i], lcm ^ lms[j]
            s = [m | cf for m in tails[i]]
            s += [m | cg for m in tails[j]]
        r = reduce(s, reducers, order)
        if r == [0]:
            return one
        if r:
            add(r)

    # the leads of the reducer set are pairwise non-dividing and fixed, so
    # reducing each tail once by the others gives the unique reduced basis
    active.sort(key=lambda i: keys[lms[i]], reverse=True)
    reduced = []
    for i in active:
        others = [(lms[j], tails[j]) for j in active if j != i]
        reduced.append(BoolPoly(vars, reduce(gens[i], others, order)))
    return GroebnerBasis(vars, order, reduced)


def route(n: int, method: str | None = None) -> str:
    """The method that solves a system in n variables.

    With no method, "enumerate" (truth tables) in up to ENUMERATE_CAP
    variables and "groebner" (a reduced basis) past them; a given method is
    checked and returned.
    """
    if method is None:
        return "enumerate" if n <= ENUMERATE_CAP else "groebner"
    if method == "enumerate":
        if n > ENUMERATE_CAP:
            raise ValueError(f"enumeration is capped at {ENUMERATE_CAP} variables (got {n})")
    elif method != "groebner":
        raise ValueError(f"unknown method {method!r}")
    return method


def solve_boolean_system(system: PolySystem, method: str | None = None) -> list[tuple[int, ...]]:
    """All common 0/1 zeros of the system, as sorted tuples in variable order.

    "enumerate" reads them off the OR of the generators' truth tables,
    built in blocks of at most `gf2.BLOCK_VARS` variables, and "groebner"
    off the reduced basis; `route` checks the method, or with none chooses
    it by the number of variables.
    """
    n = len(system.vars)
    if route(n, method) == "enumerate":
        nonzero = _nonzero_tables(system.generators, n)
        return [decode_state(code, n) for code in zero_codes(n, nonzero)]

    order = MonomialOrder.degrevlex(system.vars)
    base = buchberger_reduced(system, order)
    solutions: list[tuple[int, ...]] = []
    _split(list(base.polys), {}, system.vars, order, solutions)
    return sorted(solutions)


def _split(polys, assigned, vars, order, out):
    # polys is a reduced basis.  A member x or x + 1 forces x to 0 or 1, and
    # no other member contains x, so those values are read off; the rest is
    # split on its lowest-index variable, pruning branches whose basis
    # collapses to {1}
    if len(polys) == 1 and polys[0].is_one:
        return
    assigned = dict(assigned)
    rest = []
    for p in polys:
        top = max(p.monomials)
        if top & (top - 1) == 0 and p.monomials <= {top, 0}:
            assigned[top.bit_length() - 1] = 1 if 0 in p.monomials else 0
        else:
            rest.append(p)
    if not rest:
        free = [i for i in range(len(vars)) if i not in assigned]
        for bits in product((0, 1), repeat=len(free)):
            point = dict(assigned)
            point.update(zip(free, bits))
            out.append(tuple(point[i] for i in range(len(vars))))
        return
    support = 0
    for p in rest:
        support |= p.support_mask()
    x = (support & -support).bit_length() - 1
    for b in (0, 1):
        specialized = [p.substitute_index(x, b) for p in rest]
        sub = buchberger_reduced(PolySystem(vars, specialized), order)
        _split(list(sub.polys), {**assigned, x: b}, vars, order, out)


class _MonomialTables(dict):
    """Truth tables of monomials by mask, each computed once."""

    __slots__ = ()

    def __init__(self, tables: list[int], full: int):
        super().__init__(zip([1 << i for i in range(len(tables))], tables))
        self[0] = full

    def __missing__(self, mask: int) -> int:
        table = self[mask] = self[mask & (mask - 1)] & self[mask & -mask]
        return table


def _nonzero_tables(generators, n):
    # the OR of the generators' tables in each block of `blocks(n)`: monomials
    # free of the high variables 0..h-1 count in every block, the others
    # where the high code covers their high part, reversed to code order
    h, tables, full = blocks(n)
    low = _MonomialTables(tables, full)
    high_mask = (1 << h) - 1
    groups = []
    for g in generators:
        always, parts = 0, {}
        for m in g.monomials:
            part = m & high_mask
            if part:
                part = int(f"{part:0{h}b}"[::-1], 2)
                parts[part] = parts.get(part, 0) ^ low[m >> h]
            else:
                always ^= low[m >> h]
        groups.append((always, tuple(parts.items())))
    for high in range(1 << h):
        nonzero = 0
        for value, parts in groups:
            for part, table in parts:
                if part & ~high == 0:
                    value ^= table
            nonzero |= value
        yield nonzero


def parse_system(text: str) -> PolySystem:
    """Read the polynomial-system file format.

    First meaningful line is ``vars: x1 x2 ... xn``; every following line is
    one polynomial in ``*``/``+`` syntax.  ``#`` starts a comment.
    """
    lines = source_lines(text)
    lineno, line = next(lines, (None, ""))
    if lineno is None:
        raise ParseError("missing 'vars:' header")
    if not line.startswith("vars:"):
        raise ParseError("expected a 'vars:' header", lineno)
    names = line[len("vars:") :].split()
    if not names:
        raise ParseError("no variables declared", lineno)
    try:
        vars = VarSet(names)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    return PolySystem(vars, [parse_poly(line, vars, line=lineno) for lineno, line in lines])


def load_system(path) -> PolySystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())
