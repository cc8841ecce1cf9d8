"""Bitmask kernels: the fast route behind every semi operator and scan.

Every function here treats soft sets as int masks inside a fixed lattice;
`full` is the mask of the space's absolute set (the whole lattice for a
plain space, the carrier for a subspace). Only fast paths live here. The
per-set route is `interior_mask` and `closure_mask`, which softtopo.semi
composes into its semiopen and semiclosed tests and the semi operators.
The definitional witness-search oracles stay in softtopo.semi so that the
two routes share no code. `min_cover` is an exact minimum subcover by
iterative deepening, sized for the small families of cover reports.

The per-set kernels read a closure table, built once per space by
`closure_table` from the minimal open neighbourhood N(x) of each cell x.
A finite space is determined by its N(x): the opens are exactly the
unions of the N(x), so every family of opens with the same N(x) (the
whole family, a basis, or the space a subbasis generates) has the same
interior and closure. In such a space cl{y} = {x : y in N(x)}, and
closure distributes over unions, so cl(g) is the union of cl{y} over the
cells y of g. The table holds one tuple per 8-bit chunk of the
absolute's bit positions; entry v of chunk c is the union of cl{y} over
the cells y of v << 8c, so a closure costs one lookup per chunk: the
"Four Russians" trick (Arlazarov, Dinic, Kronrod & Faradzev, 1970).
Interior follows by duality: int(g) = full - cl(full - g).

A public kernel never calls another public kernel through its module
name: the table scans share the private `_lookup`, and the point kernels
repeat its loop so that a per-set query costs one call. The benchmark tracer
wraps each public kernel and rebinds every name bound to it, this
module's own included, so one such call per lattice mask would turn a
single table scan into thousands of recorded kernel calls.

The table kernels walk the lattice with `core.submasks`, which refuses a
`full` above the bit cap. They call it through the module attribute so
that the walk is never bound here, where the tracer would take it for a
kernel.
"""

from __future__ import annotations

from typing import Sequence

from . import core

ClosureTable = tuple[tuple[int, ...], ...]


def closure_table(nbhds: Sequence[int], full: int) -> ClosureTable:
    """The closure table of a space: `nbhds` holds N(x) for each cell x of
    `full`, in ascending cell order."""
    width = full.bit_length()
    # up[y] = cl{y}: the cells x whose N(x) holds y
    up = [0] * width
    cells = (x for x in range(width) if full >> x & 1)
    for x, nb in zip(cells, nbhds):
        while nb:
            low = nb & -nb
            up[low.bit_length() - 1] |= 1 << x
            nb ^= low
    table = []
    for base in range(0, width, 8):
        chunk = [0] * (1 << min(8, width - base))
        for v in range(1, len(chunk)):
            low = v & -v
            chunk[v] = chunk[v ^ low] | up[base + low.bit_length() - 1]
        table.append(tuple(chunk))
    return tuple(table)


def _lookup(g: int, table: ClosureTable) -> int:
    """Closure of a submask g of the absolute."""
    acc = 0
    for chunk in table:
        acc |= chunk[g & 255]
        g >>= 8
    return acc


def interior_mask(g: int, table: ClosureTable, full: int) -> int:
    """The interior of g: `full` minus the closure of its complement."""
    h = full & ~g
    acc = 0
    for chunk in table:
        acc |= chunk[h & 255]
        h >>= 8
    return full & ~acc


def closure_mask(g: int, table: ClosureTable, full: int) -> int:
    """The closure of g: the union of one table entry per chunk of g ∩ full."""
    g &= full
    acc = 0
    for chunk in table:
        acc |= chunk[g & 255]
        g >>= 8
    return acc


def ssint_table(table: ClosureTable, full: int) -> dict[int, int]:
    """Semi-interior of every submask of `full`; raises BitCapExceeded above the cap."""
    return {s: s & _lookup(full & ~_lookup(full ^ s, table), table)
            for s in core.submasks(full)}


def sscl_table(table: ClosureTable, full: int) -> dict[int, int]:
    """Semi-closure of every submask of `full`; raises BitCapExceeded above the cap."""
    return {s: s | (full & ~_lookup(full & ~_lookup(s, table), table))
            for s in core.submasks(full)}


def check_family(masks: list[int], full: int) -> tuple[str, int, int] | None:
    """First axiom violation of a candidate open family, or None.

    Violation codes: "carrier" (member outside the lattice), "missing-null",
    "missing-absolute", "union", "intersection". The int slots carry the
    witness masks (-1 when unused).
    """
    members = sorted(set(masks))
    for o in members:
        if o & ~full:
            return ("carrier", o, -1)
    present = set(members)
    if 0 not in present:
        return ("missing-null", -1, -1)
    if full not in present:
        return ("missing-absolute", -1, -1)
    k = len(members)
    for i in range(k):
        a = members[i]
        for j in range(i + 1, k):
            b = members[j]
            if a | b not in present:
                return ("union", a, b)
            if a & b not in present:
                return ("intersection", a, b)
    return None


def min_cover(universe: int, masks: list[int]) -> tuple[int, ...] | None:
    """Exact minimum-cardinality subcover of `universe`, as sorted indices.

    Iterative deepening: for k = 0, 1, 2, ... a depth-first search looks
    for k members that cover `universe`. Each step covers the lowest
    uncovered cell, trying the members that hold it in index order, so the
    first k that succeeds is the minimum size and the cover returned is the
    first one that search meets. Returns None when the family does not
    cover `universe`, and () when `universe` is empty.
    """
    total = 0
    for mk in masks:
        total |= mk
    if universe & ~total:
        return None
    chosen: list[int] = []

    def search(uncovered: int, depth: int) -> bool:
        if uncovered == 0:
            return True
        if depth == 0:
            return False
        low = uncovered & -uncovered
        for i, mk in enumerate(masks):
            if mk & low:
                chosen.append(i)
                if search(uncovered & ~mk, depth - 1):
                    return True
                chosen.pop()
        return False

    depth = 0
    while not search(universe, depth):
        depth += 1
    return tuple(sorted(chosen))
