"""Bitmask kernels: the fast route behind every semi operator and scan.

Every function here treats soft sets as int masks inside a fixed lattice;
`full` is the mask of the space's absolute set (the whole lattice for a
plain space, the carrier for a subspace) and `basis` is any basis of the
topology as masks under `full`: interior and closure over a basis equal
those over the whole open family. Callers pass `SoftTopology.basis`.

Only fast paths live here. The per-set route is `interior_mask` and
`closure_mask`, which softtopo.semi composes into the semi operators. The
definitional witness-search oracles stay in softtopo.semi so that the two
routes share no code.

A public kernel never calls another public kernel through its module
name: shared loops go through the private `_interior`/`_closure`. The
benchmark tracer wraps each public kernel and rebinds every name bound to
it, this module's own included, so one such call per lattice mask would
turn a single table scan into thousands of recorded kernel calls.

The table kernels walk the lattice with `core.submasks`, which refuses a
`full` above the bit cap. They call it through the module attribute so
that the walk is never bound here, where the tracer would take it for a
kernel.
"""

from __future__ import annotations

from typing import Sequence

from . import core


def _interior(g: int, basis: Sequence[int]) -> int:
    acc = 0
    for o in basis:
        if o & ~g == 0:
            acc |= o
    return acc


def _closure(g: int, basis: Sequence[int], full: int) -> int:
    acc = full
    for o in basis:
        c = full ^ o
        if g & ~c == 0:
            acc &= c
    return acc


def interior_mask(g: int, basis: Sequence[int]) -> int:
    """Union of the basis members contained in g: the interior of g."""
    return _interior(g, basis)


def closure_mask(g: int, basis: Sequence[int], full: int) -> int:
    """`full` minus the basis members disjoint from g: the closure of g."""
    return _closure(g, basis, full)


def ssint_table(basis: Sequence[int], full: int) -> dict[int, int]:
    """Semi-interior of every submask of `full`; raises BitCapExceeded above the cap."""
    return {s: s & _closure(_interior(s, basis), basis, full) for s in core.submasks(full)}


def sscl_table(basis: Sequence[int], full: int) -> dict[int, int]:
    """Semi-closure of every submask of `full`; raises BitCapExceeded above the cap."""
    return {s: s | _interior(_closure(s, basis, full), basis) for s in core.submasks(full)}


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

    Branch and bound: greedy upper bound, ceil(remaining/best-single-set)
    lower bound, branching on the uncovered cell with fewest covering sets.
    Ties break by larger fresh coverage, then smaller mask, then smaller
    index, so results are deterministic. Returns None when the family does
    not cover `universe`, and () when `universe` is empty.
    """
    if universe == 0:
        return ()
    total = 0
    for mk in masks:
        total |= mk
    if universe & ~total:
        return None

    order = sorted(range(len(masks)), key=lambda i: (masks[i], i))

    # greedy pass for the initial upper bound
    greedy: list[int] = []
    uncovered = universe
    while uncovered:
        best_i = -1
        best_gain = 0
        for i in order:
            gain = (masks[i] & uncovered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_i = i
        greedy.append(best_i)
        uncovered &= ~masks[best_i]

    best = sorted(greedy)
    best_len = len(best)

    def branch(uncovered: int, chosen: list[int]) -> None:
        nonlocal best, best_len
        if uncovered == 0:
            if len(chosen) < best_len:
                best_len = len(chosen)
                best = sorted(chosen)
            return
        if len(chosen) + 1 >= best_len:
            return
        max_gain = 0
        for i in order:
            gain = (masks[i] & uncovered).bit_count()
            if gain > max_gain:
                max_gain = gain
        need = -(-uncovered.bit_count() // max_gain)  # ceil division
        if len(chosen) + need >= best_len:
            return
        # branch on the rarest uncovered cell
        cell = 0
        cell_count = len(masks) + 1
        probe = uncovered
        while probe:
            b = probe & -probe
            cnt = sum(1 for mk in masks if mk & b)
            if cnt < cell_count:
                cell_count = cnt
                cell = b
            probe ^= b
        cands = [i for i in order if masks[i] & cell]
        cands.sort(key=lambda i: (-(masks[i] & uncovered).bit_count(), masks[i], i))
        for i in cands:
            chosen.append(i)
            branch(uncovered & ~masks[i], chosen)
            chosen.pop()

    branch(universe, [])
    return tuple(best)
