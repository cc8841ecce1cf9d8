"""Bitmask kernels: the fast route behind every semi operator and scan.

Every function here treats soft sets as int masks inside a fixed lattice;
`full` is the mask of the space's absolute set (the whole lattice for a
plain space, the carrier for a subspace) and `opens` is a list of masks,
each a submask of `full`.

Only fast paths live here. The definitional witness-search oracles stay
in softtopo.semi so that the two routes share no code.

A public kernel never calls another public kernel through its module
name: shared loops go through the private `_interior`/`_closure`. The
benchmark tracer wraps each public kernel and rebinds every name bound to
it, this module's own included, so one such call per lattice mask would
turn a single table scan into thousands of recorded kernel calls.
"""

from __future__ import annotations


def _interior(g: int, opens: list[int]) -> int:
    acc = 0
    for o in opens:
        if o & ~g == 0:
            acc |= o
    return acc


def _closure(g: int, opens: list[int], full: int) -> int:
    acc = full
    for o in opens:
        c = full ^ o
        if g & ~c == 0:
            acc &= c
    return acc


def submasks(full: int) -> list[int]:
    """All submasks of `full` in ascending order (0 first, `full` last)."""
    out = []
    s = 0
    while True:
        out.append(s)
        if s == full:
            return out
        s = (s - full) & full


def interior_mask(g: int, opens: list[int]) -> int:
    """Union of the open masks contained in g."""
    return _interior(g, opens)


def closure_mask(g: int, opens: list[int], full: int) -> int:
    """Intersection of the closed masks (complements of opens) containing g."""
    return _closure(g, opens, full)


def is_semiopen_mask(g: int, opens: list[int], full: int) -> bool:
    """Fast path: g is inside the closure of its interior."""
    return g & ~_closure(_interior(g, opens), opens, full) == 0


def is_semiclosed_mask(g: int, opens: list[int], full: int) -> bool:
    """Fast path: the interior of the closure of g is inside g."""
    return _interior(_closure(g, opens, full), opens) & ~g == 0


def ssint_mask(g: int, opens: list[int], full: int) -> int:
    """Fast path for the semi-interior: g ∩ closure(interior(g))."""
    return g & _closure(_interior(g, opens), opens, full)


def sscl_mask(g: int, opens: list[int], full: int) -> int:
    """Fast path for the semi-closure: g ∪ interior(closure(g))."""
    return g | _interior(_closure(g, opens, full), opens)


def semiopen_masks(opens: list[int], full: int) -> list[int]:
    """All semiopen masks of the lattice under `full`, ascending."""
    out = []
    s = 0
    while True:
        if s & ~_closure(_interior(s, opens), opens, full) == 0:
            out.append(s)
        if s == full:
            return out
        s = (s - full) & full


def semiclosed_masks(opens: list[int], full: int) -> list[int]:
    """All semiclosed masks of the lattice under `full`, ascending."""
    out = []
    s = 0
    while True:
        if _interior(_closure(s, opens, full), opens) & ~s == 0:
            out.append(s)
        if s == full:
            return out
        s = (s - full) & full


def ssint_table(opens: list[int], full: int) -> dict[int, int]:
    """Semi-interior of every submask of `full`."""
    table = {}
    s = 0
    while True:
        table[s] = s & _closure(_interior(s, opens), opens, full)
        if s == full:
            return table
        s = (s - full) & full


def sscl_table(opens: list[int], full: int) -> dict[int, int]:
    """Semi-closure of every submask of `full`."""
    table = {}
    s = 0
    while True:
        table[s] = s | _interior(_closure(s, opens, full), opens)
        if s == full:
            return table
        s = (s - full) & full


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


def enumerate_topology_families(bits: int) -> list[tuple[int, ...]]:
    """Every valid open family on a lattice of `bits` bits, ascending.

    Exhaustive over all 2**(2**bits - 2) candidate families, so bits <= 4.
    Families are emitted as sorted mask tuples, ordered by their indicator
    over the non-trivial masks 1..full-1.
    """
    if not 1 <= bits <= 4:
        raise ValueError("exhaustive enumeration needs 1 <= bits <= 4")
    lattice = 1 << bits
    full = lattice - 1
    middle = lattice - 2  # masks 1..full-1 are optional members
    out = []
    for famask in range(1 << middle):
        members = [0]
        rest = famask
        v = 1
        while rest:
            if rest & 1:
                members.append(v)
            rest >>= 1
            v += 1
        members.append(full)
        present = [False] * lattice
        for o in members:
            present[o] = True
        ok = True
        k = len(members)
        for i in range(k):
            a = members[i]
            for j in range(i + 1, k):
                b = members[j]
                if not (present[a | b] and present[a & b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(members))
    return out


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
        if max_gain == 0:
            return
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
