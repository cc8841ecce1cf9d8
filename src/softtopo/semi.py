"""Semiopen and semiclosed structure of a space.

A set is semiopen when it sits between some open set and that open set's
closure, and semiclosed when it sits between some closed set's interior
and that closed set. Two routes are implemented for every question:

fast path    closed-form formulas on interior/closure, each a few lookups
             in the space's closure table, which is built from the
             minimal open neighbourhoods N(x):
             semiopen  <=>  G inside closure(interior(G))
             semiclosed <=> interior(closure(G)) inside G
             ssint(G) = G ∩ closure(interior(G)) — largest semiopen inside G
             sscl(G)  = G ∪ interior(closure(G)) — smallest semiclosed over G

oracle       naive definitional witness searches and lattice scans over
             the whole open family, kept in plain Python with no kernel
             calls so the two routes share no input and no code but the
             lattice walk `core.submasks`. The claim suite asserts exact
             agreement.

Per-space results are cached on the topology object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import kernels
from .core import SoftSet, submasks
from .topology import SoftTopology


@dataclass(frozen=True)
class SemiClassification:
    """How one set relates to a space: open/closed/semiopen/semiclosed.

    The witnesses are an open set under a semiopen set (whose closure covers
    it) and a closed set over a semiclosed set (whose interior it covers).
    """

    is_open: bool
    is_closed: bool
    is_semiopen: bool
    is_semiclosed: bool
    semiopen_witness: SoftSet | None
    semiclosed_witness: SoftSet | None


# -- oracle route: no kernel calls anywhere below ------------------------------


def _naive_interior(mask: int, open_masks: list[int]) -> int:
    acc = 0
    for o in open_masks:
        if o & ~mask == 0:
            acc |= o
    return acc


def _naive_closure(mask: int, open_masks: list[int], full: int) -> int:
    acc = full
    for o in open_masks:
        c = full ^ o
        if mask & ~c == 0:
            acc &= c
    return acc


def _semiopen_witness_mask(mask: int, open_masks: list[int], full: int) -> int | None:
    """Least open H with H inside the set and the set inside closure(H)."""
    for h in open_masks:
        if h & ~mask == 0 and mask & ~_naive_closure(h, open_masks, full) == 0:
            return h
    return None


def _semiclosed_witness_mask(mask: int, open_masks: list[int], full: int) -> int | None:
    """Least closed K containing the set whose interior the set contains."""
    for k in sorted(full ^ o for o in open_masks):
        if mask & ~k == 0 and _naive_interior(k, open_masks) & ~mask == 0:
            return k
    return None


class SemiTables:
    """Lazy per-space tables for both routes; cache via tables().

    Every table walks the lattice under the absolute with `core.submasks`,
    so building one raises BitCapExceeded above the bit cap. The oracle
    shares only that walk with the fast route and makes no kernel call.
    """

    def __init__(self, t: SoftTopology):
        self.t = t
        self.full = t.absolute.mask

    # fast route

    @cached_property
    def soss_masks(self) -> list[int]:
        # s is semiopen exactly when ssint(s) = s; the table is ascending
        return [s for s, i in self.ssint.items() if i == s]

    @cached_property
    def soss_set(self) -> frozenset:
        return frozenset(self.soss_masks)

    @cached_property
    def scss_masks(self) -> list[int]:
        # complements of the semiopen family, resorted
        return sorted(self.full ^ m for m in self.soss_masks)

    @cached_property
    def scss_set(self) -> frozenset:
        return frozenset(self.scss_masks)

    @cached_property
    def semiclosed_direct_masks(self) -> list[int]:
        """Semiclosed family as the fixed points of sscl, not by complementing."""
        return [s for s, c in self.sscl.items() if c == s]

    @cached_property
    def ssint(self) -> dict[int, int]:
        return kernels.ssint_table(self.t.closure_table, self.full)

    @cached_property
    def sscl(self) -> dict[int, int]:
        return kernels.sscl_table(self.t.closure_table, self.full)

    # oracle route

    @cached_property
    def oracle_soss_masks(self) -> list[int]:
        # closures of the witness candidates once up front, then a plain scan
        opens = self.t.open_masks
        cl = [(h, _naive_closure(h, opens, self.full)) for h in opens]
        return [s for s in submasks(self.full)
                if any(h & ~s == 0 and s & ~c == 0 for h, c in cl)]

    @cached_property
    def oracle_scss_masks(self) -> list[int]:
        opens = self.t.open_masks
        closed = sorted(self.full ^ o for o in opens)
        ik = [(k, _naive_interior(k, opens)) for k in closed]
        return [s for s in submasks(self.full)
                if any(s & ~k == 0 and i & ~s == 0 for k, i in ik)]


def tables(t: SoftTopology) -> SemiTables:
    tab = t._cache.get("semi")
    if tab is None:
        tab = SemiTables(t)
        t._cache["semi"] = tab
    return tab


# -- public operations ---------------------------------------------------------


def is_semiopen(t: SoftTopology, g: SoftSet) -> tuple[bool, SoftSet | None]:
    """Fast path; the witness (when true) is the set's interior."""
    t._inside(g)
    table, full = t.closure_table, t.absolute.mask
    i = kernels.interior_mask(g.mask, table, full)
    if g.mask & ~kernels.closure_mask(i, table, full):
        return False, None
    return True, SoftSet(t.signature, i)


def is_semiclosed(t: SoftTopology, g: SoftSet) -> tuple[bool, SoftSet | None]:
    """Fast path; the witness (when true) is the set's closure."""
    t._inside(g)
    table, full = t.closure_table, t.absolute.mask
    c = kernels.closure_mask(g.mask, table, full)
    if kernels.interior_mask(c, table, full) & ~g.mask:
        return False, None
    return True, SoftSet(t.signature, c)


def is_semiopen_definitional(t: SoftTopology, g: SoftSet) -> tuple[bool, SoftSet | None]:
    """Oracle: scan the opens for a witness under the set."""
    t._inside(g)
    h = _semiopen_witness_mask(g.mask, t.open_masks, t.absolute.mask)
    return (False, None) if h is None else (True, SoftSet(t.signature, h))


def is_semiclosed_definitional(t: SoftTopology, g: SoftSet) -> tuple[bool, SoftSet | None]:
    """Oracle: scan the closed sets for a witness over the set."""
    t._inside(g)
    k = _semiclosed_witness_mask(g.mask, t.open_masks, t.absolute.mask)
    return (False, None) if k is None else (True, SoftSet(t.signature, k))


def soss(t: SoftTopology) -> tuple[SoftSet, ...]:
    """All semiopen sets of the space, ascending (fast route)."""
    return tuple(SoftSet(t.signature, m) for m in tables(t).soss_masks)


def scss(t: SoftTopology) -> tuple[SoftSet, ...]:
    """All semiclosed sets: complements of the semiopen family, resorted."""
    return tuple(SoftSet(t.signature, m) for m in tables(t).scss_masks)


def soss_definitional(t: SoftTopology) -> tuple[SoftSet, ...]:
    return tuple(SoftSet(t.signature, m) for m in tables(t).oracle_soss_masks)


def scss_definitional(t: SoftTopology) -> tuple[SoftSet, ...]:
    return tuple(SoftSet(t.signature, m) for m in tables(t).oracle_scss_masks)


def ssint(t: SoftTopology, g: SoftSet) -> SoftSet:
    """Largest semiopen set inside g (fast path, no lattice scan)."""
    t._inside(g)
    table, full = t.closure_table, t.absolute.mask
    i = kernels.interior_mask(g.mask, table, full)
    return SoftSet(t.signature, g.mask & kernels.closure_mask(i, table, full))


def sscl(t: SoftTopology, g: SoftSet) -> SoftSet:
    """Smallest semiclosed set containing g (fast path, no lattice scan)."""
    t._inside(g)
    table, full = t.closure_table, t.absolute.mask
    c = kernels.closure_mask(g.mask, table, full)
    return SoftSet(t.signature, g.mask | kernels.interior_mask(c, table, full))


def ssint_definitional(t: SoftTopology, g: SoftSet) -> SoftSet:
    """Oracle: union of the oracle-enumerated semiopen subsets of g."""
    t._inside(g)
    acc = 0
    for m in tables(t).oracle_soss_masks:
        if m & ~g.mask == 0:
            acc |= m
    return SoftSet(t.signature, acc)


def sscl_definitional(t: SoftTopology, g: SoftSet) -> SoftSet:
    """Oracle: intersection of the oracle-enumerated semiclosed supersets of g."""
    t._inside(g)
    acc = t.absolute.mask
    for m in tables(t).oracle_scss_masks:
        if g.mask & ~m == 0:
            acc &= m
    return SoftSet(t.signature, acc)


def classify_set(t: SoftTopology, g: SoftSet) -> SemiClassification:
    """Open/closed/semiopen/semiclosed verdicts with sandwich witnesses.

    An open set is semiopen with itself as interior witness, and a closed
    set is semiclosed with itself as closure witness, so open and closed
    are read off the witnesses.
    """
    so, so_wit = is_semiopen(t, g)
    sc, sc_wit = is_semiclosed(t, g)
    return SemiClassification(
        is_open=so and so_wit.mask == g.mask,
        is_closed=sc and sc_wit.mask == g.mask,
        is_semiopen=so,
        is_semiclosed=sc,
        semiopen_witness=so_wit,
        semiclosed_witness=sc_wit,
    )
