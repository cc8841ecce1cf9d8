"""Cover analysis, semicompactness, semiconnectedness, separation axioms.

Every decision procedure here returns a verdict plus a witness for the
failing case, and each axiom has a second, slower scan used by the test
layer to cross-check the shortcut route.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import kernels
from .core import SoftSet
from .errors import InternalAssertionError, LiteralError, SignatureMismatch
from .prng import SplitMix64, derive_seed
from .semi import semiopen_witness, tables
from .topology import SoftTopology

AXIOM_NAMES = (
    "semi_T0",
    "semi_T1",
    "semi_T2",
    "semiregular",
    "semi_T3",
    "seminormal",
    "semi_T4",
    "semiconnected",
    "semicompact",
)


# --- where claims stop being exhaustive ---


class Domain(NamedTuple):
    limit: int  # largest domain scanned in full
    draws: int  # what the fallback takes past the limit: draws, or the first members


# Every switch between scanning a quantifier's whole domain and a seeded
# fallback reads its row here through _domain; the comment names the size.
DOMAINS = {
    "pairs": Domain(6, 512),  # lattice bits: set pairs and nested pairs
    "side-lattice": Domain(8, 256),  # lattice bits of one side of a triple
    "point-lattice": Domain(8, 64),  # lattice bits: INV.CORE.POINT
    "gap": Domain(10, 256),  # cells between a set and its closure or interior: T2.7, T2.8
    "carrier-gap": Domain(4, 8),  # cells between a carrier and its closure: T5.4
    "fip-subfamilies": Domain(9, 24),  # semiclosed members: T4.4, D4.2, T4.7
    "seminormal-pairs": Domain(4096, 512),  # semiclosed x semiopen pairs
    "separation-pairs": Domain(1 << 16, 0),  # oracle semiopen pairs of D5.2, else skipped
    "disjoint-scss-pairs": Domain(8, 8),  # disjoint semiclosed target pairs of T6.16.open
    "naive-axiom": Domain(5, 0),  # carrier cells of the quadratic axiom scan, else None
}


def _domain(row: str, size: int, exhaustive: Iterable, fallback: Callable[[int], Iterable]) -> Iterable:
    """`exhaustive` when `size` is within the row's limit, else
    `fallback(draws)`; the fallback is called only on that branch."""
    limit, draws = DOMAINS[row]
    return exhaustive if size <= limit else fallback(draws)


@dataclass(frozen=True)
class CoverReport:
    is_cover: bool
    is_semiopen_cover: bool
    minimal_subcover: Optional[tuple[int, ...]]
    fip_holds: bool
    fip_violation: Optional[tuple[int, ...]]

    def to_obj(self) -> dict:
        return {
            "is_cover": self.is_cover,
            "is_semiopen_cover": self.is_semiopen_cover,
            "minimal_subcover": None if self.minimal_subcover is None else list(self.minimal_subcover),
            "fip_holds": self.fip_holds,
            "fip_violation": None if self.fip_violation is None else list(self.fip_violation),
        }


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    holds: bool
    witnesses: tuple[dict, ...] = ()
    note: str = ""

    def to_obj(self) -> dict:
        out: dict = {"axiom": self.axiom, "holds": self.holds}
        if self.witnesses:
            out["witnesses"] = list(self.witnesses)
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    def get(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.axiom == name:
                return c
        raise LiteralError(f"unknown axiom: {name!r}")

    def flag(self, name: str) -> bool:
        return self.get(name).holds

    def to_obj(self) -> dict:
        return {"axioms": [c.to_obj() for c in self.checks]}


def _check_signature(t: SoftTopology, s: SoftSet) -> None:
    if s.signature != t.signature:
        raise SignatureMismatch("set signature does not match the space")


def _fip_violation(masks: Sequence[int], full: int) -> Optional[tuple[int, ...]]:
    """Smallest-by-pruning subfamily with null intersection, or None.

    On a finite family the finite intersection property is equivalent to
    the whole-family intersection being nonnull, so detection is a fold;
    the reported subfamily is shrunk greedily to an irredundant core.
    """
    total = full
    for m in masks:
        total &= m
    if total != 0 or not masks:
        return None
    keep = list(range(len(masks)))
    for idx in list(keep):
        trial = full
        for k in keep:
            if k != idx:
                trial &= masks[k]
        if trial == 0:
            keep.remove(idx)
    return tuple(keep)


def analyze_cover(t: SoftTopology, carrier: SoftSet, family: Sequence[SoftSet]) -> CoverReport:
    _check_signature(t, carrier)
    for g in family:
        _check_signature(t, g)
    masks = [g.mask & t.absolute.mask for g in family]
    sub = kernels.min_cover(carrier.mask & t.absolute.mask, masks)
    viol = _fip_violation(masks, t.absolute.mask)
    return CoverReport(
        is_cover=sub is not None,
        is_semiopen_cover=all(semiopen_witness(t, m) is not None for m in masks),
        minimal_subcover=sub,
        fip_holds=viol is None,
        fip_violation=viol,
    )


def is_semicompact(t: SoftTopology) -> tuple[bool, str]:
    """Trivially true on finite instances: every cover is already finite.

    The closed-family characterizations are checked mechanically by the
    claims that promise them (D4.2, T4.7), not here."""
    return True, "finite instance: every cover is finite, so semicompactness is immediate"


def _lead_bit(mask: int) -> int:
    return 1 << (mask.bit_length() - 1)


def find_semiseparation(t: SoftTopology) -> Optional[tuple[SoftSet, SoftSet]]:
    """First pair of disjoint nonnull semiopen sets whose union is the carrier.

    Scans SOSS in encoding order for a member whose relative complement is
    also semiopen.  The returned pair leads with the piece holding the
    carrier's first cell.
    """
    tab = tables(t)
    full = t.absolute.mask
    if full == 0:
        return None
    lead = _lead_bit(full)
    sig = t.signature
    for m in tab.soss_masks:
        if m == 0 or m == full:
            continue
        c = full & ~m
        if c in tab.soss_set:
            first, second = (m, c) if m & lead else (c, m)
            return SoftSet(sig, first), SoftSet(sig, second)
    return None


def find_clopen(t: SoftTopology) -> Optional[SoftSet]:
    """Nonnull proper set that is semiopen and also directly semiclosed.

    Uses the semiclosed formula route rather than SOSS complements, so it
    is an independent detector from find_semiseparation.
    """
    tab = tables(t)
    full = t.absolute.mask
    direct = set(tab.semiclosed_direct_masks)
    for m in tab.soss_masks:
        if m != 0 and m != full and m in direct:
            return SoftSet(t.signature, m)
    return None


def is_semiconnected(t: SoftTopology) -> bool:
    return find_semiseparation(t) is None


def _set_lit(t: SoftTopology, mask: int) -> dict:
    return SoftSet(t.signature, mask).to_literal()


# semi_T3 and semi_T4 are a base property plus semi_T1
_COMPOSED = {"semi_T3": "semiregular", "semi_T4": "seminormal"}


def _composed(axiom: str, base: AxiomCheck, t1: AxiomCheck) -> AxiomCheck:
    """The composed axiom's check; witnesses list the base's first."""
    return AxiomCheck(axiom, base.holds and t1.holds, base.witnesses + t1.witnesses)


def check_axiom(t: SoftTopology, axiom: str, all_witnesses: bool = False) -> AxiomCheck:
    """Decide one separation/connectedness/compactness property.

    Separating-candidate searches run over SOSS via the largest-semiopen-
    subset table: a semiopen set containing x and avoiding S exists exactly
    when x lies in ssint of the complement of S (SOSS is union-closed).
    """
    if axiom not in AXIOM_NAMES:
        raise LiteralError(f"unknown axiom: {axiom!r}")
    if axiom in _COMPOSED:
        return _composed(axiom, check_axiom(t, _COMPOSED[axiom], all_witnesses),
                         check_axiom(t, "semi_T1", all_witnesses))
    tab = tables(t)
    full = t.absolute.mask
    ssint_t = tab.ssint
    pts = list(t.absolute.points())
    wit: list[dict] = []

    def done() -> AxiomCheck:
        return AxiomCheck(axiom, holds=not wit, witnesses=tuple(wit))

    separates = {  # the point pair test of each point axiom
        "semi_T0": lambda p, q: p & ssint_t[full & ~q] or q & ssint_t[full & ~p],
        "semi_T1": lambda p, q: p & ssint_t[full & ~q] and q & ssint_t[full & ~p],
        "semi_T2": lambda p, q: any(p & s and q & ssint_t[full & ~s] for s in tab.soss_masks),
    }.get(axiom)
    if separates is not None:
        for x, y in combinations(pts, 2):
            if not separates(x.bit, y.bit):
                wit.append({"point": x.label(), "point2": y.label()})
                if not all_witnesses:
                    return done()
        return done()

    if axiom == "semiregular":
        for pt in pts:
            p = pt.bit
            for f in tab.scss_masks:
                if f & p:
                    continue
                if not any(p & s and f & ~ssint_t[full & ~s] == 0 for s in tab.soss_masks):
                    wit.append({"point": pt.label(), "set": _set_lit(t, f)})
                    if not all_witnesses:
                        return done()
        return done()

    if axiom == "seminormal":
        for f, k in combinations(tab.scss_masks, 2):
            if f & k:
                continue
            if not any(f & ~s == 0 and k & ~ssint_t[full & ~s] == 0 for s in tab.soss_masks):
                wit.append({"set": _set_lit(t, f), "set2": _set_lit(t, k)})
                if not all_witnesses:
                    return done()
        return done()

    if axiom == "semiconnected":
        pair = find_semiseparation(t)
        if pair is None:
            return AxiomCheck(axiom, True)
        return AxiomCheck(
            axiom, False, ({"set": pair[0].to_literal(), "set2": pair[1].to_literal()},)
        )

    ok, note = is_semicompact(t)
    return AxiomCheck(axiom, ok, note=note)


def axiom_report(t: SoftTopology, all_witnesses: bool = False) -> AxiomReport:
    done: dict[str, AxiomCheck] = {}
    for name in AXIOM_NAMES:  # each base axiom precedes the axioms composed from it
        base = _COMPOSED.get(name)
        done[name] = (check_axiom(t, name, all_witnesses) if base is None
                      else _composed(name, done[base], done["semi_T1"]))
    rep = AxiomReport(tuple(done.values()))
    chain = ("semi_T4", "semi_T3", "semi_T2", "semi_T1", "semi_T0")
    for hi, lo in zip(chain, chain[1:]):
        if rep.flag(hi) and not rep.flag(lo):
            raise InternalAssertionError(f"axiom chain broken: {hi} holds but {lo} fails")
    return rep


def seminormal_characterization(t: SoftTopology) -> tuple[bool, Optional[dict], bool]:
    """Nested-set form of seminormality.

    For every semiclosed F inside a semiopen G there must be a semiopen H
    with F inside H and sscl(H) inside G.  Returns (verdict, witness pair,
    exhaustive flag); large family products fall back to a deterministic
    sample plus the pairs derived from any direct seminormality witness,
    which keeps the two procedures in exact agreement either way.
    """
    tab = tables(t)
    full = t.absolute.mask
    soss = tab.soss_masks
    scss = tab.scss_masks
    sscl_t = tab.sscl
    exhaustive = True

    def sample(draws: int) -> list[tuple[int, int]]:
        nonlocal exhaustive
        exhaustive = False
        rng = SplitMix64(derive_seed("seminormal-char", t.encoding()))
        pairs = []
        for _ in range(draws):
            f = scss[rng.below(len(scss))]
            g = soss[rng.below(len(soss))]
            if f & ~g == 0:
                pairs.append((f, g))
        direct = check_axiom(t, "seminormal")
        if not direct.holds:
            w = direct.witnesses[0]
            fm = SoftSet.from_rows(t.signature, w["set"]).mask
            km = SoftSet.from_rows(t.signature, w["set2"]).mask
            pairs.append((fm, full & ~km))
        return pairs

    nested = ((f, g) for f in scss for g in soss if f & ~g == 0)
    for f, g in _domain("seminormal-pairs", len(scss) * len(soss), nested, sample):
        if not any(f & ~h == 0 and sscl_t[h] & ~g == 0 for h in soss):
            return False, {"set": _set_lit(t, f), "set2": _set_lit(t, g)}, exhaustive
    return True, None, exhaustive


# --- slow definitional scans, used to cross-check the shortcut route ---


def naive_check_axiom(t: SoftTopology, axiom: str) -> Optional[bool]:
    """Direct quantifier scan over explicit pairs of the oracle's semiopen
    sets, sharing no table with check_axiom.  Covers the five separation
    axioms and their two compositions; returns None when the carrier is too
    large for the quadratic search."""
    if axiom not in AXIOM_NAMES:
        raise LiteralError(f"unknown axiom: {axiom!r}")
    if axiom in ("semiconnected", "semicompact"):
        raise LiteralError(f"no direct scan for {axiom!r}: D5.2 scans for semiseparations, "
                           "and every finite space is semicompact")
    scan = (_naive_holds(t, axiom) for _ in range(1))  # one lazy verdict
    return next(_domain("naive-axiom", t.absolute.mask.bit_count(), scan, lambda _: iter(())), None)


def _naive_holds(t: SoftTopology, axiom: str) -> bool:
    if axiom in _COMPOSED:
        return _naive_holds(t, _COMPOSED[axiom]) and _naive_holds(t, "semi_T1")
    tab = tables(t)
    soss = tab.oracle_soss_masks
    scss = tab.oracle_scss_masks
    pts = [p.bit for p in t.absolute.points()]

    if axiom == "semi_T0":
        return all(
            any((p & s and not q & s) or (q & s and not p & s) for s in soss)
            for p, q in combinations(pts, 2)
        )
    if axiom == "semi_T1":
        return all(
            any(p & s and not q & s for s in soss) and any(q & s and not p & s for s in soss)
            for p, q in combinations(pts, 2)
        )
    if axiom == "semi_T2":
        return all(
            any(p & s1 and q & s2 and not s1 & s2 for s1 in soss for s2 in soss)
            for p, q in combinations(pts, 2)
        )
    if axiom == "semiregular":
        return all(
            any(p & s1 and f & ~s2 == 0 and not s1 & s2 for s1 in soss for s2 in soss)
            for p in pts
            for f in scss
            if not f & p
        )
    return all(  # seminormal
        any(f & ~s1 == 0 and k & ~s2 == 0 and not s1 & s2 for s1 in soss for s2 in soss)
        for f, k in combinations(scss, 2)
        if not f & k
    )
