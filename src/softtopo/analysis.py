"""Cover analysis, semicompactness, semiconnectedness, separation axioms.

Every decision procedure here returns a verdict plus a witness for the
failing case, and each axiom has a second, slower scan used by the test
layer to cross-check the shortcut route.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import kernels
from .core import SoftSet
from .errors import InternalAssertionError, LiteralError, SignatureMismatch
from .prng import SplitMix64, derive_seed
from .semi import tables
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
    tab = tables(t)
    masks = [g.mask & t.absolute.mask for g in family]
    union = 0
    for m in masks:
        union |= m
    target = carrier.mask & t.absolute.mask
    is_cover = (target & ~union) == 0
    is_semiopen = all(m in tab.soss_set for m in masks)
    sub = kernels.min_cover(target, masks) if is_cover else None
    viol = _fip_violation(masks, t.absolute.mask)
    return CoverReport(
        is_cover=is_cover,
        is_semiopen_cover=is_semiopen,
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

    if axiom == "semi_T0":
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                p, q = pts[a].bit, pts[b].bit
                if not (p & ssint_t[full & ~q] or q & ssint_t[full & ~p]):
                    wit.append({"point": pts[a].label(), "point2": pts[b].label()})
                    if not all_witnesses:
                        return done()
        return done()

    if axiom == "semi_T1":
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                p, q = pts[a].bit, pts[b].bit
                if not (p & ssint_t[full & ~q] and q & ssint_t[full & ~p]):
                    wit.append({"point": pts[a].label(), "point2": pts[b].label()})
                    if not all_witnesses:
                        return done()
        return done()

    if axiom == "semi_T2":
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                p, q = pts[a].bit, pts[b].bit
                if not any(p & s and q & ssint_t[full & ~s] for s in tab.soss_masks):
                    wit.append({"point": pts[a].label(), "point2": pts[b].label()})
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
        scss = tab.scss_masks
        for a in range(len(scss)):
            for b in range(a + 1, len(scss)):
                f, k = scss[a], scss[b]
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

    pairs: list[tuple[int, int]]
    exhaustive = len(scss) * len(soss) <= 4096
    if exhaustive:
        pairs = [(f, g) for f in scss for g in soss if f & ~g == 0]
    else:
        rng = SplitMix64(derive_seed("seminormal-char", t.encoding()))
        pairs = []
        for _ in range(512):
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

    for f, g in pairs:
        if not any(f & ~h == 0 and sscl_t[h] & ~g == 0 for h in soss):
            return False, {"set": _set_lit(t, f), "set2": _set_lit(t, g)}, exhaustive
    return True, None, exhaustive


# --- slow definitional scans, used to cross-check the shortcut route ---

NAIVE_CELL_CAP = 5


def naive_check_axiom(t: SoftTopology, axiom: str) -> Optional[bool]:
    """Direct quantifier scan over explicit semiopen pairs.  Returns None
    when the carrier is too large for the quadratic search."""
    if axiom not in AXIOM_NAMES:
        raise LiteralError(f"unknown axiom: {axiom!r}")
    tab = tables(t)
    full = t.absolute.mask
    if bin(full).count("1") > NAIVE_CELL_CAP:
        return None
    soss = tab.soss_masks
    pts = [p.bit for p in t.absolute.points()]

    if axiom == "semi_T0":
        return all(
            any((p & s and not q & s) or (q & s and not p & s) for s in soss)
            for i, p in enumerate(pts)
            for q in pts[i + 1 :]
        )
    if axiom == "semi_T1":
        return all(
            any(p & s and not q & s for s in soss) and any(q & s and not p & s for s in soss)
            for i, p in enumerate(pts)
            for q in pts[i + 1 :]
        )
    if axiom == "semi_T2":
        return all(
            any(p & s1 and q & s2 and not s1 & s2 for s1 in soss for s2 in soss)
            for i, p in enumerate(pts)
            for q in pts[i + 1 :]
        )
    if axiom == "semiregular":
        return all(
            any(p & s1 and f & ~s2 == 0 and not s1 & s2 for s1 in soss for s2 in soss)
            for p in pts
            for f in tab.scss_masks
            if not f & p
        )
    if axiom == "semi_T3":
        return naive_check_axiom(t, "semiregular") and naive_check_axiom(t, "semi_T1")
    if axiom == "seminormal":
        scss = tab.scss_masks
        return all(
            any(f & ~s1 == 0 and k & ~s2 == 0 and not s1 & s2 for s1 in soss for s2 in soss)
            for i, f in enumerate(scss)
            for k in scss[i + 1 :]
            if not f & k
        )
    if axiom == "semi_T4":
        return naive_check_axiom(t, "seminormal") and naive_check_axiom(t, "semi_T1")
    if axiom == "semiconnected":
        return not any(
            s1 and s2 and not s1 & s2 and s1 | s2 == full for s1 in soss for s2 in soss
        )
    return True  # semicompact: finite
