"""Soft topologies on a finite signature.

A space is an open family over a signature together with an `absolute`
soft set: the whole lattice for an ordinary space, the carrier for a
subspace. Every operator (complement, interior, closure, and the semi
machinery built on top) is relative to the absolute, which is what lets
subspaces be analyzed as first-class spaces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Mapping

from . import kernels
from .core import (
    SoftSet,
    SpaceSignature,
    bit_cap,
    make_absolute,
    parse_set_literal,
    parse_signature,
    submasks,
)
from .errors import BitCapExceeded, CorpusError, InvalidTopology, LiteralError, SignatureMismatch


@dataclass(frozen=True)
class AxiomViolation:
    """First failed topology axiom, with the witnessing member sets."""

    code: str  # carrier | missing-null | missing-absolute | union | intersection
    witnesses: tuple[SoftSet, ...]

    def __str__(self):
        lits = [json.dumps(w.to_literal()) for w in self.witnesses]
        if self.code == "missing-null":
            return "the null soft set is not a member"
        if self.code == "missing-absolute":
            return "the absolute soft set is not a member"
        if self.code == "carrier":
            return f"member {lits[0]} is not contained in the absolute set"
        joiner = "union" if self.code == "union" else "intersection"
        return f"{joiner} of {lits[0]} and {lits[1]} is not a member"

    def to_obj(self) -> dict:
        return {
            "axiom": self.code,
            "witnesses": [w.to_literal() for w in self.witnesses],
        }


def _neighbourhoods(masks: Iterable[int], full: int) -> list[int]:
    """N(x) for each cell x of `full`, in ascending cell order: the
    intersection of `full` and every mask holding x."""
    cells = [x for x in range(full.bit_length()) if full >> x & 1]
    nbhds = [full] * len(cells)
    for m in masks:
        for i, x in enumerate(cells):
            if m >> x & 1:
                nbhds[i] &= m
    return nbhds


class SoftTopology:
    """Immutable open family, valid by construction.

    The constructor checks the family with `check_topology` and raises
    InvalidTopology on the first violated axiom; the factories build
    valid families and skip the check. Interior and closure are lookups
    in `closure_table`, built with `basis` from the minimal neighbourhoods
    N(x); openness and closedness are their fixed points.
    """

    __slots__ = ("signature", "absolute", "open_masks", "_cache")

    def __init__(self, signature: SpaceSignature, opens: Iterable[SoftSet],
                 absolute: SoftSet | None = None):
        if absolute is not None and absolute.signature != signature:
            raise SignatureMismatch("absolute set bound to a different signature")
        opens = tuple(opens)
        violation = check_topology(signature, opens, absolute)
        if violation is not None:
            raise InvalidTopology(violation)
        self._init(signature, [o.mask for o in opens], absolute)

    @classmethod
    def _from_masks(cls, signature: SpaceSignature, masks: Collection[int],
                    absolute: SoftSet | None = None) -> "SoftTopology":
        """The factories' route: a valid family of open masks, unchecked."""
        t = cls.__new__(cls)
        t._init(signature, masks, absolute)
        return t

    def _init(self, signature: SpaceSignature, masks: Collection[int],
              absolute: SoftSet | None) -> None:
        self.signature = signature
        self.absolute = make_absolute(signature) if absolute is None else absolute
        self.open_masks = tuple(sorted(set(masks)))
        # memos that live and die with this object: the opens view, basis,
        # closure table, encoding, semi tables
        self._cache: dict = {}

    @property
    def opens(self) -> tuple[SoftSet, ...]:
        """The open family as soft sets, ascending; built on first use."""
        opens = self._cache.get("opens")
        if opens is None:
            sig = self.signature
            opens = self._cache["opens"] = tuple(SoftSet(sig, m) for m in self.open_masks)
        return opens

    @property
    def basis(self) -> tuple[int, ...]:
        """The distinct minimal open neighbourhoods N(x), ascending; built on first use."""
        basis = self._cache.get("basis")
        if basis is None:
            basis = self._neighbourhood_fold()[0]
        return basis

    @property
    def closure_table(self) -> kernels.ClosureTable:
        """The kernels' closure table of this space; built on first use."""
        table = self._cache.get("closure_table")
        if table is None:
            table = self._neighbourhood_fold()[1]
        return table

    def _neighbourhood_fold(self) -> tuple[tuple[int, ...], kernels.ClosureTable]:
        """One pass over the opens for N(x); caches `basis` and `closure_table`."""
        full = self.absolute.mask
        nbhds = _neighbourhoods(self.open_masks, full)
        basis = self._cache["basis"] = tuple(sorted(set(nbhds)))
        table = self._cache["closure_table"] = kernels.closure_table(nbhds, full)
        return basis, table

    # -- identity ----------------------------------------------------------

    def encoding(self) -> str:
        enc = self._cache.get("encoding")
        if enc is None:
            spec = f"0{self.signature.bits}b"
            parts = [self.signature.key(), ",".join(format(m, spec) for m in self.open_masks)]
            if not self.absolute.is_absolute:
                parts.append(f"abs={self.absolute.encoding()}")
            enc = self._cache["encoding"] = "::".join(parts)
        return enc

    def __eq__(self, other):
        return isinstance(other, SoftTopology) and self.encoding() == other.encoding()

    def __hash__(self):
        return hash(self.encoding())

    def __repr__(self):
        return f"SoftTopology({self.signature.n}x{self.signature.m}, {len(self.open_masks)} opens)"

    # -- membership and complements ----------------------------------------

    def _inside(self, g: SoftSet) -> SoftSet:
        if g.signature is not self.signature and g.signature != self.signature:
            raise SignatureMismatch("set bound to a different signature")
        if g.mask & ~self.absolute.mask:
            raise LiteralError("set lies outside the space's absolute set")
        return g

    def is_open(self, g: SoftSet) -> bool:
        m = self._inside(g).mask
        return kernels.interior_mask(m, self.closure_table, self.absolute.mask) == m

    def relative_complement(self, g: SoftSet) -> SoftSet:
        return SoftSet(self.signature, self.absolute.mask ^ self._inside(g).mask)

    def closed_sets(self) -> tuple[SoftSet, ...]:
        # complements of ascending submasks of the absolute descend
        full = self.absolute.mask
        return tuple(SoftSet(self.signature, full ^ m) for m in reversed(self.open_masks))

    def is_closed(self, g: SoftSet) -> bool:
        m = self._inside(g).mask
        return kernels.closure_mask(m, self.closure_table, self.absolute.mask) == m

    # -- interior / closure --------------------------------------------------

    def interior(self, g: SoftSet) -> SoftSet:
        m = kernels.interior_mask(self._inside(g).mask, self.closure_table, self.absolute.mask)
        return SoftSet(self.signature, m)

    def closure(self, g: SoftSet) -> SoftSet:
        m = kernels.closure_mask(self._inside(g).mask, self.closure_table, self.absolute.mask)
        return SoftSet(self.signature, m)

    def lattice(self) -> Iterator[SoftSet]:
        """Every soft set under the absolute, in ascending encoding order;
        raises BitCapExceeded when the absolute is above the bit cap."""
        for m in submasks(self.absolute.mask):
            yield SoftSet(self.signature, m)

    def to_obj(self) -> dict:
        if not self.absolute.is_absolute:
            raise LiteralError("only whole spaces have a file form; export the base space")
        sig = self.signature
        return {
            "signature": sig.to_obj(),
            "opens": [SoftSet(sig, m).to_literal() for m in self.open_masks],
        }


def check_topology(sig: SpaceSignature, opens: Iterable[SoftSet],
                   absolute: SoftSet | None = None) -> AxiomViolation | None:
    """First violated axiom of a candidate family, or None when valid."""
    absolute = make_absolute(sig) if absolute is None else absolute
    masks = []
    for o in opens:
        if o.signature != sig:
            raise SignatureMismatch("candidate set bound to a different signature")
        masks.append(o.mask)
    hit = kernels.check_family(masks, absolute.mask)
    if hit is None:
        return None
    code, a, b = hit
    wit = tuple(SoftSet(sig, m) for m in (a, b) if m >= 0)
    return AxiomViolation(code, wit)


def validate_topology(sig: SpaceSignature, opens: Iterable[SoftSet],
                      absolute: SoftSet | None = None) -> SoftTopology:
    """The space on a candidate family; raises InvalidTopology as the constructor does."""
    return SoftTopology(sig, opens, absolute)


def indiscrete(sig: SpaceSignature) -> SoftTopology:
    return SoftTopology._from_masks(sig, (0, sig.full_mask))


def discrete(sig: SpaceSignature) -> SoftTopology:
    """Every soft set open; the lattice walk refuses a signature above the bit cap."""
    return SoftTopology._from_masks(sig, submasks(sig.full_mask))


def from_subbasis(sig: SpaceSignature, seeds: Iterable[SoftSet],
                  cap: int | None = None) -> SoftTopology:
    """Smallest topology containing the seeds.

    On a finite lattice that topology is every union of the minimal open
    neighbourhoods N(x), one per cell: the intersection of the absolute
    set and every seed holding x. The family may not exceed 2**cap
    members; every partial union family is a subset of the final one, so
    the check can stop as soon as one outgrows the cap.
    """
    cap = bit_cap() if cap is None else cap
    limit = 1 << cap
    masks = []
    for s in seeds:
        if s.signature != sig:
            raise SignatureMismatch("seed set bound to a different signature")
        masks.append(s.mask)
    family = {0}
    for nb in sorted(set(_neighbourhoods(masks, sig.full_mask))):
        family |= {f | nb for f in family}
        if len(family) > limit:
            raise BitCapExceeded(
                f"generated family exceeds 2^{cap} members; raise SOFTTOPO_BITCAP to allow"
            )
    return SoftTopology._from_masks(sig, family)


def subspace(t: SoftTopology, carrier: SoftSet) -> SoftTopology:
    """Relative topology {O ∩ carrier}; the new absolute is the old one ∩ carrier."""
    if carrier.signature != t.signature:
        raise SignatureMismatch("carrier bound to a different signature")
    absolute = t.absolute & carrier
    opens = {o & absolute.mask for o in t.open_masks}
    return SoftTopology._from_masks(t.signature, opens, absolute)


def is_basis(t: SoftTopology, basis: Iterable[SoftSet]) -> bool:
    """True when every open is a union of candidates (null = empty union).

    That holds exactly when each cell x of the absolute lies in a candidate
    b inside N(x). An open b holding x contains N(x), so that b is N(x)
    itself: the candidates must include every member of `t.basis`.
    """
    bmasks = set()
    for b in basis:
        if not t.is_open(b):
            raise LiteralError("basis candidate contains a non-open set")
        bmasks.add(b.mask)
    return bmasks.issuperset(t.basis)


# -- space files -------------------------------------------------------------


def parse_space_fields(obj) -> tuple[SpaceSignature, tuple[SoftSet, ...]]:
    """Signature and open literals of {"signature": {...}, "opens": [...]}, unvalidated."""
    if not isinstance(obj, Mapping):
        raise LiteralError("space must be an object")
    extra = set(obj) - {"signature", "opens"}
    if extra:
        raise LiteralError(f"unknown space fields: {sorted(extra)}")
    if "signature" not in obj or "opens" not in obj:
        raise LiteralError("space needs 'signature' and 'opens'")
    sig = parse_signature(obj["signature"])
    if not isinstance(obj["opens"], (list, tuple)):
        raise LiteralError("'opens' must be a list of soft set literals")
    return sig, tuple(parse_set_literal(sig, lit) for lit in obj["opens"])


def parse_space(obj) -> SoftTopology:
    """Parse {"signature": {...}, "opens": [...]} and validate the axioms."""
    return validate_topology(*parse_space_fields(obj))


def load_space(path: str) -> SoftTopology:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise LiteralError(f"cannot read space file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise LiteralError(f"space file {path} is not valid JSON: {exc}")
    return parse_space(obj)


def save_space(t: SoftTopology, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(t.to_obj(), fh, indent=1, sort_keys=False)
            fh.write("\n")
    except OSError as exc:
        raise CorpusError(f"cannot write space file {path}: {exc}")
