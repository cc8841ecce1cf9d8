"""Finite soft sets over a fixed universe and parameter list.

A soft set assigns a subset of the universe to every parameter. With both
lists finite and ordered, a soft set is a bit matrix flattened row-major
(parameters outer, universe inner) into a single Python int:

    encoding  = bit string, position i*n + j is 1 iff element j is in the
                value at parameter i (n = universe size)
    mask      = int(encoding, 2)

Ascending mask order therefore equals lexicographic encoding order; the
null soft set encodes to 0 and the absolute soft set to 2**bits - 1. All
set algebra is plain int bit twiddling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BitCapExceeded, LiteralError, SignatureMismatch

DEFAULT_BIT_CAP = 16
_ENV_BIT_CAP = "SOFTTOPO_BITCAP"


def bit_cap() -> int:
    """Active lattice bit cap; SOFTTOPO_BITCAP overrides the default 16."""
    raw = os.environ.get(_ENV_BIT_CAP)
    if raw is None:
        return DEFAULT_BIT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise LiteralError(f"{_ENV_BIT_CAP} must be an integer, got {raw!r}")
    if not 1 <= cap <= 62:
        raise LiteralError(f"{_ENV_BIT_CAP} must be in 1..62, got {cap}")
    return cap


def _check_labels(kind: str, labels: tuple[str, ...]) -> None:
    if not labels:
        raise LiteralError(f"{kind} list must be nonempty")
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise LiteralError(f"{kind} labels must be nonempty strings")
    if len(set(labels)) != len(labels):
        raise LiteralError(f"{kind} labels must be unique")


@dataclass(frozen=True)
class SpaceSignature:
    """Ordered universe and parameter labels; fixes the lattice layout."""

    universe: tuple[str, ...]
    parameters: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "universe", tuple(self.universe))
        object.__setattr__(self, "parameters", tuple(self.parameters))
        _check_labels("universe", self.universe)
        _check_labels("parameter", self.parameters)

    @cached_property
    def n(self) -> int:
        return len(self.universe)

    @cached_property
    def m(self) -> int:
        return len(self.parameters)

    @cached_property
    def bits(self) -> int:
        return self.n * self.m

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.bits) - 1

    @cached_property
    def _elem_index(self) -> dict[str, int]:
        return {lab: j for j, lab in enumerate(self.universe)}

    @cached_property
    def _param_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.parameters)}

    def elem_index(self, label: str) -> int:
        try:
            return self._elem_index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise LiteralError(f"unknown universe element {label!r}")

    def param_index(self, label: str) -> int:
        try:
            return self._param_index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise LiteralError(f"unknown parameter {label!r}")

    def cell_bit(self, param_i: int, elem_j: int) -> int:
        """Mask with exactly the (parameter, element) cell set."""
        pos = param_i * self.n + elem_j
        return 1 << (self.bits - 1 - pos)

    def row_shift(self, param_i: int) -> int:
        """Right-shift that brings parameter row i to the low n bits."""
        return self.bits - (param_i + 1) * self.n

    def key(self) -> str:
        return f"{'|'.join(self.universe)};{'|'.join(self.parameters)}"

    def to_obj(self) -> dict:
        return {"universe": list(self.universe), "parameters": list(self.parameters)}


def parse_signature(obj) -> SpaceSignature:
    """Build a signature from {"universe": [...], "parameters": [...]}."""
    if not isinstance(obj, Mapping):
        raise LiteralError("signature must be an object")
    extra = set(obj) - {"universe", "parameters"}
    if extra:
        raise LiteralError(f"unknown signature fields: {sorted(extra)}")
    for field in ("universe", "parameters"):
        if field not in obj or not isinstance(obj[field], (list, tuple)):
            raise LiteralError(f"signature needs a {field!r} list")
    return SpaceSignature(tuple(obj["universe"]), tuple(obj["parameters"]))


def _require_same_signature(a: SpaceSignature, b: SpaceSignature) -> None:
    # most sets share their space's signature object: skip the field compare
    if a is not b and a != b:
        raise SignatureMismatch(f"signatures differ: {a.key()} vs {b.key()}")


@dataclass(frozen=True)
class SoftSet:
    """A soft set bound to a signature, stored as one int mask."""

    signature: SpaceSignature
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask <= self.signature.full_mask:
            raise LiteralError(f"mask {self.mask} out of range for {self.signature.bits} bits")

    @classmethod
    def from_rows(cls, sig: SpaceSignature, rows: Mapping[str, Sequence[str]]) -> "SoftSet":
        """Build from {parameter: [elements]}; omitted parameters get the empty value."""
        mask = 0
        for param, elems in rows.items():
            i = sig.param_index(param)
            if not isinstance(elems, (list, tuple)):
                raise LiteralError(f"value of {param!r} must be a list of elements")
            for e in elems:
                if not isinstance(e, str):
                    raise LiteralError(f"elements of {param!r} must be strings, got {e!r}")
                mask |= sig.cell_bit(i, sig.elem_index(e))
        return cls(sig, mask)

    def row_mask(self, param_i: int) -> int:
        """Low-n-bit mask for one parameter row (bit n-1-j = element j)."""
        return (self.mask >> self.signature.row_shift(param_i)) & ((1 << self.signature.n) - 1)

    def row(self, param: str) -> tuple[str, ...]:
        sig = self.signature
        rm = self.row_mask(sig.param_index(param))
        return tuple(e for j, e in enumerate(sig.universe) if rm & (1 << (sig.n - 1 - j)))

    def rows(self) -> dict[str, tuple[str, ...]]:
        return {p: self.row(p) for p in self.signature.parameters}

    def encoding(self) -> str:
        return format(self.mask, f"0{self.signature.bits}b")

    def to_literal(self) -> dict[str, list[str]]:
        return {p: list(self.row(p)) for p in self.signature.parameters}

    @property
    def is_null(self) -> bool:
        return self.mask == 0

    @property
    def is_absolute(self) -> bool:
        return self.mask == self.signature.full_mask

    def cardinality(self) -> int:
        """Number of set (parameter, element) cells."""
        return self.mask.bit_count()

    def __or__(self, other: "SoftSet") -> "SoftSet":
        _require_same_signature(self.signature, other.signature)
        return SoftSet(self.signature, self.mask | other.mask)

    def __and__(self, other: "SoftSet") -> "SoftSet":
        _require_same_signature(self.signature, other.signature)
        return SoftSet(self.signature, self.mask & other.mask)

    def __invert__(self) -> "SoftSet":
        return SoftSet(self.signature, self.signature.full_mask ^ self.mask)

    def __le__(self, other: "SoftSet") -> bool:
        _require_same_signature(self.signature, other.signature)
        return (self.mask | other.mask) == other.mask

    def points(self) -> Iterator["SoftPoint"]:
        """All soft points lying in this set, in canonical cell order."""
        sig = self.signature
        for i, p in enumerate(sig.parameters):
            for j, e in enumerate(sig.universe):
                if self.mask & sig.cell_bit(i, j):
                    yield SoftPoint(sig, p, e)

    def __repr__(self):
        inner = ", ".join(f"{p}={{{','.join(r)}}}" for p, r in self.rows().items())
        return f"SoftSet({inner})"


@dataclass(frozen=True)
class SoftPoint:
    """One (parameter, element) cell; as a soft set it is a singleton row."""

    signature: SpaceSignature
    parameter: str
    element: str

    def __post_init__(self):
        # fail fast on labels outside the signature
        self.signature.param_index(self.parameter)
        self.signature.elem_index(self.element)

    @property
    def bit(self) -> int:
        sig = self.signature
        return sig.cell_bit(sig.param_index(self.parameter), sig.elem_index(self.element))

    def as_soft_set(self) -> SoftSet:
        return SoftSet(self.signature, self.bit)

    def label(self) -> str:
        return f"{self.parameter}:{self.element}"

    def __repr__(self):
        return f"SoftPoint({self.label()})"


def parse_point(sig: SpaceSignature, text: str) -> SoftPoint:
    """Parse the compact "parameter:element" point syntax."""
    if text.count(":") != 1:
        raise LiteralError(f"point must be written parameter:element, got {text!r}")
    param, elem = text.split(":")
    return SoftPoint(sig, param, elem)


def make_null(sig: SpaceSignature) -> SoftSet:
    return SoftSet(sig, 0)


def make_absolute(sig: SpaceSignature) -> SoftSet:
    return SoftSet(sig, sig.full_mask)


def union(sig: SpaceSignature, sets: Iterable[SoftSet]) -> SoftSet:
    """Union of any collection; the empty collection yields the null soft set."""
    mask = 0
    for s in sets:
        _require_same_signature(sig, s.signature)
        mask |= s.mask
    return SoftSet(sig, mask)


def intersection(sig: SpaceSignature, sets: Iterable[SoftSet]) -> SoftSet:
    """Intersection of a nonempty collection."""
    mask = None
    for s in sets:
        _require_same_signature(sig, s.signature)
        mask = s.mask if mask is None else mask & s.mask
    if mask is None:
        raise LiteralError("intersection of an empty collection is undefined")
    return SoftSet(sig, mask)


def complement(g: SoftSet) -> SoftSet:
    """Complement relative to the absolute soft set, parameter-wise."""
    return ~g


def is_subset(g: SoftSet, k: SoftSet) -> bool:
    return g <= k


def is_disjoint(g: SoftSet, k: SoftSet) -> bool:
    _require_same_signature(g.signature, k.signature)
    return (g.mask & k.mask) == 0


def point_in(p: SoftPoint, g: SoftSet, equality: bool = False) -> bool:
    """Membership of a soft point.

    Default: the element belongs to the set's value at the point's parameter.
    equality=True demands the value equal the singleton exactly (the stricter
    alternative reading; not the default).
    """
    _require_same_signature(p.signature, g.signature)
    if not equality:
        return bool(g.mask & p.bit)
    i = g.signature.param_index(p.parameter)
    shift = g.signature.row_shift(i)
    return (g.mask >> shift) & ((1 << g.signature.n) - 1) == (p.bit >> shift)


def submasks(full: int) -> Iterator[int]:
    """Every submask of `full` in ascending order (0 first, `full` last).

    This is the one lattice walk: it raises BitCapExceeded when `full` has
    more cells than `bit_cap()`.
    """
    cells = full.bit_count()
    cap = bit_cap()
    if cells > cap:
        raise BitCapExceeded(f"lattice scan over {cells} cells exceeds the {cap}-bit cap")
    s = 0
    while True:
        yield s
        if s == full:
            return
        s = (s - full) & full


def enumerate_soft_sets(sig: SpaceSignature) -> Iterator[SoftSet]:
    """All 2**bits soft sets in ascending encoding order (null first, absolute
    last); the walk refuses a signature above the bit cap."""
    for mask in submasks(sig.full_mask):
        yield SoftSet(sig, mask)


def parse_set_literal(sig: SpaceSignature, obj) -> SoftSet:
    """Parse {"param": ["elem", ...], ...}; unknown labels are errors."""
    if not isinstance(obj, Mapping):
        raise LiteralError("soft set literal must be an object mapping parameters to element lists")
    return SoftSet.from_rows(sig, obj)
