"""Soft functions between signatures.

A soft function is a pair (point_map on universe labels, param_map on
parameter labels), both total. Images aggregate across parameter fibers:
the image at a target parameter b unions point images over every source
parameter mapped to b; preimages pull each parameter row back through
both maps. Preimage is a full Boolean-algebra homomorphism; image
preserves unions and subsets only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from . import kernels
from .core import SoftSet, SpaceSignature
from .errors import LiteralError, SignatureMismatch
from .semi import semiclosed_witness, semiopen_witness, tables
from .topology import SoftTopology, load_space, parse_space


@dataclass(frozen=True)
class SoftFunction:
    source: SpaceSignature
    target: SpaceSignature
    point_map: tuple[int, ...]  # source element index -> target element index
    param_map: tuple[int, ...]  # source parameter index -> target parameter index

    def __post_init__(self):
        if len(self.point_map) != self.source.n or not all(
            0 <= j < self.target.n for j in self.point_map
        ):
            raise LiteralError("point_map must map every source element into the target universe")
        if len(self.param_map) != self.source.m or not all(
            0 <= i < self.target.m for i in self.param_map
        ):
            raise LiteralError("param_map must map every source parameter to a target parameter")

    @classmethod
    def from_labels(cls, source: SpaceSignature, target: SpaceSignature,
                    point_map: Mapping[str, str], param_map: Mapping[str, str]) -> "SoftFunction":
        if set(point_map) != set(source.universe):
            raise LiteralError("point_map must cover exactly the source universe")
        if set(param_map) != set(source.parameters):
            raise LiteralError("param_map must cover exactly the source parameters")
        pm = tuple(target.elem_index(point_map[e]) for e in source.universe)
        qm = tuple(target.param_index(param_map[p]) for p in source.parameters)
        return cls(source, target, pm, qm)

    @cached_property
    def _cell_images(self) -> tuple[tuple[int, int], ...]:
        """(source cell bit, target cell bit) for every source cell."""
        out = []
        for i in range(self.source.m):
            ti = self.param_map[i]
            for j in range(self.source.n):
                out.append(
                    (self.source.cell_bit(i, j), self.target.cell_bit(ti, self.point_map[j]))
                )
        return tuple(out)

    @property
    def is_point_surjective(self) -> bool:
        return len(set(self.point_map)) == self.target.n

    @property
    def is_param_surjective(self) -> bool:
        return len(set(self.param_map)) == self.target.m

    @property
    def is_surjective(self) -> bool:
        """Image of the source absolute set is the target absolute set."""
        return self.is_point_surjective and self.is_param_surjective

    def image_mask(self, mask: int) -> int:
        acc = 0
        for sb, tb in self._cell_images:
            if mask & sb:
                acc |= tb
        return acc

    def preimage_mask(self, mask: int) -> int:
        acc = 0
        for sb, tb in self._cell_images:
            if mask & tb:
                acc |= sb
        return acc

    def to_obj(self) -> dict:
        return {
            "point_map": {e: self.target.universe[self.point_map[j]]
                          for j, e in enumerate(self.source.universe)},
            "param_map": {p: self.target.parameters[self.param_map[i]]
                          for i, p in enumerate(self.source.parameters)},
        }


def image(f: SoftFunction, g: SoftSet) -> SoftSet:
    if g.signature != f.source:
        raise SignatureMismatch("set is not over the function's source signature")
    return SoftSet(f.target, f.image_mask(g.mask))


def preimage(f: SoftFunction, g: SoftSet) -> SoftSet:
    if g.signature != f.target:
        raise SignatureMismatch("set is not over the function's target signature")
    return SoftSet(f.source, f.preimage_mask(g.mask))


@dataclass(frozen=True)
class MapClassification:
    """The five behavior flags; each False flag carries a counterwitness set.

    Counterwitness keys match flag names: for the preimage-side flags the
    witness is a target set whose preimage misbehaves, for the image-side
    flags a source set whose image misbehaves.
    """

    continuous: bool
    semicontinuous: bool
    irresolute: bool
    semiopen_map: bool
    semiclosed_map: bool
    counterwitnesses: dict[str, SoftSet] = field(default_factory=dict)

    FLAGS = ("continuous", "semicontinuous", "irresolute", "semiopen_map", "semiclosed_map")


def _check_spaces(f: SoftFunction, t_src: SoftTopology, t_tgt: SoftTopology) -> None:
    if t_src.signature != f.source or t_tgt.signature != f.target:
        raise SignatureMismatch("spaces do not match the function's signatures")
    if not (t_src.absolute.is_absolute and t_tgt.absolute.is_absolute):
        raise LiteralError("map classification needs whole spaces, not subspaces")


def classify_map(f: SoftFunction, t_src: SoftTopology, t_tgt: SoftTopology) -> MapClassification:
    """Exhaustively quantified flags over the relevant families.

    continuous      preimage of every target open is open
    semicontinuous  preimage of every target open is semiopen
    irresolute      preimage of every target semiopen is semiopen
    semiopen_map    image of every source open is semiopen
    semiclosed_map  image of every source closed set is semiclosed

    Each candidate costs one per-set test, and no flag walks the lattice.
    A union of opens, or of semiopen sets, passes when its parts do, and
    every open is the union of the N(x) inside it, every semiopen set that
    of the generators N(y) ∪ {p} inside it (`SemiTables.generators`). So
    the least failing open is an N(x), the least failing semiopen set a
    generator, and every counterwitness is the first failing member of its
    family in ascending order.
    """
    _check_spaces(f, t_src, t_tgt)
    wit: dict[str, SoftSet] = {}

    continuous = True
    semicontinuous = True
    src_table, src_full = t_src.closure_table, t_src.absolute.mask
    for o in t_tgt.basis:
        pre = f.preimage_mask(o)
        if continuous and kernels.interior_mask(pre, src_table, src_full) != pre:
            continuous = False
            wit["continuous"] = SoftSet(f.target, o)
        if semicontinuous and semiopen_witness(t_src, pre) is None:
            semicontinuous = False
            wit["semicontinuous"] = SoftSet(f.target, o)
        if not continuous and not semicontinuous:
            break

    irresolute = True
    for m in tables(t_tgt).generators:
        if semiopen_witness(t_src, f.preimage_mask(m)) is None:
            irresolute = False
            wit["irresolute"] = SoftSet(f.target, m)
            break

    semiopen_map = True
    for o in t_src.basis:
        if semiopen_witness(t_tgt, f.image_mask(o)) is None:
            semiopen_map = False
            wit["semiopen_map"] = SoftSet(f.source, o)
            break

    semiclosed_map = True
    # closed masks ascend as the opens they complement descend
    for o in reversed(t_src.open_masks):
        c = src_full ^ o
        if semiclosed_witness(t_tgt, f.image_mask(c)) is None:
            semiclosed_map = False
            wit["semiclosed_map"] = SoftSet(f.source, c)
            break

    return MapClassification(continuous, semicontinuous, irresolute,
                             semiopen_map, semiclosed_map, wit)


# -- function files ------------------------------------------------------------


def parse_function(obj, base_dir: str = ".") -> tuple[SoftFunction, SoftTopology, SoftTopology]:
    """Parse a function file: spaces inline or as sibling space-file paths."""
    if not isinstance(obj, Mapping):
        raise LiteralError("function file must be an object")
    extra = set(obj) - {"source", "target", "point_map", "param_map"}
    if extra:
        raise LiteralError(f"unknown function fields: {sorted(extra)}")
    for fieldname in ("source", "target", "point_map", "param_map"):
        if fieldname not in obj:
            raise LiteralError(f"function file needs {fieldname!r}")

    def space_of(ref):
        if isinstance(ref, str):
            return load_space(ref if os.path.isabs(ref) else os.path.join(base_dir, ref))
        return parse_space(ref)

    t_src = space_of(obj["source"])
    t_tgt = space_of(obj["target"])
    if not isinstance(obj["point_map"], Mapping) or not isinstance(obj["param_map"], Mapping):
        raise LiteralError("point_map and param_map must be objects")
    f = SoftFunction.from_labels(t_src.signature, t_tgt.signature,
                                 obj["point_map"], obj["param_map"])
    return f, t_src, t_tgt


def function_to_obj(f: SoftFunction, t_src: SoftTopology, t_tgt: SoftTopology) -> dict:
    """Self-contained function file object with inline spaces."""
    obj = {"source": t_src.to_obj(), "target": t_tgt.to_obj()}
    obj.update(f.to_obj())
    return obj
