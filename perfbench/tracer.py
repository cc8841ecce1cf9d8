"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each softtopo module and rebinds
every name that refers to them in every loaded softtopo module, so calls
made through `from .x import f` imports are seen too. Each call records a
span (name, start, end, parent span, item id) in flat arrays; nothing is
written until `dump` runs after the pass. Allocation and draw counts are
kept as plain counters because a span per SoftSet would cost more than the
work it measures.

A layer is a module; its self time is the time spent in its spans minus
the time covered by their child spans. Time outside every program span
belongs to the benchmark's own root span ("bench").
"""
from __future__ import annotations

import array
import collections
import contextlib
import functools
import importlib
import json
import re
import sys
import time
import types
from functools import cached_property

LAYERS = ("cli", "explorer", "claims", "analysis", "maps", "semi", "topology",
          "kernels", "core", "prng")

KERNEL_POINT = ("interior_mask", "closure_mask", "is_semiopen_mask",
                "is_semiclosed_mask", "ssint_mask", "sscl_mask")
KERNEL_TABLE = ("semiopen_masks", "semiclosed_masks", "ssint_table", "sscl_table")
SEMI_QUERY = ("classify_set", "is_semiopen", "is_semiclosed", "ssint", "sscl",
              "is_semiopen_definitional", "is_semiclosed_definitional",
              "ssint_definitional", "sscl_definitional")
SEMI_SCAN = ("soss", "scss", "soss_definitional", "scss_definitional")
CLAIM_SECTIONS = ("sec2", "sec3", "sec4", "sec5", "sec6", "inv")

_SECTION = re.compile(r"^[A-Z]+(\d)")


def claim_section(claim_id: str) -> str:
    """D2.1 -> sec2, T6.16.open -> sec6, INV.CORE.ORDER -> inv."""
    if claim_id.startswith("INV"):
        return "inv"
    hit = _SECTION.match(claim_id)
    return f"sec{hit.group(1)}" if hit else "other"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("I")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.item = array.array("i")
        self.stack: list[int] = []
        self.item_id = -1
        self.counts = collections.Counter()
        self.encodings: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, name_of=None, before=None, after=None):
        """Wrap fn so each call records one span named `name`.

        name_of(args) renames the span per call; before(args) and
        after(result) run outside the timed interval.
        """
        nid = self._nid(name)
        names, starts, ends = self.name, self.start, self.end
        parents, items, stack = self.parent, self.item, self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(nid if name_of is None else self._nid(name_of(args)))
            parents.append(stack[-1] if stack else -1)
            items.append(self.item_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def root(self, name: str):
        """A benchmark-owned span, such as one pass, around program calls."""
        idx = len(self.start)
        self.name.append(self._nid(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(-1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _hooks(self, layer: str, attr: str) -> dict:
        counts = self.counts
        if layer == "kernels" and attr in KERNEL_POINT:
            def point(args):
                counts["kernels.open_scans"] += len(args[1])
            return {"before": point}
        if layer == "kernels" and attr in KERNEL_TABLE:
            def table(args):
                counts["kernels.open_scans"] += (1 << args[1].bit_count()) * len(args[0])
            return {"before": table}
        if layer == "claims" and attr == "evaluate_claim":
            return {"name_of": lambda args: f"claims.evaluate_claim.{claim_section(args[0].id)}"}
        if (layer, attr) in (("cli", "main"), ("claims", "ctx_from_bundle")):
            # one item per CLI call (a generated space) and per suite instance
            def next_item(args):
                self.item_id += 1
            return {"before": next_item}
        if layer == "topology" and attr == "parse_space":
            return {"after": lambda t: self.encodings.add(t.encoding())}
        return {}

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "softtopo" or n.startswith("softtopo."))]
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"softtopo.{layer}")
            except ImportError:
                continue
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                # the kernel dispatcher re-exports backend functions as its own
                if layer != "kernels" and fn.__module__ != mod.__name__:
                    continue
                wrapper = self.span(f"{layer}.{attr}", fn, **self._hooks(layer, attr))
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, name, wrapper)
        self._install_methods()

    def _install_methods(self) -> None:
        from softtopo.core import SoftSet
        from softtopo.prng import SplitMix64
        from softtopo.semi import SemiTables
        from softtopo.topology import SoftTopology

        for attr in ("interior", "closure"):
            fn = SoftTopology.__dict__[attr]
            self._set(SoftTopology, attr, self.span(f"topology.SoftTopology.{attr}", fn))
        for attr, prop in list(vars(SemiTables).items()):
            if isinstance(prop, cached_property):
                wrapped = cached_property(self.span(f"semi.SemiTables.{attr}", prop.func))
                wrapped.__set_name__(SemiTables, attr)
                self._set(SemiTables, attr, wrapped)

        counts = self.counts
        post_init = SoftSet.__dict__["__post_init__"]

        def counted_post_init(obj):
            counts["core.softset_allocs"] += 1
            post_init(obj)

        self._set(SoftSet, "__post_init__", counted_post_init)
        draw = SplitMix64.__dict__["next"]

        def counted_next(rng):
            counts["prng.draws"] += 1
            return draw(rng)

        self._set(SplitMix64, "next", counted_next)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def dump(self, path_stem: str) -> None:
        """Write the spans: <stem>.json (names, layout) and <stem>.bin (columns)."""
        cols = (("name", self.name), ("start", self.start), ("end", self.end),
                ("parent", self.parent), ("item", self.item))
        meta = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [{"name": c, "typecode": a.typecode, "itemsize": a.itemsize}
                        for c, a in cols],
            "byteorder": sys.byteorder,
        }
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1)
            fh.write("\n")
        with open(path_stem + ".bin", "wb") as fh:
            for _, a in cols:
                a.tofile(fh)

    def summary(self) -> "Summary":
        return Summary(self)


class Summary:
    """Self time per layer and time/calls per (span name, parent span name).

    Keying by the parent's name lets a group of names be totalled without
    counting a span nested directly in another span of the same group.
    """

    def __init__(self, tracer: Tracer):
        n = len(tracer.start)
        names, parent, start, end = tracer.name, tracer.parent, tracer.start, tracer.end
        dur = array.array("d", bytes(8 * n))
        child = array.array("d", bytes(8 * n))
        for i in range(n):
            d = dur[i] = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += d
        layer_of = [name.split(".", 1)[0] for name in tracer.names]
        self.names = tracer.names
        self.spans = n
        self.self_s = collections.Counter()
        self.pair_s = collections.Counter()
        self.pair_calls = collections.Counter()
        for i in range(n):
            nid = names[i]
            p = parent[i]
            key = (nid, names[p] if p >= 0 else -1)
            self.self_s[layer_of[nid]] += dur[i] - child[i]
            self.pair_s[key] += dur[i]
            self.pair_calls[key] += 1

    def _ids(self, wanted) -> set[int]:
        return {i for i, name in enumerate(self.names) if wanted(name)}

    def calls(self, wanted) -> int:
        ids = self._ids(wanted)
        return sum(c for (nid, _), c in self.pair_calls.items() if nid in ids)

    def total_s(self, wanted) -> float:
        """Time inside spans matching `wanted`, outermost ones only."""
        ids = self._ids(wanted)
        return sum(s for (nid, pid), s in self.pair_s.items() if nid in ids and pid not in ids)

    def under_s(self, wanted, parent_name: str) -> float:
        """Time of spans matching `wanted` whose parent span is `parent_name`."""
        ids = self._ids(wanted)
        pids = self._ids(lambda name: name == parent_name)
        return sum(s for (nid, pid), s in self.pair_s.items() if nid in ids and pid in pids)
