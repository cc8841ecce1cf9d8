"""Registry of checkable statements with evaluation procedures.

Two tiers:

asserted-invariant   must hold on every instance; a failure is an
                     implementation bug by contract and the suite runner
                     aborts (exit code 3).
under-test           searched for counterexamples; refutations are
                     recorded with replayable witnesses and never abort.

Every evaluator yields one (ok, witness) pair per hypothesis instance it
meets on the given context; yielding nothing means the hypothesis never
fired there. All sampling is keyed to the instance's canonical encoding,
so re-running a claim on the same instance sees the same draws — this is
what makes witness replay exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import core, kernels
from .analysis import (
    AXIOM_NAMES,
    DOMAINS,
    _domain,
    analyze_cover,
    check_axiom,
    find_clopen,
    find_semiseparation,
    is_semicompact,
    naive_check_axiom,
    seminormal_characterization,
)
from .core import SoftPoint, SoftSet, SpaceSignature, parse_signature
from .errors import LiteralError
from .maps import SoftFunction, classify_map, function_to_obj, parse_function
from .prng import SplitMix64, derive_seed
from .semi import tables
from .topology import SoftTopology, discrete, from_subbasis, indiscrete, parse_space, subspace

Check = tuple[bool, Optional[dict]]

# Readings adopted where the source statements are ambiguous; these lines
# are stamped into every suite report header.
SEMANTICS_NOTES = (
    "points: singleton soft points (one parameter, one element); 'disjoint points' read as 'distinct points'",
    "functions: pair (point_map, param_map); image/preimage by the standard induced cellwise formulas",
    "disjointness of same-signature sets: null intersection, checked rowwise and by mask",
    "image-of-semiconnected claims: asserted form quantifies target-semiopen pieces of the image; the intrinsic subspace form is registered separately as under-test",
    "interior-superadditivity is checked in the direction its own monotonicity proof gives (term-wise inclusion into the union's value)",
    "seminormality invariance under surjections is registered in two readings: images semiopen, and images open as literally concluded",
)


# --- built-in spaces -----------------------------------------------------------


def builtin_example() -> SoftTopology:
    """Three elements, two parameters, one proper open set."""
    sig = parse_signature({"universe": ["h1", "h2", "h3"], "parameters": ["e1", "e2"]})
    f1 = SoftSet.from_rows(sig, {"e1": ["h1", "h2"], "e2": ["h1"]})
    return SoftTopology(sig, [SoftSet(sig, 0), f1, SoftSet(sig, sig.full_mask)])


def builtin_discrete() -> SoftTopology:
    sig = parse_signature({"universe": ["h1", "h2"], "parameters": ["e1"]})
    return discrete(sig)


def builtin_indiscrete() -> SoftTopology:
    sig = parse_signature({"universe": ["h1", "h2"], "parameters": ["e1"]})
    return indiscrete(sig)


BUILTIN_SPACES = (
    ("builtin:example", builtin_example),
    ("builtin:discrete", builtin_discrete),
    ("builtin:indiscrete", builtin_indiscrete),
)


# --- evaluation contexts -------------------------------------------------------


def _draws(rng: SplitMix64, mask: int, k: int) -> list[int]:
    """k seeded subsets of `mask`."""
    return [rng.below(mask + 1) & mask for _ in range(k)]


class SpaceCtx:
    """One space under evaluation, with shared caches and seeded sampling."""

    kind = "space"

    def __init__(self, t: SoftTopology, label: str):
        self.t = t
        self.label = label
        self.seed = derive_seed("space-ctx", t.encoding())

    @cached_property
    def tab(self):
        return tables(self.t)

    @cached_property
    def full(self) -> int:
        return self.t.absolute.mask

    @cached_property
    def oracle_soss_set(self) -> frozenset:
        return frozenset(self.tab.oracle_soss_masks)

    @cached_property
    def oracle_scss_set(self) -> frozenset:
        return frozenset(self.tab.oracle_scss_masks)

    @cached_property
    def points(self) -> list[SoftPoint]:
        return list(self.t.absolute.points())

    @cached_property
    def report(self):
        from .analysis import axiom_report

        return axiom_report(self.t)

    def flag(self, name: str) -> bool:
        return self.report.flag(name)

    def rng(self, *tags) -> SplitMix64:
        return SplitMix64(derive_seed(self.seed, *tags))

    def sample_masks(self, tag: str, k: int) -> list[int]:
        return _draws(self.rng(tag), self.full, k)

    @cached_property
    def carriers(self) -> list[SoftSet]:
        """Nonnull subsets of the carrier used for subspace hypotheses."""
        rng = self.rng("carriers")
        seen, out = set(), []
        for _ in range(8):
            m = (1 + rng.below(self.full)) & self.full if self.full else 0
            if m and m not in seen:
                seen.add(m)
                out.append(SoftSet(self.t.signature, m))
            if len(out) == 4:
                break
        return out

    @cached_property
    def _subspaces(self) -> dict:
        return {}

    def sub(self, carrier: SoftSet) -> "SpaceCtx":
        got = self._subspaces.get(carrier.mask)
        if got is None:
            got = SpaceCtx(subspace(self.t, carrier), f"{self.label}/sub")
            self._subspaces[carrier.mask] = got
        return got

    def lat(self) -> Iterator[int]:
        return core.submasks(self.full)

    def interior(self, m: int) -> int:
        return kernels.interior_mask(m, self.t.closure_table, self.full)

    def closure(self, m: int) -> int:
        return kernels.closure_mask(m, self.t.closure_table, self.full)

    def lit(self, m: int) -> dict:
        return SoftSet(self.t.signature, m).to_literal()

    def is_discrete(self) -> bool:
        return len(self.t.open_masks) == 1 << self.full.bit_count()

    def to_bundle(self) -> dict:
        base = self.t
        if base.absolute.mask != base.signature.full_mask:
            raise LiteralError("witness bundles are rooted at whole spaces")
        return {"label": self.label, "space": base.to_obj()}


class TripleCtx:
    """One (function, source space, target space) triple."""

    kind = "triple"

    def __init__(self, f: SoftFunction, t_src: SoftTopology, t_tgt: SoftTopology, label: str):
        self.f = f
        self.t_src = t_src
        self.t_tgt = t_tgt
        self.label = label
        self.seed = derive_seed(
            "triple-ctx", t_src.encoding(), t_tgt.encoding(),
            ",".join(map(str, f.point_map)), ",".join(map(str, f.param_map)),
        )

    @cached_property
    def cls(self):
        return classify_map(self.f, self.t_src, self.t_tgt)

    @cached_property
    def src(self) -> SpaceCtx:
        return SpaceCtx(self.t_src, self.label + ":src")

    @cached_property
    def tgt(self) -> SpaceCtx:
        return SpaceCtx(self.t_tgt, self.label + ":tgt")

    def rng(self, *tags) -> SplitMix64:
        return SplitMix64(derive_seed(self.seed, *tags))

    def to_bundle(self) -> dict:
        return {
            "label": self.label,
            "function": function_to_obj(self.f, self.t_src, self.t_tgt),
        }


def ctx_from_bundle(bundle: dict):
    if "function" in bundle:
        f, t_src, t_tgt = parse_function(bundle["function"])
        return TripleCtx(f, t_src, t_tgt, bundle.get("label", "replay"))
    return SpaceCtx(parse_space(bundle["space"]), bundle.get("label", "replay"))


# --- registry plumbing ---------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    id: str
    kind: str
    scope: str
    statement: str
    quantifier: str
    evaluate: Callable
    note: str = ""


REGISTRY: dict[str, Claim] = {}


def _claim(cid: str, kind: str, scope: str, statement: str, quantifier: str, note: str = ""):
    def deco(fn):
        if cid in REGISTRY:
            raise LiteralError(f"duplicate claim id {cid}")
        REGISTRY[cid] = Claim(cid, kind, scope, statement, quantifier, fn, note)
        return fn

    return deco


def evaluate_claim(claim: Claim, ctx) -> tuple[int, list[dict]]:
    """Run one claim on one context: (hypothesis count, failing payloads)."""
    if claim.scope != ctx.kind:
        return 0, []
    hyp = 0
    failures = []
    for ok, payload in claim.evaluate(ctx):
        hyp += 1
        if not ok:
            failures.append(payload or {})
    return hyp, failures


def replay_witness(bundle: dict) -> bool:
    """Re-run the claim on the bundle's instance; confirm the payload fails again."""
    claim = REGISTRY.get(bundle.get("claim", ""))
    if claim is None:
        raise LiteralError(f"unknown claim id in bundle: {bundle.get('claim')!r}")
    ctx = ctx_from_bundle(bundle)
    target = bundle.get("payload", {})
    _, failures = evaluate_claim(claim, ctx)
    return target in failures


# --- semiopen/semiclosed structure claims --------------------------------------


@_claim(
    "D2.1", "asserted-invariant", "space",
    "fast-formula semiopen/semiclosed membership agrees with definitional witness search",
    "every lattice set of every instance",
)
def _d2_1(ctx: SpaceCtx) -> Iterator[Check]:
    fast_so = ctx.tab.soss_set
    fast_sc = frozenset(ctx.tab.semiclosed_direct_masks)
    for s in ctx.lat():
        ok = (s in fast_so) == (s in ctx.oracle_soss_set) and (s in fast_sc) == (
            s in ctx.oracle_scss_set
        )
        yield ok, None if ok else {"set": ctx.lit(s)}


_EX_G = {"e1": ["h1", "h2"], "e2": ["h1", "h2"]}
_EX_K = {"e1": ["h3"], "e2": ["h3"]}


@_claim(
    "E2.2", "asserted-invariant", "space",
    "worked example: a semiopen-not-open and a semiclosed-not-closed set exist as listed",
    "the built-in three-element example space",
)
def _e2_2(ctx: SpaceCtx) -> Iterator[Check]:
    if ctx.t != builtin_example():
        return
    sig = ctx.t.signature
    g = SoftSet.from_rows(sig, _EX_G)
    k = SoftSet.from_rows(sig, _EX_K)
    checks = [
        g.mask in ctx.tab.soss_set,
        g.mask in ctx.oracle_soss_set,
        not ctx.t.is_open(g),
        k.mask in frozenset(ctx.tab.semiclosed_direct_masks),
        k.mask in ctx.oracle_scss_set,
        not ctx.t.is_closed(k),
    ]
    ok = all(checks)
    yield ok, None if ok else {"set": g.to_literal(), "set2": k.to_literal(), "checks": checks}


@_claim(
    "R2.3", "asserted-invariant", "space",
    "every open set is semiopen and every closed set is semiclosed",
    "all members of the open and closed families of every instance",
)
def _r2_3(ctx: SpaceCtx) -> Iterator[Check]:
    for o in ctx.t.open_masks:
        ok = o in ctx.tab.soss_set
        yield ok, None if ok else {"set": ctx.lit(o), "family": "open"}
    for o in ctx.t.open_masks:
        c = ctx.full ^ o
        ok = c in ctx.tab.scss_set
        yield ok, None if ok else {"set": ctx.lit(c), "family": "closed"}


@_claim(
    "R2.3.conv", "under-test", "space",
    "converse: every semiopen set is open and every semiclosed set is closed",
    "all semiopen and semiclosed sets of every instance",
)
def _r2_3_conv(ctx: SpaceCtx) -> Iterator[Check]:
    for s in ctx.tab.soss_masks:
        ok = ctx.interior(s) == s
        yield ok, None if ok else {"set": ctx.lit(s), "found": "semiopen-not-open"}
    for s in ctx.tab.scss_masks:
        ok = ctx.closure(s) == s
        yield ok, None if ok else {"set": ctx.lit(s), "found": "semiclosed-not-closed"}


@_claim(
    "R2.4", "asserted-invariant", "space",
    "the null and absolute sets are both semiopen and semiclosed",
    "both routes on every instance",
)
def _r2_4(ctx: SpaceCtx) -> Iterator[Check]:
    for m, name in ((0, "null"), (ctx.full, "absolute")):
        ok = (
            m in ctx.tab.soss_set
            and m in ctx.tab.scss_set
            and m in ctx.oracle_soss_set
            and m in ctx.oracle_scss_set
        )
        yield ok, None if ok else {"set": ctx.lit(m), "which": name}


def _subfamilies(ctx: SpaceCtx, tag: str, masks: list[int]) -> Iterator[tuple[int, ...]]:
    n = len(masks)
    for i in range(n):
        for j in range(i, n):
            yield (masks[i], masks[j])
    if n > 2:
        rng = ctx.rng(tag)
        for _ in range(32):
            size = 2 + rng.below(min(8, n))
            yield tuple(masks[i] for i in sorted(rng.sample_distinct(min(size, n), n)))
    yield tuple(masks)


@_claim(
    "T2.5", "asserted-invariant", "space",
    "any union of semiopen sets is semiopen",
    "all pairs plus sampled larger subfamilies of the semiopen family",
)
def _t2_5(ctx: SpaceCtx) -> Iterator[Check]:
    for fam in _subfamilies(ctx, "T2.5", ctx.tab.soss_masks):
        u = 0
        for m in fam:
            u |= m
        ok = u in ctx.tab.soss_set
        yield ok, None if ok else {"subfamily": [ctx.lit(m) for m in fam[:12]]}


@_claim(
    "R2.6", "asserted-invariant", "space",
    "any intersection of semiclosed sets is semiclosed",
    "all pairs plus sampled larger subfamilies of the semiclosed family",
)
def _r2_6(ctx: SpaceCtx) -> Iterator[Check]:
    for fam in _subfamilies(ctx, "R2.6", ctx.tab.scss_masks):
        u = ctx.full
        for m in fam:
            u &= m
        ok = u in ctx.tab.scss_set
        yield ok, None if ok else {"subfamily": [ctx.lit(m) for m in fam[:12]]}


@_claim(
    "T2.7", "asserted-invariant", "space",
    "anything between a semiopen set and its closure is semiopen",
    "every semiopen G and every K with G inside K inside closure(G); sampled K above 2^10 gaps",
)
def _t2_7(ctx: SpaceCtx) -> Iterator[Check]:
    for g in ctx.tab.soss_masks:
        free = ctx.closure(g) & ~g
        mids = _domain("gap", free.bit_count(), core.submasks(free),
                       lambda k: _draws(ctx.rng("T2.7", g), free, k))
        for extra in mids:
            k = g | extra
            ok = k in ctx.tab.soss_set
            yield ok, None if ok else {"set": ctx.lit(g), "set2": ctx.lit(k)}


@_claim(
    "T2.8", "asserted-invariant", "space",
    "anything between a semiclosed set's interior and the set is semiclosed",
    "every semiclosed F and every K with interior(F) inside K inside F; sampled above 2^10 gaps",
)
def _t2_8(ctx: SpaceCtx) -> Iterator[Check]:
    for f in ctx.tab.scss_masks:
        base = ctx.interior(f)
        free = f & ~base
        mids = _domain("gap", free.bit_count(), core.submasks(free),
                       lambda k: _draws(ctx.rng("T2.8", f), free, k))
        for extra in mids:
            k = base | extra
            ok = k in ctx.tab.scss_set
            yield ok, None if ok else {"set": ctx.lit(f), "set2": ctx.lit(k)}


@_claim(
    "T2.9", "asserted-invariant", "space",
    "a set is semiopen iff every point of it sits inside some semiopen subset of it",
    "every lattice set of every instance",
)
def _t2_9(ctx: SpaceCtx) -> Iterator[Check]:
    per_point = {p.bit: [s for s in ctx.tab.soss_masks if s & p.bit] for p in ctx.points}
    for s in ctx.lat():
        lhs = s in ctx.tab.soss_set
        rhs = all(
            any(cand & ~s == 0 for cand in per_point[p.bit])
            for p in ctx.points
            if p.bit & s
        )
        ok = lhs == rhs
        yield ok, None if ok else {"set": ctx.lit(s)}


@_claim(
    "D2.10", "asserted-invariant", "space",
    "ssint is the largest semiopen subset and sscl the smallest semiclosed superset",
    "every lattice set, fast tables against oracle-family folds",
)
def _d2_10(ctx: SpaceCtx) -> Iterator[Check]:
    for s in ctx.lat():
        lo = 0
        for m in ctx.tab.oracle_soss_masks:
            if m & ~s == 0:
                lo |= m
        hi = ctx.full
        for m in ctx.tab.oracle_scss_masks:
            if s & ~m == 0:
                hi &= m
        si, sc = ctx.tab.ssint[s], ctx.tab.sscl[s]
        inner, outer = ctx.interior(s), ctx.closure(s)
        ok = (
            si == lo
            and sc == hi
            and lo in ctx.oracle_soss_set
            and hi in ctx.oracle_scss_set
            and inner & ~si == 0
            and si & ~s == 0
            and s & ~sc == 0
            and sc & ~outer == 0
        )
        yield ok, None if ok else {"set": ctx.lit(s)}


def _pairs(ctx: SpaceCtx, tag: str) -> Iterable[tuple[int, int]]:
    """Every unordered pair of lattice sets, else seeded draws."""
    def every() -> Iterator[tuple[int, int]]:
        lat = list(ctx.lat())
        for i, a in enumerate(lat):
            for b in lat[i:]:
                yield a, b

    def sample(draws: int) -> Iterator[tuple[int, int]]:
        rng = ctx.rng(tag)
        for _ in range(draws):
            yield rng.below(ctx.full + 1) & ctx.full, rng.below(ctx.full + 1) & ctx.full

    return _domain("pairs", ctx.full.bit_count(), every(), sample)


def _sub_pairs(ctx: SpaceCtx, tag: str) -> Iterable[tuple[int, int]]:
    """Every nested pair (g inside k) of lattice sets, else seeded draws."""
    def every() -> Iterator[tuple[int, int]]:
        for k in ctx.lat():
            for g in core.submasks(k):
                yield g, k

    def sample(draws: int) -> Iterator[tuple[int, int]]:
        rng = ctx.rng(tag)
        for _ in range(draws):
            k = rng.below(ctx.full + 1) & ctx.full
            yield rng.below(k + 1) & k, k

    return _domain("pairs", ctx.full.bit_count(), every(), sample)


@_claim(
    "T2.11.i", "asserted-invariant", "space",
    "a set is semiclosed iff it equals its sscl",
    "every lattice set; membership route against the fixpoint route",
)
def _t2_11_i(ctx: SpaceCtx) -> Iterator[Check]:
    for s in ctx.lat():
        ok = (s in ctx.tab.scss_set) == (ctx.tab.sscl[s] == s)
        yield ok, None if ok else {"set": ctx.lit(s)}


@_claim(
    "T2.11.ii", "asserted-invariant", "space",
    "a set is semiopen iff it equals its ssint",
    "every lattice set; membership route against the fixpoint route",
)
def _t2_11_ii(ctx: SpaceCtx) -> Iterator[Check]:
    for s in ctx.lat():
        ok = (s in ctx.tab.soss_set) == (ctx.tab.ssint[s] == s)
        yield ok, None if ok else {"set": ctx.lit(s)}


@_claim(
    "T2.11.iii", "asserted-invariant", "space",
    "complement of sscl equals ssint of the complement",
    "every lattice set",
)
def _t2_11_iii(ctx: SpaceCtx) -> Iterator[Check]:
    for s in ctx.lat():
        ok = (ctx.full ^ ctx.tab.sscl[s]) == ctx.tab.ssint[ctx.full ^ s]
        yield ok, None if ok else {"set": ctx.lit(s)}


@_claim(
    "T2.11.iv", "asserted-invariant", "space",
    "complement of ssint equals sscl of the complement",
    "every lattice set",
)
def _t2_11_iv(ctx: SpaceCtx) -> Iterator[Check]:
    for s in ctx.lat():
        ok = (ctx.full ^ ctx.tab.ssint[s]) == ctx.tab.sscl[ctx.full ^ s]
        yield ok, None if ok else {"set": ctx.lit(s)}


@_claim(
    "T2.11.v", "asserted-invariant", "space",
    "ssint is monotone",
    "all nested lattice pairs (sampled above 6 lattice bits)",
)
def _t2_11_v(ctx: SpaceCtx) -> Iterator[Check]:
    for g, k in _sub_pairs(ctx, "T2.11.v"):
        ok = ctx.tab.ssint[g] & ~ctx.tab.ssint[k] == 0
        yield ok, None if ok else {"set": ctx.lit(g), "set2": ctx.lit(k)}


@_claim(
    "T2.11.vi", "asserted-invariant", "space",
    "sscl is monotone",
    "all nested lattice pairs (sampled above 6 lattice bits)",
)
def _t2_11_vi(ctx: SpaceCtx) -> Iterator[Check]:
    for g, k in _sub_pairs(ctx, "T2.11.vi"):
        ok = ctx.tab.sscl[g] & ~ctx.tab.sscl[k] == 0
        yield ok, None if ok else {"set": ctx.lit(g), "set2": ctx.lit(k)}


@_claim(
    "T2.11.vii", "asserted-invariant", "space",
    "sscl fixes the null and absolute sets",
    "two checks per instance",
)
def _t2_11_vii(ctx: SpaceCtx) -> Iterator[Check]:
    yield ctx.tab.sscl[0] == 0, {"set": ctx.lit(0)} if ctx.tab.sscl[0] != 0 else None
    ok = ctx.tab.sscl[ctx.full] == ctx.full
    yield ok, None if ok else {"set": ctx.lit(ctx.full)}


@_claim(
    "T2.11.viii", "asserted-invariant", "space",
    "ssint fixes the null and absolute sets",
    "two checks per instance",
)
def _t2_11_viii(ctx: SpaceCtx) -> Iterator[Check]:
    yield ctx.tab.ssint[0] == 0, {"set": ctx.lit(0)} if ctx.tab.ssint[0] != 0 else None
    ok = ctx.tab.ssint[ctx.full] == ctx.full
    yield ok, None if ok else {"set": ctx.lit(ctx.full)}


@_claim(
    "T2.11.ix", "under-test", "space",
    "sscl distributes over binary union",
    "all unordered lattice pairs (sampled above 6 lattice bits)",
    note="the stated proof assumes a union of two semiclosed sets is semiclosed, which only intersections are guaranteed",
)
def _t2_11_ix(ctx: SpaceCtx) -> Iterator[Check]:
    for a, b in _pairs(ctx, "T2.11.ix"):
        ok = ctx.tab.sscl[a | b] == ctx.tab.sscl[a] | ctx.tab.sscl[b]
        yield ok, None if ok else {"set": ctx.lit(a), "set2": ctx.lit(b)}


@_claim(
    "T2.11.x", "under-test", "space",
    "ssint distributes over binary intersection",
    "all unordered lattice pairs (sampled above 6 lattice bits)",
    note="dual of the union claim; same unproven step",
)
def _t2_11_x(ctx: SpaceCtx) -> Iterator[Check]:
    for a, b in _pairs(ctx, "T2.11.x"):
        ok = ctx.tab.ssint[a & b] == ctx.tab.ssint[a] & ctx.tab.ssint[b]
        yield ok, None if ok else {"set": ctx.lit(a), "set2": ctx.lit(b)}


@_claim(
    "T2.11.xi", "asserted-invariant", "space",
    "sscl of an intersection sits inside the intersection of sscls",
    "all unordered lattice pairs (sampled above 6 lattice bits)",
)
def _t2_11_xi(ctx: SpaceCtx) -> Iterator[Check]:
    for a, b in _pairs(ctx, "T2.11.xi"):
        ok = ctx.tab.sscl[a & b] & ~(ctx.tab.sscl[a] & ctx.tab.sscl[b]) == 0
        yield ok, None if ok else {"set": ctx.lit(a), "set2": ctx.lit(b)}


@_claim(
    "T2.11.xii", "asserted-invariant", "space",
    "union of ssints sits inside ssint of the union",
    "all unordered lattice pairs (sampled above 6 lattice bits)",
    note="checked in the direction monotonicity proves; the displayed orientation in the source reverses it",
)
def _t2_11_xii(ctx: SpaceCtx) -> Iterator[Check]:
    for a, b in _pairs(ctx, "T2.11.xii"):
        ok = (ctx.tab.ssint[a] | ctx.tab.ssint[b]) & ~ctx.tab.ssint[a | b] == 0
        yield ok, None if ok else {"set": ctx.lit(a), "set2": ctx.lit(b)}


@_claim(
    "T2.11.xiii", "asserted-invariant", "space",
    "sscl is idempotent",
    "every lattice set",
)
def _t2_11_xiii(ctx: SpaceCtx) -> Iterator[Check]:
    for s in ctx.lat():
        ok = ctx.tab.sscl[ctx.tab.sscl[s]] == ctx.tab.sscl[s]
        yield ok, None if ok else {"set": ctx.lit(s)}


@_claim(
    "T2.11.xiv", "asserted-invariant", "space",
    "ssint is idempotent",
    "every lattice set",
)
def _t2_11_xiv(ctx: SpaceCtx) -> Iterator[Check]:
    for s in ctx.lat():
        ok = ctx.tab.ssint[ctx.tab.ssint[s]] == ctx.tab.ssint[s]
        yield ok, None if ok else {"set": ctx.lit(s)}


@_claim(
    "T2.13", "asserted-invariant", "space",
    "four equivalent readings of semiclosedness agree",
    "every lattice set: witness search, interior-of-closure formula, complement formula, complement witness search",
)
def _t2_13(ctx: SpaceCtx) -> Iterator[Check]:
    fast_sc = frozenset(ctx.tab.semiclosed_direct_masks)
    for s in ctx.lat():
        c = ctx.full ^ s
        forms = (
            s in ctx.oracle_scss_set,
            s in fast_sc,
            c & ~ctx.closure(ctx.interior(c)) == 0,
            c in ctx.oracle_soss_set,
        )
        ok = len(set(forms)) == 1
        yield ok, None if ok else {"set": ctx.lit(s), "forms": list(forms)}


# --- function claims -----------------------------------------------------------


@_claim(
    "D3.1", "asserted-invariant", "triple",
    "the five classification flags match a slow oracle recomputation and their counterwitnesses re-fail",
    "one check per flag per triple",
)
def _d3_1(ctx: TripleCtx) -> Iterator[Check]:
    f, cls = ctx.f, ctx.cls
    src, tgt = ctx.src, ctx.tgt
    opens_src = frozenset(src.t.open_masks)
    slow = {
        "continuous": all(f.preimage_mask(o) in opens_src for o in tgt.t.open_masks),
        "semicontinuous": all(
            f.preimage_mask(o) in src.oracle_soss_set for o in tgt.t.open_masks
        ),
        "irresolute": all(
            f.preimage_mask(s) in src.oracle_soss_set for s in tgt.tab.oracle_soss_masks
        ),
        "semiopen_map": all(
            (f.image_mask(o) & tgt.full) in tgt.oracle_soss_set for o in src.t.open_masks
        ),
        "semiclosed_map": all(
            (f.image_mask(src.full ^ o) & tgt.full) in tgt.oracle_scss_set
            for o in src.t.open_masks
        ),
    }
    refail = {
        "continuous": lambda w: f.preimage_mask(w.mask) not in opens_src,
        "semicontinuous": lambda w: f.preimage_mask(w.mask) not in src.oracle_soss_set,
        "irresolute": lambda w: w.mask in tgt.oracle_soss_set
        and f.preimage_mask(w.mask) not in src.oracle_soss_set,
        "semiopen_map": lambda w: w.mask in opens_src
        and (f.image_mask(w.mask) & tgt.full) not in tgt.oracle_soss_set,
        "semiclosed_map": lambda w: (src.full ^ w.mask) in opens_src
        and (f.image_mask(w.mask) & tgt.full) not in tgt.oracle_scss_set,
    }
    for name in cls.FLAGS:
        got = getattr(cls, name)
        ok = got == slow[name]
        if ok and not got:
            w = cls.counterwitnesses.get(name)
            ok = w is not None and refail[name](w)
        yield ok, None if ok else {"flag": name}


@_claim(
    "R3.2.a", "asserted-invariant", "triple",
    "semicontinuity equals: preimages of closed sets are semiclosed",
    "all closed sets of the target per triple",
)
def _r3_2_a(ctx: TripleCtx) -> Iterator[Check]:
    via_closed = all(
        ctx.f.preimage_mask(ctx.tgt.full ^ o) in ctx.src.tab.scss_set
        for o in ctx.tgt.t.open_masks
    )
    ok = via_closed == ctx.cls.semicontinuous
    yield ok, None if ok else {"flag": "semicontinuous", "via_closed": via_closed}


@_claim(
    "R3.2.b", "under-test", "triple",
    "every semicontinuous function is irresolute",
    "triples whose classification is semicontinuous",
    note="classical theory runs this implication the other way around",
)
def _r3_2_b(ctx: TripleCtx) -> Iterator[Check]:
    if not ctx.cls.semicontinuous:
        return
    ok = ctx.cls.irresolute
    w = ctx.cls.counterwitnesses.get("irresolute")
    yield ok, None if ok else {"set": w.to_literal() if w else None}


@_claim(
    "R3.2.b.conv", "asserted-invariant", "triple",
    "every irresolute function is semicontinuous",
    "triples whose classification is irresolute",
)
def _r3_2_b_conv(ctx: TripleCtx) -> Iterator[Check]:
    if not ctx.cls.irresolute:
        return
    ok = ctx.cls.semicontinuous
    w = ctx.cls.counterwitnesses.get("semicontinuous")
    yield ok, None if ok else {"set": w.to_literal() if w else None}


def _side_lattice(ctx: TripleCtx, side: SpaceCtx, tag: str) -> Iterable[int]:
    """Every set of one side's lattice, else draws from the triple's rng."""
    return _domain("side-lattice", side.full.bit_count(), core.submasks(side.full),
                   lambda k: _draws(ctx.rng(tag), side.full, k))


@_claim(
    "T3.3.fwd", "asserted-invariant", "triple",
    "for semicontinuous f: image of sscl sits inside closure of image",
    "every source lattice set of every semicontinuous triple",
)
def _t3_3_fwd(ctx: TripleCtx) -> Iterator[Check]:
    if not ctx.cls.semicontinuous:
        return
    for s in _side_lattice(ctx, ctx.src, "T3.3.fwd"):
        img = ctx.f.image_mask(ctx.src.tab.sscl[s]) & ctx.tgt.full
        ok = img & ~ctx.tgt.closure(ctx.f.image_mask(s) & ctx.tgt.full) == 0
        yield ok, None if ok else {"set": ctx.src.lit(s)}


@_claim(
    "T3.3", "under-test", "triple",
    "semicontinuity is equivalent to: image of sscl sits inside closure of image, for all sets",
    "one equivalence check per triple",
)
def _t3_3(ctx: TripleCtx) -> Iterator[Check]:
    rhs = all(
        ctx.f.image_mask(ctx.src.tab.sscl[s]) & ctx.tgt.full
        & ~ctx.tgt.closure(ctx.f.image_mask(s) & ctx.tgt.full) == 0
        for s in _side_lattice(ctx, ctx.src, "T3.3")
    )
    ok = rhs == ctx.cls.semicontinuous
    yield ok, None if ok else {"flag": "semicontinuous", "inequality_holds": rhs}


@_claim(
    "T3.4", "under-test", "triple",
    "semicontinuity is equivalent to: interior of a preimage sits inside ssint of the preimage, for all target sets",
    "one equivalence check per triple",
    note="the right side holds for any function at all (interior is always inside ssint), so the equivalence should fail on any non-semicontinuous triple",
)
def _t3_4(ctx: TripleCtx) -> Iterator[Check]:
    rhs = all(
        ctx.src.interior(ctx.f.preimage_mask(h))
        & ~ctx.src.tab.ssint[ctx.f.preimage_mask(h)] == 0
        for h in _side_lattice(ctx, ctx.tgt, "T3.4")
    )
    ok = rhs == ctx.cls.semicontinuous
    yield ok, None if ok else {"flag": "semicontinuous", "inequality_holds": rhs}


@_claim(
    "T3.5.fwd", "asserted-invariant", "triple",
    "for a semiopen map: image of interior sits inside ssint of image",
    "every source lattice set of every semiopen-map triple",
)
def _t3_5_fwd(ctx: TripleCtx) -> Iterator[Check]:
    if not ctx.cls.semiopen_map:
        return
    for s in _side_lattice(ctx, ctx.src, "T3.5.fwd"):
        img = ctx.f.image_mask(ctx.src.interior(s)) & ctx.tgt.full
        ok = img & ~ctx.tgt.tab.ssint[ctx.f.image_mask(s) & ctx.tgt.full] == 0
        yield ok, None if ok else {"set": ctx.src.lit(s)}


@_claim(
    "T3.5", "under-test", "triple",
    "semiopen map is equivalent to: image of interior sits inside ssint of image, for all sets",
    "one equivalence check per triple",
)
def _t3_5(ctx: TripleCtx) -> Iterator[Check]:
    rhs = all(
        ctx.f.image_mask(ctx.src.interior(s)) & ctx.tgt.full
        & ~ctx.tgt.tab.ssint[ctx.f.image_mask(s) & ctx.tgt.full] == 0
        for s in _side_lattice(ctx, ctx.src, "T3.5")
    )
    ok = rhs == ctx.cls.semiopen_map
    yield ok, None if ok else {"flag": "semiopen_map", "inequality_holds": rhs}


@_claim(
    "T3.6", "asserted-invariant", "triple",
    "for a semiopen map: complement-of-image-of-complement gives a semiclosed set between any target set and any closed superset of its preimage",
    "every (target set, closed superset of preimage) pair of every semiopen-map triple",
)
def _t3_6(ctx: TripleCtx) -> Iterator[Check]:
    if not ctx.cls.semiopen_map:
        return
    closed = [ctx.src.full ^ o for o in ctx.src.t.open_masks]
    for k in _side_lattice(ctx, ctx.tgt, "T3.6"):
        pre = ctx.f.preimage_mask(k)
        for fc in closed:
            if pre & ~fc:
                continue
            h = ctx.tgt.full & ~(ctx.f.image_mask(ctx.src.full ^ fc) & ctx.tgt.full)
            ok = (
                h in ctx.tgt.tab.scss_set
                and k & ~h == 0
                and ctx.f.preimage_mask(h) & ~fc == 0
            )
            yield ok, None if ok else {"set": ctx.tgt.lit(k), "set2": ctx.src.lit(fc)}


@_claim(
    "T3.7", "under-test", "triple",
    "semiclosed map is equivalent to: sscl of image sits inside image of closure, for all sets",
    "one equivalence check per triple",
)
def _t3_7(ctx: TripleCtx) -> Iterator[Check]:
    rhs = all(
        ctx.tgt.tab.sscl[ctx.f.image_mask(s) & ctx.tgt.full]
        & ~(ctx.f.image_mask(ctx.src.closure(s)) & ctx.tgt.full) == 0
        for s in _side_lattice(ctx, ctx.src, "T3.7")
    )
    ok = rhs == ctx.cls.semiclosed_map
    yield ok, None if ok else {"flag": "semiclosed_map", "inequality_holds": rhs}


# --- cover and compactness claims ----------------------------------------------


def _sample_families(ctx: SpaceCtx, tag: str, pool: Sequence[int],
                     count: int) -> Iterator[list[int]]:
    rng = ctx.rng(tag)
    n = len(pool)
    for _ in range(count):
        size = 1 + rng.below(8)
        yield [pool[rng.below(n)] for _ in range(size)]


@_claim(
    "D4.1", "asserted-invariant", "space",
    "cover reports are coherent: cover flag, semiopen flag, FIP flag, and subcover validity all recompute",
    "sampled families of semiopen and arbitrary sets per instance",
)
def _d4_1(ctx: SpaceCtx) -> Iterator[Check]:
    pools = [ctx.tab.soss_masks, list(ctx.sample_masks("D4.1-pool", 12))]
    for pool in pools:
        if not pool:
            continue
        for fam_masks in _sample_families(ctx, "D4.1", pool, 8):
            fam = [SoftSet(ctx.t.signature, m) for m in fam_masks]
            rep = analyze_cover(ctx.t, ctx.t.absolute, fam)
            union = 0
            inter = ctx.full
            for m in fam_masks:
                union |= m
                inter &= m
            ok = (
                rep.is_cover == (union == ctx.full)
                and rep.is_semiopen_cover == all(m in ctx.tab.soss_set for m in fam_masks)
                and rep.fip_holds == (inter != 0)
                and (rep.minimal_subcover is not None) == rep.is_cover
            )
            if ok and rep.is_cover:
                got = 0
                for i in rep.minimal_subcover:
                    got |= fam_masks[i]
                ok = got == ctx.full and len(set(rep.minimal_subcover)) == len(rep.minimal_subcover)
                if ok:
                    for drop in rep.minimal_subcover:
                        red = 0
                        for i in rep.minimal_subcover:
                            if i != drop:
                                red |= fam_masks[i]
                        if red == ctx.full:
                            ok = False
                            break
            if ok and not rep.fip_holds:
                viol = ctx.full
                for i in rep.fip_violation:
                    viol &= fam_masks[i]
                ok = viol == 0
            yield ok, None if ok else {"subfamily": [ctx.lit(m) for m in fam_masks[:12]]}


@_claim(
    "D4.2", "asserted-invariant", "space",
    "finite instances are semicompact; the note records the triviality and the mechanical checks run",
    "one check per instance",
)
def _d4_2(ctx: SpaceCtx) -> Iterator[Check]:
    ok_flag, note = is_semicompact(ctx.t)
    bad = _semicompact_disagreement(ctx.t)
    ok = ok_flag and "finite" in note and bad is None
    yield ok, None if ok else {"note": note, **(bad or {})}


@_claim(
    "R4.3", "asserted-invariant", "space",
    "every open cover is a semiopen cover and compactness passes to semicompactness",
    "sampled open covers per instance",
)
def _r4_3(ctx: SpaceCtx) -> Iterator[Check]:
    ok = all(o in ctx.tab.soss_set for o in ctx.t.open_masks)
    yield ok, None if ok else {"family": "open"}
    for fam_masks in _sample_families(ctx, "R4.3", ctx.t.open_masks, 6):
        fam_masks = list(fam_masks) + [ctx.full]  # force a cover
        rep = analyze_cover(ctx.t, ctx.t.absolute, [SoftSet(ctx.t.signature, m) for m in fam_masks])
        ok = rep.is_cover and rep.is_semiopen_cover and rep.minimal_subcover is not None
        yield ok, None if ok else {"subfamily": [ctx.lit(m) for m in fam_masks[:12]]}


def _fip_literal(masks: Sequence[int], full: int) -> bool:
    # literal FIP: every nonempty subfamily meets, by subset DP (callers pass at most 9 members)
    k = len(masks)
    inter = [full] * (1 << k)
    for s in range(1, 1 << k):
        low = (s & -s).bit_length() - 1
        inter[s] = inter[s & (s - 1)] & masks[low]
        if inter[s] == 0:
            return False
    return True


def _all_subfamilies(masks: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every nonempty subfamily, members in family order, subsets in binary counting order."""
    n = len(masks)
    for s in range(1, 1 << n):
        yield tuple(masks[i] for i in range(n) if s >> i & 1)


def _semicompact_disagreement(t: SoftTopology) -> Optional[dict]:
    """Run both closed-family characterizations of semicompactness on t.

    Semiclosed subfamilies (all of them up to nine members, 24 seeded draws
    otherwise) must have the literal finite intersection property exactly
    when they meet. Seeded families of lattice sets that meet must keep a
    nonnull intersection of their sscl values. Returns the first
    disagreement as a payload, or None.
    """
    tab = tables(t)
    sig = t.signature
    full = t.absolute.mask
    scss = tab.scss_masks
    n = len(scss)

    def sample(draws: int) -> list[tuple[int, ...]]:
        rng = SplitMix64(derive_seed("semicompact", t.encoding()))
        fams = []
        for _ in range(draws):
            size = 1 + rng.below(8)
            fams.append(tuple(scss[i] for i in sorted(rng.sample_distinct(min(size, n), n))))
        return fams

    for fam in _domain("fip-subfamilies", n, _all_subfamilies(scss), sample):
        total = full
        for m in fam:
            total &= m
        if _fip_literal(fam, full) != (total != 0):
            return {"check": "semiclosed-fip", "subfamily": [SoftSet(sig, m).to_literal() for m in fam]}
    rng = SplitMix64(derive_seed("semicompact-sscl", t.encoding()))
    for _ in range(16):
        size = 1 + rng.below(6)
        fam = [rng.below(full + 1) & full for _ in range(size)]
        total = full
        for m in fam:
            total &= m
        if total == 0:
            continue
        got = full
        for m in fam:
            got &= tab.sscl[m]
        if got == 0:
            return {"check": "sscl-fip", "subfamily": [SoftSet(sig, m).to_literal() for m in fam]}
    return None


@_claim(
    "T4.4", "asserted-invariant", "space",
    "a semiclosed family with the finite intersection property meets in a nonnull set",
    "all subfamilies when the semiclosed family is small, sampled otherwise",
    note="on finite instances the property reduces to the whole-family intersection; the literal subfamily scan is still run",
)
def _t4_4(ctx: SpaceCtx) -> Iterator[Check]:
    scss = ctx.tab.scss_masks
    fams = _domain("fip-subfamilies", len(scss), _all_subfamilies(scss),
                   lambda k: _sample_families(ctx, "T4.4", scss, k))
    for fam in fams:
        if not _fip_literal(fam, ctx.full):
            continue
        total = ctx.full
        for m in fam:
            total &= m
        ok = total != 0
        yield ok, None if ok else {"subfamily": [ctx.lit(m) for m in fam[:12]]}


@_claim(
    "T4.5", "asserted-invariant", "space",
    "any family with the finite intersection property has nonnull intersection of sscls",
    "sampled families of arbitrary lattice sets per instance",
)
def _t4_5(ctx: SpaceCtx) -> Iterator[Check]:
    pool = list(ctx.sample_masks("T4.5-pool", 16)) or [ctx.full]
    for fam in _sample_families(ctx, "T4.5", pool, 16):
        if not _fip_literal(fam, ctx.full):
            continue
        total = ctx.full
        for m in fam:
            total &= ctx.tab.sscl[m]
        ok = total != 0
        yield ok, None if ok else {"subfamily": [ctx.lit(m) for m in fam[:12]]}


@_claim(
    "T4.6", "under-test", "triple",
    "the image space of a semicontinuous map from a semicompact source is compact",
    "semicontinuous triples; sampled open covers of the target",
    note="finite targets are compact outright, so this can only confirm",
)
def _t4_6(ctx: TripleCtx) -> Iterator[Check]:
    if not ctx.cls.semicontinuous:
        return
    for fam_masks in _sample_families(ctx.tgt, "T4.6", ctx.tgt.t.open_masks, 4):
        fam_masks = list(fam_masks) + [ctx.tgt.full]
        rep = analyze_cover(
            ctx.t_tgt, ctx.t_tgt.absolute, [SoftSet(ctx.t_tgt.signature, m) for m in fam_masks]
        )
        ok = rep.minimal_subcover is not None
        yield ok, None if ok else {"subfamily": [ctx.tgt.lit(m) for m in fam_masks[:12]]}


@_claim(
    "T4.7", "under-test", "space",
    "a semiclosed subspace of a semicompact space is semicompact",
    "semiclosed carriers among the sampled carriers of every instance",
    note="finite subspaces are semicompact outright; the mechanical characterization checks still run on the subspace",
)
def _t4_7(ctx: SpaceCtx) -> Iterator[Check]:
    for v in ctx.carriers:
        if v.mask not in ctx.tab.scss_set:
            continue
        bad = _semicompact_disagreement(ctx.sub(v).t)
        yield bad is None, None if bad is None else {"carrier": v.to_literal(), **bad}


# --- connectedness claims ------------------------------------------------------


@_claim(
    "D5.1", "asserted-invariant", "space",
    "mask disjointness agrees with the rowwise definition",
    "sampled set pairs per instance",
)
def _d5_1(ctx: SpaceCtx) -> Iterator[Check]:
    rng = ctx.rng("D5.1")
    sig = ctx.t.signature
    for _ in range(16):
        a = SoftSet(sig, rng.below(ctx.full + 1) & ctx.full)
        b = SoftSet(sig, rng.below(ctx.full + 1) & ctx.full)
        rowwise = all(not (set(a.row(p)) & set(b.row(p))) for p in sig.parameters)
        ok = ((a.mask & b.mask) == 0) == rowwise
        yield ok, None if ok else {"set": a.to_literal(), "set2": b.to_literal()}


@_claim(
    "D5.2", "asserted-invariant", "space",
    "the semiseparation finder is sound and complete",
    "one check per instance; completeness re-verified by an oracle pair scan",
)
def _d5_2(ctx: SpaceCtx) -> Iterator[Check]:
    pair = find_semiseparation(ctx.t)
    if pair is not None:
        f, g = pair
        ok = (
            f.mask in ctx.oracle_soss_set
            and g.mask in ctx.oracle_soss_set
            and f.mask & g.mask == 0
            and f.mask != 0
            and g.mask != 0
            and (f.mask | g.mask) == ctx.full
        )
        yield ok, None if ok else {"set": f.to_literal(), "set2": g.to_literal()}
        return
    soss = ctx.tab.oracle_soss_masks
    scan = (  # one lazy verdict
        any(a and b and not a & b and (a | b) == ctx.full for a in soss for b in soss)
        for _ in range(1)
    )
    for exists in _domain("separation-pairs", len(soss) ** 2, scan, lambda _: iter(())):
        yield not exists, {"detail": "finder missed a separation"} if exists else None


@_claim(
    "T5.3", "under-test", "space",
    "a semiconnected subspace carrier lies inside one side of any semiseparation",
    "semiseparated instances crossed with sampled semiconnected carriers",
)
def _t5_3(ctx: SpaceCtx) -> Iterator[Check]:
    pair = find_semiseparation(ctx.t)
    if pair is None:
        return
    h, g = pair
    for v in ctx.carriers:
        if find_semiseparation(ctx.sub(v).t) is not None:
            continue
        ok = v.mask & ~h.mask == 0 or v.mask & ~g.mask == 0
        yield ok, None if ok else {
            "carrier": v.to_literal(), "set": h.to_literal(), "set2": g.to_literal()
        }


@_claim(
    "T5.4", "under-test", "space",
    "anything between a semiconnected carrier and its closure is semiconnected",
    "sampled semiconnected carriers crossed with supersets inside the closure",
)
def _t5_4(ctx: SpaceCtx) -> Iterator[Check]:
    for v in ctx.carriers:
        if find_semiseparation(ctx.sub(v).t) is not None:
            continue
        free = ctx.closure(v.mask) & ~v.mask
        mids = _domain("carrier-gap", free.bit_count(), core.submasks(free),
                       lambda k: _draws(ctx.rng("T5.4", v.mask), free, k))
        for extra in mids:
            k = SoftSet(ctx.t.signature, v.mask | extra)
            ok = find_semiseparation(ctx.sub(k).t) is None
            yield ok, None if ok else {"carrier": v.to_literal(), "set": k.to_literal()}


@_claim(
    "T5.5", "asserted-invariant", "space",
    "a semiseparation exists iff a nonnull proper semi-clopen set exists",
    "one check per instance; the two detectors are independent routes",
)
def _t5_5(ctx: SpaceCtx) -> Iterator[Check]:
    sep = find_semiseparation(ctx.t)
    clop = find_clopen(ctx.t)
    ok = (sep is None) == (clop is None)
    yield ok, None if ok else {
        "separation": None if sep is None else [sep[0].to_literal(), sep[1].to_literal()],
        "clopen": None if clop is None else clop.to_literal(),
    }


@_claim(
    "T5.6", "asserted-invariant", "triple",
    "the image of a semiconnected space under a semicontinuous map has no open separation",
    "semicontinuous triples with semiconnected source",
)
def _t5_6(ctx: TripleCtx) -> Iterator[Check]:
    if not ctx.cls.semicontinuous or find_semiseparation(ctx.t_src) is not None:
        return
    m = ctx.f.image_mask(ctx.src.full) & ctx.tgt.full
    simg = subspace(ctx.t_tgt, SoftSet(ctx.t_tgt.signature, m))
    bad = next(
        (o for o in simg.open_masks
         if o and o != m
         and kernels.interior_mask(m & ~o, simg.closure_table, m) == m & ~o),
        None,
    )
    yield bad is None, None if bad is None else {"set": ctx.tgt.lit(bad)}


@_claim(
    "T5.7", "asserted-invariant", "triple",
    "the image of a semiconnected space under an irresolute map is not split by two target-semiopen pieces",
    "irresolute triples with semiconnected source; pieces drawn from the target's semiopen family",
    note="the intrinsic subspace reading is registered separately",
)
def _t5_7(ctx: TripleCtx) -> Iterator[Check]:
    if not ctx.cls.irresolute or find_semiseparation(ctx.t_src) is not None:
        return
    m = ctx.f.image_mask(ctx.src.full) & ctx.tgt.full
    bad = None
    for s in ctx.tgt.tab.soss_masks:
        if s and s & ~m == 0 and s != m and (m & ~s) in ctx.tgt.tab.soss_set and (m & ~s):
            bad = s
            break
    yield bad is None, None if bad is None else {"set": ctx.tgt.lit(bad)}


@_claim(
    "T5.7.sub", "under-test", "triple",
    "the image subspace under an irresolute map from a semiconnected source is semiconnected in its own right",
    "irresolute triples with semiconnected source; subspace semiopen family",
)
def _t5_7_sub(ctx: TripleCtx) -> Iterator[Check]:
    if not ctx.cls.irresolute or find_semiseparation(ctx.t_src) is not None:
        return
    m = ctx.f.image_mask(ctx.src.full) & ctx.tgt.full
    simg = subspace(ctx.t_tgt, SoftSet(ctx.t_tgt.signature, m))
    pair = find_semiseparation(simg)
    ok = pair is None
    yield ok, None if ok else {"set": pair[0].to_literal(), "set2": pair[1].to_literal()}


# --- separation-axiom claims ---------------------------------------------------


def _axiom_agreement(ctx: SpaceCtx, names: tuple[str, ...]) -> Iterator[Check]:
    for name in names:
        naive = naive_check_axiom(ctx.t, name)
        if naive is None:
            continue
        got = ctx.flag(name)
        ok = got == naive
        yield ok, None if ok else {"axiom": name, "shortcut": got, "direct": naive}


@_claim(
    "D6.1", "asserted-invariant", "space",
    "the point-pair separation decision agrees with the direct quantifier scan",
    "instances small enough for the quadratic scan",
)
def _d6_1(ctx: SpaceCtx) -> Iterator[Check]:
    yield from _axiom_agreement(ctx, ("semi_T0",))


@_claim(
    "E6.2", "asserted-invariant", "space",
    "discrete spaces separate every point pair",
    "discrete instances (every singleton is open, hence semiopen)",
)
def _e6_2(ctx: SpaceCtx) -> Iterator[Check]:
    if not ctx.is_discrete():
        return
    ok = ctx.flag("semi_T0")
    yield ok, None if ok else {"axiom": "semi_T0"}


@_claim(
    "T6.3", "under-test", "space",
    "point-pair separability passes to subspaces",
    "separable instances crossed with sampled carriers",
    note="relies on semiopen sets relativizing, which is not generally valid",
)
def _t6_3(ctx: SpaceCtx) -> Iterator[Check]:
    if not ctx.flag("semi_T0"):
        return
    for v in ctx.carriers:
        sub = ctx.sub(v)
        ok = check_axiom(sub.t, "semi_T0").holds
        yield ok, None if ok else {"carrier": v.to_literal()}


@_claim(
    "D6.4", "asserted-invariant", "space",
    "the two-sided point separation decision agrees with the direct quantifier scan",
    "instances small enough for the quadratic scan",
)
def _d6_4(ctx: SpaceCtx) -> Iterator[Check]:
    yield from _axiom_agreement(ctx, ("semi_T1",))


@_claim(
    "T6.5", "asserted-invariant", "space",
    "if every point is semiclosed then every point pair separates two-sidedly",
    "instances whose points are all semiclosed",
)
def _t6_5(ctx: SpaceCtx) -> Iterator[Check]:
    if not all(p.bit in ctx.tab.scss_set for p in ctx.points):
        return
    ok = ctx.flag("semi_T1")
    yield ok, None if ok else {"axiom": "semi_T1"}


@_claim(
    "T6.6", "under-test", "space",
    "two-sided point separability passes to subspaces",
    "two-sided-separable instances crossed with sampled carriers",
)
def _t6_6(ctx: SpaceCtx) -> Iterator[Check]:
    if not ctx.flag("semi_T1"):
        return
    for v in ctx.carriers:
        ok = check_axiom(ctx.sub(v).t, "semi_T1").holds
        yield ok, None if ok else {"carrier": v.to_literal()}


@_claim(
    "D6.7", "asserted-invariant", "space",
    "the disjoint-neighborhood decision agrees with the direct pair scan",
    "instances small enough for the quadratic scan",
)
def _d6_7(ctx: SpaceCtx) -> Iterator[Check]:
    yield from _axiom_agreement(ctx, ("semi_T2",))


@_claim(
    "T6.8", "under-test", "space",
    "disjoint-neighborhood separability passes to subspaces",
    "disjoint-separable instances crossed with sampled carriers",
)
def _t6_8(ctx: SpaceCtx) -> Iterator[Check]:
    if not ctx.flag("semi_T2"):
        return
    for v in ctx.carriers:
        ok = check_axiom(ctx.sub(v).t, "semi_T2").holds
        yield ok, None if ok else {"carrier": v.to_literal()}


@_claim(
    "D6.9", "asserted-invariant", "space",
    "the point-against-semiclosed-set decision agrees with the direct pair scan",
    "instances small enough for the quadratic scan",
)
def _d6_9(ctx: SpaceCtx) -> Iterator[Check]:
    yield from _axiom_agreement(ctx, ("semiregular", "semi_T3"))


@_claim(
    "R6.10", "under-test", "space",
    "point-against-set separability (with two-sided point separation) passes to subspaces",
    "qualifying instances crossed with sampled carriers",
)
def _r6_10(ctx: SpaceCtx) -> Iterator[Check]:
    if not ctx.flag("semi_T3"):
        return
    for v in ctx.carriers:
        ok = check_axiom(ctx.sub(v).t, "semi_T3").holds
        yield ok, None if ok else {"carrier": v.to_literal()}


@_claim(
    "R6.11", "asserted-invariant", "space",
    "the separation properties form a chain, strongest to weakest",
    "three implications per instance",
)
def _r6_11(ctx: SpaceCtx) -> Iterator[Check]:
    for hi, lo in (("semi_T3", "semi_T2"), ("semi_T2", "semi_T1"), ("semi_T1", "semi_T0")):
        ok = not ctx.flag(hi) or ctx.flag(lo)
        yield ok, None if ok else {"axiom": hi, "axiom2": lo}


@_claim(
    "T6.12", "under-test", "space",
    "a semicompact space with disjoint point neighborhoods separates points from semiclosed sets",
    "instances with the disjoint-neighborhood property (semicompactness holds on all finite instances)",
)
def _t6_12(ctx: SpaceCtx) -> Iterator[Check]:
    if not ctx.flag("semi_T2"):
        return
    ok = ctx.flag("semi_T3")
    yield ok, None if ok else {"axiom": "semi_T3", "witnesses": [dict(w) for w in ctx.report.get("semi_T3").witnesses[:2]]}


@_claim(
    "D6.13", "asserted-invariant", "space",
    "the disjoint-semiclosed-pair decision agrees with the direct pair scan",
    "instances small enough for the quadratic scan",
)
def _d6_13(ctx: SpaceCtx) -> Iterator[Check]:
    yield from _axiom_agreement(ctx, ("seminormal", "semi_T4"))


@_claim(
    "R6.14", "asserted-invariant", "space",
    "separating disjoint semiclosed pairs (with point separation) implies separating points from semiclosed sets",
    "one implication per instance",
    note="kept in the asserted tier by contract; the classical proof route needs points to be semiclosed",
)
def _r6_14(ctx: SpaceCtx) -> Iterator[Check]:
    ok = not ctx.flag("semi_T4") or ctx.flag("semi_T3")
    yield ok, None if ok else {"axiom": "semi_T4", "axiom2": "semi_T3"}


@_claim(
    "T6.15", "asserted-invariant", "space",
    "seminormality equals its nested-set characterization",
    "one equivalence per instance; exhaustive pair scan on small families, sampled with derived pairs otherwise",
)
def _t6_15(ctx: SpaceCtx) -> Iterator[Check]:
    direct = ctx.flag("seminormal")
    char, wit, _ = seminormal_characterization(ctx.t)
    ok = direct == char
    yield ok, None if ok else {"direct": direct, "characterization": char, "pair": wit}


def _disjoint_scss_pairs(ctx: SpaceCtx) -> list[tuple[int, int]]:
    """Every disjoint pair of semiclosed sets, else the first ones in family order."""
    pairs = ((f, g) for f, g in combinations(ctx.tab.scss_masks, 2) if f & g == 0)
    head = list(islice(pairs, DOMAINS["disjoint-scss-pairs"].limit + 1))
    return _domain("disjoint-scss-pairs", len(head), head, lambda k: head[:k])


@_claim(
    "T6.16", "under-test", "triple",
    "a surjective, irresolute, semiopen map carries seminormality to the target",
    "qualifying triples",
)
def _t6_16(ctx: TripleCtx) -> Iterator[Check]:
    if not (
        ctx.f.is_surjective
        and ctx.cls.irresolute
        and ctx.cls.semiopen_map
        and check_axiom(ctx.t_src, "seminormal").holds
    ):
        return
    ok = check_axiom(ctx.t_tgt, "seminormal").holds
    yield ok, None if ok else {"axiom": "seminormal"}


@_claim(
    "T6.16.open", "under-test", "triple",
    "in that setting, images of the separating semiopen pair are open, disjoint, and cover the original pair",
    "disjoint semiclosed target pairs of qualifying triples",
    note="literal reading of the concluding step; the semiopen reading is the parent claim",
)
def _t6_16_open(ctx: TripleCtx) -> Iterator[Check]:
    if not (
        ctx.f.is_surjective
        and ctx.cls.irresolute
        and ctx.cls.semiopen_map
        and check_axiom(ctx.t_src, "seminormal").holds
    ):
        return
    src, tgt = ctx.src, ctx.tgt
    for l_m, m_m in _disjoint_scss_pairs(tgt):
        pl = ctx.f.preimage_mask(l_m)
        pm = ctx.f.preimage_mask(m_m)
        if pl & pm or pl not in src.tab.scss_set or pm not in src.tab.scss_set:
            continue
        found = None
        for s1 in src.tab.soss_masks:
            if pl & ~s1 == 0:
                s2 = src.tab.ssint[src.full & ~s1]
                if pm & ~s2 == 0:
                    found = (s1, s2)
                    break
        if found is None:
            continue
        i1 = ctx.f.image_mask(found[0]) & tgt.full
        i2 = ctx.f.image_mask(found[1]) & tgt.full
        ok = (tgt.interior(i1) == i1 and tgt.interior(i2) == i2
              and i1 & i2 == 0 and l_m & ~i1 == 0 and m_m & ~i2 == 0)
        yield ok, None if ok else {"set": tgt.lit(l_m), "set2": tgt.lit(m_m)}


@_claim(
    "T6.17", "under-test", "space",
    "a semiclosed subspace of a seminormal space is seminormal",
    "seminormal instances crossed with semiclosed sampled carriers",
)
def _t6_17(ctx: SpaceCtx) -> Iterator[Check]:
    if not ctx.flag("seminormal"):
        return
    for v in ctx.carriers:
        if v.mask not in ctx.tab.scss_set:
            continue
        ok = check_axiom(ctx.sub(v).t, "seminormal").holds
        yield ok, None if ok else {"carrier": v.to_literal()}


@_claim(
    "T6.18", "under-test", "space",
    "a semicompact space with disjoint point neighborhoods separates disjoint semiclosed pairs",
    "instances with the disjoint-neighborhood property",
)
def _t6_18(ctx: SpaceCtx) -> Iterator[Check]:
    if not ctx.flag("semi_T2"):
        return
    ok = ctx.flag("seminormal")
    yield ok, None if ok else {"axiom": "seminormal"}


# --- artifact invariants --------------------------------------------------------


@_claim(
    "INV.CORE.LATTICE", "asserted-invariant", "space",
    "union/intersection satisfy the lattice laws",
    "sampled set triples per instance",
)
def _inv_lattice(ctx: SpaceCtx) -> Iterator[Check]:
    rng = ctx.rng("INV.CORE.LATTICE")
    sig = ctx.t.signature
    for _ in range(12):
        a, b, c = (SoftSet(sig, rng.below(ctx.full + 1) & ctx.full) for _ in range(3))
        ok = (
            (a | b) == core.union(sig, (b, a))
            and (a & b) == core.intersection(sig, (b, a))
            and ((a | b) | c) == (a | (b | c))
            and ((a & b) & c) == (a & (b & c))
            and (a | (a & b)) == a
            and (a & (a | b)) == a
            and (a & (b | c)) == ((a & b) | (a & c))
            and (a | a) == a
        )
        yield ok, None if ok else {
            "set": a.to_literal(), "set2": b.to_literal(), "set3": c.to_literal()
        }
    a = SoftSet(sig, rng.below(ctx.full + 1) & ctx.full)
    b = SoftSet(sig, rng.below(ctx.full + 1) & ctx.full)
    ok = (a | b).mask == (a.mask | b.mask) and (a & b).mask == (a.mask & b.mask)
    yield ok, None if ok else {"set": a.to_literal(), "set2": b.to_literal()}


@_claim(
    "INV.CORE.DEMORGAN", "asserted-invariant", "space",
    "complements obey the De Morgan and involution laws",
    "sampled set pairs per instance (whole spaces)",
)
def _inv_demorgan(ctx: SpaceCtx) -> Iterator[Check]:
    if ctx.full != ctx.t.signature.full_mask:
        return
    rng = ctx.rng("INV.CORE.DEMORGAN")
    sig = ctx.t.signature
    for _ in range(12):
        a = SoftSet(sig, rng.below(ctx.full + 1))
        b = SoftSet(sig, rng.below(ctx.full + 1))
        ok = (
            (~(a | b)).mask == ((~a) & (~b)).mask
            and (~(a & b)).mask == ((~a) | (~b)).mask
            and (~~a).mask == a.mask
        )
        yield ok, None if ok else {"set": a.to_literal(), "set2": b.to_literal()}


@_claim(
    "INV.CORE.ORDER", "asserted-invariant", "space",
    "the containment order is a partial order aligned with the lattice operations",
    "sampled set pairs and triples per instance",
)
def _inv_order(ctx: SpaceCtx) -> Iterator[Check]:
    rng = ctx.rng("INV.CORE.ORDER")
    sig = ctx.t.signature
    for _ in range(12):
        a, b, c = (SoftSet(sig, rng.below(ctx.full + 1) & ctx.full) for _ in range(3))
        sub = core.is_subset(a, b)
        ok = (
            sub == ((a | b) == b)
            and sub == ((a & b) == a)
            and core.is_subset(a, a)
            and (not (sub and core.is_subset(b, a)) or a == b)
            and (not (sub and core.is_subset(b, c)) or core.is_subset(a, c))
        )
        yield ok, None if ok else {
            "set": a.to_literal(), "set2": b.to_literal(), "set3": c.to_literal()
        }


@_claim(
    "INV.CORE.POINT", "asserted-invariant", "space",
    "a set is the union of its points and membership is bitwise",
    "every lattice set when small, sampled otherwise",
)
def _inv_point(ctx: SpaceCtx) -> Iterator[Check]:
    masks = _domain("point-lattice", ctx.full.bit_count(), ctx.lat(),
                    lambda k: ctx.sample_masks("INV.CORE.POINT", k))
    for s in masks:
        pts = [p for p in ctx.points if p.bit & s]
        u = 0
        for p in pts:
            u |= p.bit
        ok = u == s and len(pts) == s.bit_count()
        yield ok, None if ok else {"set": ctx.lit(s)}


@_claim(
    "INV.TOPO.DUALITY", "asserted-invariant", "space",
    "closure is the complement of the interior of the complement",
    "every lattice set; closure computed directly from closed supersets",
)
def _inv_duality(ctx: SpaceCtx) -> Iterator[Check]:
    for s in ctx.lat():
        ok = ctx.closure(s) == ctx.full ^ ctx.interior(ctx.full ^ s)
        yield ok, None if ok else {"set": ctx.lit(s)}


@_claim(
    "INV.TOPO.KURATOWSKI", "asserted-invariant", "space",
    "interior and closure behave as idempotent monotone (de/in)flationary operators that distribute as required",
    "every lattice set plus nested pairs",
)
def _inv_kuratowski(ctx: SpaceCtx) -> Iterator[Check]:
    for s in ctx.lat():
        i, c = ctx.interior(s), ctx.closure(s)
        ok = (
            i & ~s == 0
            and s & ~c == 0
            and ctx.interior(i) == i
            and ctx.closure(c) == c
        )
        yield ok, None if ok else {"set": ctx.lit(s)}
    ok = ctx.interior(ctx.full) == ctx.full and ctx.closure(0) == 0
    yield ok, None if ok else {"set": ctx.lit(ctx.full)}
    for a, b in _pairs(ctx, "INV.TOPO.KURATOWSKI"):
        ok = (
            ctx.interior(a & b) == (ctx.interior(a) & ctx.interior(b))
            and ctx.closure(a | b) == (ctx.closure(a) | ctx.closure(b))
        )
        yield ok, None if ok else {"set": ctx.lit(a), "set2": ctx.lit(b)}


@_claim(
    "INV.TOPO.SUBBASIS", "asserted-invariant", "space",
    "subbasis generation is idempotent on existing open families and always yields a valid space",
    "the open family itself plus sampled seed families (whole spaces)",
)
def _inv_subbasis(ctx: SpaceCtx) -> Iterator[Check]:
    if ctx.full != ctx.t.signature.full_mask:
        return
    sig = ctx.t.signature
    regen = from_subbasis(sig, [SoftSet(sig, m) for m in ctx.t.open_masks])
    ok = regen == ctx.t
    yield ok, None if ok else {"detail": "regeneration changed the open family"}
    rng = ctx.rng("INV.TOPO.SUBBASIS")
    for _ in range(4):
        seeds = [SoftSet(sig, rng.below(ctx.full + 1)) for _ in range(1 + rng.below(4))]
        t2 = from_subbasis(sig, seeds)
        viol = kernels.check_family(list(t2.open_masks), ctx.full)
        ok = viol is None and all(t2.is_open(s) for s in seeds)
        yield ok, None if ok else {"subfamily": [s.to_literal() for s in seeds]}


@_claim(
    "INV.TOPO.SUBSPACE", "asserted-invariant", "space",
    "restricting to the whole carrier changes nothing and nested restrictions compose by intersection",
    "sampled carrier pairs per whole-space instance",
)
def _inv_subspace(ctx: SpaceCtx) -> Iterator[Check]:
    if ctx.full != ctx.t.signature.full_mask:
        return
    sig = ctx.t.signature
    ok = subspace(ctx.t, ctx.t.absolute) == ctx.t
    yield ok, None if ok else {"detail": "whole-carrier restriction moved the space"}
    rng = ctx.rng("INV.TOPO.SUBSPACE")
    for _ in range(4):
        c1 = SoftSet(sig, rng.below(ctx.full + 1))
        c2 = SoftSet(sig, rng.below(ctx.full + 1))
        two_step = subspace(subspace(ctx.t, c1), c2)
        one_step = subspace(ctx.t, c1 & c2)
        ok = two_step == one_step
        if ok:
            sub = subspace(ctx.t, c1)
            want = sorted({o & c1.mask for o in ctx.t.open_masks})
            ok = list(sub.open_masks) == want
        yield ok, None if ok else {"set": c1.to_literal(), "set2": c2.to_literal()}


@_claim(
    "INV.MAPS.PREIMAGE-HOM", "asserted-invariant", "triple",
    "preimage is a Boolean-algebra homomorphism and image preserves unions and order",
    "sampled target and source set pairs per triple",
)
def _inv_preimage(ctx: TripleCtx) -> Iterator[Check]:
    f = ctx.f
    rng = ctx.rng("INV.MAPS.PREIMAGE-HOM")
    ok = f.preimage_mask(ctx.tgt.full) == ctx.src.full and f.preimage_mask(0) == 0
    yield ok, None if ok else {"detail": "bounds"}
    for _ in range(12):
        a = rng.below(ctx.tgt.full + 1)
        b = rng.below(ctx.tgt.full + 1)
        ok = (
            f.preimage_mask(a | b) == (f.preimage_mask(a) | f.preimage_mask(b))
            and f.preimage_mask(a & b) == (f.preimage_mask(a) & f.preimage_mask(b))
            and f.preimage_mask(ctx.tgt.full ^ a) == ctx.src.full ^ f.preimage_mask(a)
            and f.image_mask(f.preimage_mask(a)) & ~a == 0
        )
        yield ok, None if ok else {"set": ctx.tgt.lit(a), "set2": ctx.tgt.lit(b)}
    for _ in range(6):
        s = rng.below(ctx.src.full + 1)
        t2 = rng.below(ctx.src.full + 1)
        ok = (
            f.image_mask(s | t2) == (f.image_mask(s) | f.image_mask(t2))
            and s & ~f.preimage_mask(f.image_mask(s) & ctx.tgt.full) == 0
        )
        yield ok, None if ok else {"set": ctx.src.lit(s), "set2": ctx.src.lit(t2)}


def _brute_min_cover(universe: int, masks: list[int]) -> Optional[int]:
    """Size of the smallest subfamily covering `universe`, over every subset.

    The union of subset s is the union of s without its lowest member, plus
    that member, so each of the 2^k unions costs one OR.
    """
    unions = [0] * (1 << len(masks))
    best = 0 if universe == 0 else None
    for s in range(1, len(unions)):
        low = s & -s
        got = unions[s] = unions[s & (s - 1)] | masks[low.bit_length() - 1]
        if universe & ~got == 0:
            size = s.bit_count()
            if best is None or size < best:
                best = size
    return best


@_claim(
    "INV.ANALYSIS.SUBCOVER", "asserted-invariant", "space",
    "branch-and-bound minimal subcovers match the brute-force optimum",
    "sampled families of at most ten members per instance",
)
def _inv_subcover(ctx: SpaceCtx) -> Iterator[Check]:
    rng = ctx.rng("INV.ANALYSIS.SUBCOVER")
    for _ in range(6):
        k = 3 + rng.below(8)
        masks = [rng.below(ctx.full + 1) & ctx.full for _ in range(k)]
        carrier = rng.below(ctx.full + 1) & ctx.full
        got = kernels.min_cover(carrier, masks)
        want = _brute_min_cover(carrier, masks)
        if want is None:
            ok = got is None
        else:
            ok = got is not None and len(got) == want
            if ok:
                u = 0
                for i in got:
                    u |= masks[i]
                ok = carrier & ~u == 0
        yield ok, None if ok else {
            "carrier": ctx.lit(carrier), "subfamily": [ctx.lit(m) for m in masks]
        }


ASSERTED_IDS = tuple(c.id for c in REGISTRY.values() if c.kind == "asserted-invariant")
UNDER_TEST_IDS = tuple(c.id for c in REGISTRY.values() if c.kind == "under-test")
