"""Instance generation, corpus persistence, and the claim suite runner.

A corpus is an ordered list of whole spaces plus the CorpusSpec that produced it.
Its fingerprint is a hash over the sorted canonical encodings, so identical
specs yield identical fingerprints.

The suite runner evaluates every selected claim on every instance (spaces,
plus function triples derived deterministically from the corpus), merges
per-(claim, instance) results in instance order, and assembles one record
per claim. Instances are the corpus's own space objects, shared by every
triple over them, so per-space caches are built once per run. Asserted-tier
failures abort after the merge; under-test refutations are recorded with
self-contained, replayable witness bundles.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from . import claims as claims_mod
from .claims import (
    BUILTIN_SPACES,
    REGISTRY,
    SEMANTICS_NOTES,
    SpaceCtx,
    TripleCtx,
    evaluate_claim,
)
from .core import SoftSet, SpaceSignature, bit_cap
from .errors import BitCapExceeded, CorpusError, InternalAssertionError, LiteralError
from .maps import SoftFunction
from .prng import SplitMix64, derive_seed
from .topology import SoftTopology, from_subbasis, load_space, save_space
from .version import TOOL

WITNESS_CAP = 24
EXHAUSTIVE_BIT_LIMIT = 5


def auto_signature(universe: int, parameters: int) -> SpaceSignature:
    """h1..hN / e1..eM labels; the shape used by generated corpora."""
    if universe < 1 or parameters < 1:
        raise LiteralError("universe and parameter counts must be at least 1")
    return SpaceSignature(
        tuple(f"h{j + 1}" for j in range(universe)),
        tuple(f"e{i + 1}" for i in range(parameters)),
    )


@dataclass(frozen=True)
class CorpusSpec:
    """How a corpus is produced; identical specs give identical corpora."""

    mode: str  # "exhaustive" | "random"
    universe: int
    parameters: int
    count: int = 0
    seed: int = 0
    density: float = 0.0

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise LiteralError(f"unknown corpus mode {self.mode!r}")
        bits = self.universe * self.parameters
        if self.mode == "exhaustive" and bits > EXHAUSTIVE_BIT_LIMIT:
            raise BitCapExceeded(
                f"exhaustive corpora stop at {EXHAUSTIVE_BIT_LIMIT} lattice bits, got {bits}"
            )
        if self.mode == "random":
            if self.count < 0:
                raise LiteralError("count must be nonnegative")
            if not 0.0 <= self.density <= 1.0:
                raise LiteralError("density must lie in [0, 1]")

    def signature(self) -> SpaceSignature:
        return auto_signature(self.universe, self.parameters)

    def to_obj(self) -> dict:
        obj = {"mode": self.mode, "universe": self.universe, "parameters": self.parameters}
        if self.mode == "random":
            obj.update(count=self.count, seed=self.seed, density=self.density)
        return obj


def parse_corpus_spec(obj) -> CorpusSpec:
    if not isinstance(obj, dict):
        raise LiteralError("corpus spec must be an object")
    known = {"mode", "universe", "parameters", "count", "seed", "density"}
    extra = set(obj) - known
    if extra:
        raise LiteralError(f"unknown corpus spec fields: {sorted(extra)}")
    ints = {name: obj.get(name, 0) for name in ("universe", "parameters", "count", "seed")}
    density = obj.get("density", 0.0)
    for name, value in ints.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise LiteralError(f"corpus spec field {name!r} must be an integer, got {value!r}")
    if isinstance(density, bool) or not isinstance(density, (int, float)):
        raise LiteralError(f"corpus spec field 'density' must be a number, got {density!r}")
    return CorpusSpec(mode=obj.get("mode", "random"), density=float(density), **ints)


# --- generation ------------------------------------------------------------


def enumerate_topologies(sig: SpaceSignature) -> Iterator[SoftTopology]:
    """Every valid open family on the signature, exactly once, canonical order.

    A finite topology is a preorder on its cells: each cell x has a minimal
    open neighbourhood N(x) that holds x, and y in N(x) forces N(y) within
    N(x). The search assigns N(x) cell by cell, checking that condition both
    ways against every cell already assigned, and each full assignment is
    the family of unions of its N(x). Order is by the family's membership
    bitmap over ascending masks, so the indiscrete family comes first and
    the discrete family last.
    """
    bits = sig.bits
    if bits > EXHAUSTIVE_BIT_LIMIT:
        raise BitCapExceeded(
            f"exhaustive enumeration stops at {EXHAUSTIVE_BIT_LIMIT} lattice bits, got {bits}"
        )
    full = sig.full_mask
    nbhds = [0] * bits
    found = []

    def assign(x: int) -> None:
        if x == bits:
            seeds = [SoftSet(sig, nb) for nb in nbhds]
            found.append(from_subbasis(sig, seeds, cap=bits))
            return
        bit = 1 << x
        for nb in range(bit, full + 1):
            if nb & bit and all(
                (not nb >> y & 1 or nbhds[y] & ~nb == 0)
                and (not nbhds[y] & bit or nb & ~nbhds[y] == 0)
                for y in range(x)
            ):
                nbhds[x] = nb
                assign(x + 1)

    assign(0)
    yield from sorted(found, key=lambda t: sum(1 << m for m in t.open_masks))


def random_topology(sig: SpaceSignature, seed: int, density: float) -> SoftTopology:
    """Deterministic in (sig, seed, density): distinct seed sets, then closure."""
    if not 0.0 <= density <= 1.0:
        raise LiteralError("density must lie in [0, 1]")
    if sig.bits > bit_cap():
        raise BitCapExceeded(f"{sig.bits}-bit lattice exceeds the configured cap")
    lattice = 1 << sig.bits
    want = math.ceil(density * lattice)
    rng = SplitMix64(derive_seed("random-topology", sig.key(), seed, repr(float(density))))
    picks = rng.sample_distinct(want, lattice)
    return from_subbasis(sig, [SoftSet(sig, m) for m in picks])


@dataclass
class Corpus:
    instances: list[SoftTopology]
    spec: Optional[CorpusSpec] = None

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def fingerprint(self) -> str:
        return fingerprint_of(self.instances)


def fingerprint_of(instances: Sequence[SoftTopology]) -> str:
    blob = "\n".join(sorted(t.encoding() for t in instances))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _instance_seed(spec: CorpusSpec, index: int) -> int:
    return derive_seed("corpus-instance", spec.seed, index)


def worker_count(jobs: int) -> int:
    """Validated worker count: below 1 is an error, above the CPU count is clamped."""
    if jobs < 1:
        raise LiteralError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def build_corpus(spec: CorpusSpec) -> Corpus:
    """Materialize a CorpusSpec; index order is part of the corpus identity."""
    sig = spec.signature()
    if spec.mode == "exhaustive":
        return Corpus(list(enumerate_topologies(sig)), spec)
    # spaces stay live; only imported files are re-validated
    spaces = [random_topology(sig, _instance_seed(spec, i), spec.density)
              for i in range(spec.count)]
    return Corpus(spaces, spec)


# --- persistence -----------------------------------------------------------


def _instance_filename(t: SoftTopology) -> str:
    digest = hashlib.sha256(t.encoding().encode("utf-8")).hexdigest()
    return f"{digest[:16]}.json"


def export_corpus(corpus: Corpus, path: str) -> str:
    """Write manifest + one space file per instance; returns the fingerprint."""
    try:
        os.makedirs(path, exist_ok=True)
        names = []
        for t in corpus.instances:
            name = _instance_filename(t)
            names.append(name)
            save_space(t, os.path.join(path, name))
        manifest = {
            "tool": TOOL,
            "spec": None if corpus.spec is None else corpus.spec.to_obj(),
            "count": len(corpus.instances),
            "fingerprint": corpus.fingerprint,
            "instances": names,
        }
        with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise CorpusError(f"cannot write corpus {path}: {exc}")
    return corpus.fingerprint


def import_corpus(path: str) -> Corpus:
    manifest_path = os.path.join(path, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise CorpusError(f"cannot read {manifest_path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CorpusError(f"manifest is not valid JSON: {exc}")
    if not isinstance(manifest, dict) or "fingerprint" not in manifest or "instances" not in manifest:
        raise CorpusError("manifest needs 'fingerprint' and 'instances'")
    if not isinstance(manifest["fingerprint"], str):
        raise CorpusError("manifest 'fingerprint' must be a string")
    names = manifest["instances"]
    if not isinstance(names, list):
        raise CorpusError("manifest 'instances' must be a list of file names")
    for n in names:
        if not isinstance(n, str) or os.path.basename(n) != n or n in ("", ".", ".."):
            raise CorpusError(f"manifest instance {n!r} is not a file name in the corpus")
    count = manifest.get("count", len(names))
    if type(count) is not int or count != len(names):
        raise CorpusError(f"manifest 'count' is {count!r}, but 'instances' has length {len(names)}")
    instances = [load_space(os.path.join(path, n)) for n in names]
    spec = None if manifest.get("spec") is None else parse_corpus_spec(manifest["spec"])
    corpus = Corpus(instances, spec)
    if corpus.fingerprint != manifest["fingerprint"]:
        raise CorpusError(
            f"fingerprint mismatch: manifest says {manifest['fingerprint'][:16]}…, "
            f"instances hash to {corpus.fingerprint[:16]}…"
        )
    return corpus


# --- suite -----------------------------------------------------------------


@dataclass
class ClaimRecord:
    claim_id: str
    kind: str
    statement: str
    quantifier: str
    status: str  # holds | refuted | exhausted
    instances: int  # scope-matching instances the claim ran on
    hypotheses: int  # hypothesis instances met across them
    failures: int
    witnesses: list[dict] = field(default_factory=list)
    note: str = ""

    def to_obj(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "kind": self.kind,
            "statement": self.statement,
            "quantifier": self.quantifier,
            "status": self.status,
            "instances": self.instances,
            "hypotheses": self.hypotheses,
            "failures": self.failures,
            "witnesses": self.witnesses,
            "note": self.note,
        }


@dataclass
class SuiteResult:
    records: list[ClaimRecord]
    fingerprint: str
    space_count: int
    triple_count: int
    asserted_failures: list[dict] = field(default_factory=list)
    notes: tuple[str, ...] = SEMANTICS_NOTES

    def record(self, claim_id: str) -> ClaimRecord:
        for r in self.records:
            if r.claim_id == claim_id:
                return r
        raise LiteralError(f"no record for claim {claim_id!r}")

    def to_obj(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "spaces": self.space_count,
            "triples": self.triple_count,
            "semantics": list(self.notes),
            "records": [r.to_obj() for r in self.records],
            "asserted_failures": self.asserted_failures,
            "result": "asserted-violation" if self.asserted_failures else "ok",
        }


def _select_claims(claim_ids: Optional[Sequence[str]]) -> list:
    if claim_ids is None:
        return list(REGISTRY.values())
    unknown = [c for c in claim_ids if c not in REGISTRY]
    if unknown:
        raise LiteralError(f"unknown claim id: {', '.join(unknown)}")
    wanted = set(claim_ids)
    return [c for c in REGISTRY.values() if c.id in wanted]


# A suite item is (label, space) or (label, function, source, target), over
# the live objects of the run; JSON is built only for witness bundles.
SpaceItem = tuple[str, SoftTopology]
TripleItem = tuple[str, SoftFunction, SoftTopology, SoftTopology]


def _space_items(corpus: Corpus) -> list[SpaceItem]:
    """Builtins then corpus instances; a space above the bit cap is refused
    here, before any claim walks its lattice."""
    cap = bit_cap()

    def admit(name: str, t: SoftTopology) -> SoftTopology:
        cells = t.absolute.mask.bit_count()
        if cells > cap:
            raise BitCapExceeded(f"{name} has {cells} cells, above the {cap}-bit cap")
        return t

    # pinned reference spaces go first so their witnesses survive the cap
    items = [(label, admit(label, build())) for label, build in BUILTIN_SPACES]
    for i, t in enumerate(corpus.instances):
        if not t.absolute.is_absolute:
            raise LiteralError("only whole spaces have a file form; export the base space")
        admit(f"corpus[{i}]", t)
        digest = hashlib.sha256(t.encoding().encode("utf-8")).hexdigest()[:8]
        items.append((f"corpus[{i}]:{digest}", t))
    return items


def _derived_triples(space_items: list[SpaceItem], fingerprint: str, cross: int) -> list[TripleItem]:
    """Identity triple per space plus seeded random cross maps."""
    items = []
    for label, t in space_items:
        sig = t.signature
        ident = SoftFunction(sig, sig, tuple(range(sig.n)), tuple(range(sig.m)))
        items.append((f"id:{label}", ident, t, t))
    rng = SplitMix64(derive_seed("suite-triples", fingerprint))
    n_spaces = len(space_items)
    for k in range(cross):
        sl, t_src = space_items[rng.below(n_spaces)]
        tl, t_tgt = space_items[rng.below(n_spaces)]
        point_map = tuple(rng.below(t_tgt.signature.n) for _ in range(t_src.signature.n))
        param_map = tuple(rng.below(t_tgt.signature.m) for _ in range(t_src.signature.m))
        f = SoftFunction(t_src.signature, t_tgt.signature, point_map, param_map)
        items.append((f"map[{k}]:{sl}->{tl}", f, t_src, t_tgt))
    return items


def _ctx(item):
    """Evaluation context over an item's live objects."""
    if len(item) == 2:
        label, t = item
        return SpaceCtx(t, label)
    label, f, t_src, t_tgt = item
    return TripleCtx(f, t_src, t_tgt, label)


def _eval_item(args: tuple) -> tuple[int, list]:
    """Evaluate the selected claims on one instance; also the worker entry point."""
    idx, item, claim_ids = args
    ctx = _ctx(item)
    out = []
    for cid in claim_ids:
        claim = REGISTRY[cid]
        if claim.scope != ctx.kind:
            continue
        try:
            hyp, failures = evaluate_claim(claim, ctx)
            out.append((cid, hyp, failures, None))
        except Exception as exc:  # recorded, re-raised deterministically after merge
            out.append((cid, 0, [], f"{type(exc).__name__}: {exc}"))
    return idx, out


def run_claim_suite(
    corpus: Corpus,
    claim_ids: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cross_triples: int = 48,
    raise_on_asserted: bool = True,
) -> SuiteResult:
    selected = _select_claims(claim_ids)
    jobs = worker_count(jobs)
    if cross_triples < 0:
        raise LiteralError(f"cross-triples must be at least 0, got {cross_triples}")
    space_items = _space_items(corpus)
    fp = corpus.fingerprint
    all_fp = fingerprint_of([t for _, t in space_items])
    triple_items = _derived_triples(space_items, all_fp, cross_triples)
    items = space_items + triple_items
    cids = [c.id for c in selected]
    work = [(i, item, cids) for i, item in enumerate(items)]

    if jobs > 1 and len(work) > 1:
        # workers receive the live objects, pickled; nothing is re-parsed
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_eval_item, work, chunksize=max(1, len(work) // (jobs * 4))))
    else:
        raw = [_eval_item(w) for w in work]
    raw.sort(key=lambda r: r[0])  # merge in instance order

    # one pass groups the results by claim, each group in instance order
    by_claim: dict[str, list] = {cid: [] for cid in cids}
    for idx, res in raw:
        for cid, hyp, failures, err in res:
            by_claim[cid].append((idx, hyp, failures, err))

    records = []
    asserted_failures: list[dict] = []
    for claim in selected:
        hyp_total = fail_total = 0
        witnesses: list[dict] = []
        internal: list[str] = []
        ran = len(by_claim[claim.id])
        for idx, hyp, failures, err in by_claim[claim.id]:
            label = items[idx][0]
            if err is not None:
                internal.append(f"{label}: {err}")
                continue
            hyp_total += hyp
            fail_total += len(failures)
            for payload in failures[:WITNESS_CAP - len(witnesses)]:
                bundle = {"claim": claim.id, "label": label, "payload": payload}
                bundle.update(_ctx(items[idx]).to_bundle())
                witnesses.append(bundle)
        if ran == 0:
            raise CorpusError(
                f"coverage gap: no instance exercises claim {claim.id} "
                f"(scope {claim.scope!r}); the run is invalid"
            )
        if internal:
            asserted_failures.append({
                "claim": claim.id, "kind": "internal-error", "details": internal[:4],
            })
            status = "refuted"
        elif fail_total:
            status = "refuted"
        elif hyp_total:
            status = "holds"
        else:
            status = "exhausted"
        if status == "refuted" and claim.kind == "asserted-invariant":
            asserted_failures.append({
                "claim": claim.id,
                "kind": "asserted-violation",
                "witnesses": witnesses[:2],
            })
        records.append(ClaimRecord(
            claim_id=claim.id,
            kind=claim.kind,
            statement=claim.statement,
            quantifier=claim.quantifier,
            status=status,
            instances=ran,
            hypotheses=hyp_total,
            failures=fail_total,
            witnesses=witnesses,
            note=claim.note,
        ))

    result = SuiteResult(
        records=records,
        fingerprint=fp,
        space_count=len(space_items),
        triple_count=len(triple_items),
        asserted_failures=asserted_failures,
    )
    if raise_on_asserted and asserted_failures:
        lines = [f"{d['claim']}: {d['kind']}" for d in asserted_failures]
        raise InternalAssertionError(
            "asserted-tier claims failed: " + "; ".join(lines)
        )
    return result


# --- reporting and witness bundles ------------------------------------------


def format_suite(result: SuiteResult) -> str:
    """Line-oriented report; byte-identical for identical merged results."""
    lines = [
        "suite report",
        f"corpus-fingerprint: {result.fingerprint}",
        f"spaces: {result.space_count}",
        f"triples: {result.triple_count}",
        "semantics:",
    ]
    lines.extend(f"  - {n}" for n in result.notes)
    lines.append(f"claims: {len(result.records)}")
    for r in result.records:
        lines.append(
            f"{r.claim_id} {r.kind} {r.status} "
            f"instances={r.instances} hypotheses={r.hypotheses} failures={r.failures}"
        )
        if r.note:
            lines.append(f"  note: {r.note}")
        if r.status == "refuted":
            for w in r.witnesses[:3]:
                payload = json.dumps(w["payload"], sort_keys=True)
                lines.append(f"  witness: {w['label']} {payload}")
            if r.failures > 3:
                lines.append(f"  (+{r.failures - 3} more failures)")
        elif r.status == "holds":
            lines.append(f"  scope: {r.quantifier}")
    lines.append(
        "result: asserted-violation" if result.asserted_failures else "result: ok"
    )
    return "\n".join(lines) + "\n"


def export_witnesses(result: SuiteResult, root: str) -> int:
    """Write refuted-claim bundles under <root>/witnesses/<claim_id>/<n>/."""
    base = os.path.join(root, "witnesses")
    written = 0
    try:
        for r in result.records:
            for n, bundle in enumerate(r.witnesses):
                d = os.path.join(base, r.claim_id, str(n))
                os.makedirs(d, exist_ok=True)
                meta = {
                    "tool": TOOL,
                    "claim": bundle["claim"],
                    "label": bundle["label"],
                    "kind": r.kind,
                    "statement": r.statement,
                }
                with open(os.path.join(d, "claim.json"), "w", encoding="utf-8") as fh:
                    json.dump(meta, fh, indent=1)
                    fh.write("\n")
                with open(os.path.join(d, "payload.json"), "w", encoding="utf-8") as fh:
                    json.dump(bundle["payload"], fh, indent=1, sort_keys=True)
                    fh.write("\n")
                kind_file = "space.json" if "space" in bundle else "function.json"
                with open(os.path.join(d, kind_file), "w", encoding="utf-8") as fh:
                    json.dump(bundle.get("space") or bundle.get("function"), fh, indent=1)
                    fh.write("\n")
                written += 1
    except OSError as exc:
        raise CorpusError(f"cannot write witnesses under {root}: {exc}")
    return written


def load_witness_dir(path: str) -> dict:
    """Rebuild a replayable bundle from one witness directory."""
    def read(name: str, required: bool = True):
        p = os.path.join(path, name)
        if not os.path.exists(p):
            if required:
                raise CorpusError(f"witness bundle is missing {name}")
            return None
        try:
            with open(p, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CorpusError(f"cannot read witness file {name}: {exc}")

    meta = read("claim.json")
    if not isinstance(meta, dict):
        raise CorpusError("witness file claim.json must hold a JSON object")
    payload = read("payload.json")
    bundle = {
        "claim": meta.get("claim"),
        "label": meta.get("label", "replay"),
        "payload": payload,
    }
    for key in ("claim", "label"):
        if not isinstance(bundle[key], str):
            raise CorpusError(f"witness field {key!r} must be a string, got {bundle[key]!r}")
    space = read("space.json", required=False)
    func = read("function.json", required=False)
    if space is None and func is None:
        raise CorpusError("witness bundle needs space.json or function.json")
    if space is not None:
        bundle["space"] = space
    else:
        bundle["function"] = func
    return bundle


def replay_witness_dir(path: str) -> bool:
    return claims_mod.replay_witness(load_witness_dir(path))
