import hashlib
import json

import pytest

from softtopo import Corpus, CorpusSpec, build_corpus, discrete, from_subbasis, run_claim_suite
from softtopo import analysis, claims, kernels, semi
from softtopo.claims import (
    ASSERTED_IDS,
    REGISTRY,
    SEMANTICS_NOTES,
    UNDER_TEST_IDS,
    SpaceCtx,
    TripleCtx,
    ctx_from_bundle,
    evaluate_claim,
    replay_witness,
)
from softtopo.core import SoftSet, submasks
from softtopo.explorer import auto_signature
from softtopo.prng import SplitMix64
from softtopo.semi import tables

from .conftest import SIG32, example_topology

# statements deliberately left open to refutation search
EXPECTED_UNDER_TEST = {
    "R2.3.conv",
    "T2.11.ix",
    "T2.11.x",
    "R3.2.b",
    "T3.3",
    "T3.4",
    "T3.5",
    "T3.7",
    "T4.6",
    "T4.7",
    "T5.3",
    "T5.4",
    "T5.7.sub",
    "T6.3",
    "T6.6",
    "T6.8",
    "R6.10",
    "T6.12",
    "T6.16",
    "T6.16.open",
    "T6.17",
    "T6.18",
}


def test_registry_shape():
    assert len(REGISTRY) == 81
    for cid, claim in REGISTRY.items():
        assert claim.id == cid
        assert claim.kind in ("asserted-invariant", "under-test")
        assert claim.scope in ("space", "triple")
        assert claim.statement
        assert claim.quantifier


def test_tier_partition():
    assert set(UNDER_TEST_IDS) == EXPECTED_UNDER_TEST
    assert set(ASSERTED_IDS) | set(UNDER_TEST_IDS) == set(REGISTRY)
    assert not (set(ASSERTED_IDS) & set(UNDER_TEST_IDS))
    for cid in UNDER_TEST_IDS:
        assert REGISTRY[cid].kind == "under-test"


def test_semantics_notes():
    assert len(SEMANTICS_NOTES) == 6
    assert all(isinstance(n, str) and n for n in SEMANTICS_NOTES)


def test_scope_mismatch_yields_no_hypotheses():
    ctx = SpaceCtx(example_topology(), "t")
    triple_claim = REGISTRY["T3.3"]
    assert evaluate_claim(triple_claim, ctx) == (0, [])


def test_asserted_claims_hold_on_example():
    ctx = SpaceCtx(example_topology(), "t")
    for cid in sorted(ASSERTED_IDS):
        claim = REGISTRY[cid]
        if claim.scope != "space":
            continue
        hyp, fails = evaluate_claim(claim, ctx)
        assert fails == [], cid


def test_converse_search_finds_both_witnesses():
    ctx = SpaceCtx(example_topology(), "t")
    hyp, fails = evaluate_claim(REGISTRY["R2.3.conv"], ctx)
    assert hyp > 0
    found = {(f["found"], json.dumps(f["set"], sort_keys=True)) for f in fails}
    semiopen_lit = json.dumps({"e1": ["h1", "h2"], "e2": ["h1", "h2"]}, sort_keys=True)
    semiclosed_lit = json.dumps({"e1": ["h3"], "e2": ["h3"]}, sort_keys=True)
    assert ("semiopen-not-open", semiopen_lit) in found
    assert ("semiclosed-not-closed", semiclosed_lit) in found


def test_ctx_bundle_round_trip():
    ctx = SpaceCtx(example_topology(), "corpus[0]:deadbeef")
    bundle = ctx.to_bundle()
    back = ctx_from_bundle(bundle)
    assert isinstance(back, SpaceCtx)
    assert back.t.encoding() == ctx.t.encoding()
    assert back.label == ctx.label


def test_replay_witness_round_trip():
    corpus = build_corpus(CorpusSpec(mode="exhaustive", universe=2, parameters=1))
    result = run_claim_suite(corpus, claim_ids=["R2.3.conv"])
    rec = result.record("R2.3.conv")
    assert rec.status == "refuted"
    bundle = rec.witnesses[0]
    assert replay_witness(bundle)
    # a doctored payload must fail to reproduce
    import copy

    broken = copy.deepcopy(bundle)
    broken["payload"]["found"] = "not-a-real-finding"
    assert not replay_witness(broken)


def test_triple_ctx_seed_depends_on_maps():
    from softtopo import SoftFunction

    t = example_topology()
    sig = t.signature
    ident = SoftFunction.from_labels(
        sig, sig, {"h1": "h1", "h2": "h2", "h3": "h3"}, {"e1": "e1", "e2": "e2"}
    )
    swap = SoftFunction.from_labels(
        sig, sig, {"h1": "h2", "h2": "h1", "h3": "h3"}, {"e1": "e1", "e2": "e2"}
    )
    a = TripleCtx(ident, t, t, "a")
    b = TripleCtx(swap, t, t, "b")
    assert a.seed != b.seed


def _nested_loop_min_cover(universe, masks):
    """The subcover oracle as first written: every subset re-ORs its members."""
    best = None
    n = len(masks)
    for s in range(1 << n):
        got = 0
        for i in range(n):
            if s >> i & 1:
                got |= masks[i]
        if universe & ~got == 0:
            size = bin(s).count("1")
            if best is None or size < best:
                best = size
    return best


def test_brute_min_cover_matches_nested_loops(monkeypatch):
    import random

    class NoKernels:
        def __getattr__(self, name):
            raise AssertionError(f"the subcover oracle called kernels.{name}")

    # the oracle must stay independent of the search it checks
    assert "kernels" not in claims._brute_min_cover.__code__.co_names
    monkeypatch.setattr(claims, "kernels", NoKernels())
    rng = random.Random(20120320)
    for _ in range(300):
        bits = rng.randint(1, 8)
        full = (1 << bits) - 1
        k = rng.randint(0, 10)
        masks = [rng.getrandbits(bits) for _ in range(k)]
        universe = rng.choice([0, full, rng.getrandbits(bits)])
        assert claims._brute_min_cover(universe, masks) == _nested_loop_min_cover(universe, masks)


# the semicompactness checks live in D4.2 and T4.7; these mutants must show there


def _zero_sscl(t):
    tab = tables(t)
    tab.__dict__["sscl"] = dict.fromkeys(tab.sscl, 0)


def _semiclosed_subspaces(ctx):
    subs = [ctx.sub(v).t for v in ctx.carriers if v.mask in ctx.tab.scss_set]
    assert subs
    return subs


@pytest.mark.parametrize("make", [example_topology, lambda: discrete(SIG32)])
def test_d4_2_catches_a_zeroed_sscl_table(make):
    ctx = SpaceCtx(make(), "mutant")
    _zero_sscl(ctx.t)
    hyp, failures = evaluate_claim(REGISTRY["D4.2"], ctx)
    assert hyp == 1 and len(failures) == 1
    assert failures[0]["check"] == "sscl-fip"


@pytest.mark.parametrize("make", [example_topology, lambda: discrete(SIG32)])
def test_d4_2_catches_a_lying_fip_routine(monkeypatch, make):
    ctx = SpaceCtx(make(), "mutant")
    scss = ctx.tab.scss_masks
    assert any(f & g == 0 for f in scss for g in scss)  # a null-intersection subfamily exists
    monkeypatch.setattr(claims, "_fip_literal", lambda masks, full: True)
    hyp, failures = evaluate_claim(REGISTRY["D4.2"], ctx)
    assert hyp == 1 and len(failures) == 1
    assert failures[0]["check"] == "semiclosed-fip"


def test_t4_7_catches_both_mutants_on_a_semiclosed_carrier(monkeypatch):
    ctx = SpaceCtx(example_topology(), "mutant")
    subs = _semiclosed_subspaces(ctx)
    assert evaluate_claim(REGISTRY["T4.7"], ctx) == (len(subs), [])

    for sub in subs:
        _zero_sscl(sub)
    hyp, failures = evaluate_claim(REGISTRY["T4.7"], ctx)
    assert hyp == len(subs)
    assert [f["check"] for f in failures] == ["sscl-fip"] * len(subs)

    ctx = SpaceCtx(example_topology(), "mutant")
    subs = _semiclosed_subspaces(ctx)
    monkeypatch.setattr(claims, "_fip_literal", lambda masks, full: True)
    hyp, failures = evaluate_claim(REGISTRY["T4.7"], ctx)
    assert hyp == len(subs)
    assert [f["check"] for f in failures] == ["semiclosed-fip"] * len(subs)


@pytest.mark.parametrize("broken_or", [
    lambda a, b: SoftSet(a.signature, a.mask & b.mask),
    lambda a, b: a,
    lambda a, b: SoftSet(a.signature, a.mask ^ b.mask),
], ids=["and", "left", "xor"])
def test_core_invariants_test_the_soft_set_operators(monkeypatch, broken_or):
    ctx = SpaceCtx(example_topology(), "mutant")
    ids = ("INV.CORE.LATTICE", "INV.CORE.ORDER")
    assert [evaluate_claim(REGISTRY[c], ctx) for c in ids] == [(13, []), (12, [])]
    monkeypatch.setattr(SoftSet, "__or__", broken_or)
    for c in ids:
        assert evaluate_claim(REGISTRY[c], ctx)[1], c


def _dense_block_space(n, m, block, seed):
    """Seeded space in which every nonnull open holds the top `block` cells,
    which form an open set: every set holding the block is semiopen, so the
    semiopen and semiclosed families both top 2^(cells-block)."""
    sig = auto_signature(n, m)
    b = sig.full_mask ^ (sig.full_mask >> block)
    rng = SplitMix64(seed)
    seeds = [SoftSet(sig, b)] + [SoftSet(sig, b | rng.below(sig.full_mask + 1)) for _ in range(3)]
    return from_subbasis(sig, seeds)


# sha256 of the sorted-key JSON of the sampled corpus's suite to_obj(), taken
# before the exhaustive-or-sample switches were read from analysis.DOMAINS
SAMPLED_SUITE_SHA256 = "a9e6a818aed2934087877c9ccdc5ac7f598dafa2edfa78ab275c3a061ea8b911"


def test_registry_runs_its_sampled_branches(monkeypatch):
    # every row of analysis.DOMAINS scans its whole domain on the exhaustive
    # (3,1) corpus and falls back on this corpus or that one (T6.16.open's
    # pair cap on (3,1) only); the 12-cell space with one dense cell is the
    # one whose T2.7/T2.8 gaps pass ten cells
    def corpus():
        return Corpus([_dense_block_space(n, m, k, 7)
                       for n, m, k in ((7, 1, 1), (3, 3, 2), (4, 3, 3), (4, 3, 1))])

    for t in corpus().instances:
        assert len(t.open_masks) < 1 << t.signature.bits
    seen = set()
    real = analysis._domain

    def spy(row, size, exhaustive, fallback):
        seen.add((row, size <= analysis.DOMAINS[row].limit))
        return real(row, size, exhaustive, fallback)

    monkeypatch.setattr(analysis, "_domain", spy)
    monkeypatch.setattr(claims, "_domain", spy)
    one = run_claim_suite(corpus(), jobs=1, cross_triples=2)
    fell_back = {row for row, within in seen if not within}
    seen.clear()
    run_claim_suite(build_corpus(CorpusSpec(mode="exhaustive", universe=3, parameters=1)), jobs=1)
    assert {row for row, within in seen if within} == set(analysis.DOMAINS)
    fell_back |= {row for row, within in seen if not within}
    assert fell_back == set(analysis.DOMAINS)

    two = run_claim_suite(corpus(), jobs=2, cross_triples=2)
    assert not one.asserted_failures
    assert one.to_obj() == two.to_obj()
    dump = json.dumps(one.to_obj(), sort_keys=True).encode()
    assert hashlib.sha256(dump).hexdigest() == SAMPLED_SUITE_SHA256


def test_d6_1_catches_an_identity_ssint_table(monkeypatch):
    # the direct scan reads the oracle's semiopen family, so a fast table
    # that calls every set semiopen fools only one side
    monkeypatch.setattr(kernels, "ssint_table", lambda table, full: {s: s for s in submasks(full)})
    ctx = SpaceCtx(claims.builtin_indiscrete(), "mutant")
    assert ctx.flag("semi_T0")
    assert evaluate_claim(REGISTRY["D6.1"], ctx) == (
        1, [{"axiom": "semi_T0", "shortcut": True, "direct": False}]
    )


def test_d4_1_catches_a_semiopen_test_that_always_holds(monkeypatch):
    # analyze_cover asks the per-set test and D4.1 recomputes the flag from
    # the lattice table, so the two sides of its semiopen-flag check differ
    for module in (semi, analysis):
        monkeypatch.setattr(module, "semiopen_witness", lambda t, m: 0)
    ctx = SpaceCtx(claims.builtin_example(), "mutant")
    hypotheses, failures = evaluate_claim(REGISTRY["D4.1"], ctx)
    assert hypotheses > 0 and failures


def test_t2_7_and_t2_8_sample_gaps_above_ten_cells():
    # an open dense cell: its closure gap and its complement's interior gap
    # both have 11 cells, so each claim draws 256 sets there
    t = _dense_block_space(4, 3, 1, 7)
    ctx = SpaceCtx(t, "dense")
    gaps = [(ctx.closure(g) & ~g).bit_count() for g in ctx.tab.soss_masks]
    assert gaps.count(11) == 1
    want = sum(1 << k if k <= 10 else 256 for k in gaps)
    assert evaluate_claim(REGISTRY["T2.7"], ctx) == (want, [])
    gaps = [(f & ~ctx.interior(f)).bit_count() for f in ctx.tab.scss_masks]
    assert gaps.count(11) == 1
    want = sum(1 << k if k <= 10 else 256 for k in gaps)
    assert evaluate_claim(REGISTRY["T2.8"], ctx) == (want, [])
