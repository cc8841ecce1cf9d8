import itertools
import json
import os

import pytest

from softtopo import (
    BitCapExceeded,
    Corpus,
    CorpusError,
    CorpusSpec,
    LiteralError,
    SoftSet,
    build_corpus,
    check_topology,
    enumerate_topologies,
    export_corpus,
    format_suite,
    import_corpus,
    parse_signature,
    random_topology,
    run_claim_suite,
)
from softtopo.explorer import _instance_seed

from .conftest import SIG21, SIG32

SIG11 = parse_signature({"universe": ["h1"], "parameters": ["e1"]})
SIG31 = parse_signature({"universe": ["h1", "h2", "h3"], "parameters": ["e1"]})
SIG41 = parse_signature({"universe": ["h1", "h2", "h3", "h4"], "parameters": ["e1"]})
SIG22 = parse_signature({"universe": ["h1", "h2"], "parameters": ["e1", "e2"]})


def brute_force_topologies(sig):
    """Power-set filter: the slow self-oracle for the enumerator."""
    lattice = list(range(2 ** sig.bits))
    found = []
    for r in range(len(lattice) + 1):
        for combo in itertools.combinations(lattice, r):
            fam = [SoftSet(sig, m) for m in combo]
            if check_topology(sig, fam) is None:
                found.append(frozenset(combo))
    return found


def test_counts_match_known_values():
    # labeled-topology counts over 1..4 cells
    assert len(list(enumerate_topologies(SIG11))) == 1
    assert len(list(enumerate_topologies(SIG21))) == 4
    assert len(list(enumerate_topologies(SIG31))) == 29
    assert len(list(enumerate_topologies(SIG41))) == 355
    # only the cell count matters, not its factorization
    assert len(list(enumerate_topologies(SIG22))) == 355


def test_enumerator_agrees_with_power_set_filter():
    for sig in (SIG11, SIG21):
        slow = set(brute_force_topologies(sig))
        fast = [frozenset(o.mask for o in t.opens) for t in enumerate_topologies(sig)]
        assert len(fast) == len(slow)
        assert set(fast) == slow


def test_enumeration_order_and_extremes():
    tops = list(enumerate_topologies(SIG21))
    assert {o.mask for o in tops[0].opens} == {0, 3}
    assert len(tops[-1].opens) == 4
    encodings = [t.encoding() for t in tops]
    assert len(set(encodings)) == len(encodings)
    assert encodings == [t.encoding() for t in enumerate_topologies(SIG21)]


def test_enumeration_bit_limit():
    big = parse_signature({"universe": ["h1", "h2", "h3"], "parameters": ["e1", "e2"]})
    with pytest.raises(BitCapExceeded):
        list(enumerate_topologies(big))


def test_random_topology_density_extremes():
    t0 = random_topology(SIG21, seed=5, density=0.0)
    assert len(t0.opens) == 2
    t1 = random_topology(SIG21, seed=5, density=1.0)
    assert len(t1.opens) == 4


def test_random_topology_determinism():
    a = random_topology(SIG32, seed=42, density=0.3)
    b = random_topology(SIG32, seed=42, density=0.3)
    assert a.encoding() == b.encoding()
    c = random_topology(SIG32, seed=43, density=0.3)
    assert c.encoding() != a.encoding() or c is not a


def test_random_topology_is_valid():
    for seed in range(10):
        t = random_topology(SIG32, seed=seed, density=0.4)
        assert check_topology(t.signature, t.opens) is None


def test_corpus_spec_validation():
    with pytest.raises(LiteralError):
        CorpusSpec(mode="surprise", universe=2, parameters=1)
    with pytest.raises(BitCapExceeded):
        CorpusSpec(mode="exhaustive", universe=3, parameters=2)
    with pytest.raises(LiteralError):
        CorpusSpec(mode="random", universe=2, parameters=1, count=-1)
    with pytest.raises(LiteralError):
        CorpusSpec(mode="random", universe=2, parameters=1, count=1, density=1.5)


def test_exhaustive_corpus_build():
    corpus = build_corpus(CorpusSpec(mode="exhaustive", universe=2, parameters=1))
    assert len(corpus) == 4
    assert corpus.fingerprint == build_corpus(corpus.spec).fingerprint


def test_random_corpus_build_is_deterministic():
    spec = CorpusSpec(mode="random", universe=3, parameters=2, count=30, seed=42, density=0.3)
    a = build_corpus(spec)
    b = build_corpus(spec)
    assert len(a) == 30
    assert a.fingerprint == b.fingerprint
    other = CorpusSpec(mode="random", universe=3, parameters=2, count=30, seed=43, density=0.3)
    assert build_corpus(other).fingerprint != a.fingerprint


def test_random_corpus_is_the_same_at_any_job_count():
    spec = CorpusSpec(mode="random", universe=3, parameters=2, count=8, seed=11, density=0.05)
    one = build_corpus(spec, jobs=1)
    two = build_corpus(spec, jobs=2)
    assert [t.encoding() for t in one.instances] == [t.encoding() for t in two.instances]
    assert one.fingerprint == two.fingerprint
    for i, t in enumerate(two.instances):
        assert t == random_topology(spec.signature(), _instance_seed(spec, i), spec.density)


def test_corpus_round_trip(tmp_path):
    spec = CorpusSpec(mode="random", universe=2, parameters=2, count=12, seed=7, density=0.4)
    corpus = build_corpus(spec)
    root = str(tmp_path / "corpus")
    export_corpus(corpus, root)
    back = import_corpus(root)
    assert back.fingerprint == corpus.fingerprint
    assert len(back) == len(corpus)


def test_corpus_fingerprint_mismatch(tmp_path):
    corpus = build_corpus(CorpusSpec(mode="exhaustive", universe=2, parameters=1))
    root = str(tmp_path / "corpus")
    export_corpus(corpus, root)
    manifest_path = os.path.join(root, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["fingerprint"] = "0" * len(manifest["fingerprint"])
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(CorpusError):
        import_corpus(root)


def test_corpus_missing_manifest(tmp_path):
    with pytest.raises(CorpusError):
        import_corpus(str(tmp_path / "nowhere"))


def test_empty_corpus_round_trips(tmp_path):
    spec = CorpusSpec(mode="random", universe=2, parameters=1, count=0, seed=1, density=0.5)
    corpus = build_corpus(spec)
    assert len(corpus) == 0
    root = str(tmp_path / "empty")
    export_corpus(corpus, root)
    back = import_corpus(root)
    assert len(back) == 0
    assert back.fingerprint == corpus.fingerprint


def test_suite_runs_and_covers_registry():
    from softtopo.claims import REGISTRY

    corpus = build_corpus(CorpusSpec(mode="exhaustive", universe=2, parameters=1))
    result = run_claim_suite(corpus)
    assert list(result.asserted_failures) == []
    ids = {r.claim_id for r in result.records}
    assert ids == set(REGISTRY)
    for rec in result.records:
        assert rec.status in ("holds", "refuted", "exhausted")


def test_suite_rejects_unknown_claim():
    corpus = build_corpus(CorpusSpec(mode="exhaustive", universe=1, parameters=1))
    with pytest.raises(LiteralError):
        run_claim_suite(corpus, claim_ids=["T99.99"])


def test_suite_subset_and_record_lookup():
    corpus = build_corpus(CorpusSpec(mode="exhaustive", universe=2, parameters=1))
    result = run_claim_suite(corpus, claim_ids=["D2.1", "R2.3.conv"])
    assert len(result.records) == 2
    rec = result.record("R2.3.conv")
    assert rec.kind == "under-test"
    # the 3-open fixture space always rides along, so the converse refutes
    assert rec.status == "refuted"
    assert rec.witnesses


def test_suite_reports_are_worker_count_invariant():
    corpus = build_corpus(CorpusSpec(mode="exhaustive", universe=2, parameters=1))
    one = format_suite(run_claim_suite(corpus, jobs=1))
    two = format_suite(run_claim_suite(corpus, jobs=2))
    assert one == two


def test_suite_notes_flag_adopted_readings():
    corpus = build_corpus(CorpusSpec(mode="exhaustive", universe=1, parameters=1))
    result = run_claim_suite(corpus, claim_ids=["D2.1"])
    assert len(result.notes) == 6
    text = format_suite(result)
    for note in result.notes:
        assert note in text


def test_worker_count_clamps_without_starting_workers():
    from softtopo.explorer import worker_count

    cpus = os.cpu_count() or 1
    assert worker_count(1) == 1
    assert worker_count(cpus) == cpus
    assert worker_count(10**6) == cpus
    for bad in (0, -4):
        with pytest.raises(LiteralError):
            worker_count(bad)


def test_suite_over_live_items_exports_matching_bundles(tmp_path):
    from softtopo import SoftFunction, function_to_obj, replay_witness_dir
    from softtopo.explorer import _derived_triples, _space_items, export_witnesses, fingerprint_of

    corpus = build_corpus(CorpusSpec(mode="exhaustive", universe=2, parameters=1))
    result = run_claim_suite(corpus)
    assert format_suite(run_claim_suite(corpus)) == format_suite(result)

    spaces = _space_items(corpus)
    triples = _derived_triples(spaces, fingerprint_of([t for _, t in spaces]), 48)
    by_label = {item[0]: item for item in spaces + triples}
    # an identity triple shares its space item's object, and so its tables
    label, t = spaces[0]
    _, f, t_src, t_tgt = by_label[f"id:{label}"]
    assert t_src is t_tgt is t
    assert isinstance(f, SoftFunction)

    assert export_witnesses(result, str(tmp_path)) > 0
    seen = 0
    for root, _, files in os.walk(tmp_path / "witnesses"):
        if "claim.json" not in files:
            continue
        with open(os.path.join(root, "claim.json")) as fh:
            item = by_label[json.load(fh)["label"]]
        if len(item) == 2:
            with open(os.path.join(root, "space.json")) as fh:
                assert json.load(fh) == item[1].to_obj()
        else:
            with open(os.path.join(root, "function.json")) as fh:
                assert json.load(fh) == function_to_obj(*item[1:])
        assert replay_witness_dir(root)
        seen += 1
    assert seen == sum(len(r.witnesses) for r in result.records)


def test_semicompact_verdict_is_kept_per_object(monkeypatch):
    from softtopo import analysis, is_semicompact, parse_space

    calls = []
    checked = analysis._check_semicompact
    monkeypatch.setattr(analysis, "_check_semicompact", lambda t: calls.append(t) or checked(t))
    t = build_corpus(CorpusSpec(mode="exhaustive", universe=2, parameters=1)).instances[1]
    first = is_semicompact(t)
    assert is_semicompact(t) == first
    assert len(calls) == 1 and calls[0] is t
    # an equal space parsed afresh carries no verdict: the checks run again
    copy = parse_space(t.to_obj())
    assert is_semicompact(copy) == first
    assert len(calls) == 2 and calls[1] is copy
