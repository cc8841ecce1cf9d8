import functools
import itertools
import operator
import random

import pytest

from softtopo import (
    BitCapExceeded,
    CorpusError,
    InvalidTopology,
    SignatureMismatch,
    SoftSet,
    SoftTopology,
    check_topology,
    discrete,
    enumerate_soft_sets,
    enumerate_topologies,
    from_subbasis,
    indiscrete,
    is_basis,
    load_space,
    make_absolute,
    make_null,
    parse_signature,
    save_space,
    subspace,
    validate_topology,
)

from .conftest import SIG21, SIG32, small_subspaces, small_topologies

SIG31 = parse_signature({"universe": ["h1", "h2", "h3"], "parameters": ["e1"]})
SIG22 = parse_signature({"universe": ["h1", "h2"], "parameters": ["e1", "e2"]})


def test_example_family_is_valid(example_space):
    assert check_topology(SIG32, example_space.opens) is None


def test_missing_union_is_reported():
    fam = [SoftSet(SIG31, 0), SoftSet(SIG31, 7), SoftSet(SIG31, 4), SoftSet(SIG31, 2)]
    violation = check_topology(SIG31, fam)
    assert violation is not None
    assert violation.code == "union"
    assert len(violation.witnesses) == 2
    with pytest.raises(InvalidTopology):
        validate_topology(SIG31, fam)


# one candidate family per violation code: (absolute mask or None, member masks)
VIOLATIONS31 = {
    "carrier": (0b011, (0, 0b011, 0b100)),
    "missing-null": (None, (0b011, 0b111)),
    "missing-absolute": (None, (0, 0b001)),
    "union": (None, (0, 0b111, 0b100, 0b010)),
    # three cells, {000, 011, 110, 111}: 011 ∩ 110 = 010 is missing
    "intersection": (None, (0, 0b011, 0b110, 0b111)),
}


@pytest.mark.parametrize("code", sorted(VIOLATIONS31))
def test_constructor_rejects_each_violation(code):
    abs_mask, masks = VIOLATIONS31[code]
    absolute = None if abs_mask is None else SoftSet(SIG31, abs_mask)
    fam = [SoftSet(SIG31, m) for m in masks]
    violation = check_topology(SIG31, fam, absolute)
    assert violation is not None and violation.code == code
    for build in (SoftTopology, validate_topology):
        with pytest.raises(InvalidTopology) as exc:
            build(SIG31, fam, absolute)
        assert str(exc.value) == str(violation)
        assert exc.value.violation == violation


def test_constructor_rejects_an_absolute_of_another_signature():
    fam = [SoftSet(SIG31, 0), SoftSet(SIG31, SIG31.full_mask)]
    for build in (SoftTopology, validate_topology):
        with pytest.raises(SignatureMismatch):
            build(SIG31, fam, make_absolute(SIG21))


def test_boundary_members_required():
    fam = [SoftSet(SIG21, 3), SoftSet(SIG21, 1)]
    violation = check_topology(SIG21, fam)
    assert violation is not None
    assert violation.code == "missing-null"


def test_closure_of_generator_set(example_space, f1):
    # the only closed superset of the generator is the absolute set
    assert example_space.closure(f1) == make_absolute(SIG32)


def test_interior_of_generator_complement(example_space, f1):
    assert example_space.interior(~f1) == make_null(SIG32)


def test_closure_interior_duality(example_space):
    for g in enumerate_soft_sets(SIG32):
        assert example_space.closure(g) == ~example_space.interior(~g)


def test_interior_fixpoint_on_opens(example_space):
    for o in example_space.opens:
        assert example_space.interior(o) == o
    for g in enumerate_soft_sets(SIG32):
        assert example_space.closure(g) == example_space.closure(example_space.closure(g))
        assert example_space.interior(g) <= g <= example_space.closure(g)


def test_closure_of_null_is_null(example_space):
    null = make_null(SIG32)
    assert example_space.closure(null) == null


def test_closure_in_indiscrete_space():
    t = indiscrete(SIG21)
    g = SoftSet.from_rows(SIG21, {"e1": ["h1"]})
    assert t.closure(g) == make_absolute(SIG21)


def test_open_family_representation():
    # each whole space and one subspace of it, so the abs= part is covered too
    for base in small_topologies():
        carrier = SoftSet(base.signature, base.signature.full_mask >> 1)
        for t in (base, subspace(base, carrier)):
            assert list(t.open_masks) == sorted(t.open_masks)
            members = set(t.open_masks)
            for g in t.lattice():
                assert t.is_open(g) == (g.mask in members)
                assert t.is_closed(g) == (t.absolute.mask ^ g.mask in members)
            assert [o.mask for o in t.opens] == list(t.open_masks)
            assert t.opens is t.opens
            parts = [t.signature.key(), ",".join(o.encoding() for o in t.opens)]
            if not t.absolute.is_absolute:
                parts.append(f"abs={t.absolute.encoding()}")
            assert t.encoding() == "::".join(parts)
            assert [c.mask for c in t.closed_sets()] == sorted(
                t.absolute.mask ^ o for o in t.open_masks
            )


def test_closed_sets_are_open_complements(example_space):
    closed = {c.mask for c in example_space.closed_sets()}
    assert closed == {(~o).mask for o in example_space.opens}
    for c in example_space.closed_sets():
        assert example_space.is_closed(c)


def test_subspace_of_example(example_space, f1):
    sub = subspace(example_space, f1)
    assert {o.mask for o in sub.opens} == {0, f1.mask}
    assert sub.absolute == f1


def test_subspace_full_carrier_is_identity(example_space):
    sub = subspace(example_space, make_absolute(SIG32))
    assert {o.mask for o in sub.opens} == {o.mask for o in example_space.opens}


def test_subspace_of_discrete_is_discrete(discrete21):
    carrier = SoftSet.from_rows(SIG21, {"e1": ["h2"]})
    sub = subspace(discrete21, carrier)
    # every subset of the carrier stays open
    assert {o.mask for o in sub.opens} == {0, carrier.mask}


def test_subspace_composition(example_space):
    a = SoftSet(SIG32, 0b111100)
    b = SoftSet(SIG32, 0b110110)
    once = subspace(subspace(example_space, a), b & a)
    direct = subspace(example_space, a & b)
    assert {o.mask for o in once.opens} == {o.mask for o in direct.opens}


def test_is_basis(example_space, f1, indiscrete21, discrete21):
    assert is_basis(example_space, example_space.opens)
    assert is_basis(indiscrete21, [make_absolute(SIG21)])
    assert not is_basis(example_space, [f1])
    # opens whose union is the absolute but that miss some N(x) = {x}: a
    # singleton is the union of no other opens
    pair = SoftSet(SIG21, 0b11)
    assert not is_basis(discrete21, [pair])
    assert not is_basis(discrete21, [pair, SoftSet(SIG21, 0b01)])
    assert is_basis(discrete21, [pair, SoftSet(SIG21, 0b01), SoftSet(SIG21, 0b10)])
    for t in small_subspaces():
        assert is_basis(t, [SoftSet(t.signature, m) for m in t.basis]), t.encoding()
        assert is_basis(t, t.opens), t.encoding()
        for nb in t.basis:
            rest = [SoftSet(t.signature, m) for m in t.open_masks if m != nb]
            assert not is_basis(t, rest), t.encoding()


def _union_closure(masks):
    family = {0}
    for m in masks:
        family |= {f | m for f in family}
    return tuple(sorted(family))


def test_basis_is_the_distinct_minimal_neighbourhoods():
    sig16 = parse_signature({"universe": ["h1", "h2", "h3", "h4"],
                             "parameters": ["e1", "e2", "e3", "e4"]})
    disc, indisc = discrete(sig16), indiscrete(sig16)
    assert disc.basis == tuple(1 << x for x in range(16))
    assert indisc.basis == (sig16.full_mask,)
    for t in [disc, indisc] + small_subspaces():
        full = t.absolute.mask
        nbhds = {
            functools.reduce(operator.and_, (o for o in t.open_masks if o >> x & 1))
            for x in range(t.signature.bits) if full >> x & 1
        }
        assert t.basis == tuple(sorted(nbhds)), t.encoding()
        assert _union_closure(t.basis) == t.open_masks, t.encoding()


def test_basis_members_must_be_open(example_space):
    from softtopo import LiteralError

    g = SoftSet(SIG32, 0b000001)
    with pytest.raises(LiteralError):
        is_basis(example_space, [g])


def test_from_subbasis_empty_gives_indiscrete():
    t = from_subbasis(SIG21, [])
    assert {o.mask for o in t.opens} == {0, 3}


def test_from_subbasis_everything_gives_discrete():
    t = from_subbasis(SIG21, list(enumerate_soft_sets(SIG21)))
    assert len(t.opens) == 4


def test_from_subbasis_already_closed(f1):
    t = from_subbasis(SIG32, [f1])
    assert {o.mask for o in t.opens} == {0, f1.mask, SIG32.full_mask}


def test_from_subbasis_always_validates():
    sets = list(enumerate_soft_sets(SIG31))
    for seeds in itertools.combinations(sets, 2):
        t = from_subbasis(SIG31, seeds)
        assert check_topology(SIG31, t.opens) is None


def test_from_subbasis_is_the_smallest_topology_holding_its_seeds():
    # oracle: the intersection of every topology on the signature holding the seeds
    rng = random.Random(2026)
    for sig in (SIG21, SIG31, SIG22):
        families = [frozenset(t.open_masks) for t in enumerate_topologies(sig)]
        lattice = range(1 << sig.bits)
        seed_families = [()] + [tuple(rng.sample(lattice, rng.randint(1, 4))) for _ in range(150)]
        for seeds in seed_families:
            oracle = frozenset.intersection(*(f for f in families if f.issuperset(seeds)))
            t = from_subbasis(sig, [SoftSet(sig, m) for m in seeds])
            assert frozenset(t.open_masks) == oracle, (sig.key(), seeds)


def test_from_subbasis_cap_bounds_the_family_size():
    rng = random.Random(7)
    for sig in (SIG31, SIG22):
        lattice = range(1 << sig.bits)
        for _ in range(40):
            seeds = [SoftSet(sig, m) for m in rng.sample(lattice, rng.randint(0, 5))]
            size = len(from_subbasis(sig, seeds, cap=sig.bits).open_masks)
            for cap in range(1, sig.bits + 1):
                if size > 1 << cap:
                    with pytest.raises(BitCapExceeded, match=rf"exceeds 2\^{cap} members"):
                        from_subbasis(sig, seeds, cap=cap)
                else:
                    assert len(from_subbasis(sig, seeds, cap=cap).open_masks) == size


def test_from_subbasis_of_singletons_is_discrete_at_16_bits():
    # the union closure of 16 singleton neighbourhoods; a pairwise fixpoint over
    # the 65,536-member family does not finish in test time
    sig = parse_signature({"universe": ["h1", "h2", "h3", "h4"],
                           "parameters": ["e1", "e2", "e3", "e4"]})
    t = from_subbasis(sig, [SoftSet(sig, 1 << x) for x in range(sig.bits)])
    assert t == discrete(sig)


def test_space_file_round_trip(tmp_path, example_space):
    path = str(tmp_path / "space.json")
    save_space(example_space, path)
    back = load_space(path)
    assert back.encoding() == example_space.encoding()


def test_space_file_write_failure_is_a_corpus_error(tmp_path, example_space):
    path = str(tmp_path / "missing" / "space.json")
    with pytest.raises(CorpusError, match=f"cannot write space file {path}: "):
        save_space(example_space, path)


def test_space_file_rejects_invalid(tmp_path):
    path = str(tmp_path / "bad.json")
    bad = {
        "signature": {"universe": ["h1", "h2", "h3"], "parameters": ["e1"]},
        "opens": [{"e1": []}, {"e1": ["h1", "h2", "h3"]}, {"e1": ["h1"]}, {"e1": ["h2"]}],
    }
    import json

    with open(path, "w") as fh:
        json.dump(bad, fh)
    with pytest.raises(InvalidTopology):
        load_space(path)
