from softtopo import (
    SoftSet,
    classify_set,
    complement,
    discrete,
    enumerate_soft_sets,
    indiscrete,
    is_semiclosed,
    is_semiclosed_definitional,
    is_semiopen,
    is_semiopen_definitional,
    make_absolute,
    make_null,
    scss,
    scss_definitional,
    soss,
    soss_definitional,
    sscl,
    sscl_definitional,
    ssint,
    ssint_definitional,
    union,
)
from softtopo.semi import tables

from .conftest import SIG21, SIG32, small_subspaces

# the one non-open semiopen witness family in the three-open space:
# null plus every superset of the generator
EXPECTED_SOSS_MASKS = {0, 52, 53, 54, 55, 60, 61, 62, 63}


def test_soss_of_example_space(example_space):
    masks = {s.mask for s in soss(example_space)}
    assert masks == EXPECTED_SOSS_MASKS
    assert len(masks) == 9


def test_soss_definitional_agrees(example_space):
    fast = [s.mask for s in soss(example_space)]
    slow = [s.mask for s in soss_definitional(example_space)]
    assert fast == slow


def test_scss_is_complement_family(example_space):
    expected = {(~s).mask for s in soss(example_space)}
    assert {s.mask for s in scss(example_space)} == expected
    assert [s.mask for s in scss(example_space)] == [
        s.mask for s in scss_definitional(example_space)
    ]


def test_soss_of_indiscrete():
    t = indiscrete(SIG21)
    assert {s.mask for s in soss(t)} == {0, 3}


def test_soss_of_discrete_is_everything():
    t = discrete(SIG21)
    assert len(soss(t)) == 4


def test_semiopen_not_open_example(example_space):
    g = SoftSet.from_rows(SIG32, {"e1": ["h1", "h2"], "e2": ["h1", "h2"]})
    assert g.mask == 54
    ok, witness = is_semiopen(example_space, g)
    assert ok
    assert not example_space.is_open(g)
    # witness open set sandwiches g under its closure
    assert witness is not None
    assert witness <= g <= example_space.closure(witness)
    ok_o, witness_o = is_semiopen_definitional(example_space, g)
    assert ok_o and witness_o <= g <= example_space.closure(witness_o)


def test_semiopen_rejects_null_interior_set(example_space, g0):
    ok, witness = is_semiopen(example_space, g0)
    assert not ok and witness is None
    assert is_semiopen_definitional(example_space, g0) == (False, None)


def test_semiclosed_not_closed_example(example_space):
    k = SoftSet.from_rows(SIG32, {"e1": ["h3"], "e2": ["h3"]})
    assert k.mask == 9
    ok, witness = is_semiclosed(example_space, k)
    assert ok
    assert not example_space.is_closed(k)
    assert witness is not None
    assert example_space.interior(witness) <= k <= witness
    assert is_semiclosed_definitional(example_space, k)[0]


def test_generator_is_not_semiclosed(example_space, f1):
    assert is_semiclosed(example_space, f1) == (False, None)


def test_null_and_absolute_always_both(example_space):
    for g in (make_null(SIG32), make_absolute(SIG32)):
        assert is_semiopen(example_space, g)[0]
        assert is_semiclosed(example_space, g)[0]


def test_open_implies_semiopen_closed_implies_semiclosed(example_space):
    for o in example_space.opens:
        assert is_semiopen(example_space, o)[0]
    for c in example_space.closed_sets():
        assert is_semiclosed(example_space, c)[0]


def test_classify_set_fields(example_space):
    g = SoftSet(SIG32, 54)
    c = classify_set(example_space, g)
    assert (c.is_open, c.is_closed, c.is_semiopen, c.is_semiclosed) == (
        False,
        False,
        True,
        False,
    )
    assert c.semiopen_witness is not None and c.semiclosed_witness is None


def test_ssint_of_g0_is_null(example_space, g0):
    assert ssint(example_space, g0) == make_null(SIG32)
    assert ssint_definitional(example_space, g0) == make_null(SIG32)


def test_sscl_of_g0_is_absolute(example_space, g0):
    assert sscl(example_space, g0) == make_absolute(SIG32)
    assert sscl_definitional(example_space, g0) == make_absolute(SIG32)


def test_semi_operators_agree_on_whole_lattice():
    # the example space and every topology of up to 3 bits, every subspace of
    # each, every set of each
    for t in small_subspaces():
        sig, full = t.signature, t.absolute.mask
        for g in t.lattice():
            want_int = union(sig, (o for o in t.opens if o <= g))
            outside = union(sig, (o for o in t.opens if not o.mask & g.mask))
            want_cl = SoftSet(sig, full ^ outside.mask)
            assert t.interior(g) == want_int
            assert t.closure(g) == want_cl
            assert ssint(t, g) == ssint_definitional(t, g)
            assert sscl(t, g) == sscl_definitional(t, g)
            so, so_wit = is_semiopen_definitional(t, g)
            sc, sc_wit = is_semiclosed_definitional(t, g)
            assert so_wit is None or so_wit <= g <= t.closure(so_wit)
            assert sc_wit is None or t.interior(sc_wit) <= g <= sc_wit
            c = classify_set(t, g)
            assert (c.is_open, c.is_closed) == (g in t.opens, t.relative_complement(g) in t.opens)
            assert (c.is_semiopen, c.is_semiclosed) == (so, sc)
            # the fast witnesses are the set's own interior and closure
            assert c.semiopen_witness == (want_int if so else None)
            assert c.semiclosed_witness == (want_cl if sc else None)
            assert is_semiopen(t, g) == (so, c.semiopen_witness)
            assert is_semiclosed(t, g) == (sc, c.semiclosed_witness)


def test_semi_fixpoints(example_space):
    for s in soss(example_space):
        assert ssint(example_space, s) == s
    for s in scss(example_space):
        assert sscl(example_space, s) == s


def test_semi_duality(example_space):
    for g in enumerate_soft_sets(SIG32):
        assert complement(sscl(example_space, g)) == ssint(example_space, complement(g))
        assert complement(ssint(example_space, g)) == sscl(example_space, complement(g))


def test_semi_idempotence_and_bounds(example_space):
    for g in enumerate_soft_sets(SIG32):
        si = ssint(example_space, g)
        sc = sscl(example_space, g)
        assert si <= g <= sc
        assert ssint(example_space, si) == si
        assert sscl(example_space, sc) == sc
        # semi-ops sit between the plain ops and the set itself
        assert example_space.interior(g) <= si
        assert sc <= example_space.closure(g)


def test_soss_union_closure(example_space):
    family = list(soss(example_space))
    members = {s.mask for s in family}
    for a in family:
        for b in family:
            assert (a | b).mask in members


def test_scss_intersection_closure(example_space):
    family = list(scss(example_space))
    members = {s.mask for s in family}
    for a in family:
        for b in family:
            assert (a & b).mask in members


def test_semiopen_sets_are_the_unions_of_the_generators():
    # on every space of up to 3 bits and each of its subspaces
    for t in small_subspaces():
        tab = tables(t)
        unions = {0}
        for g in tab.generators:
            unions |= {u | g for u in unions}
        assert sorted(unions) == tab.soss_masks, t.encoding()


def test_semiopen_sandwich(example_space):
    # anything between a semiopen set and its closure is semiopen too
    for g in soss(example_space):
        cl = example_space.closure(g)
        between = g.mask
        for extra in range(SIG32.full_mask + 1):
            k = SoftSet(SIG32, between | (extra & cl.mask))
            if g <= k <= cl:
                assert is_semiopen(example_space, k)[0]
