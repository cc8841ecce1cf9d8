import itertools

import pytest

from softtopo import (
    AXIOM_NAMES,
    LiteralError,
    SoftSet,
    analyze_cover,
    axiom_report,
    check_axiom,
    discrete,
    find_clopen,
    find_semiseparation,
    indiscrete,
    is_semiconnected,
    is_semicompact,
    make_absolute,
    seminormal_characterization,
    soss,
    subspace,
)
from softtopo.analysis import naive_check_axiom

from .conftest import SIG21, SIG32, small_topologies


def test_axiom_names_are_stable():
    assert AXIOM_NAMES == (
        "semi_T0",
        "semi_T1",
        "semi_T2",
        "semiregular",
        "semi_T3",
        "seminormal",
        "semi_T4",
        "semiconnected",
        "semicompact",
    )


def test_unknown_axiom_rejected(example_space):
    with pytest.raises(LiteralError):
        check_axiom(example_space, "T9")


def test_direct_axiom_scan_covers_the_separation_axioms(discrete21, indiscrete21, example_space):
    # semiconnectedness has its own oracle scan in D5.2; semicompactness is immediate
    for name in ("T9", "semiconnected", "semicompact"):
        with pytest.raises(LiteralError):
            naive_check_axiom(discrete21, name)
    for t in (discrete21, indiscrete21):
        for name in AXIOM_NAMES[:7]:
            assert naive_check_axiom(t, name) == check_axiom(t, name).holds, name
    assert naive_check_axiom(example_space, "semi_T0") is None  # 6 cells


def test_discrete_separates_everything(discrete21):
    rep = axiom_report(discrete21)
    for name in ("semi_T0", "semi_T1", "semi_T2", "semiregular", "semi_T3",
                 "seminormal", "semi_T4", "semicompact"):
        assert rep.flag(name), name
    # two complementary singleton opens split the space
    assert not rep.flag("semiconnected")


def test_indiscrete_cannot_separate_points(indiscrete21):
    chk = check_axiom(indiscrete21, "semi_T0")
    assert not chk.holds
    assert chk.witnesses[0] == {"point": "e1:h1", "point2": "e1:h2"}
    assert is_semiconnected(indiscrete21)


def test_axiom_chain_consistency(example_space, discrete21, indiscrete21):
    for t in (example_space, discrete21, indiscrete21):
        rep = axiom_report(t)
        if rep.flag("semi_T2"):
            assert rep.flag("semi_T1")
        if rep.flag("semi_T1"):
            assert rep.flag("semi_T0")
        if rep.flag("semi_T3"):
            assert rep.flag("semi_T2")
        if rep.flag("semi_T4"):
            assert rep.flag("semi_T3")


def test_axiom_report_checks_each_axiom_once(monkeypatch):
    from softtopo import analysis

    cases = [(t, w) for t in small_topologies() for w in (False, True)]
    # semi_T3/semi_T4 in a report equal their standalone checks, witness order included
    expected = [tuple(check_axiom(t, name, w) for name in AXIOM_NAMES) for t, w in cases]
    real = analysis.check_axiom
    calls = []

    def counting(t, axiom, all_witnesses=False):
        calls.append(axiom)
        return real(t, axiom, all_witnesses)

    monkeypatch.setattr(analysis, "check_axiom", counting)
    for (t, w), checks in zip(cases, expected):
        calls.clear()
        assert axiom_report(t, w).checks == checks
        assert calls == [name for name in AXIOM_NAMES if name not in ("semi_T3", "semi_T4")]


def test_all_witnesses_mode(indiscrete21):
    few = check_axiom(indiscrete21, "semi_T0").witnesses
    many = check_axiom(indiscrete21, "semi_T0", all_witnesses=True).witnesses
    assert len(many) >= len(few)
    assert few[0] in many


def test_cover_of_absolute_by_itself(example_space):
    full = make_absolute(SIG32)
    rep = analyze_cover(example_space, full, [full])
    assert rep.is_cover and rep.is_semiopen_cover
    assert rep.minimal_subcover == (0,)


def test_soss_family_covers_example(example_space):
    family = list(soss(example_space))
    rep = analyze_cover(example_space, make_absolute(SIG32), family)
    assert rep.is_cover and rep.is_semiopen_cover
    # the absolute member alone is a minimal subcover
    assert rep.minimal_subcover is not None
    assert len(rep.minimal_subcover) == 1
    assert family[rep.minimal_subcover[0]].is_absolute
    # the null member sits in the family, so some subfamily has null meet
    assert not rep.fip_holds
    assert rep.fip_violation is not None


def test_generator_alone_is_not_a_cover(example_space, f1):
    rep = analyze_cover(example_space, make_absolute(SIG32), [f1])
    assert not rep.is_cover
    assert rep.minimal_subcover is None


def test_fip_violation_is_genuine(example_space, f1):
    from softtopo import intersection

    family = [f1, ~f1]
    rep = analyze_cover(example_space, make_absolute(SIG32), family)
    assert not rep.fip_holds
    chosen = [family[i] for i in rep.fip_violation]
    assert intersection(SIG32, chosen).is_null


def test_minimal_subcover_is_truly_minimal(example_space):
    # no proper subfamily of the reported subcover may still cover
    carrier = make_absolute(SIG32)
    family = [SoftSet(SIG32, m) for m in (0b100000, 0b011000, 0b000111, 0b111000, 0b000110)]
    rep = analyze_cover(example_space, carrier, family)
    assert rep.is_cover
    idx = rep.minimal_subcover
    union_mask = 0
    for i in idx:
        union_mask |= family[i].mask
    assert union_mask & carrier.mask == carrier.mask
    for drop in range(len(idx)):
        rest = 0
        for j, i in enumerate(idx):
            if j != drop:
                rest |= family[i].mask
        assert rest & carrier.mask != carrier.mask


def test_minimal_subcover_matches_brute_force(example_space):
    from softtopo import SplitMix64

    rng = SplitMix64(20260814)
    carrier = make_absolute(SIG32)
    for _ in range(25):
        family = [SoftSet(SIG32, rng.below(64)) for _ in range(8)]
        rep = analyze_cover(example_space, carrier, family)
        best = None
        for r in range(len(family) + 1):
            for combo in itertools.combinations(range(len(family)), r):
                m = 0
                for i in combo:
                    m |= family[i].mask
                if m & carrier.mask == carrier.mask:
                    best = r
                    break
            if best is not None:
                break
        if best is None:
            assert not rep.is_cover
        else:
            assert rep.is_cover
            assert len(rep.minimal_subcover) == best


def test_semicompact_is_trivially_true(example_space, indiscrete21, discrete21):
    for t in (example_space, indiscrete21, discrete21):
        ok, note = is_semicompact(t)
        assert ok
        assert "finite instance" in note


def test_semiseparation_of_discrete(discrete21):
    pair = find_semiseparation(discrete21)
    assert pair is not None
    a, b = pair
    assert a.to_literal() == {"e1": ["h1"]}
    assert b.to_literal() == {"e1": ["h2"]}
    assert not is_semiconnected(discrete21)


def test_no_semiseparation_in_example(example_space, indiscrete21):
    assert find_semiseparation(example_space) is None
    assert find_semiseparation(indiscrete21) is None
    assert is_semiconnected(example_space)


def test_clopen_detector_agrees(example_space, discrete21, indiscrete21):
    for t in (example_space, discrete21, indiscrete21):
        assert (find_clopen(t) is None) == (find_semiseparation(t) is None)


def test_seminormal_characterization(discrete21, indiscrete21, example_space):
    for t in (discrete21, indiscrete21, example_space):
        ok, witness, exhaustive = seminormal_characterization(t)
        assert exhaustive
        assert ok == axiom_report(t).flag("seminormal")
        if ok:
            assert witness is None


def test_subspace_axiom_report_runs(example_space, f1):
    # reports also work for relative spaces
    sub = subspace(example_space, f1)
    rep = axiom_report(sub)
    assert set(c.axiom for c in rep.checks) == set(AXIOM_NAMES)
