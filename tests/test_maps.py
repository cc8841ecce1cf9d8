import itertools
import json

import pytest

from softtopo import (
    SignatureMismatch,
    SoftFunction,
    SoftSet,
    classify_map,
    discrete,
    enumerate_topologies,
    image,
    indiscrete,
    is_semiopen,
    make_absolute,
    parse_function,
    parse_signature,
    preimage,
    save_space,
    scss_definitional,
    soss_definitional,
)
from softtopo.explorer import auto_signature

from .conftest import SIG21, SIG32

SIG31 = parse_signature({"universe": ["h1", "h2", "h3"], "parameters": ["e1"]})

IDENTITY32 = SoftFunction.from_labels(
    SIG32,
    SIG32,
    {"h1": "h1", "h2": "h2", "h3": "h3"},
    {"e1": "e1", "e2": "e2"},
)

# collapses both parameters onto e1, keeps points fixed
COLLAPSE = SoftFunction.from_labels(
    SIG32,
    SIG31,
    {"h1": "h1", "h2": "h2", "h3": "h3"},
    {"e1": "e1", "e2": "e1"},
)


def test_identity_image_preimage(example_space, f1):
    assert image(IDENTITY32, f1) == f1
    assert preimage(IDENTITY32, f1) == f1


def test_collapse_image_of_generator(f1):
    got = image(COLLAPSE, f1)
    assert got.to_literal() == {"e1": ["h1", "h2"]}


def test_collapse_preimage(f1):
    g = SoftSet.from_rows(SIG31, {"e1": ["h1"]})
    got = preimage(COLLAPSE, g)
    assert got.to_literal() == {"e1": ["h1"], "e2": ["h1"]}


def test_constant_point_map_image(f1):
    const = SoftFunction.from_labels(
        SIG32,
        SIG32,
        {"h1": "h1", "h2": "h1", "h3": "h1"},
        {"e1": "e1", "e2": "e2"},
    )
    got = image(const, f1)
    assert got.to_literal() == {"e1": ["h1"], "e2": ["h1"]}


def test_image_of_null_preimage_of_absolute(f1):
    from softtopo import make_null

    assert image(COLLAPSE, make_null(SIG32)).is_null
    assert preimage(COLLAPSE, make_absolute(SIG31)).is_absolute


def test_image_monotone(f1):
    for sub_mask in range(f1.mask + 1):
        sub = SoftSet(SIG32, sub_mask & f1.mask)
        assert image(COLLAPSE, sub) <= image(COLLAPSE, f1)


def test_preimage_is_boolean_homomorphism():
    # unions, intersections and complements all commute with preimage
    for a_mask in range(8):
        for b_mask in range(8):
            a, b = SoftSet(SIG31, a_mask), SoftSet(SIG31, b_mask)
            assert preimage(COLLAPSE, a | b) == preimage(COLLAPSE, a) | preimage(COLLAPSE, b)
            assert preimage(COLLAPSE, a & b) == preimage(COLLAPSE, a) & preimage(COLLAPSE, b)
        assert preimage(COLLAPSE, ~SoftSet(SIG31, a_mask)) == ~preimage(
            COLLAPSE, SoftSet(SIG31, a_mask)
        )


def test_signature_mismatch_rejected(f1):
    with pytest.raises(SignatureMismatch):
        image(COLLAPSE, SoftSet(SIG31, 1))
    with pytest.raises(SignatureMismatch):
        preimage(COLLAPSE, f1)


def test_identity_classifies_fully(example_space):
    c = classify_map(IDENTITY32, example_space, example_space)
    assert c.continuous and c.semicontinuous and c.irresolute
    assert c.semiopen_map and c.semiclosed_map
    assert c.counterwitnesses == {}


def test_indiscrete_target_is_easy(example_space):
    tgt = indiscrete(SIG31)
    c = classify_map(COLLAPSE, example_space, tgt)
    assert c.semicontinuous and c.irresolute


def test_discrete_source_is_semicontinuous(sig32):
    src = discrete(sig32)
    tgt = discrete(SIG31)
    c = classify_map(COLLAPSE, src, tgt)
    assert c.continuous and c.semicontinuous


def test_counterwitness_refails(example_space):
    # an indiscrete source against a discrete target cannot be continuous;
    # the recorded witness must actually misbehave
    src = indiscrete(SIG32)
    tgt = discrete(SIG31)
    c = classify_map(COLLAPSE, src, tgt)
    assert not c.continuous
    witness = c.counterwitnesses["continuous"]
    assert tgt.is_open(witness)
    assert not src.is_open(preimage(COLLAPSE, witness))
    if not c.irresolute:
        w = c.counterwitnesses["irresolute"]
        assert is_semiopen(tgt, w)[0]
        assert not is_semiopen(src, preimage(COLLAPSE, w))[0]


def _first_failing(family, fails):
    return next((m for m in family if fails(m)), None)


def test_counterwitness_is_the_first_failing_member_of_its_family():
    # every map between every pair of spaces of up to 2 bits; the reference
    # is a plain ascending scan of each flag's family over the oracle families
    spaces = [t for n, m in ((1, 1), (2, 1), (1, 2))
              for t in enumerate_topologies(auto_signature(n, m))]
    seen = 0
    for t_src, t_tgt in itertools.product(spaces, spaces):
        src, tgt = t_src.signature, t_tgt.signature
        opens_src, opens_tgt = list(t_src.open_masks), list(t_tgt.open_masks)
        open_set_src = set(opens_src)
        soss_src = {g.mask for g in soss_definitional(t_src)}
        soss_tgt = [g.mask for g in soss_definitional(t_tgt)]
        soss_tgt_set = set(soss_tgt)
        scss_tgt = {g.mask for g in scss_definitional(t_tgt)}
        closed_src = sorted(src.full_mask ^ o for o in opens_src)
        for pm in itertools.product(range(tgt.n), repeat=src.n):
            for qm in itertools.product(range(tgt.m), repeat=src.m):
                f = SoftFunction(src, tgt, pm, qm)
                want = {
                    "continuous": _first_failing(
                        opens_tgt, lambda o: f.preimage_mask(o) not in open_set_src),
                    "semicontinuous": _first_failing(
                        opens_tgt, lambda o: f.preimage_mask(o) not in soss_src),
                    "irresolute": _first_failing(
                        soss_tgt, lambda s: f.preimage_mask(s) not in soss_src),
                    "semiopen_map": _first_failing(
                        opens_src, lambda o: f.image_mask(o) not in soss_tgt_set),
                    "semiclosed_map": _first_failing(
                        closed_src, lambda c: f.image_mask(c) not in scss_tgt),
                }
                c = classify_map(f, t_src, t_tgt)
                got = {k: w.mask for k, w in c.counterwitnesses.items()}
                assert got == {k: m for k, m in want.items() if m is not None}, (pm, qm)
                for flag in c.FLAGS:
                    assert getattr(c, flag) == (want[flag] is None), (flag, pm, qm)
                seen += 1
    assert seen == 217


def test_surjectivity_flags():
    assert IDENTITY32.is_surjective
    drop = SoftFunction.from_labels(
        SIG32,
        SIG32,
        {"h1": "h1", "h2": "h1", "h3": "h3"},
        {"e1": "e1", "e2": "e2"},
    )
    assert not drop.is_point_surjective
    assert drop.is_param_surjective
    assert not drop.is_surjective


def test_totality_enforced():
    from softtopo import LiteralError

    with pytest.raises(LiteralError):
        SoftFunction.from_labels(SIG32, SIG31, {"h1": "h1"}, {"e1": "e1", "e2": "e1"})


def test_function_file_round_trip(tmp_path, example_space):
    src_path = tmp_path / "src.json"
    tgt_path = tmp_path / "tgt.json"
    save_space(example_space, str(src_path))
    save_space(indiscrete(SIG31), str(tgt_path))
    fn_obj = {
        "source": "src.json",
        "target": "tgt.json",
        "point_map": {"h1": "h1", "h2": "h2", "h3": "h3"},
        "param_map": {"e1": "e1", "e2": "e1"},
    }
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(json.dumps(fn_obj))
    with open(fn_path) as fh:
        f, t_src, t_tgt = parse_function(json.load(fh), base_dir=str(tmp_path))
    assert t_src.encoding() == example_space.encoding()
    assert image(f, SoftSet(SIG32, 52)).to_literal() == {"e1": ["h1", "h2"]}
