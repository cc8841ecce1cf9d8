import pytest

from softtopo import (
    LiteralError,
    SignatureMismatch,
    SoftPoint,
    SoftSet,
    complement,
    enumerate_soft_sets,
    intersection,
    is_disjoint,
    is_subset,
    make_absolute,
    make_null,
    parse_point,
    parse_set_literal,
    parse_signature,
    point_in,
    union,
)

from .conftest import SIG21, SIG32


def test_signature_dimensions():
    assert SIG32.n == 3
    assert SIG32.m == 2
    assert SIG32.bits == 6
    assert SIG32.full_mask == 0b111111


def test_signature_cell_layout():
    # parameters are the outer axis, elements the inner one; the first cell
    # owns the most significant bit
    assert SIG32.cell_bit(0, 0) == 0b100000
    assert SIG32.cell_bit(0, 2) == 0b001000
    assert SIG32.cell_bit(1, 0) == 0b000100
    assert SIG32.cell_bit(1, 2) == 0b000001


def test_signature_rejects_duplicates():
    with pytest.raises(LiteralError):
        parse_signature({"universe": ["h1", "h1"], "parameters": ["e1"]})
    with pytest.raises(LiteralError):
        parse_signature({"universe": ["h1"], "parameters": []})


def test_from_rows_mask(f1):
    assert f1.mask == 0b110100
    assert f1.row_mask(0) == 0b110
    assert f1.row_mask(1) == 0b100
    assert f1.row("e1") == ("h1", "h2")
    assert f1.row("e2") == ("h1",)


def test_from_rows_rejects_unknown_labels():
    with pytest.raises(LiteralError):
        SoftSet.from_rows(SIG32, {"e9": ["h1"]})
    with pytest.raises(LiteralError):
        SoftSet.from_rows(SIG32, {"e1": ["nope"]})


def test_literal_round_trip(f1):
    lit = f1.to_literal()
    assert lit == {"e1": ["h1", "h2"], "e2": ["h1"]}
    assert parse_set_literal(SIG32, lit) == f1


def test_encoding_is_fixed_width_bits(f1):
    assert f1.encoding() == "110100"
    assert make_null(SIG32).encoding() == "000000"


def test_null_and_absolute():
    null = make_null(SIG32)
    full = make_absolute(SIG32)
    assert null.is_null and not null.is_absolute
    assert full.is_absolute and not full.is_null
    assert null.cardinality() == 0
    assert full.cardinality() == 6


def test_lattice_operators(f1):
    full = make_absolute(SIG32)
    null = make_null(SIG32)
    # n-ary forms take the signature so the empty family has a home
    assert union(SIG32, [f1, complement(f1)]) == full
    assert intersection(SIG32, [f1, complement(f1)]) == null
    assert union(SIG32, []) == null
    with pytest.raises(LiteralError):
        intersection(SIG32, [])
    assert (f1 | ~f1) == full
    assert (f1 & ~f1) == null
    assert is_subset(null, f1) and is_subset(f1, full)
    assert f1 <= full
    assert is_disjoint(f1, complement(f1))


def test_cross_signature_ops_rejected(f1):
    other = make_absolute(SIG21)
    with pytest.raises(SignatureMismatch):
        union(SIG32, [f1, other])


def test_equal_but_distinct_signatures_are_the_same_signature(f1, example_space):
    twin = parse_signature(SIG32.to_obj())
    assert twin is not SIG32 and twin == SIG32
    g = SoftSet(twin, f1.mask)
    assert (f1 | g, f1 & g, f1 <= g, g <= f1) == (f1, f1, True, True)
    assert union(SIG32, [f1, g]) == f1
    assert example_space.interior(g) == f1
    assert example_space.is_open(g)


def test_different_signatures_of_one_shape_are_rejected(f1, example_space):
    # same 3x2 shape and masks, other labels
    other = parse_signature({"universe": ["a", "b", "c"], "parameters": ["e1", "e2"]})
    g = SoftSet(other, f1.mask)
    for op in (lambda: f1 | g, lambda: f1 & g, lambda: f1 <= g,
               lambda: union(SIG32, [f1, g]), lambda: example_space.interior(g),
               lambda: example_space.is_open(g)):
        with pytest.raises(SignatureMismatch):
            op()


def test_soft_points(f1):
    pts = list(f1.points())
    assert len(pts) == 3
    labels = [p.label() for p in pts]
    assert labels == ["e1:h1", "e1:h2", "e2:h1"]
    p = parse_point(SIG32, "e2:h1")
    assert p.bit == 0b000100
    assert point_in(p, f1)
    assert not point_in(p, make_null(SIG32))
    assert p.as_soft_set().mask == p.bit


def test_point_parse_errors():
    with pytest.raises(LiteralError):
        parse_point(SIG32, "e1-h1")
    with pytest.raises(LiteralError):
        parse_point(SIG32, "e1:h9")
    with pytest.raises(LiteralError):
        SoftPoint(SIG32, "e7", "h1")


def test_enumerate_soft_sets_order():
    sets = list(enumerate_soft_sets(SIG21))
    assert len(sets) == 4
    assert [s.mask for s in sets] == [0, 1, 2, 3]
    assert sets[0].is_null and sets[-1].is_absolute
