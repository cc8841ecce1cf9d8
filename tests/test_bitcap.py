"""SOFTTOPO_BITCAP: every lattice walk refuses a carrier above the cap, the
suite refuses such a space up front, and the per-set route ignores it."""
import json

import pytest

from softtopo import (
    BitCapExceeded,
    SoftSet,
    discrete,
    enumerate_soft_sets,
    from_subbasis,
    parse_signature,
    random_topology,
    save_space,
)
from softtopo.claims import SpaceCtx
from softtopo.cli import main
from softtopo.core import submasks

SIG9 = parse_signature({"universe": ["h1", "h2", "h3"], "parameters": ["e1", "e2", "e3"]})
WALK_REFUSED = "lattice scan over 9 cells exceeds the 8-bit cap"


def nine_cell_space():
    seeds = [SoftSet.from_rows(SIG9, {"e1": ["h1", "h2"]}),
             SoftSet.from_rows(SIG9, {"e1": ["h2"], "e2": ["h3"]})]
    return from_subbasis(SIG9, seeds)


def run(capsys, argv):
    code = main(argv + ["--no-banner"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cap8(monkeypatch, tmp_path):
    """SOFTTOPO_BITCAP=8, with the 9-cell space and its identity map on disk."""
    monkeypatch.setenv("SOFTTOPO_BITCAP", "8")
    save_space(nine_cell_space(), str(tmp_path / "s9.json"))
    fn = {"source": "s9.json", "target": "s9.json",
          "point_map": {h: h for h in SIG9.universe},
          "param_map": {e: e for e in SIG9.parameters}}
    (tmp_path / "fn.json").write_text(json.dumps(fn))
    return tmp_path


@pytest.mark.parametrize("full", [
    0, 1, 0b110, 0b1010_0110, 0xFF, 0x7FF, (1 << 15) | 1, 0b1100_0000_0011_0000, (1 << 16) - 1,
])
def test_submasks_is_the_filtered_range(full):
    assert list(submasks(full)) == [s for s in range(full + 1) if s & ~full == 0]


@pytest.mark.parametrize("raw, message", [
    ("x", "must be an integer, got 'x'"),
    ("0", "must be in 1..62, got 0"),
    ("63", "must be in 1..62, got 63"),
])
def test_a_bad_cap_is_invalid_input(monkeypatch, capsys, raw, message):
    monkeypatch.setenv("SOFTTOPO_BITCAP", raw)
    assert run(capsys, ["suite", "builtin:example"]) == (
        2, "", f"error: literal: SOFTTOPO_BITCAP {message}\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["axioms", "{d}/s9.json"], WALK_REFUSED),
    (["map-check", "@{d}/fn.json"], WALK_REFUSED),
    (["suite", "{d}/s9.json"], "corpus[0] has 9 cells, above the 8-bit cap"),
    (["suite", "{d}/s9.json", "--claims", "INV.CORE.LATTICE"],
     "corpus[0] has 9 cells, above the 8-bit cap"),
])
def test_commands_that_walk_refuse_a_space_above_the_cap(cap8, capsys, argv, message):
    argv = [a.format(d=cap8) for a in argv]
    assert run(capsys, argv) == (2, "", f"error: bitcap: {message}\n")


def test_suite_refuses_a_builtin_above_the_cap(monkeypatch, capsys):
    monkeypatch.setenv("SOFTTOPO_BITCAP", "5")
    assert run(capsys, ["suite", "builtin:indiscrete"]) == (
        2, "", "error: bitcap: builtin:example has 6 cells, above the 5-bit cap\n"
    )


def test_classify_never_walks(cap8, capsys):
    code, out, err = run(capsys, ["classify", f"{cap8}/s9.json", "--set", '{"e1": ["h1", "h2"]}'])
    assert (code, err) == (0, "")
    assert {"open=true", "semiopen=true"} <= set(out.splitlines())


def test_lattice_walks_refuse_above_the_cap(monkeypatch):
    monkeypatch.setenv("SOFTTOPO_BITCAP", "8")
    t = nine_cell_space()
    walks = (t.lattice, SpaceCtx(t, "nine").lat,
             lambda: enumerate_soft_sets(SIG9), lambda: discrete(SIG9).open_masks)
    for walk in walks:
        with pytest.raises(BitCapExceeded, match=WALK_REFUSED):
            list(walk())
    with pytest.raises(BitCapExceeded, match="9-bit lattice exceeds the configured cap"):
        random_topology(SIG9, seed=0, density=0.3)
    monkeypatch.setenv("SOFTTOPO_BITCAP", "9")
    assert len(list(t.lattice())) == len(list(SpaceCtx(t, "nine").lat())) == 512
