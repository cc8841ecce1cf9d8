import types

from softtopo import (
    SoftSet,
    SoftTopology,
    discrete,
    from_subbasis,
    indiscrete,
    kernels,
    ssint,
    sscl,
    subspace,
)
from softtopo.core import submasks
from softtopo.explorer import auto_signature
from softtopo.prng import SplitMix64
from softtopo.semi import _naive_closure, _naive_interior

from .conftest import small_subspaces

PUBLIC = {
    name
    for name, fn in vars(kernels).items()
    if not name.startswith("_") and isinstance(fn, types.FunctionType)
}


def _names(code: types.CodeType) -> set[str]:
    """Global and attribute names a function reads, nested closures included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


def test_public_kernels_never_call_public_kernels():
    # perfbench's tracer wraps each public kernel and rebinds every name bound
    # to it, so a public-to-public call would be recorded once per lattice mask
    assert {"interior_mask", "closure_mask", "min_cover"} <= PUBLIC
    for name in sorted(PUBLIC):
        calls = _names(getattr(kernels, name).__code__) & PUBLIC
        assert not calls, f"kernels.{name} calls public kernels {sorted(calls)}"


def _seeded(n: int, m: int, seed: int) -> SoftTopology:
    """Smallest space holding six seeded soft sets: a few hundred opens at 16 cells."""
    sig = auto_signature(n, m)
    rng = SplitMix64(seed)
    return from_subbasis(sig, [SoftSet(sig, rng.below(sig.full_mask + 1)) for _ in range(6)])


def _agree(t: SoftTopology, masks) -> None:
    """The table route against the oracle's interior and closure over every open."""
    opens, full, table = list(t.open_masks), t.absolute.mask, t.closure_table
    open_set = set(opens)
    ssint_tab, sscl_tab = kernels.ssint_table(table, full), kernels.sscl_table(table, full)
    assert list(ssint_tab) == list(sscl_tab) == list(submasks(full))
    for g in masks:
        s = SoftSet(t.signature, g)
        want_int = _naive_interior(g, opens)
        want_cl = _naive_closure(g, opens, full)
        want_ssint = g & _naive_closure(want_int, opens, full)
        want_sscl = g | _naive_interior(want_cl, opens)
        got = (kernels.interior_mask(g, table, full), t.interior(s).mask,
               kernels.closure_mask(g, table, full), t.closure(s).mask,
               ssint_tab[g], ssint(t, s).mask, sscl_tab[g], sscl(t, s).mask,
               t.is_open(s), t.is_closed(s))
        want = (want_int, want_int, want_cl, want_cl, want_ssint, want_ssint,
                want_sscl, want_sscl, g in open_set, full ^ g in open_set)
        assert got == want, (t.encoding(), g)


def test_table_route_matches_the_oracle_on_small_spaces():
    # every set of every topology of up to 3 bits and of each of its subspaces
    for t in small_subspaces():
        _agree(t, submasks(t.absolute.mask))


def test_table_route_matches_the_oracle_at_the_chunk_edges():
    # the table has one chunk per 8 cells: 8, 9, 15 and 16 cells end a chunk
    # exactly, one past it, one short of the next, and on the next edge; the
    # subspace leaves holes in both chunks
    seeded = [_seeded(n, m, 20 + n * m) for n, m in ((4, 2), (3, 3), (5, 3), (4, 4))]
    sig16 = seeded[-1].signature
    spaces = seeded + [subspace(seeded[-1], SoftSet(sig16, 0b1011_0111_1110_1101)),
                       indiscrete(sig16), discrete(sig16)]
    rng = SplitMix64(2012)
    for t in spaces:
        full = t.absolute.mask
        cells = [1 << x for x in range(full.bit_length()) if full >> x & 1]
        # the discrete space has 2^16 opens for the oracle to scan per call
        draws = 8 if len(t.open_masks) > 4096 else 200
        pairs = [a | b for a, b in zip(cells, cells[1:])]
        masks = [0, full, full & 0xFF, full & ~0xFF] + cells + pairs + [
            full & rng.below(full + 1) for _ in range(draws)]
        _agree(t, masks)
