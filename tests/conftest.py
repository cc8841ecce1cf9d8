import pytest
from hypothesis import settings

from softtopo import (
    SoftSet,
    SoftTopology,
    discrete,
    enumerate_topologies,
    indiscrete,
    parse_signature,
    subspace,
)
from softtopo.explorer import auto_signature

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


SIG32 = parse_signature({"universe": ["h1", "h2", "h3"], "parameters": ["e1", "e2"]})
SIG21 = parse_signature({"universe": ["h1", "h2"], "parameters": ["e1"]})
SIG11 = parse_signature({"universe": ["h1"], "parameters": ["e1"]})


def example_topology() -> SoftTopology:
    """Three opens over a 3x2 signature; the smallest space where semiopen != open."""
    f1 = SoftSet.from_rows(SIG32, {"e1": ["h1", "h2"], "e2": ["h1"]})
    return SoftTopology(
        SIG32, [SoftSet(SIG32, 0), f1, SoftSet(SIG32, SIG32.full_mask)]
    )


def small_topologies() -> list[SoftTopology]:
    """The example space, then every topology of up to 3 lattice bits (67 spaces)."""
    sigs = ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3))
    return [example_topology()] + [
        t for n, m in sigs for t in enumerate_topologies(auto_signature(n, m))
    ]


def small_subspaces() -> list[SoftTopology]:
    """Each of small_topologies(), followed by its subspace on every nonnull carrier."""
    out = []
    for t in small_topologies():
        lattice = range(1, t.signature.full_mask + 1)
        out += [t] + [subspace(t, SoftSet(t.signature, c)) for c in lattice]
    return out


@pytest.fixture(scope="session")
def sig32():
    return SIG32


@pytest.fixture(scope="session")
def sig21():
    return SIG21


@pytest.fixture(scope="session")
def example_space():
    return example_topology()


@pytest.fixture(scope="session")
def f1(example_space):
    return SoftSet.from_rows(SIG32, {"e1": ["h1", "h2"], "e2": ["h1"]})


@pytest.fixture(scope="session")
def g0():
    # nonnull set with null interior: its semi-closure is the whole space
    return SoftSet.from_rows(SIG32, {"e1": ["h1"], "e2": []})


@pytest.fixture(scope="session")
def discrete21():
    return discrete(SIG21)


@pytest.fixture(scope="session")
def indiscrete21():
    return indiscrete(SIG21)
