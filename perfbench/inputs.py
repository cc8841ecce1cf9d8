"""Seeded inputs for the workloads, built without calling the program.

A finite topology on the n*m cells of a signature is determined by the
minimal open neighbourhood N(x) of every cell x, and its opens are
exactly the unions of those neighbourhoods. The generators here work on
that representation, which is independent of the program's own closure
and validation code, so the benchmark can size its inputs exactly and
check the program's answers against it.

Soft sets use the program's file layout: parameters outer, elements
inner, first cell in the most significant bit.
"""
from __future__ import annotations

import random


def signature_obj(n: int, m: int) -> dict:
    return {
        "universe": [f"h{j + 1}" for j in range(n)],
        "parameters": [f"e{i + 1}" for i in range(m)],
    }


def literal(mask: int, n: int, m: int) -> dict:
    """Soft set literal {parameter: [elements]} of one mask."""
    bits = n * m
    return {
        f"e{i + 1}": [f"h{j + 1}" for j in range(n) if mask >> (bits - 1 - (i * n + j)) & 1]
        for i in range(m)
    }


def space_obj(opens: list[int], n: int, m: int) -> dict:
    return {"signature": signature_obj(n, m), "opens": [literal(o, n, m) for o in opens]}


def neighbourhoods(subbasis, bits: int) -> list[int]:
    """N(x) for every cell: the intersection of the subbasis sets holding x."""
    full = (1 << bits) - 1
    out = []
    for x in range(bits):
        nb = full
        for s in subbasis:
            if s >> x & 1:
                nb &= s
        out.append(nb)
    return out


def opens_of(nbhds, limit: float = float("inf")) -> set[int]:
    """Every union of the given neighbourhoods, the null set included.

    Stops early, with a partial family larger than `limit`, once the family
    outgrows it.
    """
    family = {0}
    for nb in set(nbhds):
        family |= {f | nb for f in family}
        if len(family) > limit:
            break
    return family


def sized_topology(rng: random.Random, bits: int, target: int, tol: float) -> list[int]:
    """Sorted opens of a random topology with |opens| within target*(1 +- tol).

    Random sets are added to a subbasis one at a time; a set that would
    overshoot the band is dropped and another is drawn, and a run that
    keeps overshooting starts over.
    """
    lo, hi = target * (1 - tol), target * (1 + tol)
    full = (1 << bits) - 1
    while True:
        nbhds = [full] * bits
        size = 2
        misses = 0
        while size < lo and misses < 200:
            s = rng.getrandbits(bits)
            if s in (0, full):
                continue
            trial = [nb & s if s >> x & 1 else nb for x, nb in enumerate(nbhds)]
            count = len(opens_of(trial, hi))
            if count > hi:
                misses += 1
                continue
            nbhds, size = trial, count
        if lo <= size <= hi:
            return sorted(opens_of(nbhds))


def seeded_map(rng: random.Random, n: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(point_map, param_map) of a random self-map of an n x m signature."""
    return (
        tuple(rng.randrange(n) for _ in range(n)),
        tuple(rng.randrange(m) for _ in range(m)),
    )
