"""Seeded random space-expression trees for the expr_roundtrip workload.

Trees are built with the raw node constructors, not the smart ones, so
they arrive denormalized: nested and singleton wedges and products, stacked
loops and suspensions, suspensions of spheres and of wedges, and two-cell
complexes with a zero attaching class.  They are deeper and wider than the
trees `decompose` builds.
"""

from __future__ import annotations

import random

import gaugekit as gk

_GROUPS = ["E6", "E7", "E8", "G2", "F4", "Sp(3)", "Spin(11)", "SU(4)"]
_MODULI = [2, 3, 12, 24, 240, 504, 65520]
_LABELS = [None, "f", "J(xi)", "h2"]
_PRIMES = [(2,), (3,), (2, 3), (2, 3, 5), (5, 7), (2, 3, 5, 7, 13)]
MAX_NODES = 60


def _atom(rng: random.Random) -> gk.SpaceExpr:
    pick = rng.randrange(4)
    if pick == 0:
        return gk.Sphere(rng.randint(1, 24))
    if pick == 1:
        return gk.SuspCP2(rng.randint(0, 8))
    if pick == 2:
        d = rng.choice(_MODULI)
        value = 0 if rng.random() < 0.2 else rng.randrange(d)
        return gk.TwoCell(rng.randint(2, 16), gk.CyclicElem(value, d))
    return gk.LieGroup(rng.choice(_GROUPS))


def tree(rng: random.Random, depth: int, budget: list[int], root: bool = False) -> gk.SpaceExpr:
    """A tree of at most about budget[0] nodes; the budget caps the size so
    that the largest trees of every seed are alike."""
    budget[0] -= 1
    if depth == 0 or budget[0] <= 0 or (not root and rng.random() < 0.15):
        return _atom(rng)
    pick = rng.randrange(7)
    if pick in (0, 1):
        cls = gk.Wedge if pick == 0 else gk.Product
        return cls(tuple(tree(rng, depth - 1, budget) for _ in range(rng.randint(1, 5))))
    if pick == 2:
        return gk.Loop(rng.randint(1, 3), tree(rng, depth - 1, budget))
    if pick == 3:
        return gk.Suspension(rng.randint(1, 3), tree(rng, depth - 1, budget))
    if pick == 4:
        return gk.AttachedComplex(tree(rng, depth - 1, budget), rng.randint(8, 40), rng.choice(_LABELS))
    if pick == 5:
        group = rng.choice([None, rng.choice(_GROUPS)])
        return gk.Gauge(tree(rng, depth - 1, budget), rng.choice(["k", "alpha"]), group)
    return gk.MappingSpace(tree(rng, depth - 1, budget), tree(rng, depth - 1, budget))


def items(rng: random.Random, count: int) -> list[tuple[gk.SpaceExpr, tuple[int, ...]]]:
    """(denormalized tree, primes to localize away) pairs."""
    return [
        (tree(rng, rng.randint(3, 6), [MAX_NODES], root=True), rng.choice(_PRIMES))
        for _ in range(count)
    ]
