"""Seeded generators for fuzz networks and polytrees."""

from __future__ import annotations

import math

import numpy as np

from .network import BayesianNetwork
from .zoo import build_network


def random_dag(
    rng: np.random.Generator,
    n_min: int = 4,
    n_max: int = 12,
    card_max: int = 4,
    max_parents: int = 3,
    statespace_cap: int = 2**20,
) -> BayesianNetwork:
    """Random DAG with strictly positive tables; edges always point from a
    lower to a higher id, so declaration order is a topological order.

    Cardinalities are lowered to 2 until the joint state space fits
    ``statespace_cap``; raises ValueError when even 2**n does not fit."""
    n = int(rng.integers(n_min, n_max + 1))
    if 2**n > statespace_cap:
        # Even all-binary variables exceed the cap; the repair loop below
        # could never get under it.
        raise ValueError(
            f"{n} variables have at least 2**{n} joint states, "
            f"over the state-space cap {statespace_cap}"
        )
    cards = rng.integers(2, card_max + 1, size=n)
    while math.prod(int(c) for c in cards) > statespace_cap:
        cards[int(rng.integers(0, n))] = 2
    spec = []
    for i in range(n):
        pool = list(range(i))
        rng.shuffle(pool)
        k = int(rng.integers(0, min(max_parents, len(pool)) + 1))
        parents = sorted(pool[:k])
        spec.append((f"v{i}", int(cards[i]), [f"v{p}" for p in parents]))
    return build_network(spec, rng)


def random_polytree(
    rng: np.random.Generator, n_min: int = 4, n_max: int = 12, card_max: int = 4
) -> BayesianNetwork:
    """Random connected polytree: a uniform random tree with every edge
    oriented at random (orientations of a tree can never create a cycle)."""
    n = int(rng.integers(n_min, n_max + 1))
    cards = rng.integers(2, card_max + 1, size=n)
    parents: dict[int, list[int]] = {i: [] for i in range(n)}
    for i in range(1, n):
        other = int(rng.integers(0, i))
        if rng.random() < 0.5:
            parents[i].append(other)
        else:
            parents[other].append(i)
    spec = [
        (f"v{i}", int(cards[i]), [f"v{p}" for p in sorted(parents[i])])
        for i in range(n)
    ]
    return build_network(spec, rng)

