"""Networks from (name, cardinality, parent names) triples.

Conditional tables are sampled strictly positive from a seeded generator
unless explicit tables are supplied; the random generators and the tests
build their networks here.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .factor import Factor
from .network import BayesianNetwork, Variable

Spec = Sequence[tuple[str, int, Sequence[str]]]


def positive_cpt(rng: np.random.Generator, bn_cards, var, parents) -> np.ndarray:
    """Strictly positive table over sorted({var} ∪ parents), rows normalized."""
    scope = tuple(sorted((var, *parents)))
    shape = tuple(bn_cards[u] for u in scope)
    vals = rng.uniform(0.1, 1.0, size=shape)
    axis = scope.index(var)
    return vals / vals.sum(axis=axis, keepdims=True)


def build_network(
    spec: Spec,
    rng: Optional[np.random.Generator] = None,
    cpts: Optional[dict[str, np.ndarray]] = None,
) -> BayesianNetwork:
    """Assemble a network from (name, cardinality, parent names) triples.

    ``cpts`` maps names to tables in file convention (axes: parents in
    declared order, then the child); missing tables are sampled from rng.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    ids = {name: i for i, (name, _, _) in enumerate(spec)}
    variables = [
        Variable(i, name, card, tuple(f"{name.lower()}{k}" for k in range(card)))
        for i, (name, card, _) in enumerate(spec)
    ]
    cards = {i: v.cardinality for i, v in enumerate(variables)}
    parents = {ids[name]: tuple(ids[p] for p in ps) for name, _, ps in spec}
    tables: dict[int, Factor] = {}
    for name, _, ps in spec:
        v = ids[name]
        scope = tuple(sorted((v, *parents[v])))
        if cpts and name in cpts:
            file_axes = (*parents[v], v)
            arr = np.asarray(cpts[name], dtype=float).reshape(
                tuple(cards[u] for u in file_axes)
            )
            arr = arr.transpose(tuple(file_axes.index(u) for u in scope))
        else:
            arr = positive_cpt(rng, cards, v, parents[v])
        tables[v] = Factor(scope, [cards[u] for u in scope], arr)
    return BayesianNetwork(variables, parents, tables)
