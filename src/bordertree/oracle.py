"""Brute-force enumeration reference.

Every acceptance test checks the message-passing engines against this
module.  It materializes the full joint table directly from the chain rule
(one broadcast per CPT onto the n-dimensional grid) and answers queries by
masking and summing that grid; it deliberately shares no code path with the
factor kernels or any inference module.  A size cap keeps it honest about
its exponential nature.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .errors import EnumerationCapError, ImpossibleEvidenceError
from .network import BayesianNetwork

DEFAULT_CAP = 2**24

# Networks are immutable, so the (expensive) grid is computed once each.
_joint_cache: "weakref.WeakKeyDictionary[BayesianNetwork, np.ndarray]" = (
    weakref.WeakKeyDictionary()
)


def joint(bn: BayesianNetwork) -> np.ndarray:
    """Full joint table, shape ``bn.cards``, axis i = variable i."""
    cards = bn.cards
    size = math.prod(cards)
    if size > DEFAULT_CAP:
        raise EnumerationCapError(f"joint table of {size} entries exceeds cap {DEFAULT_CAP}")
    cached = _joint_cache.get(bn)
    if cached is not None:
        return cached
    n = len(cards)
    table = np.ones(cards)
    for v in bn.ids:
        f = bn.cpts[v]
        shape = [1] * n
        for u, c in zip(f.scope, f.cards):
            shape[u] = c
        table = table * f.values.reshape(shape)
    table.setflags(write=False)
    _joint_cache[bn] = table
    return table


def _mask(bn: BayesianNetwork, ev) -> np.ndarray | None:
    out = None
    n = len(bn)
    for var in ev.vars:
        allowed = ev.allowed(var)
        col = np.zeros(bn.card(var))
        col[sorted(allowed)] = 1.0
        shape = [1] * n
        shape[var] = bn.card(var)
        col = col.reshape(shape)
        out = col if out is None else out * col
    return out


_restricted_cache: "weakref.WeakKeyDictionary[BayesianNetwork, dict]" = (
    weakref.WeakKeyDictionary()
)


def restricted_joint(bn: BayesianNetwork, ev) -> np.ndarray:
    table = joint(bn)
    m = _mask(bn, ev)
    if m is None:
        return table
    per_bn = _restricted_cache.setdefault(bn, {})
    key = ev.fingerprint()
    if key not in per_bn:
        if len(per_bn) >= 8:
            per_bn.clear()
        masked = table * m
        masked.setflags(write=False)
        per_bn[key] = masked
    return per_bn[key]


def oracle_event_prob(bn: BayesianNetwork, ev) -> float:
    return float(restricted_joint(bn, ev).sum())


def oracle_marginal(bn: BayesianNetwork, vars, ev=None) -> np.ndarray:
    """Unnormalized table over ``vars`` (sorted order): Pr{vars, [evidence]}."""
    keep = sorted(set(vars))
    table = joint(bn) if ev is None else restricted_joint(bn, ev)
    drop = tuple(v for v in bn.ids if v not in keep)
    return table.sum(axis=drop) if drop else table


def oracle_posterior(bn: BayesianNetwork, ev, q: int) -> np.ndarray:
    """Normalized Pr{q | [evidence]} as a 1-d array over q's values."""
    dist = oracle_marginal(bn, [q], ev)
    s = dist.sum()
    if s <= 0.0:
        raise ImpossibleEvidenceError("evidence has probability 0")
    return dist / s
