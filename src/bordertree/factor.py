"""Dense factors over discrete variables.

A factor is the one numeric object in the engine: conditional probability
tables, cohort tables, evidence indicators, directional messages and
marginals are all factors.  The layout is canonical so that every operation
aligns tables deterministically:

* ``scope`` is a tuple of variable ids sorted ascending,
* ``values`` is a row-major float64 array of shape ``cards`` (one axis per
  scope variable, last axis fastest),
* entries are finite and non-negative.

Factors are immutable after construction and all operations are pure.
Every factor, whatever built it, passes the same checks in
``Factor.__init__``: scope order, cards, shape, finiteness and sign.  The
constructor copies its input unless the array is read-only, C-contiguous and
owns its data: nothing else can then write to it.  The operations below
hand their fresh results over in that form, so a result is checked but never
copied.

Every table the program computes is a product of factors followed by a
marginalization: messages, passes and readouts, and also priors, cohort
tables and row sums.  :func:`contract` computes that in one ``np.einsum``
call, without building the product table when something is summed out.  Its
einsum subscripts name each variable by its rank within the operands'
union.  They depend only on the operands' scopes and cards and on the kept
set, so they are planned once per layout and kept in a bounded LRU cache.  A
node or border with more incoming messages than one einsum call takes is
contracted in groups, so fan-out is unbounded.

:func:`multiply`, :func:`product_all`, :func:`sum_out` and
:func:`marginal_to` are short forms of :func:`contract` (a product onto the
union scope, or a marginal of one factor), kept for the tests and the
library's users.  The program itself calls :func:`contract`.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Mapping

import numpy as np

from .errors import ImpossibleEvidenceError


class Factor:
    """A checked, read-only table over an ascending scope.

    Every construction checks the entries with two reductions: a NaN or an
    infinity makes the minimum or the maximum non-finite, and a negative
    entry makes the minimum negative.  ``values`` is copied unless it is a
    read-only, C-contiguous array that owns its data, the form in which
    ``contract``, ``restrict`` and ``normalize`` hand over their results.
    """

    __slots__ = ("scope", "cards", "values")

    def __init__(self, scope: Iterable[int], cards: Iterable[int], values):
        scope = tuple(scope)
        cards = tuple(map(int, cards))
        if len(scope) != len(cards):
            raise ValueError("scope and cards length mismatch")
        if any(a >= b for a, b in zip(scope, scope[1:])):
            raise ValueError("scope must be strictly ascending variable ids")
        vals = np.asarray(values, dtype=np.float64)
        lo = float(vals.min(initial=0.0))
        hi = float(vals.max(initial=0.0))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("factor entries must be finite")
        if lo < 0.0:
            raise ValueError("factor entries must be non-negative")
        if vals.shape != cards:
            vals = vals.reshape(cards)
        if vals.flags.writeable or vals.base is not None or not vals.flags.c_contiguous:
            vals = np.array(vals, order="C")
            vals.setflags(write=False)
        self.scope = scope
        self.cards = cards
        self.values = vals

    # -- constructors ---------------------------------------------------

    @staticmethod
    def scalar(value: float) -> "Factor":
        return Factor((), (), np.asarray(float(value)))

    @staticmethod
    def ones(scope: Iterable[int], cards: Iterable[int]) -> "Factor":
        cards = tuple(cards)
        return Factor(scope, cards, np.ones(cards))

    # -- helpers ---------------------------------------------------------

    def card_of(self, var: int) -> int:
        return self.cards[self.scope.index(var)]

    def axis_of(self, var: int) -> int:
        return self.scope.index(var)

    def total(self) -> float:
        return float(self.values.sum())

    def __repr__(self):
        return f"Factor(scope={self.scope}, cards={self.cards})"

    def allclose(self, other: "Factor", atol: float = 1e-9) -> bool:
        return self.scope == other.scope and np.allclose(
            self.values, other.values, atol=atol, rtol=0.0
        )


def _fresh(vals) -> np.ndarray:
    """Freeze a newly computed result so ``Factor`` takes it without a copy.

    Only the operation that computed ``vals`` holds it, so no writable
    reference remains.  A view that einsum hands back is frozen too, but
    ``Factor`` still copies it, as it does not own its data.
    """
    vals = np.asarray(vals)
    vals.setflags(write=False)
    return vals


_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
# np.einsum takes fewer than NPY_MAXARGS operands: 32 on numpy 1.x, 64 on 2.x.
_MAX_OPERANDS = 31


def contract(factors: Iterable[Factor], keep: Iterable[int]) -> Factor:
    """Marginal onto ``keep`` of the product of ``factors``, in one einsum.

    Variables in ``keep`` outside every operand's scope are ignored, scalar
    operands fold into a multiplier, and a lone operand with nothing to sum
    out is returned as is.  More operands than one einsum call takes are
    folded in groups: each group is contracted onto the variables that
    ``keep`` or a later operand still needs.
    """
    factors = list(factors)
    keep = frozenset(keep)
    if len(factors) == 1 and keep.issuperset(factors[0].scope):
        return factors[0]
    scale = 1.0
    ops: list[Factor] = []
    for f in factors:
        if f.scope:
            ops.append(f)
        else:
            scale *= float(f.values)
    while len(ops) > _MAX_OPERANDS:
        head, ops = ops[:_MAX_OPERANDS], ops[_MAX_OPERANDS:]
        ops.insert(0, _einsum(head, keep.union(*(f.scope for f in ops)), 1.0))
    return _einsum(ops, keep, scale)


def _einsum(ops: list[Factor], keep: frozenset[int], scale: float) -> Factor:
    """``scale`` times the marginal onto ``keep`` of the product of ``ops``."""
    subscripts, scope, cards = _plan(tuple([(f.scope, f.cards) for f in ops]), keep)
    vals = np.einsum(subscripts, *[f.values for f in ops]) if ops else np.asarray(1.0)
    if scale != 1.0:
        vals = vals * scale
    return Factor(scope, cards, _fresh(vals))


# The least recently used plan goes first.  A plan with its key takes about
# 0.6 kB, so the cache stays within a few MB in a long-lived process.
@functools.lru_cache(maxsize=4096)
def _plan(layout: tuple, keep: frozenset[int]) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    """Einsum subscripts, output scope and output cards for operands laid
    out as ``layout``, one ``(scope, cards)`` pair each, summed onto ``keep``.

    Raises on a variable whose cards differ between operands; the cache
    stores no exception, so every call with such a layout raises.
    """
    cards: dict[int, int] = {}
    for scope, cs in layout:
        for v, c in zip(scope, cs):
            if cards.setdefault(v, c) != c:
                raise ValueError(f"cardinality mismatch for variable {v}: {cards[v]} vs {c}")
    rank = {v: _LETTERS[r] for r, v in enumerate(sorted(cards))}
    out = tuple(v for v in rank if v in keep)
    subscripts = (
        ",".join("".join([rank[v] for v in scope]) for scope, _ in layout)
        + "->"
        + "".join([rank[v] for v in out])
    )
    return subscripts, out, tuple(cards[v] for v in out)


def multiply(f: Factor, g: Factor) -> Factor:
    """Pointwise product on the union scope."""
    return contract([f, g], f.scope + g.scope)


def product_all(factors: Iterable[Factor]) -> Factor:
    """Pointwise product of ``factors`` on their union scope."""
    factors = list(factors)
    return contract(factors, [v for f in factors for v in f.scope])


def sum_out(f: Factor, vars: Iterable[int]) -> Factor:
    """Marginalize ``vars`` away; summing out the whole scope gives a scalar."""
    drop = set(vars)
    missing = drop - set(f.scope)
    if missing:
        raise ValueError(f"variables {sorted(missing)} not in scope {f.scope}")
    return contract([f], [v for v in f.scope if v not in drop])


def marginal_to(f: Factor, keep: Iterable[int]) -> Factor:
    """Marginal of ``f`` onto ``keep``; variables outside its scope are ignored."""
    return contract([f], keep)


def restrict(f: Factor, ev: "EvidenceLike") -> Factor:
    """Zero out entries inconsistent with the evidence on scope variables.

    Equivalent to multiplying by the 0/1 indicator over scope ∩ evidence.
    """
    masks = _axis_masks(f, ev)
    if not masks:
        return f
    vals = np.array(f.values, copy=True)
    nd = len(f.cards)
    for axis, mask in masks:
        shape = [1] * nd
        shape[axis] = len(mask)
        vals *= mask.reshape(shape)
    return Factor(f.scope, f.cards, _fresh(vals))


def _axis_masks(f: Factor, ev) -> list[tuple[int, np.ndarray]]:
    out = []
    for axis, (var, card) in enumerate(zip(f.scope, f.cards)):
        allowed = ev.allowed(var)
        if allowed is None:
            continue
        mask = np.zeros(card)
        mask[sorted(allowed)] = 1.0
        out.append((axis, mask))
    return out


# Factors are immutable, so every evidence-free indicator is this one.
_ONE = Factor.scalar(1.0)


def indicator(scope: Iterable[int], cards: Mapping[int, int] | Iterable[int], ev) -> Factor:
    """Indicator factor over the evidential part of ``scope`` (scalar 1 if none)."""
    scope = tuple(scope)
    if isinstance(cards, Mapping):
        card_list = [cards[v] for v in scope]
    else:
        card_list = list(cards)
    ev_vars = [(v, c) for v, c in zip(scope, card_list) if ev.allowed(v) is not None]
    if not ev_vars:
        return _ONE
    f = Factor.ones([v for v, _ in ev_vars], [c for _, c in ev_vars])
    return restrict(f, ev)


def normalize(f: Factor) -> tuple[Factor, float]:
    """Scale to total mass 1; the normalizer is the pre-normalization sum."""
    s = f.total()
    if s <= 0.0:
        raise ImpossibleEvidenceError("all-zero factor: evidence has probability 0")
    return Factor(f.scope, f.cards, _fresh(f.values / s)), s


def divide(f: Factor, g: Factor) -> Factor:
    """Pointwise quotient f/g with g broadcast over f's scope.

    Requires scope(g) ⊆ scope(f) and strictly positive g entries.  No
    engine calls it: messages are re-multiplied instead, which needs no
    guard against zero entries.
    """
    if not set(g.scope) <= set(f.scope):
        raise ValueError("divisor scope must be contained in dividend scope")
    if g.values.size and g.values.min() <= 0.0:
        raise ZeroDivisionError("divisor must be strictly positive")
    if not g.scope:
        return Factor(f.scope, f.cards, f.values / float(g.values))
    pos = {v: k for k, v in enumerate(f.scope)}
    shape = [1] * len(f.scope)
    for k, v in enumerate(g.scope):
        shape[pos[v]] = g.cards[k]
    return Factor(f.scope, f.cards, f.values / g.values.reshape(shape))
