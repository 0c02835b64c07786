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
tables and row sums.  :func:`contract` computes that in one numpy call,
without building the product table when something is summed out.  The
call's plan depends only on the operands' scopes and cards and on the kept
set, so it is made once per layout and kept in one bounded LRU cache,
keyed by the layout and the kept set (a tuple when it holds one variable).
Set-up tables and query tables share that cache: least-recently-used
order evicts one-off set-up layouts before the query layouts that are
reused.  A node or border with more incoming messages than one einsum call
takes is contracted in groups, so fan-out is unbounded.  A plan whose
output would hold more than ``MAX_TABLE_ENTRIES`` entries raises
:class:`~bordertree.errors.TableCapError` (a domain error) instead, before
anything is allocated.

The plan also picks the call.  By default it is ``np.einsum``, with
subscripts that name each variable by its rank within the operands' union.
Plain einsum runs one inner loop over the innermost run of variables that
lie in the same operands and are kept or summed alike, so it is slow when
that run is short: ``ajk,bcdefghijk->abcdefghij`` (3^3 x 3^10) takes over
ten times as long as ``aef,bcdefghijk->abcdeghijk``, which does the same
work.  A two-factor layout with at least 4,096 union entries that sums out
a shared variable, and no variable of one operand only, can instead run as
one batched matrix product: each operand is transposed and reshaped into a
stack of matrices (the shared kept variables are the stack, the shared
summed ones the inner axis), ``np.matmul`` multiplies them, and the output
is reshaped and, if needed, transposed back to scope order.  The plan
takes that route when a cost model, in units of one union entry of plain
einsum, finds it cheaper:

* einsum: ``|union| * (1 + 10 / run)``, ``run`` the size of that
  innermost run;
* matmul: 2 per entry of an operand that must be copied before BLAS can
  read it, 1 per output entry if the output must be permuted, 1 per entry
  of the larger operand, and 2,000 per call.

The constants were fitted to every two-factor layout of the benchmark's
grid-wide round (two 10x10 grids at card 3, BLAS on one thread).  The
choice is a pure function of the layout: nothing is timed at run time.

:func:`multiply`, :func:`product_all`, :func:`sum_out` and
:func:`marginal_to` are short forms of :func:`contract` (a product onto the
union scope, or a marginal of one factor), kept for the tests and the
library's users.  The program itself calls :func:`contract`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from .errors import ImpossibleEvidenceError, TableCapError

# ``Factor.__init__``'s checks, bound once: the ufuncs' own reductions skip
# the Python-level wrappers of ``ndarray.min``/``max``.
_MIN = np.minimum.reduce
_MAX = np.maximum.reduce


class Factor:
    """A checked, read-only table over an ascending scope.

    Every construction checks the entries with two reductions: a NaN or an
    infinity makes the minimum or the maximum non-finite, and a negative
    entry makes the minimum negative.  ``values`` is copied unless it is a
    read-only, C-contiguous array that owns its data, the form in which
    ``contract``, ``restrict`` and ``normalize`` hand over their results.
    ``cards`` is kept as the table's shape, so it holds plain ints whatever
    integer type the caller passed; a tuple ``scope`` is kept as is.
    """

    __slots__ = ("scope", "cards", "values")

    def __init__(self, scope: Iterable[int], cards: Iterable[int], values):
        if scope.__class__ is not tuple:
            scope = tuple(scope)
        if cards.__class__ is not tuple:
            cards = tuple(cards)
        if len(scope) != len(cards):
            raise ValueError("scope and cards length mismatch")
        if not all(map(operator.lt, scope, scope[1:])):
            raise ValueError("scope must be strictly ascending variable ids")
        vals = np.asarray(values, dtype=np.float64)
        lo = _MIN(vals, axis=None, initial=0.0)
        hi = _MAX(vals, axis=None, initial=0.0)
        # A NaN fails both comparisons; only a failure tells the two apart.
        if not (lo >= 0.0 and hi < math.inf):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("factor entries must be finite")
            raise ValueError("factor entries must be non-negative")
        if vals.shape != cards:
            vals = vals.reshape(cards)
        if vals.flags.writeable or vals.base is not None or not vals.flags.c_contiguous:
            vals = np.array(vals, order="C")
            vals.setflags(write=False)
        self.scope = scope
        self.cards = vals.shape  # plain ints, whatever type ``cards`` held
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
# The most entries a computed table may hold (128 MiB of float64); a larger
# output raises TableCapError before anything is allocated.
MAX_TABLE_ENTRIES = 2**24
# np.einsum takes fewer than NPY_MAXARGS operands: 32 on numpy 1.x, 64 on 2.x.
_MAX_OPERANDS = 31

# The route cost model (see the module docstring and _route), in units of
# one union entry of plain einsum.
_MATMUL_FLOOR = 4096  # union entries below which einsum is always taken
_EINSUM_LOOP = 10.0  # einsum: per pass of its innermost loop
_MATMUL_COPY = 2.0  # matmul: per entry of an operand it has to copy
_MATMUL_PERMUTE = 1.0  # per entry of an output it has to permute
_MATMUL_OPERAND = 1.0  # per entry of the larger operand
_MATMUL_CALL = 2000.0  # per call


def contract(factors: Iterable[Factor], keep: Iterable[int]) -> Factor:
    """Marginal onto ``keep`` of the product of ``factors``, in one call.

    Variables in ``keep`` outside every operand's scope are ignored, scalar
    operands fold into a multiplier, and a lone operand with nothing to sum
    out is returned as is.  More operands than one einsum call takes are
    folded in groups: each group is contracted onto the variables that
    ``keep`` or a later operand still needs.  The call is ``np.einsum``, or
    ``np.matmul`` where the layout's plan chose that route (see ``_plan``).
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
    """``scale`` times the marginal onto ``keep`` of the product of ``ops``.

    A kept set of one variable enters the plan key as a tuple (48 bytes,
    where a one-element frozenset takes 216); a larger one as the
    frozenset itself, which shares the border member sets the engines pass.
    """
    key = keep if len(keep) > 1 else tuple(keep)
    subscripts, scope, cards, route = _plan(tuple([(f.scope, f.cards) for f in ops]), key)
    if route is not None:
        vals = _matmul(route, cards, *[f.values for f in ops])
    elif ops:
        vals = np.einsum(subscripts, *[f.values for f in ops])
    else:
        vals = np.asarray(1.0)
    if scale != 1.0:
        vals = vals * scale
    return Factor(scope, cards, _fresh(vals))


def _matmul(route: "_Route", cards: tuple[int, ...], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Run a matmul route: transpose, reshape, matmul, reshape, transpose.

    An output already in scope order is written into a fresh array of the
    output's shape, which ``Factor`` takes without a copy.
    """
    if route.swap:
        a, b = b, a
    x, y = _stack(a, route.left), _stack(b, route.right)
    if route.perm_out is None:
        out = np.empty(cards)
        np.matmul(x, y, out=out.reshape(route.mm_shape))
        return out
    return np.ascontiguousarray(np.matmul(x, y).reshape(route.grouped).transpose(route.perm_out))


def _stack(vals: np.ndarray, operand: tuple) -> np.ndarray:
    """``vals`` as the stack of matrices that ``operand`` plans."""
    perm, shape, copy = operand
    vals = vals.transpose(perm)
    return (vals.copy() if copy else vals).reshape(shape)


# The least recently used plan goes first.  A plan with its key takes about
# 0.6 kB (0.9 kB with a matmul route), so the full cache takes 5 to 7 MB
# in a long-lived process.  No benchmark workload needs more than about
# 4,000 plans for set-up and queries together.
@functools.lru_cache(maxsize=8192)
def _plan(layout: tuple, keep) -> tuple:
    """Einsum subscripts, output scope, output cards and matmul route for
    operands laid out as ``layout``, one ``(scope, cards)`` pair each,
    summed onto ``keep`` (a tuple or a frozenset, see ``_einsum``).

    The route is None (plain einsum) unless the layout has two operands,
    at least ``_MATMUL_FLOOR`` union entries, a shared summed variable and
    no summed variable of one operand only, and the matmul route costs
    less.  Costs, in units of one union entry of plain einsum:

    * einsum: ``|union| * (1 + _EINSUM_LOOP / run)``, where ``run`` is the
      size of the innermost run of variables (in scope order) that lie in
      the same operands and are all kept or all summed.  einsum's inner
      loop covers that run, so a short run means many passes.
    * matmul: ``_MATMUL_COPY`` per entry of each operand it has to copy
      (see ``_reads_in_place``), ``_MATMUL_PERMUTE`` per output entry if
      the output needs permuting, ``_MATMUL_OPERAND`` per entry of the
      larger operand and ``_MATMUL_CALL`` per call.

    Raises ValueError on a variable whose cards differ between operands,
    and TableCapError on an output of more than ``MAX_TABLE_ENTRIES``
    entries; the cache stores no exception, so every call with such a
    layout raises.
    """
    cards: dict[int, int] = {}
    for scope, cs in layout:
        for v, c in zip(scope, cs):
            if cards.setdefault(v, c) != c:
                raise ValueError(f"cardinality mismatch for variable {v}: {cards[v]} vs {c}")
    kept = set(keep)
    rank = {v: _LETTERS[r] for r, v in enumerate(sorted(cards))}
    out = tuple(v for v in rank if v in kept)
    subscripts = (
        ",".join("".join([rank[v] for v in scope]) for scope, _ in layout)
        + "->"
        + "".join([rank[v] for v in out])
    )
    out_cards = tuple(cards[v] for v in out)
    size = math.prod(out_cards)
    if size > MAX_TABLE_ENTRIES:
        raise TableCapError(f"table of {size} entries exceeds cap {MAX_TABLE_ENTRIES}")
    return subscripts, out, out_cards, _route(layout, cards, kept, out)


class _Route(NamedTuple):
    """A matmul route: which operand goes left, each operand's matrix stack,
    matmul's output shape and, when that output is not in scope order, its
    shape with one axis per variable and the permutation to scope order."""

    swap: bool  # the second operand goes left
    left: tuple  # (axis permutation, stack shape, copy first)
    right: tuple
    mm_shape: tuple[int, ...]
    grouped: Optional[tuple[int, ...]]
    perm_out: Optional[tuple[int, ...]]


def _route(layout: tuple, cards: dict[int, int], kept: set[int], out: tuple[int, ...]):
    """``_plan``'s matmul route for ``layout``, or None for einsum.

    The shared kept variables are matmul's batch axes, the shared summed
    ones its inner axis, and each operand's own kept variables its rows or
    columns.
    """
    union = math.prod(cards.values())
    if len(layout) != 2 or union < _MATMUL_FLOOR:
        return None
    (sa, _), (sb, _) = layout
    a, b = set(sa), set(sb)
    con = [v for v in sorted(cards) if v in a and v in b and v not in kept]
    if not con or not (a ^ b) <= kept:
        return None
    batch = [v for v in out if v in a and v in b]
    own_a = [v for v in out if v not in b]
    own_b = [v for v in out if v not in a]
    # matmul's output holds the batch, then the left operand's own
    # variables, then the right one's.  The operand whose own variables
    # come first goes left, so that this is the scope order when any is.
    first = lambda vs: next((v for v in vs if cards[v] > 1), math.inf)
    swap = first(own_b) < first(own_a)
    sl, sr, m, n = (sb, sa, own_b, own_a) if swap else (sa, sb, own_a, own_b)
    order = batch + m + n
    permuted = [v for v in order if cards[v] > 1] != [v for v in out if cards[v] > 1]
    size = lambda vs: math.prod([cards[v] for v in vs])
    lead = tuple(cards[v] for v in batch)

    def stack(scope, rows, cols):
        perm = tuple(scope.index(v) for v in batch + rows + cols)
        copy = not _reads_in_place(scope, cards, rows, cols)
        return perm, lead + (size(rows), size(cols)), copy

    left, right = stack(sl, m, con), stack(sr, con, n)
    run, sig = 1, None
    for v in sorted(cards, reverse=True):
        if cards[v] == 1:
            continue
        s = (v in a, v in b, v in kept)
        if sig is not None and s != sig:
            break
        sig, run = s, run * cards[v]
    einsum_cost = union * (1.0 + _EINSUM_LOOP / run)
    matmul_cost = (
        _MATMUL_COPY * (size(sl) * left[2] + size(sr) * right[2])
        + _MATMUL_PERMUTE * (size(out) if permuted else 0)
        + _MATMUL_OPERAND * max(size(sa), size(sb))
        + _MATMUL_CALL
    )
    if matmul_cost >= einsum_cost:
        return None
    mm_shape = lead + (size(m), size(n))
    if not permuted:
        return _Route(swap, left, right, mm_shape, None, None)
    grouped = tuple(cards[v] for v in order)
    return _Route(swap, left, right, mm_shape, grouped, tuple(order.index(v) for v in out))


def _reads_in_place(scope, cards: dict[int, int], rows: list[int], cols: list[int]) -> bool:
    """Whether an operand over ``scope`` (in memory order) is a stack of
    ``rows`` x ``cols`` matrices that BLAS can read in place: the row
    variables lie in one unbroken run, so do the column variables, and
    the innermost variable is one of them, so one matrix axis has unit
    stride.  Card-1 variables have no extent and are ignored.
    """
    seq = ["row" if v in rows else "col" if v in cols else "batch" for v in scope if cards[v] > 1]
    runs = [group for group, _ in itertools.groupby(seq)]
    return not runs or (runs[-1] != "batch" and runs.count("row") <= 1 and runs.count("col") <= 1)


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
