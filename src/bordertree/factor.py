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
A table is checked where it enters: ``Factor(...)``, which builds the
tables that come from outside (CPTs, a user's tables), checks the scope
order, cards, shape, finiteness and sign, and copies its input unless the
array is read-only, C-contiguous and owns its data, so that nothing else
can write to it.  The tables the operations below compute skip those
checks: they are built by ``_computed``, which freezes a fresh result and
takes it as is.  Their scope and shape come from the operands, and their
entries are sums of products of checked entries and 0/1 masks, so they
are non-negative.  A network's CPT rows sum to 1 (``BayesianNetwork``
checks that), so the engines' tables are probabilities, at most 1 up to
rounding: they neither overflow nor hold a NaN.  The public
:func:`contract` and its short forms still check their result's entries,
as ``Factor(...)`` does, since a product of a user's factors may
overflow; the engines call ``_contract``, which does not.  The test suite
wraps ``_computed`` with the full check, so a route that writes garbage
still fails it.

Every table the program computes is a product of factors followed by a
marginalization: messages, passes and readouts, and also priors, cohort
tables and row sums.  :func:`contract` computes that in one numpy call,
without building the product table when something is summed out.  It
folds scalar operands into a multiplier first, and a contraction that then
computes nothing calls no einsum: a product of scalars alone is that
multiplier, and one operand with nothing to sum out is returned as is (or
scaled once).  Such calls are common: a leaf border's λ is the product of
no messages, and a readout at a one-variable border multiplies its π by a
scalar λ.  The call's plan depends only on the operands' scopes and cards
and on the kept set, so it is made once per layout and kept in one
bounded LRU cache, keyed by the layout and the kept set (a tuple when it
holds one variable).
Set-up tables and query tables share that cache: least-recently-used
order evicts one-off set-up layouts before the query layouts that are
reused.  A node or border with more incoming messages than one einsum call
takes is contracted in groups, so fan-out is unbounded.  A plan whose
output would hold more than ``MAX_TABLE_ENTRIES`` entries raises
:class:`~bordertree.errors.TableCapError` (a domain error) instead, before
anything is allocated.

The plan also picks the call.  By default it is einsum, with subscripts
that name each variable by its rank within the operands' union.  Plain
einsum runs one inner loop over the innermost run of variables that
lie in the same operands and are kept or summed alike, so it is slow when
that run is short: ``ajk,bcdefghijk->abcdefghij`` (3^3 x 3^10) takes over
ten times as long as ``aef,bcdefghijk->abcdeghijk``, which does the same
work.  A two-factor layout with at least 4,096 union entries can instead
run as one ``np.matmul`` call, on one of two routes.  Neither copies an
operand or permutes its output: matmul writes the output in scope order
into a fresh array.

* the window route.  The operand with fewer entries (the narrow one)
  touches one window of consecutive variables of the union, and may also
  lead with a run of kept variables, which are batch axes (broadcast when
  the wide operand lacks them).  The other (wide) operand is read in
  place as (lead, prefix, window-in, suffix): its variables outside the
  window pass through.  The narrow operand is expanded into a small
  matrix from the window's input states to its output states.  It has an
  identity block for each kept variable of the wide operand inside the
  window, and ones for each variable that only the wide operand has and
  that is summed.
* the strided route, for a layout that sums a shared variable and no
  variable of one operand only: a batched matrix product over strided
  views, as in Shi et al.'s StridedBatchedGEMM (HiPC 2016).  The shared
  summed variables are the inner axis, each operand's own kept variables
  its rows or its columns, and the shared kept ones the batch.  Both
  operands are read and the output written in place through views built
  from precomputed shapes and byte strides.  Own variables that are not
  one run in their operand and in the output are batch axes with stride
  0 in the other operand.

The plan takes whichever a cost model, in units of one union entry of
plain einsum, finds cheapest:

* einsum: ``|union| * (1 + 10 / run)``, ``run`` the size of that
  innermost run;
* either matmul route: 0.08 per multiply-add when BLAS reads every matrix
  in place along its longer axis, 1 when a matrix has no unit-stride axis
  (matmul runs its own loop) or has it only on its shorter axis, 75 per
  matrix product in matmul's batch and 300 per call.
  The strided route does one multiply-add per union entry, the window
  route ``|lead| * |prefix| * |suffix| * |in| * |out|``, all through BLAS;
* the window route adds 2 per entry of its expanded matrix.

The constants were fitted to every two-factor layout of the benchmark's
grid-wide workload (two 10x10 grids at card 3, BLAS on one thread): the
set-up and two rounds of the border polytree and the chain at seeds 1
and 2, with einsum's term kept.  The choice is a pure function of the
layout: nothing is timed at run time.

The einsum call is numpy's C ``c_einsum``, which ``np.einsum`` itself calls
when ``optimize`` is off (its default): the results are the same, without
the wrapper's 1 to 2 us of dispatch and argument handling per call.  It is
picked once, at import, by numpy's major version (from
``numpy._core._multiarray_umath`` on 2.x, ``numpy.core.multiarray`` on
1.x), and is ``np.einsum`` itself where that module has no ``c_einsum``.

:func:`multiply`, :func:`product_all`, :func:`sum_out` and
:func:`marginal_to` are short forms of :func:`contract` (a product onto the
union scope, or a marginal of one factor), kept for the tests and the
library's users.  The program itself calls ``_contract``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from .errors import ImpossibleEvidenceError, TableCapError

# ``_check_entries``'s reductions, bound once: the ufuncs' own reductions skip
# the Python-level wrappers of ``ndarray.min``/``max``, and a uint64 bound
# compares faster than a Python int.
_MIN = np.minimum.reduce
_MAX = np.maximum.reduce
_BITS = np.uint64
_INF_BITS = np.uint64(0x7FF0000000000000)


# The C einsum behind ``np.einsum`` (see the module docstring).
try:
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        from numpy._core._multiarray_umath import c_einsum as _EINSUM
    else:
        from numpy.core.multiarray import c_einsum as _EINSUM
except ImportError:
    _EINSUM = np.einsum


def _check_scope(scope: tuple[int, ...]) -> None:
    if not all(map(operator.lt, scope, scope[1:])):
        raise ValueError("scope must be strictly ascending variable ids")


def _check_entries(vals: np.ndarray) -> None:
    """Raise ValueError unless every entry of the float64 array ``vals`` is
    finite and non-negative.

    One reduction decides most tables: the largest of the entries' bit
    patterns, read as ``uint64``, lies below +inf's exactly when every entry
    is +0.0 through the largest finite double.  A table that fails it gets
    two more, a minimum and a maximum: a NaN or an infinity makes one of
    them non-finite, a negative entry makes the minimum negative, and a
    table whose only sign bits are -0.0's passes.
    """
    if not _MAX(vals.view(_BITS), axis=None, initial=0) < _INF_BITS:
        # A sign bit, a NaN or an infinity: the min/max pair names the
        # fault, or accepts the table if its only sign bits are -0.0's.
        lo = _MIN(vals, axis=None, initial=0.0)
        hi = _MAX(vals, axis=None, initial=0.0)
        # A NaN fails both comparisons; only a failure tells the two apart.
        if not (lo >= 0.0 and hi < math.inf):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("factor entries must be finite")
            raise ValueError("factor entries must be non-negative")


class Factor:
    """A read-only table over an ascending scope.

    A table built from outside, ``Factor(scope, cards, values)``, is
    checked: the scope's order, the shape, and the entries with
    ``_check_entries``.  ``values`` is copied unless it is a read-only,
    C-contiguous array that owns its data.  ``cards`` is kept as the
    table's shape, so it holds plain ints whatever integer type the caller
    passed; a tuple ``scope`` is kept as is.  The tables this module
    computes are built with ``_computed`` instead (see the module
    docstring).
    """

    __slots__ = ("scope", "cards", "values")

    def __init__(self, scope: Iterable[int], cards: Iterable[int], values):
        if scope.__class__ is not tuple:
            scope = tuple(scope)
        if cards.__class__ is not tuple:
            cards = tuple(cards)
        if len(scope) != len(cards):
            raise ValueError("scope and cards length mismatch")
        _check_scope(scope)
        vals = np.asarray(values, dtype=np.float64)
        _check_entries(vals)
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

    # -- helpers ---------------------------------------------------------

    def card_of(self, var: int) -> int:
        return self.cards[self.scope.index(var)]

    def total(self) -> float:
        return float(self.values.sum())

    def __repr__(self):
        return f"Factor(scope={self.scope}, cards={self.cards})"


_NEW = object.__new__


def _computed(scope: tuple[int, ...], cards: tuple[int, ...], vals: np.ndarray) -> Factor:
    """A factor over a table this module has just computed, built without
    ``Factor.__init__``'s checks.

    ``vals`` is frozen and taken as is.  The caller passes the ascending
    ``scope`` and the plain-int ``cards`` of its operands, with ``vals`` of
    that shape, and holds no other writable reference to ``vals``.  The
    operations look this function up at call time, so a wrapper set on
    the module sees every computed table.
    """
    vals.setflags(write=False)
    f = _NEW(Factor)
    f.scope = scope
    f.cards = cards
    f.values = vals
    return f


_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
# The most entries a computed table may hold (128 MiB of float64); a larger
# output raises TableCapError before anything is allocated.
MAX_TABLE_ENTRIES = 2**24
# np.einsum takes fewer than NPY_MAXARGS operands: 32 on numpy 1.x, 64 on 2.x.
_MAX_OPERANDS = 31

# The route cost model (see the module docstring and _plan), in units of
# one union entry of plain einsum.
_ROUTE_FLOOR = 4096  # union entries below which einsum is always taken
_EINSUM_LOOP = 10.0  # einsum: per pass of its innermost loop
_MATMUL_MAC = 0.08  # either matmul route: per multiply-add through BLAS
_MATMUL_GEMM = 75.0  # per matrix product in matmul's batch
_MATMUL_CALL = 300.0  # per call
_WINDOW_MATRIX = 2.0  # window route: per entry of the expanded matrix


def contract(factors: Iterable[Factor], keep: Iterable[int]) -> Factor:
    """Marginal onto ``keep`` of the product of ``factors``, in one call,
    with its entries checked as ``Factor(...)`` checks them.

    This is the library's form of ``_contract``: a product of a user's
    factors may overflow, which raises ValueError ("factor entries must be
    finite").  The engines call ``_contract``, whose operands are
    probabilities and 0/1 indicators, so that its results need no check.
    """
    f = _contract(factors, keep)
    _check_entries(f.values)
    return f


def _contract(factors: Iterable[Factor], keep: Iterable[int]) -> Factor:
    """Marginal onto ``keep`` of the product of ``factors``, in one call.

    Variables in ``keep`` outside every operand's scope are ignored.
    Scalar operands fold first into a multiplier.  Two cases then compute
    nothing and call no einsum: with no operand left, the result is the
    multiplier (the shared ``_ONE`` when it is 1); with one operand left and
    nothing to sum out, it is that operand itself, or one ``values * scale``
    when the multiplier is not 1.  More operands than one einsum call takes
    are folded in groups: each group is contracted onto the variables that
    ``keep`` or a later operand still needs.  The call is numpy's C einsum,
    or ``np.matmul`` where the layout's plan chose a matmul route (see
    ``_plan``).
    """
    scale = 1.0
    ops: list[Factor] = []
    for f in factors:
        if f.scope:
            ops.append(f)
        else:
            scale *= float(f.values)
    if not ops:
        return _ONE if scale == 1.0 else _computed((), (), np.array(scale))
    keep = frozenset(keep)
    if len(ops) == 1 and keep.issuperset(ops[0].scope):
        f = ops[0]
        return f if scale == 1.0 else _computed(f.scope, f.cards, f.values * scale)
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
    if route is None:
        vals = _EINSUM(subscripts, *[f.values for f in ops])
    elif route.__class__ is _Window:
        vals = _window_product(route, cards, ops[0].values, ops[1].values)
    elif route.__class__ is _Strided:
        vals = _strided_product(route, cards, ops[0].values, ops[1].values)
    else:  # each operand's shape without its card-1 axes (see ``_plan``)
        vals = _EINSUM(subscripts, *[f.values.reshape(s) for f, s in zip(ops, route)]).reshape(cards)
    if scale != 1.0:
        vals = vals * scale
    if not cards:  # a full sum: einsum and ``*`` hand back a numpy scalar
        vals = np.asarray(vals)
    elif not vals.flags.c_contiguous:  # einsum may lay its output out in another order
        vals = np.ascontiguousarray(vals)
    return _computed(scope, cards, vals)


# The least recently used plan goes first.  A plan with its key takes
# about 0.5 kB with einsum, 0.95 kB with a strided route and 1.05 kB with a
# window route, so the full cache takes 4 to 9 MB in a long-lived process.
# Set-up and two rounds of every case make 1,449 plans on polytree-large
# (all einsum) and 982 on grid-wide (235 strided, 137 window).
@functools.lru_cache(maxsize=8192)
def _plan(layout: tuple, keep) -> tuple:
    """Einsum subscripts, output scope, output cards and route for
    operands laid out as ``layout``, one ``(scope, cards)`` pair each,
    summed onto ``keep`` (a tuple or a frozenset, see ``_einsum``).

    The route is a ``_Strided``, a ``_Window`` or None (plain einsum),
    whichever costs least (see ``_route``).  einsum names 52 variables at
    most, so a union of more leaves its card-1 variables unnamed: they have
    no extent, and the route is then each operand's shape without them,
    for einsum to read.  Costs, in units of one union entry of plain
    einsum:

    * einsum: ``|union| * (1 + _EINSUM_LOOP / run)``, where ``run`` is the
      size of the innermost run of variables (in scope order) that lie in
      the same operands and are all kept or all summed.  einsum's inner
      loop covers that run, so a short run means many passes.
    * either matmul route, ``_matmul_cost``: ``_MATMUL_MAC`` per
      multiply-add where BLAS reads every matrix in place along its
      longer axis (``_blas``) and 1 where one has no unit-stride axis
      (matmul runs its own loop) or has it only on its shorter axis;
      ``_MATMUL_GEMM`` per matrix product in matmul's batch and
      ``_MATMUL_CALL`` per call.  The strided route (see ``_strided``)
      does one multiply-add per union entry; the window route (see
      ``_windows``) does its matmul's, all through BLAS, and adds
      ``_WINDOW_MATRIX`` per entry of the expanded matrix.

    Raises ValueError on a variable whose cards differ between operands,
    and TableCapError on an output of more than ``MAX_TABLE_ENTRIES``
    entries or on more than 52 variables of card above 1 (at least 2^53
    union entries); the cache stores no exception, so every call with such
    a layout raises.
    """
    cards: dict[int, int] = {}
    for scope, cs in layout:
        for v, c in zip(scope, cs):
            if cards.setdefault(v, c) != c:
                raise ValueError(f"cardinality mismatch for variable {v}: {cards[v]} vs {c}")
    kept = set(keep)
    union = sorted(cards)
    out = tuple(v for v in union if v in kept)
    out_cards = tuple(cards[v] for v in out)
    size = math.prod(out_cards)
    if size > MAX_TABLE_ENTRIES:
        raise TableCapError(f"table of {size} entries exceeds cap {MAX_TABLE_ENTRIES}")
    named = union if len(union) <= len(_LETTERS) else [v for v in union if cards[v] > 1]
    if len(named) > len(_LETTERS):
        raise TableCapError(
            f"contraction over {len(named)} variables of card above 1 exceeds einsum's {len(_LETTERS)}"
        )
    rank = {v: _LETTERS[r] for r, v in enumerate(named)}
    subscripts = (
        ",".join("".join([rank[v] for v in scope if v in rank]) for scope, _ in layout)
        + "->"
        + "".join([rank[v] for v in out if v in rank])
    )
    if named is not union:  # the operands are read without their card-1 axes
        return subscripts, out, out_cards, tuple(tuple(c for c in cs if c > 1) for _, cs in layout)
    return subscripts, out, out_cards, _route(layout, cards, kept, out)


def _route(layout: tuple, cards: dict[int, int], kept: set[int], out: tuple[int, ...]):
    """``_plan``'s route for ``layout``: a ``_Strided``, a ``_Window`` or
    None for einsum, whichever the cost model puts lowest.

    Only a layout of two operands and at least ``_ROUTE_FLOOR`` union
    entries has a route other than einsum.  The window route expands the
    operand of fewer entries (the first on a tie).  Both matmul routes are
    priced by ``_matmul_cost``; on equal costs einsum wins, then the
    strided route, then the window.
    """
    union = math.prod(cards.values())
    if len(layout) != 2 or union < _ROUTE_FLOOR:
        return None
    (sa, ca), (sb, cb) = layout
    a, b = set(sa), set(sb)
    run, sig = 1, None
    for v in sorted(cards, reverse=True):
        if cards[v] == 1:
            continue
        s = (v in a, v in b, v in kept)
        if sig is not None and s != sig:
            break
        sig, run = s, run * cards[v]
    best, cost = None, union * (1.0 + _EINSUM_LOOP / run)
    narrow = int(math.prod(cb) < math.prod(ca))
    for route, route_cost in itertools.chain(
        _strided(layout, cards, kept, out), _windows(layout, cards, kept, narrow)
    ):
        if route_cost < cost:
            best, cost = route, route_cost
    return best


class _Window(NamedTuple):
    """A window route (see ``_windows``): the narrow operand expanded into
    a matrix, which one ``np.matmul`` applies to the wide operand."""

    narrow: int  # which operand is expanded
    reduce: Optional[tuple[int, ...]]  # its own summed axes, summed out first
    fill_shape: tuple[int, ...]  # the view of the matrix that takes its entries
    fill_strides: tuple[int, ...]  # (in bytes)
    src_shape: tuple[int, ...]  # its shape, broadcast over that view
    matrix: tuple[int, ...]  # the matrix: lead axes, then (out, in) or (in, out)
    wide: tuple[int, ...]  # the wide operand's shape as a matmul operand
    matrix_left: bool  # the matrix is matmul's left operand
    out_shape: tuple[int, ...]  # the output's shape as the last call writes it


def _window_product(route: _Window, cards: tuple[int, ...], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Run a window route: fill the matrix from the narrow operand, then one
    matmul with the wide operand, viewed in place, into a fresh array of
    the output's shape, which ``_computed`` takes as is."""
    if route.narrow:
        a, b = b, a
    if route.reduce:
        a = np.add.reduce(a, axis=route.reduce)
    m = np.zeros(route.matrix)
    np.copyto(np.ndarray(route.fill_shape, buffer=m, strides=route.fill_strides), a.reshape(route.src_shape))
    b = b.reshape(route.wide)
    x, y = (m, b) if route.matrix_left else (b, m)
    out = np.empty(cards)
    np.matmul(x, y, out=out.reshape(route.out_shape))
    return out


def _windows(layout: tuple, cards: dict[int, int], kept: set[int], narrow: int):
    """Window routes for ``layout`` that expand operand ``narrow``, each
    with its cost: one on the shortest window and, if that is not the same,
    one on the window carried on to the last variable.

    In scope order, the union's variables (less those of card 1, which
    have no extent, and the narrow operand's own summed ones, which it
    sums out first) fall into four runs:

    * lead: the leading run of the narrow operand's kept variables, which
      become batch axes.  One of the narrow operand alone is broadcast
      over the wide one.  With no prefix after it, the lead is part of the
      window instead.
    * prefix and suffix: the wide operand's own kept variables before and
      after the window.  They pass through, so the wide operand is read in
      place as (lead, prefix, window-in, suffix).
    * window: the shortest run that holds the narrow operand's other
      variables and every other summed variable.  Its kept variables are
      the matrix's out side and the wide operand's are its in side: a
      kept variable of the wide operand gives an identity block, and a
      summed variable of the wide operand alone a block of ones.

    The product is matrix times (prefix, window-in, suffix), batched over
    the lead and the prefix, or, with no suffix, (prefix, window-in) times
    the matrix laid out as (in, out), one product per lead entry.  No
    route is made when the matrix would hold more than
    ``MAX_TABLE_ENTRIES`` entries.
    """
    sa, sb = layout[narrow][0], layout[1 - narrow][0]
    a, b = set(sa), set(sb)
    own = {v for v in sa if v not in b and v not in kept and cards[v] > 1}
    order = [v for v in sorted(cards) if cards[v] > 1 and v not in own]
    k = 0
    while k < len(order) and order[k] in a and order[k] in kept:
        k += 1
    need = [i for i in range(k, len(order)) if order[i] in a or order[i] not in kept]
    if need and need[0] > k:
        lead, lo, hi = order[:k], need[0], need[-1]
    else:  # no prefix
        lead, lo, hi = [], 0, need[-1] if need else k - 1
    if hi < lo:
        return
    size = lambda vs: math.prod([cards[v] for v in vs])
    reduce = tuple(j for j, v in enumerate(sa) if v in own) or None
    n_lead = size(lead)
    lead_cards = tuple(cards[v] for v in lead)
    lead_wide = tuple(cards[v] if v in b else 1 for v in lead)
    for end in sorted({hi, len(order) - 1}):
        pre, win, suf = order[len(lead) : lo], order[lo : end + 1], order[end + 1 :]
        ins = [v for v in win if v in b]
        outs = [v for v in win if v in kept]
        n_pre, n_suf, n_in, n_out = size(pre), size(suf), size(ins), size(outs)
        if n_lead * n_in * n_out > MAX_TABLE_ENTRIES:
            continue
        left = bool(suf)
        lead_st = _strides(lead, cards, n_in * n_out)
        in_st = _strides(ins, cards, 1 if left else n_out)
        out_st = _strides(outs, cards, n_in if left else 1)
        fill = [v for v in sa if v not in own] + [v for v in win if v not in a]
        fill_strides = tuple(
            8 * (lead_st[v] if v in lead_st else in_st.get(v, 0) + out_st.get(v, 0)) for v in fill
        )  # 8 bytes per float64
        src_shape = tuple(cards[v] for v in sa if v not in own)
        src_shape += (1,) * (len(fill) - len(src_shape))
        if left:
            matrix, wide = lead_cards + (1, n_out, n_in), lead_wide + (n_pre, n_in, n_suf)
            mm = (n_pre, n_out, n_suf)
        else:
            matrix, wide, mm = lead_cards + (n_in, n_out), lead_wide + (n_pre, n_in), (n_pre, n_out)
        macs, products = n_lead * n_pre * n_suf * n_in * n_out, n_lead * (n_pre if left else 1)
        cost = _matmul_cost(macs, products, True) + _WINDOW_MATRIX * n_lead * n_in * n_out
        fill_shape = tuple(cards[v] for v in fill)
        route = _Window(
            narrow, reduce, fill_shape, fill_strides, src_shape, matrix, wide, left, lead_cards + mm
        )
        yield route, cost


class _Strided(NamedTuple):
    """A strided route (see ``_strided``): the first operand, the second
    and the output, each read or written in place through one view, as
    (shape, strides in bytes)."""

    left: tuple[tuple[int, ...], tuple[int, ...]]
    right: tuple[tuple[int, ...], tuple[int, ...]]
    out: tuple[tuple[int, ...], tuple[int, ...]]


def _strided_product(route: _Strided, cards: tuple[int, ...], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Run a strided route: one matmul from views of both operands into a
    view of a fresh array of the output's shape, which ``_computed`` takes
    as is."""
    out = np.empty(cards)
    np.matmul(
        np.ndarray(route.left[0], buffer=a, strides=route.left[1]),
        np.ndarray(route.right[0], buffer=b, strides=route.right[1]),
        out=np.ndarray(route.out[0], buffer=out, strides=route.out[1]),
    )
    return out


def _strided(layout: tuple, cards: dict[int, int], kept: set[int], out: tuple[int, ...]):
    """Strided routes for ``layout``, each with its cost, if the layout sums
    a shared variable and no variable of one operand only.

    Each variable of card over 1 is an axis with a byte stride in the
    first operand, the second and the output (0 where it is absent).  The
    shared summed variables are matmul's inner axis, so they must form one
    run in both operands.  The first operand's own variables are the rows
    and the second's the columns: each falls into runs that lie unbroken
    in its operand and in the output, one run is the matrix axis and the
    others are batch axes with stride 0 in the other operand.  A route is
    made for each choice of row run and column run.  The shared kept
    variables are batch axes too, in output order, merged where they lie
    unbroken in all three arrays.
    """
    (sa, _), (sb, _) = layout
    a, b = set(sa), set(sb)
    strides = [_strides(s, cards, 8) for s in (sa, sb, out)]  # 8 bytes per float64
    roles: dict[str, list] = {"k": [], "m": [], "n": [], "batch": []}
    for v in sorted(cards):
        if cards[v] == 1:
            continue
        if v not in kept:
            if v not in a or v not in b:
                return
            role = "k"
        else:
            role = "batch" if v in a and v in b else "m" if v in a else "n"
        roles[role].append((cards[v], tuple([st.get(v, 0) for st in strides])))
    inner = _runs(roles["k"])
    if len(inner) != 1:
        return
    dk, (ka, kb, _) = inner[0]
    none = [(1, (0, 0, 0))]  # no own variable: a matrix axis of extent 1
    rows, cols = _runs(roles["m"]) or none, _runs(roles["n"]) or none
    union = math.prod(cards.values())
    for i, j in itertools.product(range(len(rows)), range(len(cols))):
        (dm, (ma, _, mo)), (dp, (_, nb, no)) = rows[i], cols[j]
        batch = roles["batch"] + rows[:i] + rows[i + 1 :] + cols[:j] + cols[j + 1 :]
        batch = _runs(sorted(batch, key=lambda axis: -axis[1][2]))
        shape = tuple([n for n, _ in batch])
        st = [tuple([s[k] for _, s in batch]) for k in range(3)]
        blas = _blas(dm, dk, ma, ka) and _blas(dk, dp, kb, nb) and _blas(dm, dp, mo, no)
        route = _Strided(
            (shape + (dm, dk), st[0] + (ma, ka)),
            (shape + (dk, dp), st[1] + (kb, nb)),
            (shape + (dm, dp), st[2] + (mo, no)),
        )
        yield route, _matmul_cost(union, math.prod(shape), blas)


def _matmul_cost(macs: int, products: int, blas: bool) -> float:
    """Either matmul route's cost: ``macs`` multiply-adds, at ``_MATMUL_MAC``
    each where BLAS reads every matrix in place and at one union entry each
    where matmul runs its own loop, ``products`` matrix products in
    matmul's batch, and one call."""
    return (_MATMUL_MAC if blas else 1.0) * macs + _MATMUL_GEMM * products + _MATMUL_CALL


def _runs(axes: list) -> list:
    """``axes``, (extent, strides) pairs, with each pair of neighbours that
    lie unbroken in every array merged into one axis."""
    out: list = []
    for n, st in axes:
        if out and all(p == s * n for p, s in zip(out[-1][1], st)):
            out[-1] = (out[-1][0] * n, st)
        else:
            out.append((n, st))
    return out


def _blas(d1: int, d2: int, s1: int, s2: int) -> bool:
    """Whether matmul hands a ``d1`` x ``d2`` matrix with byte strides
    ``s1``, ``s2`` to BLAS in place and BLAS runs it fast: the longer axis
    has unit stride and the other steps over it.  A short unit-stride axis
    (a 3 x 2187 matrix with byte strides 8 and 72) makes BLAS step through
    memory along the long one.  A matrix of one row or column is a vector,
    which BLAS reads at any stride."""
    return (
        d1 == 1
        or d2 == 1
        or (s2 == 8 and s1 >= 8 * d2 and d2 >= d1)
        or (s1 == 8 and s2 >= 8 * d1 and d1 >= d2)
    )


def _strides(vs: list[int], cards: dict[int, int], unit: int) -> dict[int, int]:
    """Row-major element strides of ``vs`` laid out in that order, the last
    one ``unit``."""
    out, step = {}, unit
    for v in reversed(vs):
        out[v] = step
        step *= cards[v]
    return out


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
    return _computed(f.scope, f.cards, vals)


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


# Factors are immutable, so every evidence-free indicator, every
# contraction of scalars whose product is 1, and every vacuous message is
# this one.
_ONE = _computed((), (), np.array(1.0))


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
    ev_scope = tuple([v for v, _ in ev_vars])
    _check_scope(ev_scope)
    ones = np.ones([c for _, c in ev_vars])
    return restrict(_computed(ev_scope, ones.shape, ones), ev)


def normalize(f: Factor) -> tuple[Factor, float]:
    """Scale to total mass 1; the normalizer is the pre-normalization sum.

    Raises ImpossibleEvidenceError on a total of 0, and ValueError on a
    total that overflows: a user's factor of finite entries can reach it,
    an engine's table of probabilities cannot."""
    s = f.total()
    if s <= 0.0:
        raise ImpossibleEvidenceError("all-zero factor: evidence has probability 0")
    if not math.isfinite(s):
        raise ValueError("factor total must be finite")
    return _computed(f.scope, f.cards, np.asarray(f.values / s)), s


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
