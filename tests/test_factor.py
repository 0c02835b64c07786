"""Factor algebra against scalar-loop oracles and algebraic properties."""

import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from bordertree.errors import ImpossibleEvidenceError, TableCapError
from bordertree import factor as factor_mod
from bordertree.factor import (
    Factor,
    contract,
    divide,
    indicator,
    marginal_to,
    multiply,
    normalize,
    product_all,
    restrict,
    sum_out,
)
from bordertree.network import EvidenceSet


def loop_multiply(f: Factor, g: Factor) -> Factor:
    """Reference multiply: nested loops over the union assignment space."""
    scope = tuple(sorted(set(f.scope) | set(g.scope)))
    cards = {**dict(zip(f.scope, f.cards)), **dict(zip(g.scope, g.cards))}
    shape = tuple(cards[v] for v in scope)
    out = np.zeros(shape)
    for assign in itertools.product(*(range(c) for c in shape)):
        env = dict(zip(scope, assign))
        fa = f.values[tuple(env[v] for v in f.scope)] if f.scope else float(f.values)
        ga = g.values[tuple(env[v] for v in g.scope)] if g.scope else float(g.values)
        out[assign] = fa * ga
    return Factor(scope, shape, out)


def loop_marginal(f: Factor, keep) -> Factor:
    """Reference marginal: add each entry of ``f`` into its kept assignment."""
    keep = set(keep)
    idx = [k for k, v in enumerate(f.scope) if v in keep]
    shape = tuple(f.cards[k] for k in idx)
    out = np.zeros(shape)
    for assign in itertools.product(*(range(c) for c in f.cards)):
        out[tuple(assign[k] for k in idx)] += f.values[assign]
    return Factor(tuple(f.scope[k] for k in idx), shape, out)


# One shared card per variable id, so factors drawn independently align.
_CARDS = (2, 3, 2, 4, 2, 3)


@st.composite
def factors(draw, max_vars=4, ids=range(6)):
    k = draw(st.integers(0, max_vars))
    scope = tuple(sorted(draw(st.permutations(list(ids)))[:k]))
    cards = tuple(_CARDS[v] for v in scope)
    n = int(np.prod(cards)) if cards else 1
    vals = draw(
        st.lists(st.floats(0, 10, allow_nan=False), min_size=n, max_size=n)
    )
    return Factor(scope, cards, np.asarray(vals).reshape(cards))


class TestConstructor:
    @pytest.mark.parametrize(
        "scope, cards, values, message",
        [
            ((0,), (2,), [1.0, np.nan], "must be finite"),
            ((0,), (2,), [np.inf, 1.0], "must be finite"),
            ((0,), (2,), [1.0, -np.inf], "must be finite"),
            ((0,), (2,), [-1.0, np.nan], "must be finite"),
            ((), (), np.nan, "must be finite"),
            ((0,), (2,), [0.5, -1e-300], "must be non-negative"),
            ((0, 1), (2,), [1.0, 1.0], "length mismatch"),
            ((1, 0), (2, 2), np.ones((2, 2)), "strictly ascending"),
            ((1, 1), (2, 2), np.ones((2, 2)), "strictly ascending"),
        ],
    )
    def test_rejects(self, scope, cards, values, message):
        with pytest.raises(ValueError, match=message):
            Factor(scope, cards, values)

    @pytest.mark.parametrize("scope", [[1, 0], [1, 1], [0, 2, 1], [np.int64(3), np.int64(3)]])
    def test_rejects_unordered_list_scopes(self, scope):
        with pytest.raises(ValueError, match="strictly ascending"):
            Factor(scope, [2] * len(scope), np.ones((2,) * len(scope)))

    @pytest.mark.parametrize(
        "cards",
        [np.array([2, 3]), (np.int64(2), np.int64(3)), [np.int32(2), 3], range(2, 4)],
        ids=["array", "numpy-tuple", "list", "range"],
    )
    @pytest.mark.parametrize("values", [np.ones((2, 3)), np.ones(6)], ids=["shaped", "flat"])
    def test_stores_plain_int_tuples(self, cards, values):
        f = Factor([0, 2], cards, values)
        assert type(f.scope) is tuple and f.scope == (0, 2)
        assert type(f.cards) is tuple and f.cards == (2, 3)
        assert all(type(c) is int for c in f.cards)

    def test_accepts_finite_entries_whose_sum_overflows(self):
        f = Factor((0,), (2,), [1e308, 1e308])
        np.testing.assert_array_equal(f.values, [1e308, 1e308])

    def test_copies_a_writable_array(self):
        a = np.arange(6.0).reshape(2, 3)
        f = Factor((0, 1), (2, 3), a)
        a[0, 0] = 99.0
        assert f.values[0, 0] == 0.0

    def test_copies_a_read_only_view(self):
        base = np.arange(6.0)
        view = base.reshape(2, 3)
        view.setflags(write=False)
        f = Factor((0, 1), (2, 3), view)
        base[0] = 99.0
        assert f.values[0, 0] == 0.0

    def test_copies_a_read_only_array_into_row_major_order(self):
        a = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        a.setflags(write=False)
        f = Factor((0, 1), (2, 3), a)
        assert f.values.flags.c_contiguous and not f.values.flags.writeable
        np.testing.assert_array_equal(f.values, a)

    def test_takes_an_owned_read_only_array_as_is(self):
        a = np.arange(6.0).reshape(2, 3).copy()
        a.setflags(write=False)
        assert Factor((0, 1), (2, 3), a).values is a

    def test_algebra_results_are_read_only(self, bn_a, ev_hk):
        f = bn_a.cpts[bn_a.id_of("K")]
        g = bn_a.cpts[bn_a.id_of("H")]
        results = [
            contract([f, g], f.scope),
            contract([f], ()),
            restrict(f, ev_hk),
            normalize(f)[0],
            multiply(f, g),
            multiply(Factor.scalar(2.0), f),
            sum_out(f, f.scope[:1]),
            sum_out(f, f.scope),
        ]
        for out in results:
            assert not out.values.flags.writeable
            with pytest.raises(ValueError):
                out.values[...] = 0.0

    def test_contract_overflow_is_not_finite(self):
        f = Factor((0,), (2,), [1e200, 1.0])
        g = Factor((0,), (2,), [1e200, 1.0])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
            contract([f, g], (0,))


def reference_entry_check(vals):
    """The message the min/max pair gives ``vals``, or None if it accepts them."""
    lo, hi = np.min(vals, initial=0.0), np.max(vals, initial=0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        return "factor entries must be finite"
    if lo < 0.0:
        return "factor entries must be non-negative"
    return None


_NEG_ZERO, _NEG_NAN = 0x8000000000000000, 0xFFF8000000000000
# Bit patterns at the edges of the entry check: ±0.0, NaNs of either sign
# (quiet, signalling and with a payload), ±inf, the smallest and largest
# subnormals, the largest finite double and its negation, and 1.0.
_EDGE_BITS = [
    0x0000000000000000, _NEG_ZERO,
    0x7FF8000000000000, _NEG_NAN, 0x7FF0000000000001, 0xFFF0000000000001, 0x7FFFFFFFFFFFFFFF,
    0x7FF0000000000000, 0xFFF0000000000000,
    0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x000FFFFFFFFFFFFF,
    0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
    0x3FF0000000000000,
]
_BIT_PATTERNS = st.one_of(
    st.sampled_from(_EDGE_BITS),
    st.integers(0, 0x7FEFFFFFFFFFFFFF),  # +0.0 through the largest finite double
    st.integers(0, 2**64 - 1),
)


def from_bits(bits, shape):
    return np.array(bits, dtype=np.uint64).view(np.float64).reshape(shape)


@st.composite
def entry_tables(draw):
    """A float64 table drawn bit by bit, in C order, Fortran order or as a
    strided view; returns (table, its entries in C order as bits)."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(0, 4)))
    bits = draw(st.lists(_BIT_PATTERNS, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    vals = from_bits(bits, shape)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        vals = np.asfortranarray(vals)
    elif layout == "strided":
        wide = np.ones((shape[0], 2 * shape[1]))
        wide[:, ::2] = vals
        vals = wide[:, ::2]
    if draw(st.booleans()):
        vals.setflags(write=False)
    return vals, bits


class TestEntryCheck:
    """``Factor`` accepts exactly the tables the min/max pair accepts, and
    rejects the others with its message, whatever their layout."""

    @settings(max_examples=400, deadline=None)
    @given(entry_tables())
    def test_matches_the_min_max_pair(self, table):
        vals, bits = table
        want = reference_entry_check(vals)
        if want is None:
            f = Factor((0, 1), vals.shape, vals)
            assert f.values.flags.c_contiguous
            assert f.values.view(np.uint64).ravel().tolist() == bits
        else:
            with pytest.raises(ValueError, match=f"^{want}$"):
                Factor((0, 1), vals.shape, vals)

    def test_accepts_negative_zero(self):
        f = Factor((0,), (3,), from_bits([_NEG_ZERO, 0, _NEG_ZERO], (3,)))
        assert np.signbit(f.values).tolist() == [True, False, True]
        assert Factor((), (), np.asarray(-0.0)).values.view(np.uint64) == _NEG_ZERO

    def test_rejects_negative_nan_as_not_finite(self):
        for bits in ([_NEG_NAN], [_NEG_ZERO, _NEG_NAN], [0x3FF0000000000000, _NEG_NAN]):
            with pytest.raises(ValueError, match="^factor entries must be finite$"):
                Factor((0,), (len(bits),), from_bits(bits, (len(bits),)))

    @pytest.mark.parametrize("layout", ["F", "strided"])
    def test_other_layouts_take_the_same_checks(self, layout):
        def laid_out(vals):
            if layout == "F":
                return np.asfortranarray(vals.reshape(2, 3))
            wide = np.ones(12)
            wide[::2] = vals
            return wide[::2].reshape(2, 3)

        base = np.arange(6.0)
        for entry, message in ((np.nan, "finite"), (-np.inf, "finite"), (-1e-300, "non-negative")):
            vals = base.copy()
            vals[4] = entry
            with pytest.raises(ValueError, match=f"^factor entries must be {message}$"):
                Factor((0, 1), (2, 3), laid_out(vals))
        vals = base.copy()
        vals[4] = -0.0
        f = Factor((0, 1), (2, 3), laid_out(vals))
        assert f.values.flags.c_contiguous and np.signbit(f.values).sum() == 1
        np.testing.assert_array_equal(f.values, vals.reshape(2, 3))


class TestTableCap:
    def test_contract_raises_before_allocating(self):
        fs = [Factor((v,), (2,), [0.5, 0.5]) for v in range(28)]
        tracemalloc.start()
        try:
            with pytest.raises(TableCapError, match=f"table of {2**28} entries exceeds cap"):
                contract(fs, range(28))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_window_layout_past_the_cap_raises_before_allocating(self, monkeypatch):
        # 3^10 output entries (472 kB), one more than the cap.
        layout = (((7, 9, 10), (3,) * 3), (tuple(range(10)), (3,) * 10))
        keep = tuple(v for v in range(11) if v != 7)
        assert isinstance(factor_mod._plan.__wrapped__(layout, keep)[3], factor_mod._Window)
        fs = _wide([scope for scope, _ in layout], {v: 3 for v in range(11)})
        monkeypatch.setattr(factor_mod, "MAX_TABLE_ENTRIES", 3**10 - 1)
        factor_mod._plan.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(TableCapError):
                contract(fs, keep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            factor_mod._plan.cache_clear()
        assert peak < 3**10

    def test_a_table_at_the_cap_is_computed(self, monkeypatch):
        monkeypatch.setattr(factor_mod, "MAX_TABLE_ENTRIES", 2**10)
        factor_mod._plan.cache_clear()  # plans made under the real cap
        fs = [Factor((v,), (2,), [0.5, 0.5]) for v in range(11)]
        assert contract(fs, range(10)).values.size == 2**10
        with pytest.raises(TableCapError):
            contract(fs, range(11))


class TestManyVariables:
    """einsum names 52 variables; card-1 variables past that go unnamed."""

    def test_card_one_variables_past_the_letters(self):
        # 62 variables, 60 of them of card 1; each operand has 31 axes, which
        # numpy 1.x arrays hold too.
        f = Factor(tuple(range(30)) + (60,), (1,) * 30 + (2,), [1.0, 2.0])
        g = Factor(tuple(range(30, 60)) + (61,), (1,) * 30 + (2,), [3.0, 4.0])
        got = contract([f, g], [0, 30, 61])
        assert got.scope == (0, 30, 61) and got.cards == (1, 1, 2)
        np.testing.assert_array_equal(got.values.reshape(-1), [9.0, 12.0])
        assert contract([f, g], ()).values == 21.0

    def test_more_than_52_variables_of_card_above_1(self):
        # 27 binary pairs: 54 variables, 2^54 union entries.
        fs = [Factor((2 * i, 2 * i + 1), (2, 2), np.full((2, 2), 0.25)) for i in range(27)]
        with pytest.raises(TableCapError, match="^contraction over 54 variables of card above 1"):
            contract(fs, ())


class TestMultiply:
    def test_identity_ones(self):
        f = Factor((0, 1), (2, 3), np.arange(6.0))
        ones = Factor((0, 1), (2, 3), np.ones((2, 3)))
        g = multiply(f, ones)
        assert g.scope == f.scope
        np.testing.assert_array_equal(g.values, f.values)

    def test_root_product_is_joint(self, bn_a):
        # Two independent roots: the product is their joint table.
        a, b = bn_a.cpts[0], bn_a.cpts[1]
        j = multiply(a, b)
        assert j.scope == (0, 1)
        np.testing.assert_allclose(
            j.values, np.outer(a.values, b.values), atol=1e-15
        )

    @settings(max_examples=60, deadline=None)
    @given(factors(), factors())
    def test_matches_loop_oracle(self, f, g):
        got = multiply(f, g)
        want = loop_multiply(f, g)
        assert got.scope == want.scope
        np.testing.assert_allclose(got.values, want.values, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(factors(), factors())
    def test_commutative(self, f, g):
        fg, gf = multiply(f, g), multiply(g, f)
        assert fg.scope == gf.scope
        np.testing.assert_array_equal(fg.values, gf.values)

    @settings(max_examples=40, deadline=None)
    @given(factors(), factors(), factors())
    def test_associative(self, f, g, h):
        left = multiply(multiply(f, g), h)
        right = multiply(f, multiply(g, h))
        assert left.scope == right.scope
        np.testing.assert_allclose(left.values, right.values, rtol=1e-12, atol=1e-12)

    def test_cardinality_mismatch(self):
        f = Factor((0,), (2,), [1.0, 2.0])
        g = Factor((0,), (3,), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="cardinality mismatch for variable 0: 2 vs 3"):
            multiply(f, g)


class TestSumOut:
    def test_marginalizes_independent_product(self, bn_a):
        a, b = bn_a.cpts[0], bn_a.cpts[1]
        m = sum_out(multiply(a, b), {1})
        assert m.scope == a.scope
        np.testing.assert_allclose(m.values, a.values, rtol=0, atol=1e-12)

    def test_total_probability(self, bn_a):
        joint = multiply(bn_a.cpts[0], bn_a.cpts[1])
        assert sum_out(joint, {0, 1}).values == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(factors())
    def test_order_independent(self, f):
        if len(f.scope) < 2:
            return
        x, y = f.scope[0], f.scope[1]
        both = sum_out(f, {x, y})
        seq = sum_out(sum_out(f, {y}), {x})
        assert both.scope == seq.scope
        np.testing.assert_allclose(both.values, seq.values, rtol=1e-12, atol=1e-12)

    def test_var_not_in_scope(self):
        f = Factor((0,), (2,), [1.0, 2.0])
        with pytest.raises(ValueError, match="not in scope"):
            sum_out(f, {3})

    @settings(max_examples=50, deadline=None)
    @given(factors(), st.sets(st.integers(0, 5)))
    def test_matches_loop_oracle(self, f, drop):
        drop &= set(f.scope)
        got = sum_out(f, drop)
        want = loop_marginal(f, set(f.scope) - drop)
        assert got.scope == want.scope and got.cards == want.cards
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(factors(ids=range(3)), factors(ids=range(3, 6)))
    def test_distributes_over_disjoint_multiply(self, f, g):
        # sum_out(f*g, Y) == f * sum_out(g, Y) when Y misses scope(f).
        if not g.scope:
            return
        y = g.scope[0]
        left = sum_out(multiply(f, g), {y})
        right = multiply(f, sum_out(g, {y}))
        assert left.scope == right.scope
        np.testing.assert_allclose(left.values, right.values, rtol=1e-12, atol=1e-12)


def loop_product(fs) -> Factor:
    out = Factor.scalar(1.0)
    for f in fs:
        out = loop_multiply(out, f)
    return out


# Ids 6 and 7 never occur in a drawn scope: keep may name variables outside
# the union.
_KEEP = st.sets(st.integers(0, 7))


class TestContract:
    @settings(max_examples=60, deadline=None)
    @given(factors(), factors(), _KEEP)
    def test_matches_multiply_then_sum_out(self, f, g, keep):
        got = contract([f, g], keep)
        prod = multiply(f, g)
        want = sum_out(prod, [v for v in prod.scope if v not in keep])
        assert got.scope == want.scope and got.cards == want.cards
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=1e-12)
        loop = loop_marginal(loop_multiply(f, g), keep)
        np.testing.assert_allclose(got.values, loop.values, rtol=1e-12, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(factors(max_vars=3), min_size=3, max_size=5), _KEEP)
    def test_many_operands(self, fs, keep):
        got = contract(fs, keep)
        want = loop_marginal(loop_product(fs), keep)
        assert got.scope == want.scope
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(factors(), factors(), st.floats(0, 10), _KEEP)
    def test_scalar_operands_fold_in(self, f, g, c, keep):
        fs = [Factor.scalar(c), f, Factor.scalar(0.5), g]
        got = contract(fs, keep)
        want = loop_marginal(loop_product(fs), keep)
        assert got.scope == want.scope
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=1e-12)

    def test_only_scalars_and_keep_outside_union(self):
        assert float(contract([Factor.scalar(2.0), Factor.scalar(3.0)], {4}).values) == 6.0
        f = Factor((0, 1), (2, 3), np.arange(6.0))
        total = contract([f], {9})
        assert total.scope == () and float(total.values) == 15.0

    def test_cardinality_mismatch(self):
        f = Factor((0, 1), (2, 3), np.ones((2, 3)))
        g = Factor((1,), (2,), [1.0, 2.0])
        with pytest.raises(ValueError, match="cardinality mismatch for variable 1: 3 vs 2"):
            contract([f, g], {0})

    def test_read_only_output(self):
        f = Factor((0, 1), (2, 3), np.arange(6.0))
        g = Factor((1,), (3,), [1.0, 2.0, 3.0])
        for out in (contract([f, g], {0}), contract([f], {0, 1}), contract([], ())):
            assert not out.values.flags.writeable
            with pytest.raises(ValueError):
                out.values[...] = 0.0

    def test_more_operands_than_one_einsum_takes(self):
        # A star's hub receives one message per child; 70 is past einsum's
        # operand limit on numpy 1.x and 2.x alike.
        rng = np.random.default_rng(3)
        fs = [Factor((0,), (3,), rng.random(3)) for _ in range(70)]
        fs[10:10] = [Factor((0, k), (3, 2), rng.random((3, 2))) for k in (1, 2, 3)]
        for keep in ((0,), (), (0, 2)):
            got = contract(fs, keep)
            want = loop_marginal(loop_product(fs), keep)
            assert got.scope == want.scope
            np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(factors(max_vars=3), min_size=1, max_size=7), _KEEP, st.integers(2, 3))
    def test_operands_folded_in_groups(self, fs, keep, limit):
        want = loop_marginal(loop_product(fs), keep)
        saved = factor_mod._MAX_OPERANDS
        factor_mod._MAX_OPERANDS = limit
        try:
            got = contract(fs, keep)
        finally:
            factor_mod._MAX_OPERANDS = saved
        assert got.scope == want.scope
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=1e-12)


    def test_lone_operand_times_scalar_one_is_the_operand(self):
        f = Factor((0, 1), (2, 3), np.arange(6.0))
        assert contract([f, Factor.scalar(1.0)], f.scope) is f
        assert contract([Factor.scalar(1.0), f], (0, 1, 9)) is f

    def test_product_of_scalars_is_a_scalar(self):
        assert contract([], ()) is factor_mod._ONE
        assert contract([Factor.scalar(2.0), Factor.scalar(0.5)], {3}) is factor_mod._ONE
        got = contract([Factor.scalar(2.0), Factor.scalar(3.0), Factor.scalar(0.25)], ())
        assert got.scope == () and got.values.tobytes() == np.float64(1.5).tobytes()

    def test_scaled_identity_matches_einsum_bits(self):
        f = Factor((0, 2), (2, 3), np.random.default_rng(5).random((2, 3)))
        for s in (0.1, 3.0, 0.0):
            got = contract([f, Factor.scalar(s)], f.scope)
            assert _bits(got) == _bits(factor_mod._einsum([f], frozenset(f.scope), s))
            assert not got.values.flags.writeable

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.one_of(factors(max_vars=3), st.floats(0, 10).map(Factor.scalar)), max_size=5),
        _KEEP,
    )
    def test_matches_einsum_on_the_non_scalar_operands(self, fs, keep):
        ops = [f for f in fs if f.scope]
        scale = 1.0
        for f in fs:
            if not f.scope:
                scale *= float(f.values)
        if ops:
            want = factor_mod._einsum(ops, frozenset(keep), scale)
        else:
            want = Factor.scalar(scale)
        assert _bits(contract(fs, keep)) == _bits(want)


class TestPlanCache:
    def test_cardinality_mismatch_raises_on_every_call(self):
        f = Factor((0, 1), (2, 3), np.ones((2, 3)))
        g = Factor((1,), (2,), [1.0, 2.0])
        for _ in range(2):
            with pytest.raises(ValueError, match="cardinality mismatch for variable 1: 3 vs 2"):
                contract([f, g], {0})

    def test_one_layout_under_different_keep_sets(self):
        rng = np.random.default_rng(7)
        fs = [
            Factor((0, 2), (2, 2), rng.random((2, 2))),
            Factor((2, 3), (2, 4), rng.random((2, 4))),
            Factor((3,), (4,), rng.random(4)),
        ]
        # 5 and 9 lie outside the operands' union.
        for keep in ((), (0,), (2, 3), (0, 2, 3), (3, 5), (9,), (0, 2, 3, 9)):
            want = loop_marginal(loop_product(fs), keep)
            for _ in range(2):  # the first call plans, the repeat reads the cache
                got = contract(fs, keep)
                assert got.scope == want.scope and got.cards == want.cards
                np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=0.0)

    def test_cache_is_bounded(self):
        maxsize = factor_mod._plan.cache_info().maxsize
        assert maxsize is not None and maxsize > 0

    def test_set_up_plans_serve_the_session(self):
        # Set-up and queries share one plan cache: once the cohort tables
        # and border priors are computed, a session recomputing every
        # border's π with no evidence plans nothing new.
        from bordertree.bnformat import parse_network
        from bordertree.bp_build import build_border_polytree
        from bordertree.bp_infer import BorderSession, preload_priors
        from bordertree.network import NO_EVIDENCE
        from conftest import fixture_path

        for name, set_up_plans in (("bn_a.bn", 13), ("bn_c.bn", 28), ("polytree_b.bn", 21)):
            with open(fixture_path(name), encoding="utf-8") as fh:
                bn = parse_network(fh.read())
            factor_mod._plan.cache_clear()
            bp = build_border_polytree(bn)
            preload_priors(bp)
            assert factor_mod._plan.cache_info().misses == set_up_plans, name
            session = BorderSession(bp, NO_EVIDENCE)
            for b in bp.borders:
                np.testing.assert_array_equal(session.pi_border(b.id).values, bp.priors[b.id].values)
            assert factor_mod._plan.cache_info().misses == set_up_plans, name

    def test_keep_keys_are_compact(self, monkeypatch):
        # A one-variable keep is keyed as a 48-byte tuple, not a 216-byte
        # frozenset; a border's member set is shared, not copied.
        keys = []
        plan = factor_mod._plan
        monkeypatch.setattr(factor_mod, "_plan", lambda layout, keep: keys.append(keep) or plan(layout, keep))
        fs = [Factor((1, 4), (2, 2), np.ones((2, 2))), Factor((4, 7), (2, 2), np.ones((2, 2)))]
        members = frozenset({1, 4, 9})
        for keep in (members, (4,), frozenset({4}), [4, 4], ()):
            contract(fs, keep)
        assert keys[0] is members
        assert keys[1:] == [(4,), (4,), (4,), ()]


def _bits(f: Factor):
    return f.scope, f.cards, f.values.tobytes()


def _through_np_einsum(monkeypatch):
    """Run ``contract``'s einsum route through ``np.einsum``; returns the
    list of its calls' subscripts."""
    calls = []

    def einsum(*args):
        calls.append(args[0])
        return np.einsum(*args)

    monkeypatch.setattr(factor_mod, "_EINSUM", einsum)
    return calls


def _contract_layouts():
    """``contract`` on the fixed layouts of ``TestContract`` and ``TestPlanCache``."""
    rng = np.random.default_rng(3)
    star = [Factor((0,), (3,), rng.random(3)) for _ in range(70)]
    star[10:10] = [Factor((0, k), (3, 2), rng.random((3, 2))) for k in (1, 2, 3)]
    f = Factor((0, 1), (2, 3), np.arange(6.0))
    g = Factor((1,), (3,), [1.0, 2.0, 3.0])
    rng = np.random.default_rng(7)
    chain = [
        Factor((0, 2), (2, 2), rng.random((2, 2))),
        Factor((2, 3), (2, 4), rng.random((2, 4))),
        Factor((3,), (4,), rng.random(4)),
    ]
    pair = [Factor((1, 4), (2, 2), np.ones((2, 2))), Factor((4, 7), (2, 2), np.ones((2, 2)))]
    runs = [([Factor.scalar(2.0), Factor.scalar(3.0)], {4}), ([f], {9}), ([f, g], {0}), ([], ())]
    runs += [(star, keep) for keep in ((0,), (), (0, 2))]
    runs += [(chain, keep) for keep in ((), (0,), (2, 3), (0, 2, 3), (3, 5), (9,), (0, 2, 3, 9))]
    runs += [(pair, keep) for keep in (frozenset({1, 4, 9}), (4,), [4, 4], ())]
    return [_bits(contract(fs, keep)) for fs, keep in runs]


def _polytree_answers(seed):
    """Every posterior and Pr(e) of ``bp_query`` on a seeded 400-node
    polytree, for four seeded evidence sets.  Queries that share no
    ancestor with an evidence set read their priors and send no message,
    so one set alone leaves many of the polytree's messages unexercised."""
    from bordertree.bp_build import build_border_polytree
    from bordertree.bp_infer import bp_query, preload_priors
    from conftest import random_evidence

    from bordertree.randgen import random_polytree

    rng = np.random.default_rng(seed)
    bn = random_polytree(rng, 400, 400, 3)
    bp = build_border_polytree(bn)
    preload_priors(bp)
    out = []
    for _ in range(4):
        posts, pe = bp_query(bp, random_evidence(rng, bn, max_vars=5))
        out.append(([_bits(posts[v]) for v in sorted(posts)], pe.hex()))
    return out


class TestEinsumCall:
    """``contract`` calls numpy's C einsum where numpy has one, and
    ``np.einsum``, which wraps it, gives the same bits."""

    def test_picks_the_function_np_einsum_calls(self):
        # With ``optimize`` off, its default, ``np.einsum`` passes its
        # arguments on to ``c_einsum`` from its own module.
        wrapped = inspect.unwrap(np.einsum).__globals__.get("c_einsum")
        assert factor_mod._EINSUM is (np.einsum if wrapped is None else wrapped)

    def test_fixed_layouts(self, monkeypatch):
        want = _contract_layouts()
        calls = _through_np_einsum(monkeypatch)
        assert _contract_layouts() == want
        assert len(calls) > len(want) / 2

    @settings(max_examples=60, deadline=None)
    @given(st.lists(factors(max_vars=3), min_size=1, max_size=5), _KEEP)
    def test_drawn_layouts(self, fs, keep):
        want = _bits(contract(fs, keep))
        with pytest.MonkeyPatch.context() as monkeypatch:
            _through_np_einsum(monkeypatch)
            assert _bits(contract(fs, keep)) == want

    def test_seeded_polytree_query(self, monkeypatch):
        want = _polytree_answers(11)
        calls = _through_np_einsum(monkeypatch)
        assert _polytree_answers(11) == want
        assert len(calls) > 1000

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_no_call_computes_nothing(self, monkeypatch, seed):
        # A leaf border's λ, a read-out whose λ is a scalar and a π message
        # whose other children send scalars need no einsum call: no call
        # has zero operands or is one operand copied as it is.
        calls = _through_np_einsum(monkeypatch)
        _polytree_answers(seed)
        assert len(calls) > 100
        for subscripts in calls:
            ins, out = subscripts.split("->")
            assert ins and ins != out, subscripts


def _wide(scopes, cards, seed=0):
    """Random factors over ``scopes``, with ``cards`` giving each variable's card."""
    rng = np.random.default_rng(seed)
    out = []
    for scope in scopes:
        cs = tuple(cards.get(v, 2) for v in scope)
        out.append(Factor(scope, cs, rng.random(cs)))
    return out


def _no_route(*_args):
    """A route generator that offers no route."""
    return iter(())


@pytest.fixture
def matmul_whenever_allowed(monkeypatch):
    """Plans made inside the test take the strided matmul route wherever it
    is allowed, and never the window route."""
    monkeypatch.setattr(factor_mod, "_windows", _no_route)
    monkeypatch.setattr(factor_mod, "_MATMUL_CALL", -math.inf)
    factor_mod._plan.cache_clear()
    yield
    factor_mod._plan.cache_clear()


@pytest.fixture
def window_whenever_allowed(monkeypatch):
    """Plans made inside the test take a window route wherever one is
    allowed, and never the strided route."""
    monkeypatch.setattr(factor_mod, "_strided", _no_route)
    monkeypatch.setattr(factor_mod, "_MATMUL_CALL", -math.inf)
    factor_mod._plan.cache_clear()
    yield
    factor_mod._plan.cache_clear()


# Twelve variables of card 2 make a union of 4,096 entries, the route floor.
# Each layout: (scope of the first operand, of the second, summed variables,
# cards other than 2).  In those named "copied", an operand is no stack of
# matrices in memory order; the strided route reads it in place all the
# same.  The summed variables of "inner product kept to one variable" form
# two runs, so it has no strided route.
_ROUTE_LAYOUTS = {
    "batch, permuted output": ((0, 10, 11), tuple(range(1, 12)), {11}, {}),
    "no batch, output in scope order": ((0, 1, 2), tuple(range(2, 12)), {2}, {}),
    "second operand first in the output": ((2, 3, 11), (0, 1, 4, 5, 6, 7, 8, 9, 10, 11), {11}, {}),
    "batch splits an operand: copied": ((0, 5, 11), tuple(range(1, 12)), {11}, {}),
    "innermost batch: both copied": ((0, 10, 11), tuple(range(1, 12)), {10}, {}),
    "no own kept variable on the left": ((10, 11), tuple(range(12)), {10, 11}, {}),
    "summed leading variable": ((0, 11, 12), tuple(range(12)), {0}, {}),
    "inner product": (tuple(range(12)), tuple(range(12)), set(range(12)), {}),
    "inner product kept to one variable": (
        tuple(range(12)), tuple(range(12)), set(range(12)) - {5}, {}
    ),
    "card-1 batch, summed and own variables": (
        (0, 3, 10, 11, 12),
        tuple(range(1, 14)),
        {11, 12},
        {3: 1, 12: 1, 13: 1, 0: 4},
    ),
    "card-1 variable between the groups": ((0, 1, 6, 11), tuple(range(1, 12)), {11}, {6: 1, 0: 4}),
    "mixed cards": (
        (0, 4, 7), tuple(range(1, 8)), {7}, {0: 3, 1: 5, 2: 4, 3: 3, 4: 3, 5: 2, 6: 2, 7: 3}
    ),
}


# Layouts with a window route, 4,096 union entries or more.  Each: (scope
# of the narrow operand, of the wide one, summed variables, cards other
# than 2).  The narrow operand's variables lie in one window of the
# union's order, or lead it.
_WINDOW_LAYOUTS = {
    "trailing window": ((9, 11, 12), tuple(range(12)), {9}, {}),
    "interior pass-through, suffix": ((7, 9, 10), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12), {7}, {}),
    "new leading variable": ((0, 9, 10), tuple(range(1, 13)), {10}, {}),
    "shared kept leading variable": ((0, 10, 11), tuple(range(12)), {11}, {}),
    "lead without a prefix joins the window": ((0, 1, 2), (0, 2) + tuple(range(3, 13)), {0}, {}),
    "own summed variable, summed first": ((9, 11, 13), tuple(range(13)), {9, 13}, {}),
    "card-1 variables inside and outside the window": (
        (3, 9, 10, 12),
        (0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 13),
        {3, 9},
        {0: 3, 1: 3, 2: 1, 3: 1, 10: 1},
    ),
    "mixed cards": (
        (5, 7, 8), tuple(range(9)), {5}, {0: 3, 1: 5, 2: 4, 3: 3, 4: 3, 6: 2, 7: 3}
    ),
}


def _window_case(name, seed=0):
    """Factors for ``_WINDOW_LAYOUTS[name]``, the kept variables and the
    loop reference's table."""
    sa, sb, summed, cards = _WINDOW_LAYOUTS[name]
    fs = _wide([sa, sb], cards, seed)
    keep = tuple(sorted((set(sa) | set(sb)) - summed))
    return fs, keep, loop_marginal(loop_product(fs), keep)


def _strided_layout(ops, keep):
    """Whether ``ops`` onto ``keep`` is a layout the strided route takes:
    every summed variable of card over 1 lies in both operands, and they
    form one unbroken run of each operand's variables of card over 1."""
    summed = {v for f in ops for v, c in zip(f.scope, f.cards) if v not in keep and c > 1}
    if not summed:
        return False
    for f in ops:
        wide = [v for v, c in zip(f.scope, f.cards) if c > 1]
        at = [k for k, v in enumerate(wide) if v in summed]
        if len(at) != len(summed) or at[-1] - at[0] != len(at) - 1:
            return False
    return True


def _every_strided(ops, keep):
    """Each strided route of ``ops`` onto ``keep``, one per choice of row
    and column run, with the table it computes."""
    layout = tuple((f.scope, f.cards) for f in ops)
    cards = {v: c for f in ops for v, c in zip(f.scope, f.cards)}
    out = tuple(v for v in sorted(cards) if v in keep)
    out_cards = tuple(cards[v] for v in out)
    for route, _cost in factor_mod._strided(layout, cards, set(keep), out):
        yield route, factor_mod._strided_product(route, out_cards, ops[0].values, ops[1].values)


def _assert_fresh(vals, ops, shape, route):
    """An owned, C-contiguous result that shares no memory with an operand
    is what Factor takes without a copy, and what no caller can alter."""
    assert vals.base is None and vals.flags.c_contiguous and vals.shape == shape, route
    assert not any(np.shares_memory(vals, f.values) for f in ops), route


@st.composite
def strided_layouts(draw):
    """Two factors whose layout has a strided route, and the kept variables.

    One block of one or two shared summed variables lies among variables
    kept in the first operand only, the second only or both, or summed in
    the first only at card 1.  Cards are 1 to 4, the first summed one over
    1.  Own variables split by others become batch axes broadcast over the
    other operand.
    """
    roles = st.sampled_from(["a", "b", "ab", "a summed"])
    role = draw(st.lists(roles, max_size=3)) + ["k"] * draw(st.integers(1, 2))
    first = role.index("k")
    role += draw(st.lists(roles, max_size=3))
    cards = {v: draw(st.integers(1, 4)) for v in range(len(role))}
    cards.update({v: 1 for v, r in enumerate(role) if r == "a summed"})
    cards[first] = draw(st.integers(2, 4))
    assume(math.prod(cards.values()) <= 6000)
    sa = tuple(v for v, r in enumerate(role) if r != "b")
    sb = tuple(v for v, r in enumerate(role) if r in ("b", "ab", "k"))
    keep = tuple(v for v, r in enumerate(role) if r in ("a", "b", "ab"))
    return _wide([sa, sb], cards, draw(st.integers(0, 2**32 - 1))), keep


def _every_window(ops, keep):
    """Each window route of ``ops`` onto ``keep``, whichever operand it
    expands, with the table it computes; routes whose matrix would hold
    more than 2^16 entries are left out."""
    layout = tuple((f.scope, f.cards) for f in ops)
    cards = {v: c for f in ops for v, c in zip(f.scope, f.cards)}
    out_cards = tuple(cards[v] for v in sorted(cards) if v in keep)
    for narrow in (0, 1):
        for route, _cost in factor_mod._windows(layout, cards, set(keep), narrow):
            if math.prod(route.matrix) <= 2**16:
                yield route, factor_mod._window_product(route, out_cards, ops[0].values, ops[1].values)


class TestRoutes:
    """Every route the planner can choose gives the loop reference's table:
    the strided route on ``_ROUTE_LAYOUTS`` and on drawn layouts, the
    window route on ``_WINDOW_LAYOUTS`` and on drawn layouts."""

    @pytest.mark.parametrize("name", sorted(_ROUTE_LAYOUTS))
    def test_matmul_route_matches_loop_reference(self, name, matmul_whenever_allowed):
        sa, sb, summed, cards = _ROUTE_LAYOUTS[name]
        fs = _wide([sa, sb], cards)
        keep = sorted((set(sa) | set(sb)) - summed)
        want = loop_marginal(loop_product(fs), keep)
        for ops in (fs, fs[::-1]):  # both operand orders
            layout = tuple((f.scope, f.cards) for f in ops)
            route = factor_mod._plan(layout, tuple(keep))[3]
            if _strided_layout(ops, keep):
                assert isinstance(route, factor_mod._Strided)
            else:
                assert route is None
            got = contract(ops, keep)
            assert got.scope == want.scope and got.cards == want.cards
            np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=0.0)
            # Every choice of row and column run, not only the cheapest.
            for route, vals in _every_strided(ops, keep):
                _assert_fresh(vals, ops, want.cards, route)
                np.testing.assert_allclose(vals, want.values, rtol=1e-12, atol=0.0, err_msg=str(route))

    @pytest.mark.parametrize(
        "name", ["batch, permuted output", "no batch, output in scope order"]
    )
    def test_matmul_output_is_owned(self, name, matmul_whenever_allowed):
        sa, sb, summed, cards = _ROUTE_LAYOUTS[name]
        fs = _wide([sa, sb], cards)
        keep = tuple(sorted((set(sa) | set(sb)) - summed))
        _, _, out_cards, route = factor_mod._plan(((sa, fs[0].cards), (sb, fs[1].cards)), keep)
        vals = factor_mod._strided_product(route, out_cards, fs[0].values, fs[1].values)
        _assert_fresh(vals, fs, out_cards, route)

    @pytest.mark.parametrize(
        "sa, sb, keep",
        [
            (tuple(range(7)), tuple(range(6, 12)), tuple(range(12))),  # nothing summed
            ((0, 1, 11), tuple(range(1, 12)), tuple(range(1, 11))),  # 0 summed in one operand
            ((0, 1), tuple(range(2, 12)), tuple(range(1, 12))),  # no shared variable either
        ],
    )
    def test_layouts_without_a_matmul_route(self, sa, sb, keep, matmul_whenever_allowed):
        fs = _wide([sa, sb], {})
        for ops in (fs, fs[::-1]):
            layout = tuple((f.scope, f.cards) for f in ops)
            assert factor_mod._plan(layout, keep)[3] is None
            got = contract(ops, keep)
            want = loop_marginal(loop_product(ops), keep)
            assert got.scope == want.scope
            np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=0.0)

    def test_seeded_layouts_on_both_routes(self, monkeypatch, matmul_whenever_allowed):
        for k, (sa, sb, keep, cards) in enumerate(_seeded_matmul_layouts(16)):
            fs = _wide([sa, sb], cards, seed=k)
            want = loop_marginal(loop_product(fs), keep)
            for call in (math.inf, -math.inf):  # matmul never, and wherever allowed
                monkeypatch.setattr(factor_mod, "_MATMUL_CALL", call)
                factor_mod._plan.cache_clear()
                for ops in (fs, fs[::-1]):
                    layout = tuple((f.scope, f.cards) for f in ops)
                    routed = call < 0 and _strided_layout(ops, keep)
                    assert (factor_mod._plan(layout, keep)[3] is not None) == routed
                    got = contract(ops, keep)
                    assert got.scope == want.scope
                    np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=0.0)

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(strided_layouts(), st.sampled_from([1.0, 2.5, 1e-3]))
    def test_drawn_strided_layouts(self, monkeypatch, case, scale):
        # Under the route floor too, so that small drawn layouts take it.
        monkeypatch.setattr(factor_mod, "_ROUTE_FLOOR", 0)
        monkeypatch.setattr(factor_mod, "_windows", _no_route)
        monkeypatch.setattr(factor_mod, "_MATMUL_CALL", -math.inf)
        factor_mod._plan.cache_clear()
        try:
            fs, keep = case
            want = loop_marginal(loop_product(fs), keep)
            for ops in (fs, fs[::-1]):
                routes = list(_every_strided(ops, keep))
                assert routes
                for route, vals in routes:
                    _assert_fresh(vals, ops, want.cards, route)
                    np.testing.assert_allclose(vals, want.values, rtol=1e-12, atol=0.0, err_msg=str(route))
                layout = tuple((f.scope, f.cards) for f in ops)
                assert isinstance(factor_mod._plan(layout, keep)[3], factor_mod._Strided)
                got = contract([Factor.scalar(scale), *ops], keep)
                np.testing.assert_allclose(got.values, scale * want.values, rtol=1e-12, atol=0.0)
        finally:
            factor_mod._plan.cache_clear()

    @pytest.mark.parametrize("name", sorted(_WINDOW_LAYOUTS))
    def test_window_route_matches_loop_reference(self, name, window_whenever_allowed):
        fs, keep, want = _window_case(name)
        for ops in (fs, fs[::-1]):  # both operand orders
            layout = tuple((f.scope, f.cards) for f in ops)
            assert isinstance(factor_mod._plan(layout, keep)[3], factor_mod._Window)
            got = contract(ops, keep)
            assert got.scope == want.scope and got.cards == want.cards
            np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=0.0)
            # Every window, shortest or carried on to the last variable, with
            # either operand expanded; its result is owned and C-contiguous,
            # which is what Factor takes without a copy.
            for route, vals in _every_window(ops, keep):
                assert vals.base is None and vals.flags.c_contiguous and vals.shape == want.cards, route
                np.testing.assert_allclose(vals, want.values, rtol=1e-12, atol=0.0, err_msg=str(route))

    @pytest.mark.parametrize("scale", [2.5, 1e-3])
    def test_window_route_with_a_scalar_multiplier(self, scale, window_whenever_allowed):
        fs, keep, want = _window_case("interior pass-through, suffix")
        got = contract([Factor.scalar(scale), *fs], keep)
        np.testing.assert_allclose(got.values, scale * want.values, rtol=1e-12, atol=0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 12), min_size=1, max_size=3, unique=True),
        st.sets(st.integers(0, 13)),
        st.integers(0, 2**32 - 1),
    )
    def test_drawn_window_layouts(self, narrow, keep, seed):
        # A narrow factor of up to three variables (12 is its own) against
        # one over twelve binary variables: 4,096 entries, the route floor.
        fs = _wide([tuple(sorted(narrow)), tuple(range(12))], {}, seed)
        want = loop_marginal(loop_product(fs), keep)
        for ops in (fs, fs[::-1]):
            for route, vals in _every_window(ops, keep):
                np.testing.assert_allclose(vals, want.values, rtol=1e-12, atol=0.0, err_msg=str(route))
            np.testing.assert_allclose(contract(ops, keep).values, want.values, rtol=1e-12, atol=0.0)


def _seeded_matmul_layouts(count, seed=11):
    """Two-factor layouts over the route floor that the matmul route takes:
    every variable of one operand only is kept, some shared one summed."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        cards = {v: int(rng.choice([1, 2, 2, 2, 3])) for v in range(13)}
        side = rng.integers(0, 3, 13)  # 0: first operand only, 1: second only, 2: both
        summed = {v for v in range(13) if side[v] == 2 and rng.random() < 0.5}
        if not summed or not 4096 <= math.prod(cards.values()) <= 20000:
            continue
        sa = tuple(v for v in range(13) if side[v] != 1)
        sb = tuple(v for v in range(13) if side[v] != 0)
        out.append((sa, sb, tuple(v for v in range(13) if v not in summed), cards))
    return out


class TestRouteChoice:
    """The cost model's choice on pinned layouts; a change to it shows here."""

    @staticmethod
    def route(subscripts, card):
        inputs, out = subscripts.split("->")
        ids = {c: k for k, c in enumerate("abcdefghijk")}
        layout = tuple(
            (tuple(ids[c] for c in term), (card,) * len(term)) for term in inputs.split(",")
        )
        keep = tuple(ids[c] for c in out)
        plan = factor_mod._plan.__wrapped__(layout, keep)
        assert plan[0] == subscripts
        return plan[3]

    def test_trailing_shared_axes_take_matmul(self):
        assert self.route("ajk,bcdefghijk->abcdefghij", 3) is not None

    def test_long_inner_run_takes_einsum(self):
        # A product that sums nothing, over inner runs of 3^6 entries.
        assert self.route("abcdefghij,efghij->abcdefghij", 3) is None

    @pytest.mark.parametrize(
        "subscripts",
        [
            "hjk,abcdefghij->abcdefgijk",  # the border polytree's costliest
            "aij,bcdefghijk->abcdefghik",
            # Strided matrices whose unit-stride axis is the short one
            # (3 x 2187 at byte strides 8 and 72): 40 us here against 169 us
            # on the strided route, and 17 against 62 us.
            "hjk,abcdefgik->abcdefghij",
            "gij,abcdefhj->abcdefghi",
        ],
    )
    def test_costliest_grid_layouts_take_the_window(self, subscripts):
        assert isinstance(self.route(subscripts, 3), factor_mod._Window)

    @pytest.mark.parametrize(
        "d1, d2, s1, s2, blas",
        [
            (3, 2187, 8 * 2187, 8, True),  # row-major: the long axis has unit stride
            (2187, 3, 8, 8 * 2187 * 3, True),
            (3, 2187, 8, 72, False),  # the short axis has unit stride
            (2187, 3, 72, 8, False),
            (3, 3, 8, 24, True),
            (1, 2187, 8, 72, True),  # a vector, at any stride
            (27, 81, 648, 72, False),  # no unit-stride axis
        ],
    )
    def test_blas_needs_the_long_axis_at_unit_stride(self, d1, d2, s1, s2, blas):
        assert factor_mod._blas(d1, d2, s1, s2) is blas

    @pytest.mark.parametrize(
        "subscripts",
        [
            "ahi,abcdefghjk->bcdefghijk",  # a leading sum beside a shared kept variable
            "ajk,abcdefghij->bcdefghijk",  # the chain's costliest
            "abcdefghij,abcdefghij->j",  # the pi-lambda read-out, 3 strided dots
            "gij,abcdefghik->abcdefhijk",  # 157-175 us; 189-207 us on the window route
            "aef,bcdefghijk->abcdeghijk",  # a long inner run: 27-35 us; window 42-56 us
        ],
    )
    def test_chain_layouts_take_the_strided_route(self, subscripts):
        assert isinstance(self.route(subscripts, 3), factor_mod._Strided)

    def test_two_wide_operands_never_take_the_window(self):
        assert not isinstance(self.route("abcdefghij,abcdefghij->j", 3), factor_mod._Window)

    @pytest.mark.parametrize(
        "subscripts, card",
        [("ajk,bcdefghijk->abcdefghij", 2), ("ab,bc->ac", 3), ("abc,bcd->ad", 3)],
    )
    def test_under_the_floor_takes_einsum(self, subscripts, card):
        assert self.route(subscripts, card) is None


class TestShortForms:
    """``product_all`` and ``marginal_to`` are short forms of ``contract``."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(factors(max_vars=3), max_size=4), _KEEP)
    def test_match_loop_oracles(self, fs, keep):
        prod = product_all(fs)
        want = loop_product(fs)
        assert prod.scope == want.scope and prod.cards == want.cards
        np.testing.assert_allclose(prod.values, want.values, rtol=1e-12, atol=1e-12)
        got = marginal_to(prod, keep)
        want = loop_marginal(want, keep)
        assert got.scope == want.scope and got.cards == want.cards
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=1e-12)

    def test_empty_product_is_one(self):
        one = product_all([])
        assert one.scope == () and float(one.values) == 1.0


class TestRestrict:
    def test_empty_evidence_is_identity(self, bn_a):
        ev = EvidenceSet(bn_a)
        f = bn_a.cpts[6]
        assert restrict(f, ev) is f

    def test_soft_evidence_zeroes_rows(self, bn_a):
        d = bn_a.id_of("D")  # cardinality 3
        ev = EvidenceSet(bn_a, {d: {0, 1}})
        f = bn_a.cpts[d]
        r = restrict(f, ev)
        axis = f.scope.index(d)
        sl = [slice(None)] * len(f.scope)
        sl[axis] = 2
        assert np.all(r.values[tuple(sl)] == 0)
        sl[axis] = slice(0, 2)
        np.testing.assert_array_equal(r.values[tuple(sl)], f.values[tuple(sl)])

    def test_equals_indicator_multiply(self, bn_a, ev_hk):
        f = bn_a.cpts[bn_a.id_of("K")]
        ind = indicator(f.scope, f.cards, ev_hk)
        np.testing.assert_allclose(
            restrict(f, ev_hk).values, multiply(f, ind).values, atol=0
        )

    def test_hard_evidence_then_sum_equals_slice(self, bn_a):
        h = bn_a.id_of("H")
        f = bn_a.cpts[h]
        ev = EvidenceSet(bn_a, {h: {1}})
        got = sum_out(restrict(f, ev), {h})
        axis = f.scope.index(h)
        want = np.take(f.values, 1, axis=axis)
        np.testing.assert_allclose(got.values, want, atol=0)


class TestNormalize:
    def test_already_normalized(self):
        f = Factor((0,), (2,), [0.25, 0.75])
        g, z = normalize(f)
        assert z == pytest.approx(1.0)
        np.testing.assert_allclose(g.values, f.values)

    def test_arithmetic(self):
        g, z = normalize(Factor((0,), (2,), [0.2, 0.6]))
        assert z == pytest.approx(0.8)
        np.testing.assert_allclose(g.values, [0.25, 0.75])

    def test_all_zero_is_impossible_evidence(self):
        with pytest.raises(ImpossibleEvidenceError):
            normalize(Factor((0,), (2,), [0.0, 0.0]))

    def test_overflowing_total_raises(self):
        # Each entry is finite, their sum is not: no table of zeros comes back.
        f = Factor((0,), (2,), [1e308, 1e308])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="total must be finite"):
            normalize(f)


class TestDivide:
    def test_broadcast_quotient(self):
        f = Factor((0, 1), (2, 2), [[2.0, 4.0], [6.0, 8.0]])
        g = Factor((1,), (2,), [2.0, 4.0])
        np.testing.assert_allclose(divide(f, g).values, [[1, 1], [3, 2]])

    def test_zero_divisor_rejected(self):
        f = Factor((0,), (2,), [1.0, 1.0])
        with pytest.raises(ZeroDivisionError):
            divide(f, Factor((0,), (2,), [1.0, 0.0]))


def test_chain_rule_total_mass(bn_a):
    # Product of every CPT, all variables summed out, is exactly 1.
    total = Factor.scalar(1.0)
    for v in bn_a.ids:
        total = multiply(total, bn_a.cpts[v])
    assert sum_out(total, set(bn_a.ids)).values == pytest.approx(1.0, abs=1e-9)


def test_marginal_to(bn_a):
    joint = multiply(bn_a.cpts[0], bn_a.cpts[1])
    m = marginal_to(joint, {1})
    assert m.scope == (1,)
    np.testing.assert_allclose(m.values, bn_a.cpts[1].values, atol=1e-12)


def test_immutable_values(bn_a):
    with pytest.raises(ValueError):
        bn_a.cpts[0].values[0] = 0.5


def _user_tables_whose_product_overflows():
    f = Factor((0,), (2,), [1e200, 1.0])
    g = Factor((1,), (2,), [1e200, 1.0])
    h = Factor((0, 1), (2, 2), [[1e308, 1e308], [1.0, 1.0]])
    return f, g, h


class TestCheckedWhereTablesEnter:
    """Tables are checked where they enter: ``Factor(...)`` and the public
    ``contract`` with its short forms check, while the tables the engines
    compute are built by ``factor._computed`` without a check (in tier-1,
    ``conftest.checked_tables`` wraps it with the full check)."""

    @pytest.mark.parametrize(
        "op",
        [
            lambda f, g, h: multiply(f, g),
            lambda f, g, h: product_all([f, g]),
            lambda f, g, h: marginal_to(h, (0,)),
            lambda f, g, h: sum_out(h, (1,)),
        ],
        ids=["multiply", "product_all", "marginal_to", "sum_out"],
    )
    def test_short_forms_reject_an_overflowing_product(self, op):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^factor entries must be finite$"):
            op(*_user_tables_whose_product_overflows())

    def test_restrict_and_normalize_return_read_only_tables(self, bn_a):
        d = bn_a.id_of("D")
        f = bn_a.cpts[d]
        ev = EvidenceSet(bn_a, {d: {0, 2}})
        for out in (restrict(f, ev), normalize(f)[0]):
            assert out.scope == f.scope and type(out.scope) is tuple
            assert out.cards == f.cards and all(type(c) is int for c in out.cards)
            assert out.values.shape == f.cards and not out.values.flags.writeable
            with pytest.raises(ValueError):
                out.values[...] = 0.0

    def test_queries_build_no_checked_factor(self, monkeypatch, poly_b):
        from bordertree.bnformat import parse_evidence
        from bordertree.border_chain import build_chain
        from bordertree.bp_build import build_border_polytree
        from bordertree.bp_infer import bp_query, preload_priors
        from bordertree.polytree import PolytreeEngine

        bp = build_border_polytree(poly_b)
        preload_priors(bp)
        engine = PolytreeEngine(poly_b)
        chain = build_chain(poly_b)
        preload_priors(chain.view)
        ev = parse_evidence("B=b0,C=c1,K=k0,L4=l40", poly_b)
        queries = {
            "bp": lambda: bp_query(bp, ev),
            "polytree": lambda: engine.query(ev),
            "chain": lambda: bp_query(chain.view, ev, pivot=0),
        }
        built = [0]
        init = Factor.__init__

        def counted(self, *args):
            built[0] += 1
            init(self, *args)

        monkeypatch.setattr(Factor, "__init__", counted)
        counts = {}
        for name, query in queries.items():
            built[0] = 0
            posteriors, pe = query()
            assert len(posteriors) == len(poly_b.ids) and pe > 0.0, name
            counts[name] = built[0]
        assert counts == {"bp": 0, "polytree": 0, "chain": 0}

    def test_the_tier1_wrapper_catches_a_route_writing_nans(self, monkeypatch):
        import importlib.util
        import os

        from bordertree.bnformat import parse_evidence, parse_network
        from bordertree.border_chain import build_chain
        from bordertree.bp_infer import bp_query, preload_priors
        from conftest import FIXTURES

        spec = importlib.util.spec_from_file_location(
            "perfbench_gen", os.path.join(FIXTURES, "..", "perfbench", "gen.py")
        )
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        bn = parse_network(gen.grid_text(np.random.default_rng(7), 7, 7, 3))
        ev = parse_evidence("v10=s1,v24=s0,v38=s2", bn)
        chain = build_chain(bn)
        preload_priors(chain.view)
        calls = [0]

        def nans(route, cards, a, b):
            calls[0] += 1
            return np.full(cards, np.nan)

        monkeypatch.setattr(factor_mod, "_strided_product", nans)
        with pytest.raises(ValueError, match="must be finite"):
            bp_query(chain.view, ev, pivot=0)
        assert calls[0] > 0
