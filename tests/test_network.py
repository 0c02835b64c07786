"""Structure queries and the report-only validator."""

import numpy as np
import pytest

from bordertree.bp_build import bottom_ancestors
from bordertree.errors import CycleError
from bordertree.factor import Factor
from bordertree.network import BayesianNetwork, EvidenceSet, validate
from bordertree.randgen import random_dag
from bordertree import zoo


def ids(bn, *names):
    return frozenset(bn.id_of(n) for n in names)


class TestSetQueries:
    def test_set_parents_of_a_h(self, bn_a):
        assert bn_a.set_parents(ids(bn_a, "A", "H")) == ids(bn_a, "C", "D")

    def test_set_children_of_a_h(self, bn_a):
        # D is a child of A but also a parent of H, so it sits in the parent
        # set; F stays a child (its parents A, B are outside the parent set).
        assert bn_a.set_children(ids(bn_a, "A", "H")) == ids(bn_a, "F", "J", "K")

    def test_set_co_parents_of_a_h(self, bn_a):
        assert bn_a.set_co_parents(ids(bn_a, "A", "H")) == ids(bn_a, "B", "G", "I")

    def test_single_node_queries(self, bn_a):
        assert bn_a.co_parents(bn_a.id_of("D")) == ids(bn_a, "C", "F")
        assert bn_a.ancestors(bn_a.id_of("I")) == ids(bn_a, "A", "B", "D", "F")
        assert bn_a.descendants(bn_a.id_of("C")) == ids(bn_a, "H", "J", "K")

    def test_root_has_no_ancestors(self, bn_a):
        assert bn_a.ancestors(bn_a.id_of("A")) == frozenset()

    def test_walks_match_transitive_closure(self):
        """ancestors, descendants and bottom_ancestors (one shared walk)
        against boolean matrix closures: path[u, v] means u reaches v."""

        def closure(adj):
            path = adj.copy()
            while True:
                wider = path | ((path.astype(int) @ path.astype(int)) > 0)
                if (wider == path).all():
                    return path
                path = wider

        rng = np.random.default_rng(5)
        for _ in range(60):
            bn = random_dag(rng, 3, 14, 2)
            n = len(bn)
            adj = np.zeros((n, n), dtype=bool)
            for v in bn.ids:
                adj[list(bn.parents[v]), v] = True
            path = closure(adj)
            for v in bn.ids:
                assert bn.ancestors(v) == frozenset(np.flatnonzero(path[:, v]).tolist())
                assert bn.descendants(v) == frozenset(np.flatnonzero(path[v]).tolist())
            bottom = frozenset(int(v) for v in np.flatnonzero(rng.random(n) < 0.6))
            seeds = [int(v) for v in rng.choice(n, size=2, replace=False)]
            # Every node of such a path but the seed it ends at is bottom.
            inside = closure(adj & np.isin(np.arange(n), list(bottom))[:, None])
            want = frozenset(np.flatnonzero(inside[:, seeds].any(axis=1)).tolist())
            assert bottom_ancestors(bn, seeds, bottom) == want

    def test_children_and_leaves(self, bn_a):
        assert bn_a.names(bn_a.children(bn_a.id_of("D"))) == ("H", "I")
        assert bn_a.names(bn_a.leaves()) == ("J", "K", "L")


def test_topological_order_lowest_id_first(bn_a):
    order = bn_a.topological_order()
    assert order == tuple(range(len(bn_a)))  # declaration order is topological
    pos = {v: i for i, v in enumerate(order)}
    for v in bn_a.ids:
        for p in bn_a.parents[v]:
            assert pos[p] < pos[v]


def _with_extra_edge(bn, parent_name, child_name):
    """Copy of bn with one extra edge and a uniform CPT at the child."""
    parent, child = bn.id_of(parent_name), bn.id_of(child_name)
    parents = {v: list(ps) for v, ps in bn.parents.items()}
    parents[child] = parents[child] + [parent]
    cpts = dict(bn.cpts)
    scope = tuple(sorted((child, *parents[child])))
    cards = tuple(bn.card(u) for u in scope)
    vals = np.ones(cards) / bn.card(child)
    cpts[child] = Factor(scope, cards, vals)
    return BayesianNetwork(bn.variables, parents, cpts)


class TestValidate:
    def test_clean_network_no_diagnostics(self, bn_a):
        assert validate(bn_a) == []

    def test_cycle_flagged(self, bn_a):
        # L -> A closes the directed cycle A -> D -> I -> L -> A.
        broken = _with_extra_edge(bn_a, "L", "A")
        diags = validate(broken)
        assert [d.code for d in diags if d.severity == "error"] == ["cycle"]
        with pytest.raises(CycleError):
            broken.topological_order()

    def test_zero_entry_is_warning_only(self):
        bn = zoo.build_network(
            [("A", 2, [])], cpts={"A": np.array([0.0, 1.0])}
        )
        diags = validate(bn)
        assert [(d.severity, d.code) for d in diags] == [("warning", "positivity")]

    def test_unnormalized_row_is_error(self):
        bn = zoo.build_network([("A", 2, [])], cpts={"A": np.array([0.4, 0.5])})
        # build_network accepts it; the validator reports it.
        diags = validate(bn)
        assert any(d.code == "normalization" for d in diags)


class TestEvidenceSet:
    def test_empty_allowed_rejected(self, bn_a):
        with pytest.raises(ValueError, match="empty allowed set"):
            EvidenceSet(bn_a, {0: set()})

    def test_out_of_range_rejected(self, bn_a):
        with pytest.raises(ValueError, match="out of range"):
            EvidenceSet(bn_a, {0: {5}})

    def test_retract_and_copy(self, bn_a):
        ev = EvidenceSet(bn_a, {0: {1}})
        ev2 = ev.copy()
        ev.retract(0)
        assert not ev and ev2.allowed(0) == {1}

    def test_fingerprint_is_canonical(self, bn_a):
        ev = EvidenceSet(bn_a, {3: {0, 2}, 0: {1}})
        assert ev.fingerprint() == ((0, (1,)), (3, (0, 2)))
        assert ev.fingerprint([3]) == ((3, (0, 2)),)


def test_is_singly_connected(bn_a, poly_b):
    assert not bn_a.is_singly_connected()
    assert poly_b.is_singly_connected()
