"""Structure queries, the constructor's checks and the report-only validator."""

import numpy as np
import pytest
from conftest import descendants

from bordertree.bp_build import bottom_ancestors
from bordertree.errors import BordertreeError, CycleError, NormalizationError, NotSinglyConnectedError
from bordertree.factor import Factor
from bordertree.network import BayesianNetwork, EvidenceSet, Variable, validate
from bordertree.polytree import PolytreeEngine
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
        assert bn_a.set_children(ids(bn_a, "A", "H"), bn_a.ids) == ids(bn_a, "F", "J", "K")

    def test_set_co_parents_of_a_h(self, bn_a):
        assert bn_a.set_co_parents(ids(bn_a, "A", "H"), bn_a.ids) == ids(bn_a, "B", "G", "I")

    def test_single_node_queries(self, bn_a):
        assert bn_a.co_parents(bn_a.id_of("D")) == ids(bn_a, "C", "F")
        assert bn_a.ancestors(bn_a.id_of("I")) == ids(bn_a, "A", "B", "D", "F")
        assert descendants(bn_a, bn_a.id_of("C")) == ids(bn_a, "H", "J", "K")

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
                assert descendants(bn, v) == frozenset(np.flatnonzero(path[v]).tolist())
            bottom = frozenset(int(v) for v in np.flatnonzero(rng.random(n) < 0.6))
            seeds = [int(v) for v in rng.choice(n, size=2, replace=False)]
            # Every node of such a path but the seed it ends at is bottom.
            inside = closure(adj & np.isin(np.arange(n), list(bottom))[:, None])
            want = frozenset(np.flatnonzero(inside[:, seeds].any(axis=1)).tolist())
            assert bottom_ancestors(bn, seeds, bottom) == want

    def test_children_and_leaves(self, bn_a):
        assert bn_a.names(bn_a.children(bn_a.id_of("D"))) == ("H", "I")


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
        # L -> A closes the directed cycle A -> D -> I -> L -> A: the
        # network cannot be built, so no validator ever sees it.
        with pytest.raises(CycleError, match="^directed cycle through A, C, D, "):
            _with_extra_edge(bn_a, "L", "A")

    def test_zero_entry_is_warning_only(self):
        bn = zoo.build_network(
            [("A", 2, [])], cpts={"A": np.array([0.0, 1.0])}
        )
        diags = validate(bn)
        assert [(d.severity, d.code) for d in diags] == [("warning", "positivity")]

    def test_unnormalized_row_is_error(self):
        # Built directly, not parsed: the constructor rejects the row.
        with pytest.raises(NormalizationError, match=r"^cpt rows of A must sum to 1: got 0\.9 at \(\)$"):
            zoo.build_network([("A", 2, [])], cpts={"A": np.array([0.4, 0.5])})


def test_all_ones_chain_is_rejected_at_construction():
    # A 1,100-node binary chain with all-ones rows: with evidence on its
    # last node, its messages overflow to inf in every engine.  The row
    # check stops it where it is built, naming the first bad variable.
    n = 1100
    spec = [(f"X{i}", 2, [f"X{i - 1}"] if i else []) for i in range(n)]
    cpts = {f"X{i}": np.ones(4 if i else 2) for i in range(n)}
    with pytest.raises(NormalizationError, match=r"^cpt rows of X0 must sum to 1: got 2 at \(\)$") as exc:
        zoo.build_network(spec, cpts=cpts)
    assert isinstance(exc.value, BordertreeError) and exc.value.var == 0


def test_row_error_names_the_parent_assignment():
    spec = [("A", 2, []), ("B", 3, []), ("C", 2, ["B", "A"])]
    rows = np.full((3, 2, 2), 0.5)
    rows[2, 1] = [0.5, 0.6]  # B=b2, A=a1
    with pytest.raises(NormalizationError, match=r"^cpt rows of C must sum to 1: got 1\.1 at A=a1, B=b2$"):
        zoo.build_network(spec, cpts={"C": rows})


@pytest.mark.parametrize("parent", [2, -1])
def test_parent_id_out_of_range_is_rejected_by_name(parent):
    # Built directly, not parsed: the parser resolves parents by name.
    variables = [Variable(0, "A", 2, ("a0", "a1")), Variable(1, "B", 2, ("b0", "b1"))]
    scope = tuple(sorted((1, parent)))
    cpts = {0: Factor((0,), (2,), [0.5, 0.5]), 1: Factor(scope, (2, 2), np.full((2, 2), 0.5))}
    with pytest.raises(ValueError, match=rf"^parent id {parent} of variable B is outside 0\.\.1$"):
        BayesianNetwork(variables, {1: (parent,)}, cpts)


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


def test_tree_is_built_once(bn_a, poly_b):
    assert poly_b.tree() is poly_b.tree() is PolytreeEngine(poly_b).tree
    for _ in range(2):  # a failure is not kept
        with pytest.raises(NotSinglyConnectedError):
            bn_a.tree()


def test_is_singly_connected(bn_a, poly_b):
    assert not bn_a.is_singly_connected()
    assert poly_b.is_singly_connected()
