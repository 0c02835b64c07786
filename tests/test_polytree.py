"""The node-level engine on singly connected networks."""

import numpy as np
import pytest

from bordertree.bp_build import build_border_polytree
from bordertree.bp_infer import BorderSession, bp_query
from bordertree.errors import NotSinglyConnectedError
from bordertree.factor import contract, multiply
from bordertree.network import EvidenceSet
from bordertree.oracle import oracle_event_prob, oracle_marginal, oracle_posterior
from bordertree.polytree import PolytreeEngine, node_priors
from bordertree.randgen import random_evidence, random_polytree
from bordertree import zoo


@pytest.fixture(scope="module")
def engine(poly_b):
    return PolytreeEngine(poly_b)


def test_rejects_multiply_connected(bn_a):
    with pytest.raises(NotSinglyConnectedError, match="use the border polytree engine"):
        PolytreeEngine(bn_a)


def test_node_priors_match_oracle(poly_b):
    priors = node_priors(poly_b)
    for v in poly_b.ids:
        np.testing.assert_allclose(
            priors[v].values, oracle_marginal(poly_b, [v]), atol=1e-9
        )


class TestBoundaries:
    def test_outside_parent_supplies_prior(self, poly_b):
        # Evidence at B only: core is {B}; the messages into J's family are
        # all vacuous, e.g. the downward message P would send I is P's prior.
        eng = PolytreeEngine(poly_b)
        ev = EvidenceSet(poly_b, {poly_b.id_of("B"): {1}})
        s = eng.session(ev)
        p, i = poly_b.id_of("P"), poly_b.id_of("I")
        msg = s.get_pi_edge(p, i)
        np.testing.assert_allclose(msg.values, eng.priors[p].values)

    def test_outside_child_sends_one(self, poly_b):
        eng = PolytreeEngine(poly_b)
        d = poly_b.id_of("D")
        ev = EvidenceSet(poly_b, {d: {0}})
        s = eng.session(ev)
        # N is an outside child of D; its side holds no evidence, and D's
        # own evidence is carried by D's pi, so N sends the scalar 1.
        msg = s.get_lambda_edge(d, poly_b.id_of("N"))
        assert msg.scope == () and float(msg.values) == 1.0

    def test_no_evidence_posterior_is_prior(self, poly_b):
        eng = PolytreeEngine(poly_b)
        posts, pe = eng.query(EvidenceSet(poly_b))
        assert pe == pytest.approx(1.0, abs=1e-9)
        for v in poly_b.ids:
            np.testing.assert_allclose(
                posts[v].values, eng.priors[v].values, atol=1e-9
            )


class TestMessages:
    def test_root_with_single_child_sends_prior_indicator(self, poly_b):
        # Evidence at roots K and P: both are core endpoints; K's message to
        # its only child M is its restricted prior.
        eng = PolytreeEngine(poly_b)
        k, m, p = poly_b.id_of("K"), poly_b.id_of("M"), poly_b.id_of("P")
        ev = EvidenceSet(poly_b, {k: {1}, p: {0}})
        s = eng.session(ev, pivot=p)  # collection flows K -> M -> I -> P
        msg = s.store[(k, m, "pi")]
        expect = eng.priors[k].values * np.array([0.0, 1.0])
        np.testing.assert_allclose(msg.values, expect, atol=1e-12)

    def test_collection_touches_exactly_the_core(self, rng):
        for _ in range(20):
            bn = random_polytree(rng, 5, 12, 3)
            ev = random_evidence(rng, bn)
            eng = PolytreeEngine(bn)
            s = eng.session(ev)
            from bordertree.messaging import evidential_core

            core = evidential_core(eng.tree, list(ev.vars))
            core_edges = [(p, c) for p, c in eng.tree.edges if {p, c} <= core.nodes]
            assert s.collected == len(core_edges)

    def test_sole_evidence_at_pivot_sends_nothing(self, poly_b):
        eng = PolytreeEngine(poly_b)
        d = poly_b.id_of("D")
        s = eng.session(EvidenceSet(poly_b, {d: {0}}), pivot=d)
        assert s.collected == 0
        post = s.posterior(d)
        np.testing.assert_allclose(post.values, [1.0, 0.0], atol=1e-12)


class TestSessions:
    def test_every_requested_pivot_is_used(self, rng):
        # A requested pivot joins its component's core as one more group,
        # so it is used wherever it lies, and the answers do not move.
        for _ in range(60):
            bn = random_polytree(rng, 5, 12, 3)
            ev = random_evidence(rng, bn)
            eng = PolytreeEngine(bn)
            pe = oracle_event_prob(bn, ev)
            want = {q: oracle_posterior(bn, ev, q) for q in bn.ids}
            for x in bn.ids:
                s = eng.session(ev, pivot=x)
                assert x in s.pivots.values()
                assert s.evidence_prob() == pytest.approx(pe, rel=1e-9)
                for q in bn.ids:
                    np.testing.assert_allclose(s.posterior(q).values, want[q], atol=1e-9)

    def test_pivot_without_evidence_seeds_its_core(self, poly_b, bn_c, bp_c):
        # A requested pivot alone makes a core of itself in a component
        # with no evidence; nothing is collected and the answers are those
        # of the session with no pivot.
        engine = PolytreeEngine(poly_b)
        sessions = [
            (lambda pv: engine.session(EvidenceSet(poly_b), pivot=pv), poly_b.ids, poly_b.ids),
            (lambda pv: BorderSession(bp_c, EvidenceSet(bn_c), pivot=pv), range(len(bp_c)), bn_c.ids),
        ]
        for session, pivots, queries in sessions:
            plain = session(None)
            assert not plain.cores
            want = {q: plain.posterior(q).values for q in queries}
            for pv in pivots:
                s = session(pv)
                assert [c.nodes for c in s.cores.values()] == [frozenset({pv})]
                assert list(s.pivots.values()) == [pv] and s.collected == 0
                assert s.evidence_prob() == pytest.approx(plain.evidence_prob(), rel=1e-12)
                for q in queries:
                    np.testing.assert_allclose(s.posterior(q).values, want[q], rtol=0, atol=1e-12)

    def test_pivot_outside_the_tree_raises_key_error(self, poly_b, bn_c, bp_c):
        # A pivot that names no node is an error, not silently dropped.
        ev = EvidenceSet(bn_c, {bn_c.id_of("B"): {0}})
        for bad in (len(bp_c), 999, -1):
            with pytest.raises(KeyError, match=f"pivot {bad} "):
                bp_query(bp_c, ev, pivot=bad)
        engine = PolytreeEngine(poly_b)
        for bad in (len(poly_b), 999):
            with pytest.raises(KeyError, match=f"pivot {bad} "):
                engine.query(EvidenceSet(poly_b), pivot=bad)

    def test_private_store_computes_each_scheduled_message_once(self, rng):
        for _ in range(20):
            bn = random_polytree(rng, 5, 20, 3)
            bp = build_border_polytree(bn)
            ev = random_evidence(rng, bn, max_vars=6)
            for s in (PolytreeEngine(bn).session(ev), BorderSession(bp, ev)):
                for q in bn.ids:
                    s.posterior(q)
                assert s.sent == s.collected + s.distributed == len(s.store)


class TestPosteriors:
    def test_edge_product_identity(self, poly_b):
        # Pi_Y(Q) * Lambda_Y(Q) equals Pi(Q) * Lambda(Q), the product of Q's
        # belief factors summed onto Q, for every child Y.
        eng = PolytreeEngine(poly_b)
        ev = EvidenceSet(
            poly_b,
            {poly_b.id_of("B"): {1}, poly_b.id_of("L9"): {0}, poly_b.id_of("R8"): {2}},
        )
        s = eng.session(ev)
        for q in poly_b.ids:
            s.ensure_informed(q)
            node = contract(s._belief_factors(q), (q,))
            for y in poly_b.children(q):
                via_edge = multiply(
                    s.compute_pi_edge(q, y), s.compute_lambda_edge(q, y)
                )
                np.testing.assert_allclose(
                    via_edge.values, node.values, rtol=1e-12, atol=1e-300
                )

    def test_matches_oracle_on_random_polytrees(self, rng):
        for _ in range(30):
            bn = random_polytree(rng, 4, 11, 4)
            ev = random_evidence(rng, bn)
            posts, pe = PolytreeEngine(bn).query(ev)
            assert pe == pytest.approx(oracle_event_prob(bn, ev), rel=1e-9)
            for q in bn.ids:
                np.testing.assert_allclose(
                    posts[q].values, oracle_posterior(bn, ev, q), atol=1e-9
                )

    def test_pivot_independence(self, poly_b):
        ev = EvidenceSet(
            poly_b, {poly_b.id_of("B"): {0}, poly_b.id_of("L4"): {1}}
        )
        eng = PolytreeEngine(poly_b)
        results = []
        from bordertree.messaging import evidential_core

        core = evidential_core(eng.tree, list(ev.vars))
        for pivot in sorted(core.nodes):
            posts, pe = eng.query(ev, pivot=pivot)
            results.append((posts, pe))
        base_posts, base_pe = results[0]
        for posts, pe in results[1:]:
            assert pe == pytest.approx(base_pe, rel=1e-9)
            for q in poly_b.ids:
                np.testing.assert_allclose(
                    posts[q].values, base_posts[q].values, atol=1e-9
                )

    def test_unnormalized_sum_is_event_prob(self, poly_b):
        ev = EvidenceSet(
            poly_b, {poly_b.id_of("L1"): {0}, poly_b.id_of("L10"): {1, 2}}
        )
        eng = PolytreeEngine(poly_b)
        s = eng.session(ev)
        pe = oracle_event_prob(poly_b, ev)
        for q in poly_b.ids:
            unnorm = s.joint(q)
            assert unnorm.total() == pytest.approx(pe, rel=1e-9)

    def test_parent_and_child_side_sets_disjoint(self, poly_b):
        # The sets above a node (through parents) and below it (through
        # children) share nothing; checked structurally on the fixture.
        eng = PolytreeEngine(poly_b)
        for v in poly_b.ids:
            above: set[int] = set()
            for p in poly_b.parents[v]:
                side = {
                    x
                    for x in eng.tree.component_of(p)
                    if v not in eng.tree.bfs_path(p, x)
                }
                above |= side
            below: set[int] = set()
            for c in poly_b.children(v):
                below |= {
                    x
                    for x in eng.tree.component_of(c)
                    if v not in eng.tree.bfs_path(c, x)
                }
            assert not (above & below)


def test_multi_component_polytree(rng):
    spec = [
        ("a", 2, []), ("b", 2, ["a"]),
        ("c", 2, []), ("d", 3, ["c"]), ("e", 2, ["c"]),
    ]
    bn = zoo.build_network(spec, rng)
    ev = EvidenceSet(bn, {bn.id_of("b"): {1}, bn.id_of("d"): {0}})
    posts, pe = PolytreeEngine(bn).query(ev)
    assert pe == pytest.approx(oracle_event_prob(bn, ev), rel=1e-9)
    for q in bn.ids:
        np.testing.assert_allclose(
            posts[q].values, oracle_posterior(bn, ev, q), atol=1e-9
        )


def test_chain_longer_than_recursion_limit(long_chain):
    bn, ev, ref_posts, ref_pe = long_chain
    posts, pe = PolytreeEngine(bn).query(ev)
    assert pe == pytest.approx(ref_pe, rel=1e-9)
    for q in bn.ids:
        np.testing.assert_allclose(posts[q].values, ref_posts[q].values, atol=1e-9)
