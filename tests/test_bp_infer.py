"""Inference on border polytrees: priors, sessions, traces, incremental stores."""

import numpy as np
import pytest
from conftest import random_evidence, reference_passes, reference_readout

from bordertree.border_chain import build_chain, chain_posterior, run_passes
from bordertree.bnformat import parse_evidence
from bordertree.bp_build import build_border_polytree
from bordertree.bp_infer import (
    BorderSession,
    bp_query,
    preload_priors,
)
from bordertree import factor
from bordertree.network import EvidenceSet
from bordertree.oracle import oracle_event_prob, oracle_marginal, oracle_posterior
from bordertree.polytree import PolytreeEngine
from bordertree.randgen import random_dag, random_polytree
from bordertree import zoo


def junction_dags(count=8, seed=5):
    """Seeded random DAGs whose border polytree has a junction border with
    at least two parents, whose prior multiplies the marginals of several
    parents' priors."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        bn = random_dag(rng, 6, 12)
        bp = build_border_polytree(bn)
        if any(b.kind == "type2" and len(b.parents) > 1 for b in bp.borders):
            out.append(bn)
    return out


def border_id(bp, bn, names):
    members = frozenset(bn.id_of(n) for n in names)
    return next(b.id for b in bp.borders if b.members == members)


class TestPreload:
    def test_root_border_is_product_of_root_priors(self, bn_c, bp_c):
        root = next(b for b in bp_c.borders if not b.parents)
        prior = bp_c.priors[root.id]
        want = oracle_marginal(bn_c, root.members)
        np.testing.assert_allclose(prior.values, want, atol=1e-12)

    def test_all_border_priors_match_oracle(self, bn_a, bn_c, poly_b):
        nets = {"bn_a": bn_a, "bn_c": bn_c, "polytree_b": poly_b}
        nets.update((f"dag{i}", bn) for i, bn in enumerate(junction_dags()))
        for name, bn in nets.items():
            bp = build_border_polytree(bn)
            priors = preload_priors(bp)
            assert any(b.kind == "type2" for b in bp.borders), name
            for b in bp.borders:
                assert priors[b.id].scope == tuple(sorted(b.members))
                np.testing.assert_allclose(
                    priors[b.id].values,
                    oracle_marginal(bn, b.members),
                    atol=1e-9,
                    err_msg=f"{name} border {b.id}",
                )

    def test_chain_view_priors_equal_downward_pass(self, bn_a):
        chain = build_chain(bn_a)
        bp = chain.view
        priors = preload_priors(bp)
        pi, _lam = reference_passes(chain)
        for j in range(chain.gamma + 1):
            assert priors[j].scope == pi[j].scope
            np.testing.assert_allclose(priors[j].values, pi[j].values, atol=1e-12)


class TestCollectionTraces:
    """The two message traces toward either pivot of the BN C evidential
    core for evidence on B, O and Q, checked against direct numpy
    evaluations of the same quantities built from the raw tables."""

    def _tables(self, bn_c):
        # file-convention arrays for the needed tables
        def t(name):
            v = bn_c.id_of(name)
            f = bn_c.cpts[v]
            file_axes = (*bn_c.parents[v], v)
            return f.values.transpose(tuple(f.scope.index(u) for u in file_axes))

        return t

    def test_pivot_bcgop_pi(self, bn_c, bp_c, ev_boq):
        piv = border_id(bp_c, bn_c, "BCGOP")
        s = BorderSession(bp_c, ev_boq, pivot=piv)
        got = s.pi_border(piv)
        assert got.scope == tuple(sorted(bn_c.id_of(n) for n in "BCGOP"))

        # Independent evaluation: sum_N Pr{O|C,G,N} I_O Pr{B,C} I_B Pr{G}
        # sum_Q Pr{N,P,Q} I_Q, on axes (B, C, G, O, P).
        i_b = np.array([1.0, 0.0])  # B=b0
        i_o = np.array([0.0, 1.0])  # O=o1
        i_q = np.array([1.0, 0.0])  # Q=q0
        pr_bc = oracle_marginal(bn_c, [bn_c.id_of("B"), bn_c.id_of("C")])
        pr_g = oracle_marginal(bn_c, [bn_c.id_of("G")])
        pr_npq = oracle_marginal(
            bn_c, [bn_c.id_of(n) for n in "NPQ"]
        )  # axes sorted by id: N, P, Q
        o_cpt = self._tables(bn_c)("O")  # axes (C, G, N, O)

        npq = (pr_npq * i_q[None, None, :]).sum(axis=2)  # (N, P)
        # factor axes follow ascending ids: (B, C, G, P, O)
        want = np.einsum(
            "cgno,bc,g,np,o,b->bcgpo", o_cpt, pr_bc, pr_g, npq, i_o, i_b
        )
        np.testing.assert_allclose(got.values, want, atol=1e-12)

        # Corollary: summing the pivot belief over everything but P gives
        # the same evidential joint as the other pivot's trace.
        prod = factor.contract(s._belief_factors(piv), bp_c.borders[piv].members)
        p_var = bn_c.id_of("P")
        un = prod.values.sum(
            axis=tuple(k for k, v in enumerate(prod.scope) if v != p_var)
        )
        np.testing.assert_allclose(
            un, oracle_marginal(bn_c, [p_var], ev_boq), atol=1e-12
        )

    def test_pivot_npq_lambda(self, bn_c, bp_c, ev_boq):
        piv = border_id(bp_c, bn_c, "NPQ")
        s = BorderSession(bp_c, ev_boq, pivot=piv)
        lam = s.lambda_border(piv)

        # Lambda(N,P) = sum_{B,C,G} Pr{B,C} I_B Pr{G} sum_O Pr{O|C,G,N} I_O,
        # constant over P and Q.
        i_b = np.array([1.0, 0.0])
        i_o = np.array([0.0, 1.0])
        pr_bc = oracle_marginal(bn_c, [bn_c.id_of("B"), bn_c.id_of("C")])
        pr_g = oracle_marginal(bn_c, [bn_c.id_of("G")])
        o_cpt = self._tables(bn_c)("O")
        want_n = np.einsum("cgno,bc,g,o,b->n", o_cpt, pr_bc, pr_g, i_o, i_b)

        n_var, q_var = bn_c.id_of("N"), bn_c.id_of("Q")
        assert n_var in lam.scope
        i_qv = np.array([1.0, 0.0])
        # reduce lam to (N,) by picking Q=q0 and any P value
        vals = lam.values
        for axis, v in reversed(list(enumerate(lam.scope))):
            if v == n_var:
                continue
            vals = vals.take(0 if v != q_var else 0, axis=axis)
        np.testing.assert_allclose(vals, want_n, atol=1e-12)

    def test_boundary_outside_evidential_parent(self, bn_c, bp_c, ev_boq):
        # {B,C} is outside the core yet evidential; its boundary message is
        # the restricted prior Pr{B,C} I_B.
        piv = border_id(bp_c, bn_c, "BCGOP")
        s = BorderSession(bp_c, ev_boq, pivot=piv)
        bc = border_id(bp_c, bn_c, "BC")
        junction = border_id(bp_c, bn_c, "BCGNP")
        msg = s.get_pi_edge(bc, junction)
        want = oracle_marginal(bn_c, [bn_c.id_of("B"), bn_c.id_of("C")]) * np.array(
            [1.0, 0.0]
        )[:, None]
        np.testing.assert_allclose(msg.values, want, atol=1e-12)

    def test_boundary_non_evidential_parent_is_plain_prior(self, bn_c, bp_c):
        ev = parse_evidence("O=o1", bn_c)
        s = BorderSession(bp_c, ev)
        g = border_id(bp_c, bn_c, "G")
        junction = border_id(bp_c, bn_c, "BCGNP")
        msg = s.get_pi_edge(g, junction)
        np.testing.assert_allclose(
            msg.values, oracle_marginal(bn_c, [bn_c.id_of("G")]), atol=1e-12
        )


class TestQueries:
    def test_pivot_independence_and_oracle(self, bn_c, bp_c, ev_boq):
        p = bn_c.id_of("P")
        piv1 = border_id(bp_c, bn_c, "BCGOP")
        piv2 = border_id(bp_c, bn_c, "NPQ")
        s1 = BorderSession(bp_c, ev_boq, pivot=piv1)
        s2 = BorderSession(bp_c, ev_boq, pivot=piv2)
        post1 = s1.posterior(p)
        post2 = s2.posterior(p)
        np.testing.assert_allclose(post1.values, post2.values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            post1.values, oracle_posterior(bn_c, ev_boq, p), atol=1e-9
        )

    def test_collection_counts(self, bn_c, bp_c, ev_boq):
        piv1 = border_id(bp_c, bn_c, "BCGOP")
        piv2 = border_id(bp_c, bn_c, "NPQ")
        for piv in (piv1, piv2):
            s = BorderSession(bp_c, ev_boq, pivot=piv)
            assert len(s.core_nodes) == 4
            assert s.sent == s.collected == 3
        s = BorderSession(bp_c, parse_evidence("N=n1", bn_c), pivot=piv2)
        assert s.sent == s.collected == 0
        assert s.core_nodes == {piv2}

    def test_outside_queries_through_gates(self, bn_c, bp_c, ev_boq):
        for pivot_names in ("BCGOP", "NPQ"):
            s = BorderSession(bp_c, ev_boq, pivot=border_id(bp_c, bn_c, pivot_names))
            for name in ("M", "F"):
                q = bn_c.id_of(name)
                post = s.posterior(q)
                np.testing.assert_allclose(
                    post.values, oracle_posterior(bn_c, ev_boq, q), atol=1e-9
                )

    def test_distribution_counts_are_tree_distances(self, bn_c, bp_c, ev_boq):
        piv = border_id(bp_c, bn_c, "NPQ")
        s = BorderSession(bp_c, ev_boq, pivot=piv)
        tree = s.tree
        s.posterior(bn_c.id_of("M"))
        home = bp_c.home_border(bn_c.id_of("M"))
        baseline = len(tree.bfs_path(piv, home)) - 1
        assert s.sent == s.collected + baseline

    def test_evidence_prob_identical_at_informed_borders(self, bn_c, bp_c, ev_boq):
        s = BorderSession(bp_c, ev_boq)
        pe = oracle_event_prob(bn_c, ev_boq)
        for q in bn_c.ids:
            s.posterior(q)
        for bid in sorted(set().union(*s.informed_in.values())):
            prod = factor.contract(s._belief_factors(bid), bp_c.borders[bid].members)
            assert prod.total() == pytest.approx(pe, rel=1e-9)

    def test_posterior_agrees_across_home_borders(self, bn_c, bp_c, ev_boq):
        s = BorderSession(bp_c, ev_boq)
        for v in bn_c.ids:
            homes = bp_c.variable_home[v]
            results = []
            for h in homes:
                results.append(s._readout(h, v).values)
                # An independent variable's posterior comes from the memo
                # after the first read; its joint reads each home's prior.
                results.append(factor.normalize(s._joint(h, v))[0].values)
            for r in results[1:]:
                np.testing.assert_allclose(r, results[0], atol=1e-9)

    def test_no_evidence_queries_give_priors(self, bn_c, bp_c):
        posts, pe = bp_query(bp_c, EvidenceSet(bn_c))
        assert pe == pytest.approx(1.0)
        for q in bn_c.ids:
            np.testing.assert_allclose(
                posts[q].values, oracle_posterior(bn_c, EvidenceSet(bn_c), q), atol=1e-9
            )

    def test_chain_consistency(self, bn_a, ev_hk):
        # A BP whose polytree is one chain reproduces the chain's two
        # reference passes.
        chain = build_chain(bn_a)
        bp = chain.view
        preload_priors(bp)
        pi, lam = reference_passes(chain, ev_hk)
        posts, pe = bp_query(bp, ev_hk)
        for q in bn_a.ids:
            want, want_pe = reference_readout(chain, pi, lam, q)
            np.testing.assert_allclose(posts[q].values, want.values, atol=1e-12)
            assert pe == pytest.approx(want_pe, rel=1e-12)


def side_vars(bp, variables, a, b):
    """Reference side scan: the variables among ``variables`` with a home
    border on a's side of edge (a, b), by one side test per variable.

    A variable's home borders are connected (running intersection), so
    unless they hold a or b they lie wholly on one side, and any one of
    them tells which."""
    on_side = bp.tree().on_side
    out = []
    for v in variables:
        homes = bp.variable_home[v]
        if a in homes or (b not in homes and on_side(a, b, homes[0])):
            out.append(v)
    return out


def reference_key(bp, ev, p, c, direction):
    """A message's edge, direction and the evidence fingerprint of the
    variables it depends on, built from the reference side scan: the
    parent side for a downward message; the child side and the parent
    border's members for an upward one."""
    if direction == "pi":
        side = side_vars(bp, ev.vars, p, c)
    else:
        side = [*side_vars(bp, ev.vars, c, p), *bp.borders[p].members]
    return (p, c, direction, ev.fingerprint(side))


def next_evidence(rng, bn, ev):
    """A copy of ``ev`` with one observation added, altered (hard or soft)
    or retracted."""
    out = ev.copy()
    if ev and rng.random() < 0.3:
        out.retract(ev.vars[int(rng.integers(0, len(ev)))])
        return out
    var = int(rng.integers(0, len(bn)))
    card = bn.card(var)
    size = int(rng.integers(1, card))
    out.set(var, {int(x) for x in rng.choice(card, size=size, replace=False)})
    return out


def windowed_dag(rng, n, window, max_parents=3, card_max=3):
    """Random DAG whose parents come from the ``window`` nodes just before
    each node: many undirected loops, narrow borders."""
    spec = []
    for i in range(n):
        pool = list(range(max(0, i - window), i))
        rng.shuffle(pool)
        k = int(rng.integers(0, min(max_parents, len(pool)) + 1))
        card = int(rng.integers(2, card_max + 1))
        spec.append((f"v{i}", card, [f"v{p}" for p in sorted(pool[:k])]))
    return zoo.build_network(spec, rng)


class TestSideIndex:
    """Side tests and the messages ``with_evidence`` keeps, against the
    reference side scan."""

    def networks(self, rng):
        for _ in range(6):
            yield windowed_dag(rng, int(rng.integers(20, 36)), int(rng.integers(2, 5)))
        for _ in range(4):
            yield random_polytree(rng, 20, 35, 3)
        # Two disconnected windowed DAGs side by side: a forest of borders.
        spec = []
        for base in (0, 12):
            for i in range(12):
                ps = [f"v{base + j}" for j in range(max(0, i - 2), i) if rng.random() < 0.7]
                spec.append((f"v{base + i}", int(rng.integers(2, 4)), ps))
        yield zoo.build_network(spec, rng)

    def test_with_evidence_keeps_the_messages_whose_side_is_unchanged(self, rng, monkeypatch):
        # A message is kept exactly when the evidence fingerprint of the
        # variables it depends on is the same under both evidence sets.
        # With collection switched off, a new session's store holds just
        # the messages it was handed.
        from bordertree import bp_infer

        kept_any = dropped_any = 0
        for bn in self.networks(rng):
            bp = build_border_polytree(bn)
            preload_priors(bp)
            for k in range(6):
                ev = random_evidence(rng, bn, max_vars=12)
                old = BorderSession(bp, ev)
                for bid in range(len(bp.borders)):
                    old.ensure_informed(bid)
                for _ in range(int(rng.integers(1, 4))):
                    ev = next_evidence(rng, bn, ev)
                if k == 5:
                    ev = random_evidence(rng, bn, max_vars=12)
                with monkeypatch.context() as m:
                    m.setattr(bp_infer, "collection_schedule", lambda tree, core, pivot: [])
                    kept = set(old.with_evidence(ev).store)
                want = {
                    key
                    for key in old.store
                    if reference_key(bp, old.ev, *key) == reference_key(bp, ev, *key)
                }
                assert kept == want
                kept_any += len(kept)
                dropped_any += len(old.store) - len(kept)
        assert kept_any and dropped_any

    def test_polytree_side_test_equals_scan(self, rng):
        # With no pivot requested, the node engine's core is the span of
        # the evidence nodes: a side holds a core node iff it holds evidence.
        def forest(rng):
            # Drop random edges of a random polytree: several components.
            bn = random_polytree(rng, 15, 30, 3)
            spec = [
                (bn.name_of(v), bn.card(v), [bn.name_of(p) for p in bn.parents[v] if rng.random() < 0.7])
                for v in bn.ids
            ]
            return zoo.build_network(spec, rng)

        for k in range(12):
            bn = random_polytree(rng, 15, 30, 3) if k % 2 else forest(rng)
            engine = PolytreeEngine(bn)
            on_side = engine.tree.on_side
            for _ in range(4):
                ev = random_evidence(rng, bn, max_vars=20)
                s = engine.session(ev)
                for p, c in engine.tree.edges:
                    for a, b in ((p, c), (c, p)):
                        want = any(on_side(a, b, v) for v in ev.vars)
                        assert s._side_has_core(a, b) == want


class TestIncrementalStore:
    def test_shared_store_reuses_messages(self, bn_c, bp_c):
        ev1 = parse_evidence("O=o1,Q=q0", bn_c)
        s1 = BorderSession(bp_c, ev1)
        first = dict(s1.store)
        # Same evidence again: every scheduled message is carried over.
        s2 = s1.with_evidence(ev1)
        assert s1.sent == 3 and s2.sent == 0 and s2.store == s1.store
        # Adding evidence upstream recomputes only the message whose side
        # now holds it; a fresh session sends all three.
        ev2 = parse_evidence("O=o1,Q=q0,B=b0", bn_c)
        s3 = s2.with_evidence(ev2)
        assert s3.sent == 1 and BorderSession(bp_c, ev2).sent == 3
        s4 = s3.with_evidence(ev2)
        assert s4.sent == 0 and s4.store == s3.store
        # Each session owns its store: the first one kept its messages.
        assert s1.store == first and s1.store is not s2.store

    def test_store_keys_cover_shared_variable_evidence(self, rng):
        # Upward messages restrict the cohort table over the receiving
        # border's variables, so evidence there makes them stale (a chain
        # v0 -> v1 -> v2 exposed this: evidence on v1 changed the v2->v1
        # message even though v1 is not on the child side).
        bn = zoo.build_network(
            [("v0", 2, []), ("v1", 2, ["v0"]), ("v2", 3, ["v1"])], rng
        )
        bp = build_border_polytree(bn)
        preload_priors(bp)
        session = BorderSession(bp)
        sequences = [
            "v0=v00,v1=v10,v2=v22",
            "v0=v00,v2=v20|v22",
            "v0=v00,v1=v10",
            "v0=v00,v1=v11,v2=v22",
        ]
        for text in sequences:
            ev = parse_evidence(text, bn)
            session = session.with_evidence(ev)
            assert session.evidence_prob() == pytest.approx(oracle_event_prob(bn, ev), rel=1e-9)
            for q in bn.ids:
                np.testing.assert_allclose(
                    session.posterior(q).values, oracle_posterior(bn, ev, q), atol=1e-9
                )

    def test_shared_store_random_evidence_sequences(self, rng):
        # Observations added, altered (soft ones included) and retracted one
        # step at a time: each carried-over session answers as a fresh one.
        soft = retracted = 0
        for k in range(10):
            bn = random_dag(rng, 3, 9, 3) if k % 2 else random_polytree(rng, 6, 12, 3)
            bp = build_border_polytree(bn)
            preload_priors(bp)
            ev = EvidenceSet(bn)
            session = BorderSession(bp)
            for _ in range(8):
                before = ev
                ev = next_evidence(rng, bn, ev)
                soft += any(len(ev.allowed(v)) > 1 for v in ev.vars)
                retracted += len(ev) < len(before)
                session = session.with_evidence(ev)
                fresh = BorderSession(bp, ev)
                pe = session.evidence_prob()
                assert pe == pytest.approx(fresh.evidence_prob(), rel=1e-12)
                assert pe == pytest.approx(oracle_event_prob(bn, ev), rel=1e-9)
                # Query a few variables, so later steps carry distribution
                # messages too.
                picks = rng.choice(len(bn), size=min(3, len(bn)), replace=False)
                for q in (int(x) for x in picks):
                    got = session.posterior(q).values
                    np.testing.assert_allclose(got, fresh.posterior(q).values, rtol=0, atol=1e-12)
                    np.testing.assert_allclose(got, oracle_posterior(bn, ev, q), atol=1e-9)
        assert soft and retracted

    def test_impossible_evidence_detected(self):
        bn = zoo.build_network(
            [("A", 2, []), ("B", 2, ["A"])],
            cpts={"A": np.array([1.0, 0.0]), "B": np.array([[1.0, 0.0], [0.5, 0.5]])},
        )
        bp = build_border_polytree(bn)
        preload_priors(bp)
        ev = EvidenceSet(bn, {bn.id_of("B"): {1}})
        from bordertree.errors import ImpossibleEvidenceError

        with pytest.raises(ImpossibleEvidenceError):
            bp_query(bp, ev)


def test_random_dags_bp_vs_oracle(rng):
    for _ in range(25):
        bn = random_dag(rng, 3, 11, 3)
        bp = build_border_polytree(bn)
        preload_priors(bp)
        ev = random_evidence(rng, bn)
        posts, pe = bp_query(bp, ev)
        assert pe == pytest.approx(oracle_event_prob(bn, ev), rel=1e-9)
        for q in bn.ids:
            np.testing.assert_allclose(
                posts[q].values, oracle_posterior(bn, ev, q), atol=1e-9
            )


def test_disconnected_network(rng):
    spec = [
        ("a", 2, []), ("b", 2, ["a"]), ("c", 2, ["a", "b"]),
        ("x", 2, []), ("y", 3, ["x"]),
    ]
    bn = zoo.build_network(spec, rng)
    bp = build_border_polytree(bn)
    preload_priors(bp)
    ev = EvidenceSet(bn, {bn.id_of("c"): {1}, bn.id_of("y"): {0, 2}})
    posts, pe = bp_query(bp, ev)
    assert pe == pytest.approx(oracle_event_prob(bn, ev), rel=1e-9)
    for q in bn.ids:
        np.testing.assert_allclose(
            posts[q].values, oracle_posterior(bn, ev, q), atol=1e-9
        )


def test_chain_longer_than_recursion_limit(long_chain):
    bn, ev, ref_posts, ref_pe = long_chain
    posts, pe = bp_query(build_border_polytree(bn), ev)
    assert pe == pytest.approx(ref_pe, rel=1e-9)
    for q in bn.ids:
        np.testing.assert_allclose(posts[q].values, ref_posts[q].values, atol=1e-9)


def _grid(rows, cols, card, rng):
    """Grid network: each cell's parents are the cells above and to its left."""
    spec = []
    for r in range(rows):
        for c in range(cols):
            parents = [f"x{r - 1}{c}"] * (r > 0) + [f"x{r}{c - 1}"] * (c > 0)
            spec.append((f"x{r}{c}", card, parents))
    return zoo.build_network(spec, rng)


def test_grid_engines_vs_oracle():
    # Grid borders are wide and every junction has two parents: the shape
    # whose border products the fused contractions replace.
    bn = _grid(3, 3, 3, np.random.default_rng(31))
    bp = build_border_polytree(bn)
    preload_priors(bp)
    chain = build_chain(bn)
    ev_rng = np.random.default_rng(32)
    for _ in range(4):
        ev = random_evidence(ev_rng, bn, max_vars=4)
        want_pe = oracle_event_prob(bn, ev)
        want = {q: oracle_posterior(bn, ev, q) for q in bn.ids}
        passes = run_passes(chain, ev)
        chain_posts = {q: chain_posterior(chain, ev, q, passes=passes) for q in bn.ids}
        results = {
            "bp_query": bp_query(bp, ev),
            "chain": ({q: r[1] for q, r in chain_posts.items()}, chain_posts[0][2]),
        }
        for name, (posts, pe) in results.items():
            assert pe == pytest.approx(want_pe, rel=1e-9), name
            for q in bn.ids:
                np.testing.assert_allclose(posts[q].values, want[q], atol=1e-9, err_msg=name)


def test_wide_grid_same_answers_on_either_route(monkeypatch):
    # A 7x7 grid at card 3 has contractions over 3^8 entries, past the
    # route floor.  The oracle cannot enumerate it, so each engine's
    # answers on the routes the cost model picks are checked against its
    # answers with plain einsum only.  The border polytree takes the window
    # route and the chain the strided route; the chain's only window layout
    # here is faster on the strided route, so a second pass takes the
    # strided route away and the chain takes the window route too.
    bn = _grid(7, 7, 3, np.random.default_rng(33))
    bp = build_border_polytree(bn)
    preload_priors(bp)
    chain = build_chain(bn)
    evs = [random_evidence(np.random.default_rng(34 + k), bn, max_vars=5) for k in range(2)]
    calls = {(engine, route): 0 for engine in ("bp", "chain") for route in ("window", "strided")}
    engine = ["bp"]

    def counted(route, run):
        def call(*args):
            calls[engine[0], route] += 1
            return run(*args)

        return call

    monkeypatch.setattr(factor, "_window_product", counted("window", factor._window_product))
    monkeypatch.setattr(factor, "_strided_product", counted("strided", factor._strided_product))

    def answers():
        factor._plan.cache_clear()
        out = []
        for ev in evs:
            engine[0] = "bp"
            out.append(bp_query(bp, ev))
            engine[0] = "chain"
            passes = run_passes(chain, ev)
            rows = {q: chain_posterior(chain, ev, q, passes=passes) for q in bn.ids}
            out.append(({q: r[1] for q, r in rows.items()}, rows[0][2]))
        return out

    routed = answers()
    assert calls["bp", "window"] > 0 and calls["chain", "strided"] > 0, calls
    monkeypatch.setattr(factor, "_strided", lambda *args: iter(()))
    windowed = answers()
    assert calls["bp", "window"] > 0 and calls["chain", "window"] > 0, calls
    routed_calls = dict(calls)
    monkeypatch.setattr(factor, "_MATMUL_CALL", float("inf"))
    plain = answers()
    assert calls == routed_calls, calls  # the plain pass takes no matmul route
    factor._plan.cache_clear()
    for (posts, pe), (want, want_pe) in zip(routed + windowed, plain + plain):
        assert pe == pytest.approx(want_pe, rel=1e-12)
        for q in bn.ids:
            np.testing.assert_allclose(posts[q].values, want[q].values, rtol=0.0, atol=1e-12)


def _star(children, rng):
    """Naive-Bayes star: one card-3 root, binary children."""
    spec = [("R", 3, [])] + [(f"c{i}", 2, ["R"]) for i in range(children)]
    return zoo.build_network(spec, rng)


def _star_reference(bn, ev):
    """Closed-form star posteriors and Pr(e): every child is independent
    given the root, so each marginal is a sum over the root's 3 values."""
    prior = bn.cpts[0].values
    like = {}  # child -> Pr{child | R} with evidence-excluded values zeroed
    for c in bn.ids[1:]:
        mask = np.ones(2)
        if ev.allowed(c) is not None:
            mask = np.isin(np.arange(2), sorted(ev.allowed(c))).astype(float)
        like[c] = bn.cpts[c].values * mask  # axes (R, child)
    joint_root = prior * np.prod([t.sum(axis=1) for t in like.values()], axis=0)
    pe = joint_root.sum()
    posts = {0: joint_root / pe}
    for c, t in like.items():
        others = prior * np.prod([u.sum(axis=1) for d, u in like.items() if d != c], axis=0)
        posts[c] = (others[:, None] * t).sum(axis=0) / pe
    return posts, pe


def test_star_fan_out_beyond_einsum_operand_limit():
    # The root receives one message per child: 70 messages exceed the
    # operands one np.einsum call takes (31 on numpy 1.x, 63 on 2.x).  The
    # joint has 3 * 2**70 entries, past the oracle's cap, so the reference
    # is the closed form.
    bn = _star(70, np.random.default_rng(41))
    ev = EvidenceSet(bn, {c: {c % 2} for c in range(1, 67)})
    want, want_pe = _star_reference(bn, ev)
    bp = build_border_polytree(bn)
    preload_priors(bp)
    results = {
        "bp_query": bp_query(bp, ev),
        "polytree": PolytreeEngine(bn).query(ev),
    }
    for name, (posts, pe) in results.items():
        assert pe == pytest.approx(want_pe, rel=1e-9), name
        for q in bn.ids:
            np.testing.assert_allclose(posts[q].values, want[q], atol=1e-9, err_msg=name)


@pytest.mark.parametrize("shape", ["star", "grid"])
def test_engines_with_operands_folded_in_pairs(monkeypatch, shape):
    # Force the grouped contraction everywhere and check it against the
    # oracle on networks small enough to enumerate.
    monkeypatch.setattr(factor, "_MAX_OPERANDS", 2)
    rng = np.random.default_rng(43)
    bn = _star(9, rng) if shape == "star" else _grid(3, 3, 3, rng)
    bp = build_border_polytree(bn)
    preload_priors(bp)
    for _ in range(3):
        ev = random_evidence(rng, bn, max_vars=5)
        want_pe = oracle_event_prob(bn, ev)
        results = {
            "bp_query": bp_query(bp, ev),
        }
        if shape == "star":
            results["polytree"] = PolytreeEngine(bn).query(ev)
            ref, ref_pe = _star_reference(bn, ev)
            assert ref_pe == pytest.approx(want_pe, rel=1e-9)
        for name, (posts, pe) in results.items():
            assert pe == pytest.approx(want_pe, rel=1e-9), name
            for q in bn.ids:
                want = oracle_posterior(bn, ev, q)
                np.testing.assert_allclose(posts[q].values, want, atol=1e-9, err_msg=name)
                if shape == "star":
                    np.testing.assert_allclose(ref[q], want, atol=1e-9)
