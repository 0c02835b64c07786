"""Border chains: growth rules, invariants, evidential passes, posteriors."""

import itertools

import numpy as np
import pytest
from conftest import (
    dyspnoea_shaped,
    load_fixture,
    random_evidence,
    reference_chain,
    reference_passes,
)

from bordertree.border_chain import (
    build_chain,
    chain_posterior,
    chain_rows,
    run_passes,
)
from bordertree.bp_build import choose_next, initial_border
from bordertree.errors import BordertreeError, ImpossibleEvidenceError
from bordertree.factor import contract, multiply, normalize
from bordertree.network import EvidenceSet
from bordertree.oracle import oracle_event_prob, oracle_marginal, oracle_posterior
from bordertree.randgen import random_dag, random_polytree
from bordertree import zoo


def names(bn, xs):
    return set(bn.names(xs))


def forced_table_order(bn):
    return [None] + [bn.id_of(n) for n in "ABCDFHGI"]


class TestInitialBorder:
    def test_bn_a_pairs_the_root_couple(self, bn_a):
        assert names(bn_a, initial_border(bn_a)) == {"A", "B"}

    def test_singleton_when_every_root_coparentless(self):
        bn = zoo.build_network(
            [("X", 2, []), ("Y", 2, ["X"]), ("Z", 2, ["Y"])],
        )
        assert initial_border(bn) == {bn.id_of("X")}

    def test_members_limit_the_search(self):
        # u co-parents w with x in the whole network, but not inside the
        # parentless part {x}.
        bn = zoo.build_network([("x", 2, []), ("u", 2, []), ("w", 2, ["x", "u"])])
        assert names(bn, initial_border(bn)) == {"x", "u"}
        assert names(bn, initial_border(bn, {bn.id_of("x")})) == {"x"}

    def test_random_dags_coparentless_or_provably_impossible(self, rng):
        for _ in range(60):
            bn = random_dag(rng, 3, 9, 2)
            got = initial_border(bn)
            roots = frozenset(bn.roots())
            assert got and got <= roots
            if bn.set_co_parents(got, bn.ids):
                # The climb gave up; check by enumeration that no set of
                # roots is co-parentless in this DAG.
                for k in range(1, len(roots) + 1):
                    for combo in itertools.combinations(sorted(roots), k):
                        assert bn.set_co_parents(frozenset(combo), bn.ids)


class TestChooseNext:
    def test_rule2_promotes_a_with_its_children(self, bn_a):
        border = initial_border(bn_a)
        bottom = frozenset(bn_a.ids) - border
        promoted, cohort, rule = choose_next(bn_a, border, bottom)
        assert (bn_a.name_of(promoted), rule) == ("A", 2)
        assert names(bn_a, cohort) == {"C", "D", "F"}

    def test_rule1_when_no_bottom_children(self, bn_a):
        border = frozenset(bn_a.id_of(n) for n in "BCDF")
        bottom = frozenset(bn_a.ids) - border - {bn_a.id_of("A")}
        promoted, cohort, rule = choose_next(bn_a, border, bottom)
        assert (bn_a.name_of(promoted), rule) == ("B", 1)
        assert cohort == frozenset()

    def test_rule4_fictitious_recruit(self):
        # No border variable is promotable (each has a bottom co-parent that
        # itself has a bottom parent), but v has all parents in the border,
        # so it is recruited without a promotion.
        bn = zoo.build_network(
            [
                ("x", 2, []),
                ("y", 2, []),
                ("v", 2, ["x", "y"]),
                ("z", 2, ["v"]),
                ("w", 2, ["x", "z"]),
                ("u", 2, ["y", "z"]),
            ]
        )
        border = frozenset({bn.id_of("x"), bn.id_of("y")})
        bottom = frozenset(bn.ids) - border
        promoted, cohort, rule = choose_next(bn, border, bottom)
        assert promoted is None and rule == 4
        assert names(bn, cohort) == {"v"}

    def test_blocked_variable_not_promoted(self, bn_a):
        border = initial_border(bn_a)
        bottom = frozenset(bn_a.ids) - border
        blocked = {bn_a.id_of("A")}
        promoted, cohort, rule = choose_next(bn_a, border, bottom, blocked)
        assert promoted not in blocked


class TestBuildChain:
    def test_forced_order_reproduces_table(self, bn_a):
        chain = build_chain(bn_a, forced_order=forced_table_order(bn_a))
        rows = chain_rows(chain)
        expect = [
            ("-", "A,B", "A,B", "A,B", "-"),
            ("A", "C,D,F", "B,C,D,F", "C,D,F|A,B", "2"),
            ("B", "-", "C,D,F", "1", "1"),
            ("C", "H", "D,F,H", "H|C,D", "2"),
            ("D", "I", "F,H,I", "I|D,F", "2"),
            ("F", "-", "H,I", "1", "1"),
            ("H", "G,J,K", "G,I,J,K", "G,J,K|H,I", "3"),
            ("G", "-", "I,J,K", "1", "1"),
            ("I", "L", "J,K,L", "L|I", "2"),
        ]
        assert len(rows) == 9 and chain.gamma == 8
        for row, (v, c, b, phi, rule) in zip(rows, expect):
            assert (row["V"], row["C"], row["B"], row["phi"], row["rule"]) == (
                v, c, b, phi, rule
            )

    def test_bn_c_unforced_rows(self, bn_c):
        # Step 15 promotes U by rule 2: no bottom variable parents a child of
        # U.  (Counting only the parents of U's bottom children, as stage II
        # once did, would have let M be promoted with P and Q instead.)
        rows = [tuple(r.values()) for r in chain_rows(build_chain(bn_c))]
        assert rows == [
            (0, "-", "A", "A", "A", "-"),
            (1, "A", "B,C", "B,C", "B,C|A", "2"),
            (2, "B", "D,F", "C,D,F", "D,F|B,C", "2"),
            (3, "D", "H", "C,F,H", "H|D,F", "2"),
            (4, "H", "I", "C,F,I", "I|F,H", "2"),
            (5, "I", "-", "C,F", "1", "1"),
            (6, "-", "G", "C,G,F", "G", "5"),
            (7, "-", "K", "C,G,K,F", "K", "5"),
            (8, "K", "L", "C,G,L,F", "L|K", "2"),
            (9, "C", "N,O", "G,L,N,F,O", "N,O|C,G,L", "3"),
            (10, "G", "-", "L,N,F,O", "1", "1"),
            (11, "L", "R,S,T", "N,F,O,R,S,T", "R,S,T|L", "3"),
            (12, "R", "U", "N,F,O,S,T,U", "U|R", "2"),
            (13, "S", "M", "M,N,F,O,T,U", "M|S", "2"),
            (14, "T", "V", "M,N,F,O,U,V", "V|T", "2"),
            (15, "U", "Q,X", "M,N,Q,F,O,V,X", "Q,X|M,U,V", "2"),
            (16, "M", "P", "N,P,Q,F,O,V,X", "P|M,N,Q", "2"),
            (17, "N", "-", "P,Q,F,O,V,X", "1", "1"),
            (18, "Q", "-", "P,F,O,V,X", "1", "1"),
            (19, "P", "J", "F,O,V,X,J", "J|P,F,O", "2"),
            (20, "F", "-", "O,V,X,J", "1", "1"),
            (21, "O", "-", "V,X,J", "1", "1"),
            (22, "J", "-", "V,X", "1", "1"),
            (23, "V", "Y", "X,Y", "Y|V", "2"),
            (24, "X", "Z", "Y,Z", "Z|X,Y", "2"),
        ]

    def test_directed_chain_borders_are_singletons(self):
        bn = zoo.build_network(
            [("A", 2, []), ("B", 2, ["A"]), ("C", 2, ["B"])]
        )
        chain = build_chain(bn)
        assert [names(bn, s.border) for s in chain.steps] == [{"A"}, {"B"}, {"C"}]

    def test_forced_rule6_recruits_bottom_ancestors(self):
        # A's bottom co-parent C has a bottom parent B, so only rule 6
        # promotes A: its bottom children B, D and their bottom ancestor C.
        bn = zoo.build_network(
            [("A", 2, []), ("B", 2, ["A"]), ("C", 2, ["B"]), ("D", 2, ["A", "C"])]
        )
        rows = [tuple(r.values()) for r in chain_rows(build_chain(bn, [None, bn.id_of("A")]))]
        assert rows == [(0, "-", "A", "A", "A", "-"), (1, "A", "B,C,D", "B,C,D", "B,C,D|A", "6")]
        assert [s.rule for s in build_chain(bn).steps[1:]] == [4, 2, 2]

    def test_illegal_forced_order(self, bn_a):
        bad = [None, bn_a.id_of("H")]  # H is not in the initial border {A,B}
        with pytest.raises(BordertreeError, match="illegal forced promotion"):
            build_chain(bn_a, forced_order=bad)

    def test_truncated_forced_order(self, bn_a):
        bad = [None] + [bn_a.id_of(n) for n in "ABC"]
        with pytest.raises(BordertreeError, match="ended before"):
            build_chain(bn_a, forced_order=bad)

    def test_random_chain_invariants(self, rng):
        for _ in range(30):
            bn = random_dag(rng, 3, 10, 3)
            chain = build_chain(bn)
            seen = set()
            prev = None
            for step in chain.steps:
                if step.index == 0:
                    assert step.promoted is None and step.border == step.cohort
                else:
                    removed = {step.promoted} if step.promoted is not None else set()
                    # border recursion
                    assert step.border == (prev.border - removed) | step.cohort
                    # parent containment: recruits' parents sit in the
                    # previous border
                    assert bn.set_parents(step.cohort) <= prev.border
                    if step.promoted is not None:
                        assert step.promoted in prev.border
                assert not (step.cohort & seen)  # cohorts pairwise disjoint
                seen |= step.cohort
                prev = step
            assert seen == set(bn.ids)  # cohorts partition the variables


def _chain_corpus():
    """The three fixtures, the chest-clinic shape, the empty network (one
    empty border) and 900 seeded random networks: small DAGs, 10-30-node
    binary DAGs with up to three parents, and polytrees."""
    yield from (load_fixture(name) for name in ("bn_a", "polytree_b", "bn_c"))
    yield dyspnoea_shaped()
    yield zoo.build_network([])
    rng = np.random.default_rng(1204)
    for _ in range(300):
        yield random_dag(rng, 3, 14, 3)
        yield random_dag(rng, 10, 30, 2, max_parents=3, statespace_cap=2**40)
        yield random_polytree(rng, 5, 40, 3)


def _outcome(build, bn, order=None):
    """Every step's promoted variable, cohort, border, rule and cohort table,
    or the error message when the build fails."""
    try:
        steps = build(bn, order)
    except BordertreeError as e:
        return str(e)
    return [
        (s.index, s.promoted, s.cohort, s.border, s.rule, s.cohort_table.scope,
         s.cohort_table.values.tolist())
        for s in steps
    ]


def _chain_steps(bn, order=None):
    return build_chain(bn, forced_order=order).steps


class TestStretchLoop:
    def test_chain_equals_reference_loop(self):
        # A chain is stage II on one macro-node: the same steps as the
        # chain's own loop, every border of type 1 on one path; the same
        # rows or the same error for replayed and illegal forced orders.
        networks = replayed = failed = 0
        for bn in _chain_corpus():
            networks += 1
            chain = build_chain(bn)
            rows = _outcome(lambda *_: chain.steps, bn)
            assert rows == _outcome(reference_chain, bn)
            assert all(
                b.kind == "type1" and b.owner == 0 and b.parents == ((b.id - 1,) if b.id else ())
                for b in chain.view.borders
            )
            order = [s.promoted for s in chain.steps]
            illegal = [order[:1] + order[:0:-1], order[:-1], order + order[-1:]]
            if None not in order[1:]:
                replayed += 1
                assert _outcome(_chain_steps, bn, order) == rows
            for forced in illegal:
                got = _outcome(_chain_steps, bn, forced)
                assert got == _outcome(reference_chain, bn, forced), (bn.names(order[1:]), forced)
                failed += isinstance(got, str)
        assert networks == 905
        assert replayed >= 150 and failed > 0.95 * len(illegal) * networks


class TestPasses:
    def test_no_evidence_gives_prior_marginals(self, bn_a):
        chain = build_chain(bn_a, forced_order=forced_table_order(bn_a))
        session = run_passes(chain)
        borders = range(chain.gamma + 1)
        got = [session.pi_border(j) for j in borders], [session.lambda_border(j) for j in borders]
        for pi, lam in (got, reference_passes(chain)):
            for j, step in enumerate(chain.steps):
                np.testing.assert_allclose(
                    pi[j].values, oracle_marginal(bn_a, step.border), atol=1e-9
                )
                np.testing.assert_allclose(lam[j].values, 1.0)  # all-ones, trimmed

    def test_worked_trace(self, bn_a, ev_hk):
        chain = build_chain(bn_a, forced_order=forced_table_order(bn_a))
        passes = run_passes(chain, ev_hk)
        h, k = bn_a.id_of("H"), bn_a.id_of("K")

        # Pi(B5) lives on {H, I}, is zero off H=h0, and carries only the
        # evidence recruited so far (H, not K).
        pi5 = passes.pi_border(5)
        assert pi5.scope == tuple(sorted((h, bn_a.id_of("I"))))
        assert np.all(pi5.values[1, :] == 0.0)
        ev_h = EvidenceSet(bn_a, {h: {0}})
        np.testing.assert_allclose(
            pi5.values, oracle_marginal(bn_a, pi5.scope, ev_h), atol=1e-12
        )

        # Tail: K is recruited at step 6, so no evidence is recruited after
        # it.  Lambda on borders 6..8 is all ones, and Pi there carries both
        # H and K: zero off K=k1 and equal to the oracle's evidential joint.
        for j in (6, 7, 8):
            assert np.all(passes.lambda_border(j).values == 1.0)
            pi = passes.pi_border(j)
            assert pi.scope == tuple(sorted(chain.border(j))) and k in pi.scope
            assert np.all(np.take(pi.values, 0, axis=pi.scope.index(k)) == 0.0)
            np.testing.assert_allclose(
                pi.values, oracle_marginal(bn_a, pi.scope, ev_hk), atol=1e-12
            )

        # Lambda(B0) equals the conditional Pr{h,k | A,B} (positive CPTs).
        b0 = sorted(chain.border(0))
        cond = oracle_marginal(bn_a, b0, ev_hk) / oracle_marginal(bn_a, b0)
        np.testing.assert_allclose(passes.lambda_border(0).values, cond, atol=1e-12)

        # Pi(B8) is the oracle joint over the last border with the evidence.
        np.testing.assert_allclose(
            passes.pi_border(8).values,
            oracle_marginal(bn_a, chain.border(8), ev_hk),
            atol=1e-12,
        )

        # Pi * Lambda equals the evidential joint at every border.
        for j, step in enumerate(chain.steps):
            m = multiply(passes.pi_border(j), passes.lambda_border(j))
            np.testing.assert_allclose(
                m.values, oracle_marginal(bn_a, step.border, ev_hk), atol=1e-9
            )

    def test_passes_equal_reference_passes(self):
        # The session's pi and pi * lambda agree with the plain two-pass
        # loops on criterion-1-style DAGs with hard and soft evidence, and
        # on a 7x7 grid at card 3, whose borders pass the matmul floor.
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(30):
            bn = random_dag(rng, 4, 12, 4)
            cases += [(bn, random_evidence(rng, bn)) for _ in range(2)]
        grid = zoo.build_network(
            [
                (f"g{r}_{c}", 3, [f"g{r - 1}_{c}"] * (r > 0) + [f"g{r}_{c - 1}"] * (c > 0))
                for r in range(7)
                for c in range(7)
            ],
            rng,
        )
        cases.append((grid, random_evidence(rng, grid, max_vars=5)))
        for bn, ev in cases:
            chain = build_chain(bn)
            got, (pi, lam) = run_passes(chain, ev), reference_passes(chain, ev)
            for j in range(chain.gamma + 1):
                assert got.pi_border(j).scope == pi[j].scope
                np.testing.assert_allclose(got.pi_border(j).values, pi[j].values, rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    multiply(got.pi_border(j), got.lambda_border(j)).values,
                    multiply(pi[j], lam[j]).values,
                    rtol=0,
                    atol=1e-12,
                )

    def test_passes_read_no_priors(self, bn_a, ev_hk):
        # Anchored at border 0, the chain's session has a core border on
        # every edge's parent side, with or without evidence, so it never
        # needs the view's border priors.
        chain = build_chain(bn_a)
        for ev in (EvidenceSet(bn_a), ev_hk):
            run_passes(chain, ev)
            assert chain.view.priors is None


class TestChainPosterior:
    def test_border_choice_does_not_matter(self, bn_a, ev_hk):
        chain = build_chain(bn_a, forced_order=forced_table_order(bn_a))
        passes = run_passes(chain, ev_hk)
        i = bn_a.id_of("I")
        homes = [j for j, s in enumerate(chain.steps) if i in s.border]
        assert homes == [4, 5, 6, 7]
        results = [
            normalize(contract([passes.pi_border(j), passes.lambda_border(j)], (i,)))[0]
            for j in homes
        ]
        for r in results[1:]:
            np.testing.assert_allclose(r.values, results[0].values, atol=1e-12)
        np.testing.assert_allclose(
            results[0].values, oracle_posterior(bn_a, ev_hk, i), atol=1e-9
        )

    def test_posterior_from_first_border(self, bn_a, ev_hk):
        chain = build_chain(bn_a, forced_order=forced_table_order(bn_a))
        a = bn_a.id_of("A")
        unnorm, post, pe = chain_posterior(chain, ev_hk, a)
        np.testing.assert_allclose(
            unnorm.values, oracle_marginal(bn_a, [a], ev_hk), atol=1e-12
        )
        np.testing.assert_allclose(post.values, oracle_posterior(bn_a, ev_hk, a), atol=1e-9)
        assert pe == pytest.approx(oracle_event_prob(bn_a, ev_hk), rel=1e-9)

    def test_no_evidence_posterior_is_prior(self, bn_a):
        chain = build_chain(bn_a)
        for q in bn_a.ids:
            _, post, pe = chain_posterior(chain, EvidenceSet(bn_a), q)
            np.testing.assert_allclose(
                post.values, oracle_marginal(bn_a, [q]), atol=1e-9
            )
            assert pe == pytest.approx(1.0, abs=1e-9)

    def test_impossible_evidence_raises(self):
        bn = zoo.build_network(
            [("A", 2, []), ("B", 2, ["A"])],
            cpts={"A": np.array([1.0, 0.0]), "B": np.array([[1.0, 0.0], [0.5, 0.5]])},
        )
        ev = EvidenceSet(bn, {bn.id_of("B"): {1}})
        chain = build_chain(bn)
        with pytest.raises(ImpossibleEvidenceError):
            chain_posterior(chain, ev, bn.id_of("A"))

    def test_constancy_across_borders(self, rng):
        for _ in range(10):
            bn = random_dag(rng, 4, 9, 3)
            chain = build_chain(bn)
            ev = random_evidence(rng, bn)
            passes = run_passes(chain, ev)
            pe = oracle_event_prob(bn, ev)
            totals = [
                multiply(passes.pi_border(j), passes.lambda_border(j)).total()
                for j in range(chain.gamma + 1)
            ]
            for t in totals:
                assert t == pytest.approx(pe, rel=1e-9, abs=1e-300)
