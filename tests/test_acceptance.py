"""Acceptance suite: one test per criterion, each printing a PASS line.

Every numeric expectation is produced by the enumeration oracle (or is a
structural fact); no reference tables exist for the engines to reproduce,
so equivalence against the oracle and structural reproduction of the fixed
fixture traces are the exit criteria.  Run ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from bordertree.bnformat import parse_evidence
from bordertree.border_chain import (
    build_chain,
    chain_posterior,
    chain_rows,
    run_passes,
)
from bordertree.bp_build import (
    build_border_polytree,
    stage1,
    stage2,
    verify_bp,
    verify_macro_polytree,
)
from bordertree.bp_infer import BorderSession, bp_query, preload_priors
from bordertree.factor import multiply
from bordertree.messaging import build_hub_index, tree_path
from bordertree.oracle import oracle_event_prob, oracle_marginal, oracle_posterior
from bordertree.polytree import PolytreeEngine
from bordertree.randgen import random_dag, random_evidence, random_polytree


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def _border_id(bp, bn, names):
    members = frozenset(bn.id_of(c) for c in names)
    return next(b.id for b in bp.borders if b.members == members)


def test_criterion_1_oracle_equivalence():
    """Chain and border-polytree posteriors match the enumeration oracle on
    200 random DAGs (up to 12 variables, cardinalities up to 4, strictly
    positive tables) with 3 random hard/soft evidence sets each."""
    rng = np.random.default_rng(1)
    t0 = time.time()
    nets, evs = 200, 3
    for trial in range(nets):
        bn = random_dag(rng, 4, 12, 4)
        chain = build_chain(bn)
        bp = build_border_polytree(bn)
        preload_priors(bp)
        for _ in range(evs):
            ev = random_evidence(rng, bn)
            pe = oracle_event_prob(bn, ev)
            passes = run_passes(chain, ev)
            posts, pe_bp = bp_query(bp, ev)
            assert abs(pe_bp - pe) <= 1e-9 * pe
            for q in bn.ids:
                want = oracle_posterior(bn, ev, q)
                _, post_chain, pe_chain = chain_posterior(chain, ev, q, passes=passes)
                assert np.all(np.abs(post_chain.values - want) <= 1e-9)
                assert np.all(np.abs(posts[q].values - want) <= 1e-9)
                assert abs(pe_chain - pe) <= 1e-9 * pe
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s"
    _ok(1, f"{nets} DAGs x {evs} evidence sets vs oracle in {elapsed:.1f}s")


def test_criterion_2_table_reproduction(bn_a):
    """The forced-order chain on the fixture reproduces the reference border
    table exactly: borders, cohorts, rules and cohort-table scopes."""
    order = [None] + [bn_a.id_of(c) for c in "ABCDFHGI"]
    rows = chain_rows(build_chain(bn_a, forced_order=order))
    expected = [
        ("0", "-", "A,B", "A,B", "A,B", "-"),
        ("1", "A", "C,D,F", "B,C,D,F", "C,D,F|A,B", "2"),
        ("2", "B", "-", "C,D,F", "1", "1"),
        ("3", "C", "H", "D,F,H", "H|C,D", "2"),
        ("4", "D", "I", "F,H,I", "I|D,F", "2"),
        ("5", "F", "-", "H,I", "1", "1"),
        ("6", "H", "G,J,K", "G,I,J,K", "G,J,K|H,I", "3"),
        ("7", "G", "-", "I,J,K", "1", "1"),
        ("8", "I", "L", "J,K,L", "L|I", "2"),
    ]
    got = [
        (str(r["i"]), r["V"], r["C"], r["B"], r["phi"], r["rule"]) for r in rows
    ]
    assert got == expected
    _ok(2, "forced-order chain emits the 9 reference rows verbatim")


def test_criterion_3_worked_trace_regression(bn_a, ev_hk):
    """Fixed-seed fixture, evidence on H and K: the last downward table, the
    first upward table and every product Pi*Lambda match the oracle."""
    chain = build_chain(bn_a, forced_order=[None] + [bn_a.id_of(c) for c in "ABCDFHGI"])
    passes = run_passes(chain, ev_hk)

    pi8 = passes.pi[8]
    want = oracle_marginal(bn_a, chain.border(8), ev_hk)
    assert np.all(np.abs(pi8.values - want) <= 1e-9)

    b0 = sorted(chain.border(0))
    cond = oracle_marginal(bn_a, b0, ev_hk) / oracle_marginal(bn_a, b0)
    assert np.all(np.abs(passes.lam[0].values - cond) <= 1e-9)

    for j in range(chain.gamma + 1):
        prod = multiply(passes.pi[j], passes.lam[j])
        want = oracle_marginal(bn_a, chain.border(j), ev_hk)
        assert np.all(np.abs(prod.values - want) <= 1e-9)
    _ok(3, "Pi(B_8), Lambda(B_0) and all Pi*Lambda products match the oracle")


def test_criterion_4_constancy(bn_a, ev_hk, rng):
    """The total mass of Pi*Lambda is one constant along the whole chain and
    equals the oracle evidence probability, on the fixture and fuzz cases."""
    cases = [(bn_a, ev_hk)]
    for _ in range(25):
        bn = random_dag(rng, 4, 10, 3)
        cases.append((bn, random_evidence(rng, bn)))
    for bn, ev in cases:
        chain = build_chain(bn)
        passes = run_passes(chain, ev)
        pe = oracle_event_prob(bn, ev)
        totals = [
            multiply(passes.pi[j], passes.lam[j]).total()
            for j in range(chain.gamma + 1)
        ]
        spread = (max(totals) - min(totals)) / max(max(totals), 1e-300)
        assert spread <= 1e-9
        for t in totals:
            assert abs(t - pe) <= 1e-9 * max(pe, 1e-300)
    _ok(4, f"constant evidence mass across borders on {len(cases)} cases")


def test_criterion_5_pivot_independence(bn_c, bp_c, ev_boq):
    """Posterior of P given evidence on B, O, Q computed toward either end
    of the evidential core: identical to 1e-12 relative and correct."""
    leaf_pivot = _border_id(bp_c, bn_c, "BCGOP")
    root_pivot = _border_id(bp_c, bn_c, "NPQ")
    s_leaf = BorderSession(bp_c, ev_boq, pivot=leaf_pivot)
    s_root = BorderSession(bp_c, ev_boq, pivot=root_pivot)

    # The two traces exercise opposite directions: collecting into the leaf
    # pivot sends only downward messages, into the root pivot only upward.
    leaf_dirs = {k[2] for k in s_leaf.store}
    root_dirs = {k[2] for k in s_root.store}
    assert leaf_dirs == {"pi"} and root_dirs == {"lambda"}

    p = bn_c.id_of("P")
    post_leaf = s_leaf.posterior(p)
    post_root = s_root.posterior(p)
    rel = np.max(
        np.abs(post_leaf.values - post_root.values) / np.abs(post_root.values)
    )
    assert rel <= 1e-12
    want = oracle_posterior(bn_c, ev_boq, p)
    assert np.all(np.abs(post_leaf.values - want) <= 1e-9)
    _ok(5, f"both pivots agree (rel {rel:.2e}) and match the oracle")


def test_criterion_6_pruning_counts(bn_c, bp_c, ev_boq):
    """Message counting is exact: the 4-border core sends 3 collection
    messages from either pivot; sole evidence already at the pivot sends 0."""
    for names in ("BCGOP", "NPQ"):
        s = BorderSession(bp_c, ev_boq, pivot=_border_id(bp_c, bn_c, names))
        assert len(s.core_nodes) == 4
        assert s.sent == 3 and s.collected == 3
    s = BorderSession(
        bp_c, parse_evidence("N=n1", bn_c), pivot=_border_id(bp_c, bn_c, "NPQ")
    )
    assert s.sent == 0 and s.collected == 0
    _ok(6, "collection counts: 3 messages on the 4-border core, 0 for N-only")


def test_criterion_7_conversion_soundness():
    """500 random DAGs through stage 1 and stage 2 with zero invariant
    violations (quotient polytree, closure, running intersection, interface
    co-location, single inter-macro edges)."""
    rng = np.random.default_rng(7)
    for trial in range(500):
        bn = random_dag(rng, 3, 12, 3)
        mp = stage1(bn)
        assert verify_macro_polytree(mp) == [], trial
        bp = stage2(mp)
        errs = [d for d in verify_bp(bp) if d.severity == "error"]
        assert not errs, (trial, errs)
    _ok(7, "500 random DAGs convert with zero invariant violations")


def test_criterion_8_polytree_parity():
    """On 100 random singly connected networks the node-level engine, the
    border-polytree engine and the oracle agree; stage 1 leaves only
    singleton macro-nodes."""
    rng = np.random.default_rng(8)
    for trial in range(100):
        bn = random_polytree(rng, 4, 12, 4)
        ev = random_evidence(rng, bn)
        posts_pt, pe_pt = PolytreeEngine(bn).query(ev)
        bp = build_border_polytree(bn)
        assert all(len(g) == 1 for g in bp.macro.groups)
        preload_priors(bp)
        posts_bp, pe_bp = bp_query(bp, ev)
        pe = oracle_event_prob(bn, ev)
        assert abs(pe_pt - pe) <= 1e-9 * pe and abs(pe_bp - pe) <= 1e-9 * pe
        for q in bn.ids:
            want = oracle_posterior(bn, ev, q)
            assert np.all(np.abs(posts_pt[q].values - want) <= 1e-9)
            assert np.all(np.abs(posts_bp[q].values - want) <= 1e-9)
    _ok(8, "100 random polytrees: node engine == border engine == oracle")


def test_criterion_9_hub_path_oracle(poly_b):
    """Hub-method paths equal BFS paths on 200 random polytrees with random
    hub sets, and the fixture reproduces the pinned path."""
    rng = np.random.default_rng(9)
    from bordertree.messaging import Tree

    for _ in range(200):
        n = int(rng.integers(2, 14))
        edges = []
        for i in range(1, n):
            other = int(rng.integers(0, i))
            edges.append((other, i) if rng.random() < 0.5 else (i, other))
        tree = Tree(n, edges)
        k = int(rng.integers(1, n + 1))
        hubs = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
        index = build_hub_index(tree, hubs=hubs)
        for _ in range(4):
            x, y = int(rng.integers(0, n)), int(rng.integers(0, n))
            assert tree_path(tree, index, x, y) == tree.bfs_path(x, y)

    tree = poly_b.tree()
    index = build_hub_index(tree, hubs=[poly_b.id_of("J"), poly_b.id_of("H")])
    path = tree_path(tree, index, poly_b.id_of("P"), poly_b.id_of("A"))
    assert [poly_b.name_of(v) for v in path] == ["P", "I", "M", "D", "A"]
    _ok(9, "hub paths equal BFS on 200 polytrees; fixture path P-I-M-D-A")
