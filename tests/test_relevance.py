"""Queries the evidence cannot reach read their preloaded priors.

A variable that shares no ancestor, itself included, with any evidence
variable is d-separated from the evidence given nothing, so its posterior
is its prior, and both tree engines answer it from the unrestricted prior
at its node without sending a message.  The structure (a border polytree,
a polytree engine) keeps each such normalized prior in a memo that every
session on it reads.  The chain is one more input: a border session on
its one-macro view, anchored at its first border, and the chain engine's
answers.  These tests check the sessions' relevance split
against the moralization reference (``conftest.d_separated``), which
shares no code with the engines, every answer against the oracle, and the
memo's entries bit for bit against a fresh read of the prior.  Evidence
that is impossible in any component stops every read-out, also one in
another component or one the memo could answer.
"""

import functools
import io
import sys

import numpy as np
import pytest

from bordertree import zoo
from bordertree.bnformat import parse_evidence, parse_network
from bordertree.border_chain import build_chain, chain_posterior, run_passes
from bordertree.bp_build import build_border_polytree
from bordertree.bp_infer import BorderSession, bp_query, preload_priors
from bordertree.cli import ReplSession, main
from bordertree.errors import ImpossibleEvidenceError
from bordertree.factor import contract, normalize
from bordertree.network import EvidenceSet
from bordertree.oracle import oracle_event_prob, oracle_marginal, oracle_posterior
from bordertree.polytree import PolytreeEngine
from bordertree.randgen import random_dag, random_polytree

from conftest import d_separated, random_evidence

KINDS = ("dag", "polytree", "two_components")
PER_KIND = 80  # 240 networks in all

# A->C<-B with Pr(A=a0) = 0: B is d-separated from A=a0, which is impossible.
COLLIDER = (
    "node A 2 a0 a1\nnode B 2 b0 b1\nnode C 2 c0 c1\nparents C A B\n"
    "cpt A 0 1\ncpt B 0.5 0.5\ncpt C 0.9 0.1 0.2 0.8 0.3 0.7 0.6 0.4\n"
)

# A->B beside C->D with Pr(C=c0) = 0: evidence C=c0 is impossible, and B,
# in the other component, is independent of it.
CROSS = (
    "node A 2 a0 a1\nnode B 2 b0 b1\nnode C 2 c0 c1\nnode D 2 d0 d1\n"
    "parents B A\nparents D C\n"
    "cpt A 0.4 0.6\ncpt B 0.3 0.7 0.8 0.2\ncpt C 0 1\ncpt D 0.1 0.9 0.6 0.4\n"
)


def _two_components(rng):
    """A polytree beside a polytree or a DAG, with fresh tables."""
    second = random_polytree if rng.random() < 0.5 else random_dag
    spec = []
    for part, bn in (("a", random_polytree(rng, 2, 6, 3)), ("b", second(rng, 2, 6, 3))):
        spec += [(f"{part}{v}", bn.card(v), [f"{part}{p}" for p in bn.parents[v]]) for v in bn.ids]
    return zoo.build_network(spec, rng)


def _cases(kind):
    """Seeded (network, soft-or-hard evidence) pairs of one kind."""
    rng = np.random.default_rng(KINDS.index(kind))
    make = {
        "dag": lambda: random_dag(rng, 3, 10, 3),
        "polytree": lambda: random_polytree(rng, 3, 10, 3),
        "two_components": lambda: _two_components(rng),
    }[kind]
    for _ in range(PER_KIND):
        bn = make()
        yield bn, random_evidence(rng, bn)


def _sessions(bn, ev):
    """A border session, one on the chain's view anchored at its first
    border, and a node session where the network is singly connected."""
    bp = build_border_polytree(bn)
    preload_priors(bp)
    out = [BorderSession(bp, ev), BorderSession(build_chain(bn).view, ev, pivot=0)]
    if bn.is_singly_connected():
        out.append(PolytreeEngine(bn).session(ev))
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_relevance_split_matches_moralization(kind):
    rng = np.random.default_rng(99)
    split = {True: 0, False: 0}
    for bn, ev in _cases(kind):
        want = {v: not d_separated(bn, v, ev.vars) for v in bn.ids}
        for session in _sessions(bn, ev):
            # The memo depends on the order of the queries.
            order = [int(v) for v in rng.permutation(len(bn))]
            assert {v: session._relevant(v) for v in order} == want
        for relevant in want.values():
            split[relevant] += 1
    assert split[True] and split[False], split


@pytest.mark.parametrize("kind", KINDS)
def test_answers_match_the_oracle(kind):
    irrelevant = 0
    for bn, ev in _cases(kind):
        bp = build_border_polytree(bn)
        preload_priors(bp)
        chain = build_chain(bn)
        passes = run_passes(chain, ev)
        read = {q: chain_posterior(chain, ev, q, passes=passes) for q in bn.ids}
        answers = [
            bp_query(bp, ev),
            bp_query(chain.view, ev, pivot=0),
            ({q: r[1] for q, r in read.items()}, read[0][2]),
        ]
        if bn.is_singly_connected():
            answers.append(PolytreeEngine(bn).query(ev))
        for posts, pe in answers:
            assert pe == pytest.approx(oracle_event_prob(bn, ev), rel=1e-9)
            for q in bn.ids:
                np.testing.assert_allclose(posts[q].values, oracle_posterior(bn, ev, q), atol=1e-9)
        for session in _sessions(bn, ev):
            for q in bn.ids:
                np.testing.assert_allclose(
                    session.joint(q).values, oracle_marginal(bn, [q], ev), atol=1e-9
                )
        irrelevant += sum(d_separated(bn, v, ev.vars) for v in bn.ids)
    assert irrelevant


def test_impossible_evidence_on_an_irrelevant_query(tmp_path):
    bn = parse_network(COLLIDER)
    ev = parse_evidence("A=a0", bn)
    b = bn.id_of("B")
    assert d_separated(bn, b, ev.vars)
    bp = build_border_polytree(bn)
    with pytest.raises(ImpossibleEvidenceError):
        bp_query(bp, ev, [b])
    with pytest.raises(ImpossibleEvidenceError):
        PolytreeEngine(bn).query(ev, [b])
    path = tmp_path / "collider.bn"
    path.write_text(COLLIDER)
    for engine in ("bp", "polytree"):
        argv = ["query", str(path), "--evidence", "A=a0", "--q", "B", "--engine", engine]
        assert main(argv, out=io.StringIO()) == 1, engine


def test_long_ancestry_reads_the_prior():
    # A chain longer than the recursion limit whose last node meets an
    # observed root only at an unobserved collider.
    n = sys.getrecursionlimit() + 200
    spec = [("v0", 2, [])] + [(f"v{i}", 2, [f"v{i - 1}"]) for i in range(1, n)]
    spec += [("R", 2, []), ("C", 2, [f"v{n - 1}", "R"])]
    bn = zoo.build_network(spec, np.random.default_rng(5))
    ev = EvidenceSet(bn, {bn.id_of("R"): {0}})
    want = bn.cpts[0].values
    for v in range(1, n):  # the table of v has axes (v-1, v)
        want = want @ bn.cpts[v].values
    for session in _sessions(bn, ev):
        post = session.posterior(n - 1).values
        np.testing.assert_allclose(post, want, rtol=0, atol=1e-12)
        assert session.distributed == 0


def _bits(f):
    return f.scope, f.cards, f.values.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_memo_holds_fresh_priors_bit_for_bit(kind):
    filled = 0
    for bn, ev in _cases(kind):
        bp = build_border_polytree(bn)
        preload_priors(bp)
        assert bp.marginals == {}  # preloading the priors leaves it empty
        bp_query(bp, ev)
        structures = [(bp, BorderSession(bp), bp.home_border)]
        if bn.is_singly_connected():
            engine = PolytreeEngine(bn)
            engine.query(ev)
            structures.append((engine, engine.session(), lambda v: v))
        free = {v for v in bn.ids if d_separated(bn, v, ev.vars)}
        for owner, reader, home in structures:
            assert set(owner.marginals) == free  # every query was read once
            for var, entry in owner.marginals.items():
                fresh = normalize(contract([reader._prior(home(var))], (var,)))[0]
                assert _bits(entry) == _bits(fresh)
                filled += 1
    assert filled


def test_sessions_on_one_structure_read_the_same_entries():
    bn = random_polytree(np.random.default_rng(7), 8, 8, 3)
    observed = bn.ids[-1]
    free = [v for v in bn.ids if d_separated(bn, v, [observed])]
    assert free
    first_ev, other_ev = (EvidenceSet(bn, {observed: {k}}) for k in (0, 1))
    bp, engine = build_border_polytree(bn), PolytreeEngine(bn)
    for owner, session in ((bp, functools.partial(BorderSession, bp)), (engine, engine.session)):
        first = session(first_ev)
        entries = {v: first.posterior(v) for v in free}
        assert {v: owner.marginals[v] for v in free} == entries
        later = [session(other_ev), session()]
        if owner is bp:
            later.append(first.with_evidence(other_ev))
        for s in later:
            for v in free:
                assert s.posterior(v) is entries[v]


def test_impossible_evidence_raises_after_the_memo_holds_the_query():
    bn = parse_network(COLLIDER)
    b = bn.id_of("B")
    ev = parse_evidence("A=a0", bn)
    bp = build_border_polytree(bn)
    engine = PolytreeEngine(bn)
    prior = BorderSession(bp).posterior(b)
    assert bp.marginals[b] is prior
    engine.session().posterior(b)
    assert b in engine.marginals
    for session in (BorderSession(bp, ev), engine.session(ev)):
        for read in (session.posterior, session.joint):
            with pytest.raises(ImpossibleEvidenceError):
                read(b)
    with pytest.raises(ImpossibleEvidenceError):
        bp_query(bp, ev, [b])
    with pytest.raises(ImpossibleEvidenceError):
        engine.query(ev, [b])


@pytest.mark.parametrize("evidence", ["C=c0", "A=a0,C=c0"])
def test_impossible_evidence_in_another_component(tmp_path, evidence):
    # B is answered in A->B, while C=c0 has probability 0 in C->D: every
    # engine must refuse, whether or not B is relevant to A=a0.
    bn = parse_network(CROSS)
    ev = parse_evidence(evidence, bn)
    b = bn.id_of("B")
    with pytest.raises(ImpossibleEvidenceError):
        bp_query(build_border_polytree(bn), ev, [b])
    with pytest.raises(ImpossibleEvidenceError):
        PolytreeEngine(bn).query(ev, [b])
    path = tmp_path / "cross.bn"
    path.write_text(CROSS)
    for engine in ("bp", "polytree", "chain", "oracle"):
        argv = ["query", str(path), "--evidence", evidence, "--q", "B", "--engine", engine]
        assert main(argv, out=io.StringIO()) == 1, engine
    out = io.StringIO()
    repl = ReplSession(bn, out)
    repl.handle(f"evidence {evidence}")
    assert out.getvalue() == "error: evidence has probability 0; session unchanged\n"
    assert not repl.session.ev

