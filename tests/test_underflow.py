"""Evidence whose probability underflows a float (ROADMAP item 1).

Two networks, with expected values in closed form:

* two independent roots A and B, each with Pr(a0) = Pr(b0) = 1e-200, and
  evidence A=a0, B=b0.  Pr(e) = 1e-400 is below the smallest float, but
  each posterior is the indicator of the observed value;
* a binary chain X0 -> X1 -> ... -> X3999 with root 0.5/0.5, rows 0.9/0.1
  (parent a) and 0.2/0.8 (parent b), and X_i = b observed at every even i.
  X1's observed parent gives it the row [0.2, 0.8], and its observed child
  weighs that by Pr(X2=b | X1) = [0.1, 0.8], so X1 reads
  [0.02, 0.64] / 0.66.  X3999 has only its observed parent, so it reads
  the row [0.2, 0.8].  Pr(e) is about 1e-361.

The marks are strict: a test that starts to pass fails the suite, so the
change that makes it pass removes its mark (for most of them, the change
that carries scaled messages).  The REPL test carries none: the REPL
takes the evidence, since each component's total is positive, and prints
``evidence_prob 0``, as ``query`` does on ``bp`` and ``polytree``.
"""

import io

import numpy as np
import pytest

from bordertree.bnformat import parse_evidence, parse_network
from bordertree.border_chain import build_chain, chain_posterior, run_passes
from bordertree.bp_build import build_border_polytree
from bordertree.bp_infer import bp_query
from bordertree.cli import ReplSession
from bordertree.errors import ImpossibleEvidenceError
from bordertree.factor import Factor
from bordertree.network import BayesianNetwork, EvidenceSet, Variable
from bordertree.oracle import oracle_posterior
from bordertree.polytree import PolytreeEngine

TWO_ROOTS = "node A 2 a0 a1\nnode B 2 b0 b1\ncpt A 1e-200 1\ncpt B 1e-200 1\n"

CHAIN_N = 4000


@pytest.fixture(scope="module")
def two_roots():
    bn = parse_network(TWO_ROOTS)
    return bn, parse_evidence("A=a0,B=b0", bn)


@pytest.fixture(scope="module")
def long_chain():
    variables = [Variable(i, f"X{i}", 2, ("a", "b")) for i in range(CHAIN_N)]
    rows = np.array([[0.9, 0.1], [0.2, 0.8]])  # axes: parent, child
    cpts = {0: Factor((0,), (2,), [0.5, 0.5])}
    cpts.update((i, Factor((i - 1, i), (2, 2), rows)) for i in range(1, CHAIN_N))
    bn = BayesianNetwork(variables, {i: (i - 1,) for i in range(1, CHAIN_N)}, cpts)
    ev = EvidenceSet(bn, {i: {1} for i in range(0, CHAIN_N, 2)})
    return bn, ev


def assert_observed(posts):
    for q in (0, 1):
        np.testing.assert_allclose(posts[q], [1.0, 0.0], atol=1e-9)


def test_two_roots_bp_and_polytree(two_roots):
    bn, ev = two_roots
    for posts, _pe in (bp_query(build_border_polytree(bn), ev), PolytreeEngine(bn).query(ev)):
        assert_observed({q: f.values for q, f in posts.items()})


@pytest.mark.xfail(strict=True, raises=ImpossibleEvidenceError)
def test_two_roots_chain(two_roots):
    bn, ev = two_roots
    chain = build_chain(bn)
    assert_observed({q: chain_posterior(chain, ev, q)[1].values for q in bn.ids})


@pytest.mark.xfail(strict=True, raises=ImpossibleEvidenceError)
def test_two_roots_oracle(two_roots):
    bn, ev = two_roots
    assert_observed({q: oracle_posterior(bn, ev, q) for q in bn.ids})


def test_two_roots_repl_takes_both_observations(two_roots):
    bn, _ev = two_roots
    out = io.StringIO()
    repl = ReplSession(bn, out)
    for line in ("evidence A=a0", "evidence B=b0", "status"):
        repl.handle(line)
    assert "error" not in out.getvalue()
    assert "evidence\tA=a0,B=b0\n" in out.getvalue()


def chain_answer(engine, bn, ev, queries):
    if engine == "bp":
        posts, _ = bp_query(build_border_polytree(bn), ev, queries)
        return {q: f.values for q, f in posts.items()}
    if engine == "polytree":
        posts, _ = PolytreeEngine(bn).query(ev, queries)
        return {q: f.values for q, f in posts.items()}
    chain = build_chain(bn)
    passes = run_passes(chain, ev)
    return {q: chain_posterior(chain, ev, q, passes=passes)[1].values for q in queries}


@pytest.mark.xfail(strict=True)
@pytest.mark.parametrize("engine", ["bp", "polytree", "chain"])
def test_long_chain(long_chain, engine):
    bn, ev = long_chain
    last = CHAIN_N - 1
    posts = chain_answer(engine, bn, ev, [1, last])
    np.testing.assert_allclose(posts[1], np.array([0.02, 0.64]) / 0.66, rtol=0, atol=1e-9)
    np.testing.assert_allclose(posts[last], [0.2, 0.8], rtol=0, atol=1e-9)
