import os
import sys

import numpy as np
import pytest

from bordertree import zoo
from bordertree.border_chain import PassResult, build_chain, chain_posterior
from bordertree.bnformat import parse_evidence
from bordertree.bp_build import build_border_polytree
from bordertree.bp_infer import preload_priors
from bordertree.factor import Factor, contract, indicator, restrict
from bordertree.network import NO_EVIDENCE, EvidenceSet

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def reference_passes(chain, ev=NO_EVIDENCE) -> PassResult:
    """The chain's two evidential passes as plain loops over the steps, kept
    as a reference independent of the session machinery that
    :func:`bordertree.border_chain.run_passes` reads.

    The downward pass pushes evidence-weighted mass border by border toward
    the last border; pi[j] has scope border(j), and with no evidence it is
    the prior Pr{border}.  The upward pass pulls likelihoods back toward the
    first border, starting from the indicator of the last border; lam[j]
    has scope within border(j), all-ones tails kept trimmed.  The product
    pi[j] * lam[j] is the evidential joint over border j, as in the session;
    lam[j] itself also carries the evidence on border j's members, which
    the session leaves to pi.
    """
    bn = chain.source
    steps = chain.steps
    pi = [restrict(steps[0].cohort_table, ev)]
    for step in steps[1:]:
        pi.append(contract([restrict(step.cohort_table, ev), pi[-1]], step.border))

    gamma = chain.gamma
    lam: list[Factor] = [Factor.scalar(1.0)] * (gamma + 1)
    lam[gamma] = indicator(
        sorted(steps[gamma].border), {v: bn.card(v) for v in steps[gamma].border}, ev
    )
    for j in range(gamma, 0, -1):
        step = steps[j]
        if step.cohort:
            lam[j - 1] = contract([restrict(step.cohort_table, ev), lam[j]], steps[j - 1].border)
        else:
            lam[j - 1] = lam[j]
    return PassResult(pi, lam)


@pytest.fixture(scope="session")
def bn_a():
    return zoo.bn_a()


@pytest.fixture(scope="session")
def bn_c():
    return zoo.bn_c()


@pytest.fixture(scope="session")
def poly_b():
    return zoo.polytree_b()


@pytest.fixture(scope="session")
def bp_c(bn_c):
    bp = build_border_polytree(bn_c)
    preload_priors(bp)
    return bp


@pytest.fixture(scope="session")
def ev_hk(bn_a):
    return parse_evidence("H=h0,K=k1", bn_a)


@pytest.fixture(scope="session")
def ev_boq(bn_c):
    return parse_evidence("B=b0,O=o1,Q=q0", bn_c)


@pytest.fixture(scope="session")
def long_chain():
    """A binary chain longer than the recursion limit, evidence at both
    ends, with the reference passes' posteriors and Pr(e) as the reference."""
    n = sys.getrecursionlimit() + 200
    spec = [("v0", 2, [])] + [(f"v{i}", 2, [f"v{i - 1}"]) for i in range(1, n)]
    bn = zoo.build_network(spec, np.random.default_rng(7))
    ev = EvidenceSet(bn, {0: {1}, n - 1: {0}})
    chain = build_chain(bn)
    passes = reference_passes(chain, ev)
    posts, pe = {}, None
    for q in bn.ids:
        _, posts[q], pe = chain_posterior(chain, ev, q, passes=passes)
    return bn, ev, posts, pe


@pytest.fixture()
def rng():
    return np.random.default_rng(20240809)


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)
