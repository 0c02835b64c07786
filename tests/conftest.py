import os
import sys

import numpy as np
import pytest

from bordertree import zoo
from bordertree.border_chain import build_chain, chain_posterior, run_passes
from bordertree.bnformat import parse_evidence
from bordertree.bp_build import build_border_polytree
from bordertree.bp_infer import preload_priors
from bordertree.network import EvidenceSet

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


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
    ends, with the chain engine's posteriors and Pr(e) as the reference."""
    n = sys.getrecursionlimit() + 200
    spec = [("v0", 2, [])] + [(f"v{i}", 2, [f"v{i - 1}"]) for i in range(1, n)]
    bn = zoo.build_network(spec, np.random.default_rng(7))
    ev = EvidenceSet(bn, {0: {1}, n - 1: {0}})
    chain = build_chain(bn)
    passes = run_passes(chain, ev)
    posts, pe = {}, None
    for q in bn.ids:
        _, posts[q], pe = chain_posterior(chain, ev, q, passes=passes)
    return bn, ev, posts, pe


@pytest.fixture()
def rng():
    return np.random.default_rng(20240809)


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)
