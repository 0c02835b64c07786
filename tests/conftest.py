import os
import sys

import numpy as np
import pytest

from bordertree import zoo
from bordertree.border_chain import ChainStep, PassResult, build_chain, chain_posterior
from bordertree.bnformat import parse_evidence, parse_network
from bordertree.bp_build import (
    _rule_for_forced,
    build_border_polytree,
    choose_next,
    cohort_table,
    initial_border,
    next_border,
)
from bordertree.bp_infer import preload_priors
from bordertree.errors import BordertreeError
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


def reference_chain(bn, forced_order=None) -> list[ChainStep]:
    """The chain's own promotion loop, as it ran before a chain became
    stage II on one macro-node, kept as a reference for
    :func:`bordertree.border_chain.build_chain`; returns the steps.

    ``forced_order`` replays a specific promotion sequence: entry 0 must be
    None (the initial fictitious step) and later entries name the promoted
    variable of each step.
    """
    b0 = initial_border(bn)
    phi0 = contract([bn.cpts[v] for v in sorted(b0)], b0)
    steps = [ChainStep(0, None, frozenset(b0), frozenset(b0), phi0, None)]
    border = frozenset(b0)
    bottom = frozenset(bn.ids) - border

    if forced_order is not None:
        if not forced_order or forced_order[0] is not None:
            raise BordertreeError("forced order must start with the fictitious step")

    j = 0
    while bottom:
        j += 1
        if forced_order is not None:
            if j >= len(forced_order):
                raise BordertreeError("forced order ended before the chain completed")
            promoted = forced_order[j]
            if promoted is None:
                raise BordertreeError("fictitious steps beyond step 0 are not replayable")
            cohort, rule = _rule_for_forced(bn, border, bottom, promoted)
        else:
            promoted, cohort, rule = choose_next(bn, border, bottom)
        table = cohort_table(bn, cohort, border)
        border = next_border(border, promoted, cohort)
        bottom = bottom - cohort
        steps.append(ChainStep(j, promoted, cohort, border, table, rule))
    if forced_order is not None and j + 1 != len(forced_order):
        raise BordertreeError("forced order longer than the completed chain")
    return steps


def d_separated(bn, x: int, observed) -> bool:
    """Is ``x`` d-separated from every variable in ``observed`` given
    nothing?  The moralization test of Lauritzen et al. (1990): take
    {x} ∪ observed and all their ancestors, marry the parents of each node
    there and drop directions; x is d-separated when no observed variable
    is connected to it in that graph.  Kept apart from the
    engines' ancestor walk, as a reference for it."""
    ancestral = {x, *observed}
    todo = list(ancestral)
    while todo:
        for p in bn.parents[todo.pop()]:
            if p not in ancestral:
                ancestral.add(p)
                todo.append(p)
    moral = {v: set() for v in ancestral}
    for v in ancestral:
        ps = bn.parents[v]
        for i, p in enumerate(ps):
            moral[v].add(p)
            moral[p].add(v)
            for q in ps[i + 1 :]:
                moral[p].add(q)
                moral[q].add(p)
    reached = {x}
    todo = [x]
    while todo:
        for u in moral[todo.pop()]:
            if u not in reached:
                reached.add(u)
                todo.append(u)
    return reached.isdisjoint(observed)


def load_fixture(name: str):
    """The network in ``fixtures/<name>.bn``."""
    with open(fixture_path(f"{name}.bn"), encoding="utf-8") as fh:
        return parse_network(fh.read())


def dyspnoea_shaped(seed: int = 17):
    """The classic eight-node chest-clinic shape with random tables."""
    spec = [
        ("visit", 2, []),
        ("smoking", 2, []),
        ("tub", 2, ["visit"]),
        ("lung", 2, ["smoking"]),
        ("bronc", 2, ["smoking"]),
        ("either", 2, ["tub", "lung"]),
        ("xray", 2, ["either"]),
        ("dysp", 2, ["either", "bronc"]),
    ]
    return zoo.build_network(spec, np.random.default_rng(seed))


def chain_ab():
    """Two-node chain with pinned numbers, handy for arithmetic checks."""
    return zoo.build_network(
        [("A", 2, []), ("B", 2, ["A"])],
        cpts={"A": np.array([0.4, 0.6]), "B": np.array([[0.5, 0.5], [0.1, 0.9]])},
    )


@pytest.fixture(scope="session")
def bn_a():
    return load_fixture("bn_a")


@pytest.fixture(scope="session")
def bn_c():
    return load_fixture("bn_c")


@pytest.fixture(scope="session")
def poly_b():
    return load_fixture("polytree_b")


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
