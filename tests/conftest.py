import operator
import os
import sys

import numpy as np
import pytest

from bordertree import factor as factor_mod
from bordertree import zoo
from bordertree.border_chain import ChainStep, build_chain
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
from bordertree.factor import Factor, contract, indicator, normalize, restrict
from bordertree.network import NO_EVIDENCE, BayesianNetwork, EvidenceSet, reach

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def reference_passes(chain, ev=NO_EVIDENCE) -> tuple[list[Factor], list[Factor]]:
    """The chain's two evidential passes as plain loops over the steps, kept
    as a reference independent of the session machinery that
    :func:`bordertree.border_chain.run_passes` returns; ``(pi, lam)``, one
    factor per border in each list.

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
    return pi, lam


def reference_readout(chain, pi, lam, q: int) -> tuple[Factor, float]:
    """(posterior of q, Pr(e)) from passes ``pi`` and ``lam``: their product
    at q's first home border, marginalized onto q and normalized, kept as a
    reference independent of the session's read-out, which reads q at its
    border of the read cover."""
    j = chain.view.variable_home[q][0]
    return normalize(contract([pi[j], lam[j]], (q,)))


def reference_ve(bn: BayesianNetwork, ev, queries) -> tuple[dict[int, np.ndarray], float]:
    """Posteriors of ``queries`` and Pr(e) by variable elimination, kept as
    a reference independent of the engines and of :mod:`bordertree.factor`:
    it reads the parsed network's tables and runs on plain numpy arrays.

    Each query runs one elimination.  Variables that are neither ancestors
    of the query nor of the evidence sum out to 1 and are dropped first.
    The rest are eliminated one at a time in a greedy min-fill order (fewest
    fill-in edges, then the smallest id).  Tables are kept as logarithms, so
    no product underflows: a product is a sum, and summing a variable out
    is ``np.logaddexp`` over its values.  Returns ``({q: posterior},
    log Pr(e))`` and raises ValueError on evidence of probability 0.
    """
    posts, log_pe = {}, 0.0
    for q in queries:
        relevant, todo = set(), [q, *ev.vars]
        while todo:
            v = todo.pop()
            if v not in relevant:
                relevant.add(v)
                todo.extend(bn.parents[v])
        tables = []
        with np.errstate(divide="ignore"):
            for v in sorted(relevant):
                tables.append((bn.cpts[v].scope, np.log(bn.cpts[v].values)))
                allowed = ev.allowed(v)
                if allowed is not None:
                    tables.append(((v,), np.log([float(k in allowed) for k in range(bn.card(v))])))
        nbrs = {v: set() for v in relevant}
        for scope, _ in tables:
            for v in scope:
                nbrs[v].update(scope)
                nbrs[v].discard(v)
        left = set(relevant) - {q}
        while left:
            x = min(left, key=lambda v: (_fill_in(nbrs, v), v))
            for u in nbrs[x]:
                nbrs[u] |= nbrs[x] - {u}
                nbrs[u].discard(x)
            left.remove(x)
            del nbrs[x]
            hit = [t for t in tables if x in t[0]]
            tables = [t for t in tables if x not in t[0]] + [_log_sum_out(hit, x)]
        total = sum(t for _, t in tables)  # every table left is over (q,)
        log_pe = float(np.logaddexp.reduce(total))
        if log_pe == -np.inf:
            raise ValueError("evidence has probability 0")
        posts[q] = np.exp(total - log_pe)
    return posts, log_pe


def _fill_in(nbrs: dict[int, set[int]], v: int) -> int:
    """Edges that eliminating ``v`` would add between its neighbours."""
    ns = sorted(nbrs[v])
    return sum(1 for i, a in enumerate(ns) for b in ns[i + 1 :] if b not in nbrs[a])


def _log_sum_out(tables, x: int):
    """(scope, log-table) of the sum over ``x`` of the product of
    ``tables``, each a (ascending scope, log-table) pair that holds ``x``."""
    cards = {v: c for scope, t in tables for v, c in zip(scope, t.shape)}
    scope = tuple(sorted(cards.keys() - {x}))
    out = None
    for k in range(cards[x]):
        term = np.zeros([cards[v] for v in scope])
        for s, t in tables:
            term += np.take(t, k, axis=s.index(x)).reshape([cards[v] if v in s else 1 for v in scope])
        out = term if out is None else np.logaddexp(out, term, out=out)
    return scope, out


def descendants(bn: BayesianNetwork, var: int) -> frozenset[int]:
    return frozenset(reach((var,), bn.children))


def random_evidence(
    rng: np.random.Generator,
    bn: BayesianNetwork,
    max_vars: int = 3,
    allow_soft: bool = True,
) -> EvidenceSet:
    """Evidence on up to ``max_vars`` variables, mixing hard single values
    with soft proper subsets."""
    k = int(rng.integers(1, max_vars + 1))
    chosen = rng.choice(len(bn), size=min(k, len(bn)), replace=False)
    ev = EvidenceSet(bn)
    for var in sorted(int(v) for v in chosen):
        card = bn.card(var)
        if allow_soft and card > 2 and rng.random() < 0.5:
            size = int(rng.integers(2, card))
        else:
            size = 1
        vals = rng.choice(card, size=size, replace=False)
        ev.set(var, {int(x) for x in vals})
    return ev


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


def check_computed(scope, cards, vals) -> None:
    """``Factor(...)``'s full check of a table that ``factor._computed``
    takes without it: an ascending tuple scope, plain-int cards, a
    C-contiguous float64 table of that shape (the strided route reads
    operands as raw buffers) and finite, non-negative entries.  CI's grid7
    step imports it from here too."""
    assert type(scope) is tuple and all(map(operator.lt, scope, scope[1:])), scope
    assert type(cards) is tuple and all(type(c) is int for c in cards), cards
    assert vals.shape == cards, (vals.shape, cards)
    assert vals.dtype == np.float64 and vals.flags.c_contiguous, vals.flags
    factor_mod._check_entries(vals)


@pytest.fixture(autouse=True)
def checked_tables(monkeypatch):
    """Every table the factor algebra computes gets ``check_computed`` in
    every test: the program builds those tables with ``factor._computed``,
    which skips ``Factor(...)``'s check, and looks that function up at call
    time, so this wrapper sees each one."""
    computed = factor_mod._computed

    def checked(scope, cards, vals):
        check_computed(scope, cards, vals)
        return computed(scope, cards, vals)

    monkeypatch.setattr(factor_mod, "_computed", checked)


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
    pi, lam = reference_passes(chain, ev)
    posts, pe = {}, None
    for q in bn.ids:
        posts[q], pe = reference_readout(chain, pi, lam, q)
    return bn, ev, posts, pe


@pytest.fixture()
def rng():
    return np.random.default_rng(20240809)


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)
