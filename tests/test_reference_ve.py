"""The variable-elimination reference: against the oracle where the joint
can be enumerated, then as the judge of both engines on a grid too wide
for the oracle."""

import os

import numpy as np
import pytest
from conftest import FIXTURES, chain_ab, dyspnoea_shaped, random_evidence, reference_ve

from bordertree.bnformat import parse_evidence, parse_network
from bordertree.border_chain import build_chain, chain_posterior, run_passes
from bordertree.bp_build import build_border_polytree
from bordertree.bp_infer import bp_query, preload_priors
from bordertree.network import EvidenceSet
from bordertree.oracle import oracle_event_prob, oracle_posterior


# The oracle's test networks, each with its evidence: the fixtures' own
# evidence, none, and two soft sets drawn by ``random_evidence``.  bn_c's
# joint has 2^24 entries, so it takes its own evidence only.
_ORACLE_CASES = [
    ("chain_ab", None),
    ("chain_ab", "B=b0"),
    ("bn_a", None),
    ("bn_a", "H=h0,K=k1"),
    ("bn_a", 1),
    ("bn_a", 2),
    ("bn_c", "B=b0,O=o1,Q=q0"),
    ("poly_b", "B=b0,C=c1,K=k0,L4=l40"),
    ("poly_b", 1),
    ("dyspnoea", None),
    ("dyspnoea", 1),
    ("dyspnoea", 2),
]


@pytest.mark.parametrize("name, evidence", _ORACLE_CASES)
def test_matches_the_oracle(request, name, evidence):
    if name == "chain_ab":
        bn = chain_ab()
    elif name == "dyspnoea":
        bn = dyspnoea_shaped()
    else:
        bn = request.getfixturevalue(name)  # shares the oracle's cached joint
    if evidence is None:
        ev = EvidenceSet(bn)
    elif isinstance(evidence, str):
        ev = parse_evidence(evidence, bn)
    else:
        ev = random_evidence(np.random.default_rng(50 + evidence), bn, max_vars=4)
    want_pe = oracle_event_prob(bn, ev)
    if want_pe == 0.0:
        with pytest.raises(ValueError):
            reference_ve(bn, ev, bn.ids)
        return
    posts, log_pe = reference_ve(bn, ev, bn.ids)
    assert np.exp(log_pe) == pytest.approx(want_pe, rel=1e-12)
    for q in bn.ids:
        np.testing.assert_allclose(posts[q], oracle_posterior(bn, ev, q), rtol=0.0, atol=1e-12)


def test_judges_both_engines_on_a_wide_grid():
    # One 10x10 card-3 grid and one evidence set, drawn as the benchmark's
    # grid-wide workload draws its first (seed 1): its tables reach 3^10
    # entries, past the route floor, and 3^100 joint entries are far past
    # the oracle's.  Queries: the four corners and the centre.
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(FIXTURES, "..", "perfbench", "gen.py")
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng, layout = np.random.default_rng(1), np.random.default_rng(gen.LAYOUT_SEED)
    text = gen.grid_text(rng, 10, 10, 3)
    bn = parse_network(text)
    ev = parse_evidence(gen.evidence_text(layout, rng, gen.network_cards(text), 5), bn)
    queries = [0, 9, 45, 90, 99]
    want, log_pe = reference_ve(bn, ev, queries)

    bp = build_border_polytree(bn)
    preload_priors(bp)
    posts, pe = bp_query(bp, ev, queries)
    chain = build_chain(bn)
    passes = run_passes(chain, ev)
    rows = {q: chain_posterior(chain, ev, q, passes=passes) for q in queries}
    for got, got_pe in ((posts, pe), ({q: r[1] for q, r in rows.items()}, rows[0][2])):
        assert got_pe == pytest.approx(np.exp(log_pe), rel=1e-9)
        for q in queries:
            np.testing.assert_allclose(got[q].values, want[q], rtol=0.0, atol=1e-9)
