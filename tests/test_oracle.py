"""The enumeration oracle itself: forced arithmetic and self-consistency."""

import numpy as np
import pytest

from bordertree.errors import EnumerationCapError, ImpossibleEvidenceError
from bordertree.factor import marginal_to, multiply, sum_out
from bordertree.network import EvidenceSet
from bordertree.oracle import (
    joint,
    oracle_event_prob,
    oracle_marginal,
    oracle_posterior,
    restricted_joint,
)
from bordertree import zoo

from conftest import chain_ab


def test_single_root_joint_is_its_cpt():
    bn = zoo.build_network([("A", 3, [])], cpts={"A": np.array([0.2, 0.3, 0.5])})
    np.testing.assert_allclose(joint(bn), [0.2, 0.3, 0.5])


def test_two_node_chain_joint():
    bn = chain_ab()
    np.testing.assert_allclose(
        joint(bn), [[0.2, 0.2], [0.06, 0.54]], atol=1e-15
    )


def test_joint_sums_to_one(bn_a):
    assert joint(bn_a).sum() == pytest.approx(1.0, abs=1e-9)


def test_joint_consistent_with_factor_marginals(bn_a):
    # Summing the complement of each CPT family reproduces the same marginal
    # the factor algebra computes from the product of all CPTs.
    table = joint(bn_a)
    full = bn_a.cpts[0]
    for v in list(bn_a.ids)[1:]:
        full = multiply(full, bn_a.cpts[v])
    for v in bn_a.ids:
        keep = {v, *bn_a.parents[v]}
        axes = tuple(u for u in bn_a.ids if u not in keep)
        np.testing.assert_allclose(
            table.sum(axis=axes),
            marginal_to(full, keep).values,
            atol=1e-12,
        )


class TestEventProb:
    def test_empty_evidence(self, bn_a):
        assert oracle_event_prob(bn_a, EvidenceSet(bn_a)) == pytest.approx(1.0, abs=1e-9)

    def test_full_hard_assignment_is_single_entry(self, bn_a):
        assign = {v: v % bn_a.card(v) for v in bn_a.ids}
        ev = EvidenceSet(bn_a, {v: {k} for v, k in assign.items()})
        got = oracle_event_prob(bn_a, ev)
        want = joint(bn_a)[tuple(assign[v] for v in bn_a.ids)]
        assert got == pytest.approx(want, abs=1e-15)

    def test_two_reductions_agree(self, bn_a, ev_hk):
        # restrict-then-sum on the factor product vs the masked grid.
        full = bn_a.cpts[0]
        for v in list(bn_a.ids)[1:]:
            full = multiply(full, bn_a.cpts[v])
        from bordertree.factor import restrict

        alt = sum_out(restrict(full, ev_hk), set(bn_a.ids)).values
        assert oracle_event_prob(bn_a, ev_hk) == pytest.approx(float(alt), abs=1e-12)
        assert oracle_event_prob(bn_a, ev_hk) > 0


class TestPosterior:
    def test_empty_evidence_gives_prior(self, bn_a):
        ev = EvidenceSet(bn_a)
        for q in bn_a.ids:
            np.testing.assert_allclose(
                oracle_posterior(bn_a, ev, q),
                oracle_marginal(bn_a, [q]),
                atol=1e-12,
            )

    def test_hard_evidence_on_query_is_point_mass(self, bn_a):
        h = bn_a.id_of("H")
        ev = EvidenceSet(bn_a, {h: {1}})
        np.testing.assert_allclose(oracle_posterior(bn_a, ev, h), [0.0, 1.0], atol=1e-12)

    def test_posterior_sums_to_one(self, bn_a, ev_hk):
        for q in bn_a.ids:
            assert oracle_posterior(bn_a, ev_hk, q).sum() == pytest.approx(1.0, abs=1e-12)

    def test_impossible_evidence(self):
        bn = zoo.build_network(
            [("A", 2, []), ("B", 2, ["A"])],
            cpts={"A": np.array([1.0, 0.0]), "B": np.array([[1.0, 0.0], [0.5, 0.5]])},
        )
        ev = EvidenceSet(bn, {bn.id_of("B"): {1}})
        with pytest.raises(ImpossibleEvidenceError):
            oracle_posterior(bn, ev, bn.id_of("A"))


def test_cap_enforced():
    spec = [(f"v{i}", 4, []) for i in range(13)]
    bn = zoo.build_network(spec)
    with pytest.raises(EnumerationCapError):
        joint(bn)  # 4**13 > 2**24
    with pytest.raises(EnumerationCapError):
        restricted_joint(bn, EvidenceSet(bn))
