"""Seeded generators: termination and their caps."""

import numpy as np
import pytest

from bordertree.randgen import random_dag


def test_random_dag_over_state_space_cap_raises():
    with pytest.raises(ValueError, match="state-space cap"):
        random_dag(np.random.default_rng(0), 21, 21)


def test_random_dag_at_state_space_cap_fits():
    bn = random_dag(np.random.default_rng(0), 20, 20)
    assert len(bn) == 20
    assert np.prod([bn.card(v) for v in bn.ids]) <= 2**20
