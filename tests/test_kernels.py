"""The numpy table kernels behind ``factor.multiply`` and ``factor.sum_out``."""

import numpy as np
import pytest

from bordertree import KERNEL_BACKEND, kernels


def test_backend_is_numpy():
    assert kernels.BACKEND == KERNEL_BACKEND == "numpy"


def test_sum_axes_matches_numpy():
    rng = np.random.default_rng(8)
    for _ in range(300):
        ndim = int(rng.integers(1, 5))
        shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
        v = rng.uniform(size=shape)
        k = int(rng.integers(0, ndim + 1))
        axes = tuple(sorted(rng.choice(ndim, size=k, replace=False)))
        expect = v.sum(axis=axes) if axes else v
        np.testing.assert_allclose(kernels.sum_axes(v, axes), expect, atol=1e-13)


def test_product_matches_nested_loop():
    """Entrywise oracle: plain nested loops over the union assignment."""
    rng = np.random.default_rng(9)
    a = rng.uniform(size=(2, 3))
    b = rng.uniform(size=(3, 4))
    out = kernels.product(a, (0, 1), b, (1, 2), (2, 3, 4))
    for i in range(2):
        for j in range(3):
            for k in range(4):
                assert out[i, j, k] == pytest.approx(a[i, j] * b[j, k], abs=1e-15)
