"""Numpy table kernels: a pairwise product and an axis sum.

``product`` multiplies two aligned row-major float64 tables onto their union
shape and ``sum_axes`` marginalizes a set of axes.  Nothing in the package
calls them: every table goes through ``factor._contract``, and
``factor.multiply``/``factor.sum_out`` are short forms of its checked form
``factor.contract``.  The module
stays because the benchmark harness binds it: ``perfbench/spans.py`` wraps
``product`` and ``sum_axes`` (their counts read 0 on a working build), and
``perfbench/run.py`` records ``bordertree.KERNEL_BACKEND``, which is
``BACKEND``.  It goes with the next change to the benchmark's bindings.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def _expand(values: np.ndarray, axes: tuple[int, ...], ndim: int) -> np.ndarray:
    """View ``values`` with singleton dims inserted so axis i maps to axes[i]."""
    shape = [1] * ndim
    for k, ax in enumerate(axes):
        shape[ax] = values.shape[k]
    return values.reshape(shape)


def product(
    a: np.ndarray,
    a_axes: tuple[int, ...],
    b: np.ndarray,
    b_axes: tuple[int, ...],
    out_shape: tuple[int, ...],
) -> np.ndarray:
    ndim = len(out_shape)
    av = _expand(a, a_axes, ndim)
    bv = _expand(b, b_axes, ndim)
    out = av * bv
    if out.shape != out_shape:
        out = np.broadcast_to(out, out_shape).copy()
    return out


def sum_axes(values: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    if not axes:
        return values.copy()
    return values.sum(axis=axes)
