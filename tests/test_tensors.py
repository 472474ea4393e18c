"""Algebraic identities of the dense tensor helpers."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt

from fvsolid import tensors


def test_outer_product_components(rng):
    a = rng.normal(size=3)
    b = rng.normal(size=3)
    expected = np.array([[a[i] * b[j] for j in range(3)] for i in range(3)])
    npt.assert_allclose(tensors.outer(a, b), expected)


def test_outer_batched_shape(rng):
    a = rng.normal(size=(5, 3))
    b = rng.normal(size=(5, 3))
    out = tensors.outer(a, b)
    assert out.shape == (5, 3, 3)
    npt.assert_allclose(out[2], np.outer(a[2], b[2]))
