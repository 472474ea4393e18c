"""Algebraic identities of the dense tensor helpers."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from fvsolid import tensors
from tests import oracles


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


def _layouts(rng, n=50):
    """Operand pairs in each layout the kernels meet: batched stacks,
    ``swapaxes`` views, a single matrix, a stack against one matrix, and
    the read-only ``broadcast_to`` identity stack."""
    a = rng.normal(size=(n, 2, 2))
    b = rng.normal(size=(n, 2, 2))
    return {
        "batched": (a, b),
        "swapaxes": (np.swapaxes(a, -1, -2), np.swapaxes(b, -1, -2)),
        "single": (a[0], b[0]),
        "broadcast": (a, b[0]),
        "identity": (np.broadcast_to(tensors.IDENTITY, (n, 2, 2)), b),
    }


LAYOUTS = ["batched", "swapaxes", "single", "broadcast", "identity"]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_mul2_matches_matmul(rng, layout):
    a, b = _layouts(rng)[layout]
    ref = np.matmul(a, b)
    out = tensors.mul2(a, b)
    assert out.shape == ref.shape
    # each route rounds two products and a sum: a few ulps of |a| |b|
    assert (np.abs(out - ref) <= 1e-15 * (np.abs(a) @ np.abs(b))).all()
    if layout == "identity":
        npt.assert_array_equal(out, b)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_matvec2_matches_matmul(rng, layout):
    a, b = _layouts(rng)[layout]
    v = b[..., 0]       # strided columns in every layout but "single"
    ref = np.einsum("...ij,...j->...i", a, v)
    out = tensors.matvec2(a, v)
    assert out.shape == ref.shape
    assert (np.abs(out - ref)
            <= 1e-15 * np.einsum("...ij,...j->...i", np.abs(a), np.abs(v))).all()
    if layout == "identity":
        npt.assert_array_equal(out, v)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_dot2_matches_einsum(rng, layout):
    """The test oracles' scalar product, which the matrix-form kernels use."""
    a, b = _layouts(rng)[layout]
    u, v = a[..., 0], b[..., 1]
    ref = np.einsum("...i,...i->...", u, v)
    out = oracles.dot2(u, v)
    assert out.shape == ref.shape
    assert (np.abs(out - ref) <= 1e-15 * np.einsum("...i,...i->...", np.abs(u), np.abs(v))).all()


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dim", [2, 3])
def test_outer_matches_einsum(rng, layout, dim):
    """Each entry is one rounded product, so the two routes agree exactly,
    for 2- and 3-vectors alike."""
    a, b = _layouts(rng)[layout]
    x, y = a[..., 0], b[..., 1]
    if dim == 3:
        x = np.concatenate([x, x[..., :1]], axis=-1)
    npt.assert_array_equal(tensors.outer(x, y), np.einsum("...i,...j->...ij", x, y))


def _batch(rng, kind, n=200):
    """Random, rotated-and-stretched, or nearly singular 2x2 stacks."""
    a = rng.normal(size=(n, 2, 2))
    if kind == "rotated":
        q, _ = np.linalg.qr(a)
        q[..., 0] *= np.sign(np.linalg.det(q))[:, None]  # proper rotations
        a = q * rng.uniform(0.5, 2.0, size=(n, 1, 2))
    elif kind == "near_singular":
        a[:, 1] = -2.0 * a[:, 0] + 1e-9 * rng.normal(size=(n, 2))
    return a


def _plane_strain(a):
    """The 3x3 plane-strain embedding diag(a, 1) of a 2x2 stack."""
    out = np.zeros(a.shape[:-2] + (3, 3))
    out[..., :2, :2] = a
    out[..., 2, 2] = 1.0
    return out


@pytest.mark.parametrize("kind", ["random", "rotated", "near_singular"])
def test_det2_matches_lapack(rng, kind):
    """det2 of a 2x2 block is LAPACK's determinant of its 3x3 plane-strain
    embedding."""
    a = _batch(rng, kind)
    # rounding in either route is a few ulps of the largest cofactor
    # product, bounded by the product of the row norms (Hadamard)
    scale = np.prod(np.linalg.norm(a, axis=-1), axis=-1)
    err = np.abs(tensors.det2(a) - np.linalg.det(_plane_strain(a)))
    assert (err <= 1e-14 * scale).all()


@pytest.mark.parametrize("kind", ["random", "rotated", "near_singular"])
def test_inv2_matches_lapack(rng, kind):
    """The test oracles' inv2 of a 2x2 block is the in-plane block of
    LAPACK's inverse of its 3x3 plane-strain embedding."""
    a = _batch(rng, kind)
    inv, det = oracles.inv2(a)
    npt.assert_array_equal(det, tensors.det2(a))
    ref = np.linalg.inv(_plane_strain(a))[:, :2, :2]
    # both routes carry a forward error of order cond(a) * eps
    cond = np.linalg.cond(a)
    err = (np.linalg.norm(inv - ref, axis=(-2, -1))
           / np.linalg.norm(ref, axis=(-2, -1)))
    assert (err <= 1e-14 * cond).all()
    if kind == "rotated":
        npt.assert_allclose(det, np.prod(np.linalg.svd(a, compute_uv=False), axis=-1),
                            rtol=1e-13)


def test_inv2_and_det2_take_a_single_matrix():
    a = np.array([[2.0, 1.0], [0.0, 3.0]])
    inv, det = oracles.inv2(a)
    assert inv.shape == (2, 2) and np.ndim(det) == 0
    npt.assert_allclose(inv @ a, np.eye(2), atol=1e-15)
    assert det == tensors.det2(a) == 6.0
