"""Small dense tensor helpers used throughout the solver.

Second-order tensors are plain numpy arrays of shape (..., 3, 3); every
routine accepts arbitrary batch dimensions in front so per-cell and
per-face quantities can be processed in one call.

``det3`` and ``inv3`` are closed forms by cofactors, written as
elementwise operations on the nine component arrays: for the large
stacks of 3x3 matrices the residual path evaluates, they are several
times faster than the batched LAPACK calls behind ``np.linalg.det`` and
``np.linalg.inv``, which pay a fixed cost per matrix.
"""

from __future__ import annotations

import numpy as np

IDENTITY = np.eye(3)


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dyadic product a_i b_j of (batched) vectors."""
    return np.einsum("...i,...j->...ij", a, b)


def det3(a: np.ndarray) -> np.ndarray:
    """Determinant of (batched) 3x3 matrices, expanded along the first row."""
    return (a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
            + a[..., 0, 1] * (a[..., 1, 2] * a[..., 2, 0] - a[..., 1, 0] * a[..., 2, 2])
            + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0]))


def inv3(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse and determinant of (batched) 3x3 matrices.

    The inverse is the transposed cofactor matrix over the determinant;
    the determinant comes back too, so callers that also need it (for
    ln J, say) do not compute it twice.
    """
    a00, a01, a02 = a[..., 0, 0], a[..., 0, 1], a[..., 0, 2]
    a10, a11, a12 = a[..., 1, 0], a[..., 1, 1], a[..., 1, 2]
    a20, a21, a22 = a[..., 2, 0], a[..., 2, 1], a[..., 2, 2]
    c00 = a11 * a22 - a12 * a21
    c01 = a12 * a20 - a10 * a22
    c02 = a10 * a21 - a11 * a20
    det = a00 * c00 + a01 * c01 + a02 * c02
    r = 1.0 / det
    inv = np.empty(np.shape(a))
    inv[..., 0, 0] = c00 * r
    inv[..., 1, 0] = c01 * r
    inv[..., 2, 0] = c02 * r
    inv[..., 0, 1] = (a02 * a21 - a01 * a22) * r
    inv[..., 1, 1] = (a00 * a22 - a02 * a20) * r
    inv[..., 2, 1] = (a01 * a20 - a00 * a21) * r
    inv[..., 0, 2] = (a01 * a12 - a02 * a11) * r
    inv[..., 1, 2] = (a02 * a10 - a00 * a12) * r
    inv[..., 2, 2] = (a00 * a11 - a01 * a10) * r
    return inv, det
