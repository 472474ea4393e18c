"""Small dense tensor helpers used throughout the solver.

Second-order tensors are plain numpy arrays of shape (..., 2, 2): the
in-plane block of a plane-strain tensor, whose out-of-plane row and
column are those of the identity (F) or zero (grad U).  Every routine
accepts arbitrary batch dimensions in front so per-cell and per-face
quantities can be processed in one call.

``det2`` and ``inv2`` are closed forms, written as elementwise operations
on the four component arrays: for the large stacks of matrices the
residual path evaluates, they are several times faster than the batched
LAPACK calls behind ``np.linalg.det`` and ``np.linalg.inv``, which pay a
fixed cost per matrix.
"""

from __future__ import annotations

import numpy as np

IDENTITY = np.eye(2)


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dyadic product a_i b_j of (batched) vectors."""
    return np.einsum("...i,...j->...ij", a, b)


def det2(a: np.ndarray) -> np.ndarray:
    """Determinant of (batched) 2x2 matrices."""
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def inv2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse and determinant of (batched) 2x2 matrices.

    The inverse is the adjugate times the reciprocal determinant; the
    determinant comes back too, so callers that also need it (for ln J,
    say) do not compute it twice.
    """
    det = det2(a)
    r = 1.0 / det
    inv = np.empty(np.shape(a))
    inv[..., 0, 0] = a[..., 1, 1] * r
    inv[..., 1, 0] = -a[..., 1, 0] * r
    inv[..., 0, 1] = -a[..., 0, 1] * r
    inv[..., 1, 1] = a[..., 0, 0] * r
    return inv, det
