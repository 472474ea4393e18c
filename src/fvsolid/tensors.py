"""Small dense tensor helpers used throughout the solver.

Second-order tensors are plain numpy arrays of shape (..., 2, 2): the
in-plane block of a plane-strain tensor, whose out-of-plane row and
column are those of the identity (F) or zero (grad U).  Every routine
accepts arbitrary batch dimensions in front, broadcasts them, and reads
strided views (``swapaxes``) and read-only ``broadcast_to`` stacks, so
per-cell and per-face quantities can be processed in one call.

Every routine is a closed form, written as elementwise operations on the
component arrays.  Batched ``@``, ``np.linalg`` and ``einsum`` treat a
face stack as many tiny matrices and pay a fixed cost per matrix, and
more again on strided views; on the stacks the residual path evaluates
the closed forms are several times faster.
"""

from __future__ import annotations

import numpy as np

IDENTITY = np.eye(2)


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dyadic product a_i b_j of (batched) vectors of any length."""
    m, n = np.shape(a)[-1], np.shape(b)[-1]
    out = np.empty(np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1]) + (m, n))
    for i in range(m):
        for j in range(n):
            out[..., i, j] = a[..., i] * b[..., j]
    return out


def dot2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar product a.b of (batched) 2-vectors."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a @ b of (batched) 2x2 matrices."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)))
    for i in range(2):
        for j in range(2):
            out[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    return out


def matvec2(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product a @ v of (batched) 2x2 matrices and 2-vectors."""
    out = np.empty(np.broadcast_shapes(np.shape(a)[:-1], np.shape(v)))
    for i in range(2):
        out[..., i] = a[..., i, 0] * v[..., 0] + a[..., i, 1] * v[..., 1]
    return out


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
