"""Small dense tensor helpers used throughout the solver.

Second-order tensors are plain numpy arrays of shape (..., 2, 2): the
in-plane block of a plane-strain tensor, whose out-of-plane row and
column are those of the identity (F) or zero (grad U).  Every routine
accepts arbitrary batch dimensions in front, broadcasts them, and reads
any layout: C-ordered stacks, strided views and read-only
``broadcast_to`` stacks, so per-cell and per-face quantities can be
processed in one call.

Layout rule, for the whole package: the stacks these routines return,
and every per-unknown, per-face and per-cell field of the correction
path, are stored component-major.  The shapes are the usual (n, 2) and
(n, 2, 2), but each component ``a[:, i]`` or ``a[:, i, j]`` is one
contiguous vector: an (n, 2) field is the transpose view of a C-ordered
(2, n) buffer, and new stacks are allocated in Fortran order.  The
per-component kernels below and the sparse operators (one single-vector
product per component, ``kinematics.apply``) then stream through
memory.  The layout affects speed only, never answers: every value is
formed by the same operations in the same order whatever the layout, so
a caller's C-ordered array gives the same values bit for bit.

Every routine is a closed form, written as elementwise operations on the
component arrays.  Batched ``@``, ``np.linalg`` and ``einsum`` treat a
face stack as many tiny matrices and pay a fixed cost per matrix, and
more again on strided views.
"""

from __future__ import annotations

import numpy as np

IDENTITY = np.eye(2)


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dyadic product a_i b_j of (batched) vectors of any length."""
    m, n = np.shape(a)[-1], np.shape(b)[-1]
    out = np.empty(np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1]) + (m, n), order="F")
    for i in range(m):
        for j in range(n):
            out[..., i, j] = a[..., i] * b[..., j]
    return out


def mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a @ b of (batched) 2x2 matrices."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), order="F")
    for i in range(2):
        for j in range(2):
            out[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    return out


def matvec2(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product a @ v of (batched) 2x2 matrices and 2-vectors."""
    out = np.empty(np.broadcast_shapes(np.shape(a)[:-1], np.shape(v)), order="F")
    for i in range(2):
        out[..., i] = a[..., i, 0] * v[..., 0] + a[..., i, 1] * v[..., 1]
    return out


def det2(a: np.ndarray) -> np.ndarray:
    """Determinant of (batched) 2x2 matrices."""
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
