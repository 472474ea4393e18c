"""Small dense tensor helpers used throughout the solver.

Second-order tensors are plain numpy arrays of shape (..., 3, 3); every
routine accepts arbitrary batch dimensions in front so per-cell and
per-face quantities can be processed in one call.
"""

from __future__ import annotations

import numpy as np

IDENTITY = np.eye(3)


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dyadic product a_i b_j of (batched) vectors."""
    return np.einsum("...i,...j->...ij", a, b)
