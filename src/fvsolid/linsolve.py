"""Linear solution of the assembled systems.

The coupled matrix is held in scalar CSR form (2x2 blocks flattened) and
solved by one path: a sparse LU factorisation in SuperLU's symmetric mode
for the structurally symmetric stencil (minimum degree on A+A^T, diagonal
pivots), one round of iterative refinement, and a backward-error
post-check.  A tiny static pivot or an exactly singular matrix fails the
solve; there is no partial-pivoting retry.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Normwise backward error above which a solution is rejected.
BACKWARD_ERROR_BOUND = 1e-9


class LinearSolveError(RuntimeError):
    """A failed factorisation, or a solution that fails the post-check."""


@dataclass
class LinearSolution:
    x: np.ndarray
    residual: float                 # achieved normwise backward error


def equilibrate(matrix: sp.csr_matrix):
    """Max-abs row scaling: returns the scaled matrix and the scale vector.

    Brings boundary rows (unit or stress scale) and interior rows (force
    scale) to comparable size; the solution of (S A) x = S b is unchanged
    but factorisation noise stops being dominated by the largest rows.
    """
    row_max = np.abs(matrix).max(axis=1).toarray().ravel()
    row_max[row_max == 0.0] = 1.0
    scale = 1.0 / row_max
    return sp.diags(scale) @ matrix, scale


def factorise(matrix: sp.spmatrix):
    """Symmetric-mode sparse LU: minimum degree on A+A^T, diagonal pivots."""
    return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


def _solve_direct(matrix: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    try:
        lu = factorise(matrix)
    except RuntimeError as err:     # SuperLU: "Factor is exactly singular"
        raise LinearSolveError(f"LU factorisation failed: {err}") from None
    x = lu.solve(rhs)
    # One round of iterative refinement for ill-conditioned systems
    # (thin-beam meshes, mixed row scales).
    x += lu.solve(rhs - matrix @ x)
    return x


def _norm_inf(matrix: sp.csr_matrix) -> float:
    """||A||_inf, the largest absolute row sum, from the CSR data.  Every
    row of a factorised matrix stores at least one entry, which the
    segment sums need."""
    return float(np.add.reduceat(np.abs(matrix.data), matrix.indptr[:-1]).max())


def solve(matrix: sp.csr_matrix, rhs: np.ndarray) -> LinearSolution:
    """Solve A x = rhs, returning x and its backward error."""
    rhs = np.asarray(rhs, dtype=float).ravel()
    norm_rhs = np.linalg.norm(rhs)
    if norm_rhs == 0.0:
        return LinearSolution(np.zeros_like(rhs), 0.0)

    x = _solve_direct(matrix, rhs)

    # Backward-error post-check: robust to the mixed row scales of the
    # assembled systems, tight for any honestly solved one.  Written so
    # that a NaN backward error fails it.
    backward = float(np.linalg.norm(matrix @ x - rhs)
                     / (_norm_inf(matrix) * np.linalg.norm(x) + norm_rhs))
    if not backward <= BACKWARD_ERROR_BOUND:
        raise LinearSolveError(f"direct post-check failed: backward error {backward:.3e}")
    return LinearSolution(x, backward)


def dump_system(directory, matrix: sp.csr_matrix, rhs: np.ndarray) -> None:
    """Write the system in Matrix Market form (A.mtx, R.mtx) for inspection."""
    scipy.io.mmwrite(os.path.join(directory, "A.mtx"), matrix.tocoo())
    scipy.io.mmwrite(os.path.join(directory, "R.mtx"),
                     np.asarray(rhs, dtype=float).reshape(-1, 1))
