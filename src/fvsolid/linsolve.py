"""Linear solution of the assembled systems.

Every matrix is held in scalar CSC form (the coupled one with its 2x2
blocks flattened, as the assembly stores it) and solved by one path: a
sparse LU factorisation in SuperLU's symmetric mode for the structurally
symmetric stencil (diagonal pivots), one triangular solve, and a
backward-error post-check.  The one solve suffices: on the package's
systems its backward error is at roundoff (at most 2e-15 measured).  A
tiny static pivot or an exactly singular matrix fails the solve; there
is no partial-pivoting retry.

The column order is minimum degree on A+A^T, unless the caller passes the
order of an earlier factor of the same pattern: then the matrix is
already laid out in it (CSC of P A P^T, filled into
``BlockPattern.ordered(order)``) and SuperLU keeps it (``NATURAL``), so a
run of corrections analyses its pattern once.  The right-hand side is
permuted in and the solution out; the post-check's norms do not depend on
the order.  Every 2-norm, the post-check's and the one that measures
the solver's residual, is ``norm2``: BLAS's ``nrm2``, which neither
overflows nor underflows and passes NaN and inf through.

SuperLU factorises in panels of ``PANEL_SIZE`` = 4 columns, a measured
width: scipy's default of 20 is sized for larger fronts than these 2-D
systems have.  ``relax`` stays at SuperLU's default of 10; neither
setting is raised above scipy's defaults, as relax 50 with panels of 40
corrupted the heap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dnrm2

# Normwise backward error above which a solution is rejected.
BACKWARD_ERROR_BOUND = 1e-9
# Columns per SuperLU panel (scipy's default is 20), see the module notes.
PANEL_SIZE = 4


class LinearSolveError(RuntimeError):
    """A failed factorisation, or a solution that fails the post-check."""


@dataclass
class LinearSolution:
    x: np.ndarray
    residual: float                 # achieved normwise backward error
    order: np.ndarray | None = None  # the factor's column order (perm_c)


def equilibrate(matrix: sp.spmatrix):
    """Max-abs row scaling: returns the scaled CSC matrix and the scale vector.

    Brings boundary rows (unit or stress scale) and interior rows (force
    scale) to comparable size; the solution of (S A) x = S b is unchanged
    but factorisation noise stops being dominated by the largest rows.
    """
    row_max = np.abs(matrix).max(axis=1).toarray().ravel()
    row_max[row_max == 0.0] = 1.0
    scale = 1.0 / row_max
    return (sp.diags(scale) @ matrix).tocsc(), scale


def factorise(matrix: sp.csc_matrix, ordered: bool = False):
    """Symmetric-mode sparse LU with diagonal pivots of a CSC matrix:
    minimum degree on A+A^T, or with ``ordered`` its own column order.

    Panels of ``PANEL_SIZE`` columns; ``relax`` keeps SuperLU's default."""
    return spla.splu(matrix, permc_spec="NATURAL" if ordered else "MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, panel_size=PANEL_SIZE,
                     options=dict(SymmetricMode=True))


def norm2(values: np.ndarray) -> float:
    """The 2-norm of an array of any shape, summed in C order: BLAS's
    ``nrm2``, without overflow or underflow; NaN and inf pass through."""
    return float(dnrm2(np.ravel(values)))


def _norm_inf(matrix: sp.csc_matrix) -> float:
    """||A||_inf, the largest absolute row sum: a bincount of the stored
    data over the CSC row indices."""
    return float(np.bincount(matrix.indices, np.abs(matrix.data)).max())


def solve(matrix: sp.spmatrix, rhs: np.ndarray,
          order: np.ndarray | None = None) -> LinearSolution:
    """Solve A x = rhs, returning x, its backward error and the factor's
    column order.  ``matrix`` is taken to CSC (the assembly's form).  Given
    ``order``, it is the CSC form of P A P^T in that order (entry
    (order[i], order[j]) is A's (i, j)); rhs and x keep A's order."""
    matrix = matrix.tocsc()
    rhs = np.asarray(rhs, dtype=float).ravel()
    norm_rhs = norm2(rhs)
    if norm_rhs == 0.0:
        return LinearSolution(np.zeros_like(rhs), 0.0, order)
    if order is not None:
        permuted = np.empty_like(rhs)
        permuted[order] = rhs
        rhs = permuted

    try:
        lu = factorise(matrix, order is not None)
    except RuntimeError as err:     # SuperLU: "Factor is exactly singular"
        raise LinearSolveError(f"LU factorisation failed: {err}") from None
    x = lu.solve(rhs)

    # Backward-error post-check: robust to the mixed row scales of the
    # assembled systems, tight for any honestly solved one.  Written so
    # that a NaN backward error fails it.
    backward = norm2(matrix @ x - rhs) / (_norm_inf(matrix) * norm2(x) + norm_rhs)
    if not backward <= BACKWARD_ERROR_BOUND:
        raise LinearSolveError(f"direct post-check failed: backward error {backward:.3e}")
    if order is None:
        # A copy: perm_c is a view that keeps the whole factor alive.
        return LinearSolution(x, backward, lu.perm_c.copy())
    return LinearSolution(x[order], backward, order)


def dump_system(directory, matrix: sp.spmatrix, rhs: np.ndarray) -> None:
    """Write the system in Matrix Market form (A.mtx, R.mtx) for inspection,
    every stored entry included, explicit zeros too."""
    scipy.io.mmwrite(os.path.join(directory, "A.mtx"), matrix.tocoo())
    scipy.io.mmwrite(os.path.join(directory, "R.mtx"),
                     np.asarray(rhs, dtype=float).reshape(-1, 1))
