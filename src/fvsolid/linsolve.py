"""Linear solution of the assembled systems.

The coupled matrix is held in scalar CSC form (its 2x2 blocks flattened,
as the assembly stores it) and solved with a sparse LU factor from
SuperLU's symmetric mode for the structurally symmetric stencil
(diagonal pivots).  A fresh factor makes one triangular solve,
and a backward-error post-check guards it.  The one solve suffices: on
the package's systems its backward error is at roundoff (at most 2e-15
measured).  A tiny static pivot or an exactly singular matrix fails the
solve; there is no partial-pivoting retry.

A coupled run keeps its latest factor F (``KeptFactor``) and solves each
later correction's exact system by stationary iterative refinement,
x <- x + F^-1 (b - A x) from x = 0: successive Newton matrices of a run
differ little, so F is a strong preconditioner (Kelley 2003, the chord
and Shamanskii methods), and refinement reaches a direct solve's
backward error (Higham 2002, ch. 12).  It is accepted at a backward
error of at most ``REFINE_BOUND`` = 1e-14.  An attempt makes at most
``REFINE_SOLVES`` = 8 triangular solves and stops as soon as it
contracts too slowly: once its backward error does not fall, or the
last step's rate predicts more than 8 solves.  The matrix is then
factorised afresh (one solve, post-checked) and that factor is kept; the
old one is released first, so two factors are never alive at once.  A
``nlbc-load-steps`` run (16², 40 load steps) makes 26-33 factorisations
for 80-81 corrections, and a refined correction about 5 triangular
solves of 69 us (a factorisation takes 0.93 ms).  Measured in-process
medians: at 64² (traction 1.5, 4 load steps) 4 or 6 solves per attempt
cost 27 % or 5 % more time than 8, and 12 saved nothing; at 16² every
setting was within 1 %.

The column order is minimum degree on A+A^T, unless the run's kept
factor holds the order of an earlier factor of the same pattern: then
the matrix is already laid out in it (CSC of P A P^T, filled into
``BlockPattern.ordered(order)``) and SuperLU keeps it (``NATURAL``), so a
run of corrections analyses its pattern once.  The right-hand side is
permuted in and the solution out; the post-check's norms do not depend on
the order.  A run's first factor is of the natural layout, so refinement
with it permutes each step's residual out of the re-laid order and the
step back in.  Every 2-norm, the post-check's and the one that measures
the solver's residual, is ``norm2``: BLAS's ``nrm2``, which neither
overflows nor underflows and passes NaN and inf through.

SuperLU factorises in panels of ``PANEL_SIZE`` = 4 columns, a measured
width: scipy's default of 20 is sized for larger fronts than these 2-D
systems have.  ``relax`` stays at SuperLU's default of 10; neither
setting is raised above scipy's defaults, as relax 50 with panels of 40
corrupted the heap.

The segregated method's constant operator needs no factor.  On the
uniform mesh its cell block is a separable Laplacian, c ((dy/dx) I x T_nx
+ (dx/dy) T_ny x I) with cells numbered x-fastest, and ``sine_basis``
gives T_n's eigenpairs in closed form, so fast diagonalisation (Lynch,
Rice & Thomas 1964; Buzbee, Golub & Nielson 1970) inverts it exactly
with four dense products per solve.  It writes no file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dnrm2

# Normwise backward error above which a solution is rejected.
BACKWARD_ERROR_BOUND = 1e-9
# Columns per SuperLU panel (scipy's default is 20), see the module notes.
PANEL_SIZE = 4
# Refinement with a kept factor, see the module notes: the backward error
# that accepts a refined solution, and the triangular solves per attempt.
REFINE_BOUND = 1e-14
REFINE_SOLVES = 8


class LinearSolveError(RuntimeError):
    """A failed factorisation, or a solution that fails the post-check."""


@dataclass
class LinearSolution:
    x: np.ndarray
    residual: float                 # achieved normwise backward error


@dataclass(slots=True)
class KeptFactor:
    """What a coupled run keeps between its solves.  The slots are released
    in their order, the factor before the matrix."""
    lu: object = None               # the latest factor
    natural: bool = False           # lu factorises the natural layout
    order: np.ndarray | None = None  # the first factor's column order
    matrix: sp.csc_matrix | None = None  # the run's matrix, refilled in place


def equilibrate(matrix: sp.spmatrix):
    """Max-abs row scaling: returns the scaled CSC matrix and the scale vector.

    Brings boundary rows (unit or stress scale) and interior rows (force
    scale) to comparable size; the solution of (S A) x = S b is unchanged
    but factorisation noise stops being dominated by the largest rows.

    Nothing in the package calls it.  It stays only because
    ``bench/tracing.py`` wraps it by name and CI pins its calls at zero,
    until ROADMAP item 2 deletes it with both.
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


def sine_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal S and eigenvalues lam of T_n = tridiag(1, -2, 1) with -3
    in both corners (-4 when n = 1), the 1-D cell Laplacian with a boundary
    value half a cell beyond each end: S T_n S^T = diag(lam).  Row k - 1 of
    S is mode k = 1..n, sqrt(2/n) sin(k pi (2j + 1) / 2n) over cells j, and
    the last row is divided by sqrt(2); lam_k = -4 sin^2(k pi / 2n) < 0.
    The angle is reduced modulo 2 pi in integers before the sine."""
    k = np.arange(1, n + 1)
    angle = k[:, None] * (2 * np.arange(n) + 1) % (4 * n)
    basis = np.sqrt(2.0 / n) * np.sin(np.pi / (2 * n) * angle)
    basis[-1] /= np.sqrt(2.0)
    return basis, -4.0 * np.sin(np.pi / (2 * n) * k) ** 2


def norm2(values: np.ndarray) -> float:
    """The 2-norm of an array of any shape, summed in C order: BLAS's
    ``nrm2``, without overflow or underflow; NaN and inf pass through."""
    return float(dnrm2(np.ravel(values)))


def _norm_inf(matrix: sp.csc_matrix) -> float:
    """||A||_inf, the largest absolute row sum: a bincount of the stored
    data over the CSC row indices."""
    return float(np.bincount(matrix.indices, np.abs(matrix.data)).max())


def _backward_error(matrix: sp.csc_matrix, x: np.ndarray, rhs: np.ndarray,
                    norm_a: float, norm_rhs: float) -> tuple[float, np.ndarray]:
    """Normwise backward error of x, and the residual rhs - A x."""
    residual = rhs - matrix @ x
    return norm2(residual) / (norm_a * norm2(x) + norm_rhs), residual


def _refine(kept: KeptFactor, matrix: sp.csc_matrix, rhs: np.ndarray,
            norm_a: float, norm_rhs: float):
    """x and its backward error by refinement with the kept factor, or
    None once the attempt contracts too slowly (see the module notes).
    The rate test raises no rate of 1 or more to a power, and takes no
    logarithm."""
    lu, order = kept.lu, kept.order
    correction = lu.solve
    if kept.natural:
        # The first factor's layout is natural, the re-laid matrix's is not.
        def correction(r):
            step = np.empty_like(r)
            step[order] = lu.solve(r[order])
            return step

    x, residual = np.zeros_like(rhs), rhs
    for k in range(REFINE_SOLVES):
        x += correction(residual)
        backward, residual = _backward_error(matrix, x, rhs, norm_a, norm_rhs)
        if backward <= REFINE_BOUND:
            return x, backward
        if k > 0 and not (
                backward < last
                and backward * (backward / last) ** (REFINE_SOLVES - 1 - k) <= REFINE_BOUND):
            return None
        last = backward
    return None


def solve(matrix: sp.spmatrix, rhs: np.ndarray,
          kept: KeptFactor | None = None) -> LinearSolution:
    """Solve A x = rhs, returning x and its backward error.  ``matrix`` is
    taken to CSC (the assembly's form).  A run's ``kept`` factor is refined
    first, and a fresh factor is kept in it.  Once ``kept`` holds a column
    order, ``matrix`` is the CSC form of P A P^T in that order (entry
    (order[i], order[j]) is A's (i, j)); rhs and x keep A's order."""
    if kept is None:
        kept = KeptFactor()
    order = kept.order
    matrix = matrix.tocsc()
    rhs = np.asarray(rhs, dtype=float).ravel()
    norm_rhs = norm2(rhs)
    if norm_rhs == 0.0:
        return LinearSolution(np.zeros_like(rhs), 0.0)
    if order is not None:
        permuted = np.empty_like(rhs)
        permuted[order] = rhs
        rhs = permuted
    norm_a = _norm_inf(matrix)

    refined = None if kept.lu is None else _refine(kept, matrix, rhs, norm_a, norm_rhs)
    if refined is not None:
        x, backward = refined
        return LinearSolution(x[order], backward)
    kept.lu = None                  # no second factor alive while splu runs
    try:
        lu = factorise(matrix, order is not None)
    except RuntimeError as err:     # SuperLU: "Factor is exactly singular"
        raise LinearSolveError(f"LU factorisation failed: {err}") from None
    x = lu.solve(rhs)

    # Backward-error post-check: robust to the mixed row scales of the
    # assembled systems, tight for any honestly solved one.  Written so
    # that a NaN backward error fails it.
    backward, _ = _backward_error(matrix, x, rhs, norm_a, norm_rhs)
    if not backward <= BACKWARD_ERROR_BOUND:
        raise LinearSolveError(f"direct post-check failed: backward error {backward:.3e}")
    kept.lu, kept.natural = lu, order is None
    if order is None:
        # A copy: perm_c is a view that keeps the whole factor alive.
        kept.order = lu.perm_c.copy()
        return LinearSolution(x, backward)
    return LinearSolution(x[order], backward)
