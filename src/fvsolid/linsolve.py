"""Linear solution of the assembled systems.

The coupled matrix is held in scalar CSR form (2x2 blocks flattened).  The
default solver is a sparse LU factorisation with one round of iterative
refinement, in SuperLU's symmetric mode for the structurally symmetric
stencil (minimum degree on A+A^T, diagonal pivots); a tiny pivot fails the
post-check, with no partial-pivoting retry.  No preconditioned Krylov
method has yet measured faster on these matrices (not diagonally dominant).
BiCGStab and GMRES with a block-Jacobi preconditioner built from the 2x2
diagonal blocks stay available on explicit request, and their failure is
fatal to the correction.

Every solve is post-checked against the requested relative residual; an
iterative failure raises with the residual history attached.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla


METHODS = ("direct", "bicgstab", "gmres")


@dataclass(frozen=True)
class LinearSolverConfig:
    method: str = "direct"          # direct | bicgstab | gmres
    tolerance: float = 1e-10
    max_iterations: int = 4000
    gmres_restart: int = 50

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown linear solver {self.method!r}")


class LinearSolveError(RuntimeError):
    def __init__(self, message: str, history: list | None = None):
        super().__init__(message)
        self.history = history or []


@dataclass
class LinearSolution:
    x: np.ndarray
    iterations: int
    residual: float                 # achieved relative residual
    history: list = field(default_factory=list)


def block_jacobi(matrix: sp.csr_matrix) -> spla.LinearOperator:
    """Inverse of the 2x2 diagonal blocks as a preconditioner."""
    n2 = matrix.shape[0]
    n = n2 // 2
    blocks = np.empty((n, 2, 2))
    main = matrix.diagonal()
    upper = matrix.diagonal(1)
    lower = matrix.diagonal(-1)
    blocks[:, 0, 0] = main[0::2]
    blocks[:, 1, 1] = main[1::2]
    blocks[:, 0, 1] = upper[0::2]
    blocks[:, 1, 0] = lower[0::2]
    inv = np.linalg.inv(blocks)

    def apply(x):
        return np.einsum("nij,nj->ni", inv, x.reshape(n, 2)).ravel()

    return spla.LinearOperator((n2, n2), matvec=apply)


def equilibrate(matrix: sp.csr_matrix):
    """Max-abs row scaling: returns the scaled matrix and the scale vector.

    Brings boundary rows (unit or stress scale) and interior rows (force
    scale) to comparable size; the solution of (S A) x = S b is unchanged
    but factorisation noise and iterative tolerances stop being dominated
    by the largest rows.
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
    lu = factorise(matrix)
    x = lu.solve(rhs)
    # One round of iterative refinement for ill-conditioned systems
    # (thin-beam meshes, mixed row scales).
    x += lu.solve(rhs - matrix @ x)
    return x


def _solve_iterative(matrix: sp.csr_matrix, rhs: np.ndarray,
                     cfg: LinearSolverConfig):
    scaled, row_scale = equilibrate(matrix.tocsr())
    srhs = row_scale * rhs
    snorm = np.linalg.norm(srhs)
    precond = block_jacobi(scaled)
    history: list[float] = []

    def track(arg):
        # BiCGStab passes the iterate, GMRES (pr_norm) the residual norm.
        if np.ndim(arg) == 0:
            history.append(float(arg))
        else:
            history.append(float(np.linalg.norm(scaled @ arg - srhs) / snorm))

    if cfg.method == "bicgstab":
        x, info = spla.bicgstab(scaled, srhs, rtol=cfg.tolerance, atol=0.0,
                                maxiter=cfg.max_iterations, M=precond,
                                callback=track)
    else:
        x, info = spla.gmres(scaled, srhs, rtol=cfg.tolerance, atol=0.0,
                             restart=cfg.gmres_restart,
                             maxiter=cfg.max_iterations, M=precond,
                             callback=track, callback_type="pr_norm")
    if info < 0:
        raise LinearSolveError(
            f"{cfg.method} breakdown (info={info}); try gmres or direct", history)
    if info > 0:
        raise LinearSolveError(
            f"{cfg.method} did not reach {cfg.tolerance:g} within "
            f"{cfg.max_iterations} iterations", history)
    return x, history


def solve(matrix: sp.csr_matrix, rhs: np.ndarray,
          cfg: LinearSolverConfig = LinearSolverConfig()) -> LinearSolution:
    """Solve A x = rhs, returning iterations and the achieved residual."""
    rhs = np.asarray(rhs, dtype=float).ravel()
    norm_rhs = np.linalg.norm(rhs)
    if norm_rhs == 0.0:
        return LinearSolution(np.zeros_like(rhs), 0, 0.0)

    history: list[float] = []
    if cfg.method == "direct":
        x = _solve_direct(matrix, rhs)
    else:
        x, history = _solve_iterative(matrix, rhs, cfg)

    # Backward-error post-check: robust to the mixed row scales of the
    # assembled systems, tight for any honestly solved one.
    norm_a = spla.norm(matrix, np.inf)
    backward = float(np.linalg.norm(matrix @ x - rhs)
                     / (norm_a * np.linalg.norm(x) + norm_rhs))
    if backward > max(cfg.tolerance * 10.0, 1e-9):
        raise LinearSolveError(
            f"{cfg.method} post-check failed: backward error {backward:.3e}", history)
    return LinearSolution(x, len(history), backward, history)


def dump_system(directory, matrix: sp.csr_matrix, rhs: np.ndarray) -> None:
    """Write the system in Matrix Market form (A.mtx, R.mtx) for inspection."""
    scipy.io.mmwrite(os.path.join(directory, "A.mtx"), matrix.tocoo())
    scipy.io.mmwrite(os.path.join(directory, "R.mtx"),
                     np.asarray(rhs, dtype=float).reshape(-1, 1))
