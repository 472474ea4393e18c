"""Linear solver layer: scaling, preconditioning, method agreement, failure paths."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fvsolid import BOTTOM, LEFT, RIGHT, TOP, BoundaryCondition, LinearSolverConfig
from fvsolid import linsolve
from fvsolid.assembly import (
    DISPLACEMENT,
    TRACTION,
    assemble_system,
    build_boundary_table,
    face_states,
    newton_rhs,
)
from fvsolid.kinematics import zero_state
from fvsolid.material import Lame, NeoHookean
from fvsolid.mesh import build_mesh


def random_block_system(rng, n_blocks=12):
    """Well-conditioned random block system with a known solution."""
    dense = rng.standard_normal((2 * n_blocks, 2 * n_blocks))
    dense += 2 * n_blocks * np.eye(2 * n_blocks)
    x = rng.standard_normal(2 * n_blocks)
    matrix = sp.csr_matrix(dense)
    return matrix, matrix @ x, x


def assembled_system(rng):
    """Small momentum system with mixed displacement/traction rows."""
    mesh = build_mesh(3, 3, 1.0, 1.0)
    mat = NeoHookean(Lame(mu=0.8, lam=1.3))
    bcs = {LEFT: BoundaryCondition(DISPLACEMENT, (0.0, 0.0)),
           RIGHT: BoundaryCondition(TRACTION, (0.2, 0.1)),
           BOTTOM: BoundaryCondition(DISPLACEMENT, (0.0, 0.0)),
           TOP: BoundaryCondition(TRACTION, (0.0, 0.0))}
    table = build_boundary_table(mesh, bcs)
    state = zero_state(mesh)
    f_face, s_face, flux = face_states(mesh, mat, state)
    rhs, _ = newton_rhs(mesh, mat, state, table, flux)
    return (assemble_system(mesh, mat, table, f_face, s_face),
            rhs.ravel() + 0.01 * rng.standard_normal(2 * mesh.n_unknowns))


def test_equilibrate_normalises_rows(rng):
    matrix, rhs, x = random_block_system(rng)
    matrix = sp.diags(np.geomspace(1.0, 1e9, matrix.shape[0])) @ matrix
    rhs = matrix @ x
    scaled, scale = linsolve.equilibrate(matrix.tocsr())
    row_max = np.abs(scaled).max(axis=1).toarray().ravel()
    npt.assert_allclose(row_max, 1.0)
    # scaling must not move the solution
    npt.assert_allclose(
        np.linalg.solve(scaled.toarray(), scale * rhs), x, rtol=1e-8)


def test_block_jacobi_inverts_block_diagonal(rng):
    blocks = rng.standard_normal((6, 2, 2)) + 3.0 * np.eye(2)
    matrix = sp.block_diag([sp.csr_matrix(b) for b in blocks]).tocsr()
    pre = linsolve.block_jacobi(matrix)
    x = rng.standard_normal(12)
    npt.assert_allclose(pre @ (matrix @ x), x, rtol=1e-12)


def test_direct_solve_matches_dense(rng):
    matrix, rhs, x = random_block_system(rng)
    sol = linsolve.solve(matrix, rhs, LinearSolverConfig(method="direct"))
    npt.assert_allclose(sol.x, x, rtol=1e-10)
    assert sol.iterations == 0
    assert sol.residual < 1e-12


def test_zero_rhs_short_circuits(rng):
    matrix, _, _ = random_block_system(rng)
    sol = linsolve.solve(matrix, np.zeros(matrix.shape[0]))
    npt.assert_allclose(sol.x, 0.0)
    assert sol.iterations == 0 and sol.residual == 0.0


def test_methods_agree_on_assembled_system(rng):
    matrix, rhs = assembled_system(rng)
    solutions = {}
    for method in ("direct", "bicgstab", "gmres"):
        cfg = LinearSolverConfig(method=method, tolerance=1e-12)
        solutions[method] = linsolve.solve(matrix, rhs, cfg).x
    scale = np.linalg.norm(solutions["direct"])
    for method in ("bicgstab", "gmres"):
        gap = np.linalg.norm(solutions[method] - solutions["direct"]) / scale
        assert gap < 1e-8, f"{method} disagrees with direct by {gap:.2e}"


def test_iterative_records_history(rng):
    matrix, rhs = assembled_system(rng)
    sol = linsolve.solve(matrix, rhs,
                         LinearSolverConfig(method="gmres", tolerance=1e-12))
    assert sol.iterations == len(sol.history) > 0


def test_default_solve_is_direct(rng):
    assert LinearSolverConfig().method == "direct"
    matrix, rhs, x = random_block_system(rng)
    sol = linsolve.solve(matrix, rhs)
    npt.assert_allclose(sol.x, x, rtol=1e-10)
    assert sol.iterations == 0      # direct path leaves no Krylov history


def test_unknown_method_rejected(rng):
    matrix, rhs, _ = random_block_system(rng)
    for method in ("cholesky", "auto"):
        with pytest.raises(ValueError, match="unknown linear solver"):
            linsolve.solve(matrix, rhs, LinearSolverConfig(method=method))


def test_unknown_method_rejected_with_zero_rhs(rng):
    """The configuration itself is checked, so a zero right-hand side, which
    short-circuits the solve, cannot let an unknown method through."""
    matrix, _, _ = random_block_system(rng)
    with pytest.raises(ValueError, match="unknown linear solver"):
        linsolve.solve(matrix, np.zeros(matrix.shape[0]),
                       LinearSolverConfig(method="cholesky"))


def test_explicit_method_failure_is_fatal(rng):
    matrix, rhs = assembled_system(rng)
    cfg = LinearSolverConfig(method="bicgstab", tolerance=1e-14,
                             max_iterations=1)
    with pytest.raises(linsolve.LinearSolveError, match="bicgstab"):
        linsolve.solve(matrix, rhs, cfg)


def test_post_check_rejects_bad_solutions(rng, monkeypatch):
    matrix, rhs, x = random_block_system(rng)
    monkeypatch.setattr(linsolve, "_solve_direct",
                        lambda m, r: np.full_like(r, 7.0))
    with pytest.raises(linsolve.LinearSolveError, match="post-check"):
        linsolve.solve(matrix, rhs, LinearSolverConfig(method="direct"))


def test_tiny_static_pivot_is_fatal(monkeypatch):
    """Symmetric mode keeps every pivot on the diagonal, so a tiny diagonal
    is eliminated as it stands and wipes out the rest of the matrix.  The
    post-check must reject the result after a single factorisation: no
    retry with partial pivoting, which would solve this system.  (In 2x2,
    such as [[1e-20, 1], [1, 1]], the ordering puts the good pivot first
    and one refinement step recovers any tiny-pivot factor exactly, so the
    case needs three unknowns.)"""
    dense = np.ones((3, 3))
    np.fill_diagonal(dense, 1e-20)
    matrix = sp.csr_matrix(dense)
    rhs = np.array([1.0, 2.0, 3.0])
    partial = spla.splu(matrix.tocsc())
    npt.assert_allclose(matrix @ partial.solve(rhs), rhs, rtol=1e-12)

    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(kwargs)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    with pytest.raises(linsolve.LinearSolveError, match="direct post-check failed"):
        linsolve.solve(matrix, rhs, LinearSolverConfig(method="direct"))
    assert len(calls) == 1
    assert calls[0]["diag_pivot_thresh"] == 0.0


def test_dump_system_roundtrip(tmp_path, rng):
    matrix, rhs, _ = random_block_system(rng, 4)
    linsolve.dump_system(tmp_path, matrix, rhs)
    back = scipy.io.mmread(tmp_path / "A.mtx").tocsr()
    npt.assert_allclose(back.toarray(), matrix.toarray())
    back_rhs = np.asarray(scipy.io.mmread(tmp_path / "R.mtx")).ravel()
    npt.assert_allclose(back_rhs, rhs)
