"""Linear solver layer: scaling, the direct solve and its failure paths."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fvsolid import (BOTTOM, LEFT, RIGHT, TOP, BoundaryCondition, MMSCase,
                     build_mesh, lame_from_E_nu, linsolve, mms_bcs)
from fvsolid.assembly import assemble_system, build_boundary_table, face_states
from fvsolid.kinematics import zero_state
from fvsolid.material import NeoHookean


def random_block_system(rng, n_blocks=12):
    """Well-conditioned random block system with a known solution."""
    dense = rng.standard_normal((2 * n_blocks, 2 * n_blocks))
    dense += 2 * n_blocks * np.eye(2 * n_blocks)
    x = rng.standard_normal(2 * n_blocks)
    matrix = sp.csr_matrix(dense)
    return matrix, matrix @ x, x


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


def test_direct_solve_matches_dense(rng):
    matrix, rhs, x = random_block_system(rng)
    sol = linsolve.solve(matrix, rhs)
    npt.assert_allclose(sol.x, x, rtol=1e-10)
    assert sol.residual < 1e-12


def assembled_systems():
    """Coupled matrices of an 8x8 traction-driven stretch and an 8x8 beam
    (displacement, traction and symmetry rows) at rest."""
    material = NeoHookean(lame_from_E_nu(0.02e9, 0.3, "plane_strain"))
    beam = {LEFT: BoundaryCondition("displacement", (0.0, 0.0)),
            RIGHT: BoundaryCondition("traction", (0.0, 1e4)),
            BOTTOM: BoundaryCondition("symmetry"),
            TOP: BoundaryCondition("traction", (0.0, 0.0))}
    for mesh, bcs in ((build_mesh(8, 8, 1.0, 1.0),
                       mms_bcs(MMSCase("uniaxial", "traction", 1.5), material)),
                      (build_mesh(8, 8, 2.0, 0.1), beam)):
        table = build_boundary_table(mesh, bcs)
        f_face, s_face, _ = face_states(mesh, material, zero_state(mesh))
        yield assemble_system(mesh, material, table, f_face, s_face)


def test_norm_inf_matches_scipy(rng):
    """The row sums over the CSR data give scipy's infinity norm on the
    random systems and on assembled coupled matrices."""
    systems = [random_block_system(rng, n)[0] for n in (1, 4, 12)]
    for matrix in systems + list(assembled_systems()):
        assert linsolve._norm_inf(matrix) == pytest.approx(spla.norm(matrix, np.inf),
                                                           rel=1e-15)


def test_zero_rhs_short_circuits(rng):
    matrix, _, _ = random_block_system(rng)
    sol = linsolve.solve(matrix, np.zeros(matrix.shape[0]))
    npt.assert_allclose(sol.x, 0.0)
    assert sol.residual == 0.0


def test_post_check_rejects_bad_solutions(rng, monkeypatch):
    matrix, rhs, x = random_block_system(rng)
    monkeypatch.setattr(linsolve, "_solve_direct",
                        lambda m, r: np.full_like(r, 7.0))
    with pytest.raises(linsolve.LinearSolveError, match="post-check"):
        linsolve.solve(matrix, rhs)


def test_post_check_rejects_nan_solution():
    """A NaN backward error compares false with any bound, so the check
    must be written to fail on it rather than pass."""
    matrix = sp.csr_matrix(2.0 * np.eye(3))
    with pytest.raises(linsolve.LinearSolveError, match="backward error nan"):
        linsolve.solve(matrix, [1.0, np.nan, 0.0])


def test_exactly_singular_matrix_is_a_linear_solve_error():
    """SuperLU's bare RuntimeError becomes the solver's own error, which
    the correction loop reports as a failure instead of a traceback."""
    matrix = sp.csr_matrix(np.ones((2, 2)))
    with pytest.raises(linsolve.LinearSolveError, match="exactly singular"):
        linsolve.solve(matrix, [1.0, 2.0])


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
        linsolve.solve(matrix, rhs)
    assert len(calls) == 1
    assert calls[0]["diag_pivot_thresh"] == 0.0


def test_dump_system_roundtrip(tmp_path, rng):
    matrix, rhs, _ = random_block_system(rng, 4)
    linsolve.dump_system(tmp_path, matrix, rhs)
    back = scipy.io.mmread(tmp_path / "A.mtx").tocsr()
    npt.assert_allclose(back.toarray(), matrix.toarray())
    back_rhs = np.asarray(scipy.io.mmread(tmp_path / "R.mtx")).ravel()
    npt.assert_allclose(back_rhs, rhs)
