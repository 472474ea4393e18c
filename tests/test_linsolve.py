"""Linear solver layer: scaling, the direct solve and its failure paths."""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import fvsolid
from fvsolid import (BOTTOM, LEFT, RIGHT, TOP, BoundaryCondition, MMSCase,
                     SolveConfig, build_mesh, lame_from_E_nu, linsolve, mms_bcs,
                     run)
from fvsolid.assembly import assemble_system, build_boundary_table, face_states
from fvsolid.kinematics import zero_state
from fvsolid.material import NeoHookean
from fvsolid.verification import CASES


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
        f_face, _ = face_states(mesh, material, zero_state(mesh))
        yield assemble_system(mesh, material, table, f_face)


def test_norm_inf_matches_scipy(rng):
    """The row sums over the CSC data give scipy's infinity norm on the
    random systems and on assembled coupled matrices."""
    systems = [random_block_system(rng, n)[0].tocsc() for n in (1, 4, 12)]
    for matrix in systems + list(assembled_systems()):
        assert matrix.format == "csc"
        assert linsolve._norm_inf(matrix) == pytest.approx(spla.norm(matrix, np.inf),
                                                           rel=1e-15)


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200, 1e300])
def test_norm2_neither_overflows_nor_underflows(scale):
    values = scale * np.array([[3.0, -4.0], [0.0, 12.0]])
    assert linsolve.norm2(values) == pytest.approx(13.0 * scale, rel=1e-15)


def test_norm2_passes_zero_inf_and_nan_through():
    assert linsolve.norm2(np.zeros(3)) == 0.0
    assert linsolve.norm2(np.array([1.0, -np.inf])) == np.inf
    assert np.isnan(linsolve.norm2(np.array([1.0, np.nan, np.inf])))


def _random_arrays(rng):
    for _ in range(300):
        size = int(rng.integers(1, 700))
        yield (10.0 ** rng.uniform(-150.0, 150.0)
               * rng.standard_normal(size) * 10.0 ** rng.uniform(-3.0, 3.0, size))


# Edge arrays: sums of squares just inside and just below 2^-900, and just
# inside and just past overflow, where a plain sum of squares reads inf.
_TINY = np.sqrt(2.0 ** -900 / 4)
_HUGE = np.sqrt(np.finfo(float).max / 4)


@pytest.mark.parametrize("values", [
    None,
    np.full(4, _TINY),
    np.full(4, 0.99 * _TINY),
    np.full(4, _HUGE) * [1.0, 1.0, 1.0, 0.99],
    np.full(4, _HUGE) * [1.0, 1.0, 1.0, 1.01],
], ids=["random", "low_inside", "low_below", "high_inside", "high_overflows"])
def test_norm2_is_within_2_ulp_of_exact(rng, values):
    """The norm is within 2 ulp of the exact one (60 decimal digits): at
    the four edge arrays, and with ``random`` on 300 arrays of 1 to 700
    entries at magnitudes from 1e-150 to 1e150."""
    for values in _random_arrays(rng) if values is None else [values]:
        with localcontext() as context:
            context.prec = 60
            exact = float(sum(Decimal(value) ** 2 for value in values.tolist()).sqrt())
        assert abs(linsolve.norm2(values) - exact) <= 2 * np.spacing(exact)


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_norm2_raises_no_warning(scale):
    """Squares that overflow or underflow warn nowhere, however warnings
    are filtered."""
    values = scale * np.array([3.0, -4.0, 12.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert linsolve.norm2(values) == pytest.approx(13.0 * scale, rel=1e-15)


def test_zero_rhs_short_circuits(rng):
    matrix, _, _ = random_block_system(rng)
    sol = linsolve.solve(matrix, np.zeros(matrix.shape[0]))
    npt.assert_allclose(sol.x, 0.0)
    assert sol.residual == 0.0


class SevensFactor:
    """A factor whose solve returns 7s, whatever the system."""

    def solve(self, rhs):
        return np.full_like(rhs, 7.0)


def test_post_check_rejects_bad_solutions(rng, monkeypatch):
    matrix, rhs, x = random_block_system(rng)
    monkeypatch.setattr(linsolve, "factorise", lambda m, ordered=False: SevensFactor())
    with pytest.raises(linsolve.LinearSolveError, match="post-check"):
        linsolve.solve(matrix, rhs)


def test_post_check_rejects_nan_solution():
    """A NaN backward error compares false with any bound, so the check
    must be written to fail on it rather than pass."""
    matrix = sp.csr_matrix(2.0 * np.eye(3))
    with pytest.raises(linsolve.LinearSolveError, match="backward error nan"):
        linsolve.solve(matrix, [1.0, np.nan, 0.0])


def test_backward_error_stays_at_roundoff(monkeypatch):
    """One triangular solve, with no refinement round, is enough only while
    the static-pivot LU is accurate on its own.  On the longest runs at
    hand, a 32x32 traction compression to stretch 0.3 in 16 load steps and
    a neo-Hookean steel cantilever under PL^2/EI = 3 in 10 load steps
    (100x5), every solve's backward error is measured at 2e-15 or less,
    against the post-check's 1e-9."""
    residuals = []
    solve = linsolve.solve

    def recording_solve(*args):
        solution = solve(*args)
        residuals.append(solution.residual)
        return solution

    monkeypatch.setattr(linsolve, "solve", recording_solve)
    soft = NeoHookean(lame_from_E_nu(0.02e9, 0.3, "plane_strain"))
    steel = NeoHookean(lame_from_E_nu(200e9, 0.3, "plane_strain"))
    load = 3.0 * 200e9 * (0.1 ** 3 / 12.0) / 2.0 ** 2     # P = 3 EI / L^2
    for mesh, material, bcs, steps in (
            (build_mesh(32, 32, 1.0, 1.0), soft,
             mms_bcs(MMSCase("uniaxial", "traction", 0.3), soft), 16),
            (build_mesh(100, 5, 2.0, 0.1), steel,
             CASES["cantilever"].bcs(SimpleNamespace(traction=load / 0.1), steel), 10)):
        residuals.clear()
        report = run(mesh, material, bcs, SolveConfig(n_load_steps=steps))
        assert report.converged
        assert len(residuals) == report.total_corrections
        assert max(residuals) <= 1e-13


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
    such as [[1e-20, 1], [1, 1]], the ordering puts the good pivot first,
    so the case needs three unknowns.)"""
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


@pytest.mark.parametrize("dense,message", [
    (np.where(np.eye(3, dtype=bool), 1e-20, 1.0), "direct post-check failed"),
    (np.ones((3, 3)), "exactly singular")], ids=["tiny-pivot", "singular"])
def test_ordered_path_failures_are_fatal(monkeypatch, dense, message):
    """A matrix already laid out in a given column order fails like a
    freshly ordered one: a tiny static pivot or an exact singularity is a
    LinearSolveError after a single factorisation, which keeps that order."""
    order = np.array([2, 0, 1], dtype=np.int32)
    inverse = np.argsort(order)
    matrix = sp.csc_matrix(dense[np.ix_(inverse, inverse)])   # (P A P^T)
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(kwargs)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    with pytest.raises(linsolve.LinearSolveError, match=message):
        linsolve.solve(matrix, [1.0, 2.0, 3.0], linsolve.KeptFactor(order=order))
    assert len(calls) == 1
    assert calls[0]["permc_spec"] == "NATURAL"
    assert calls[0]["diag_pivot_thresh"] == 0.0


# Unknown 0 couples to both others, so minimum degree eliminates it last.
ARROW = np.array([[4.0, 1.0, 1.0], [1.0, 3.0, 0.0], [1.0, 0.0, 2.0]])


def kept_arrow_factor() -> linsolve.KeptFactor:
    """A run's kept factor after its first solve, of ``ARROW`` in its
    natural layout: every later matrix of the run comes laid out in that
    factor's order, which is not the identity."""
    kept = linsolve.KeptFactor()
    linsolve.solve(sp.csc_matrix(ARROW), [1.0, 1.0, 1.0], kept)
    assert kept.natural and kept.order[0] == 2
    return kept


@pytest.mark.parametrize("dense,rhs,message", [
    (np.array([[4.0, 1.0, 0.0], [1.0, -3.0, 1.0], [0.0, 1.0, 5.0]]), [1.0, 2.0, 3.0], None),
    (np.where(np.eye(3, dtype=bool), 1e-20, 1.0), [1.0, 2.0, 3.0], "direct post-check failed"),
    (np.ones((3, 3)), [1.0, 2.0, 3.0], "exactly singular"),
    (ARROW, [1.0, np.nan, 3.0], "backward error nan"),
], ids=["far", "tiny-pivot", "singular", "nan-rhs"])
def test_kept_factor_falls_back_to_a_fresh_one(monkeypatch, dense, rhs, message):
    """Refinement with a kept factor far from the matrix stops at once
    (its backward error does not fall), and the matrix is factorised afresh
    in the kept order: the fresh factor passes the 1e-9 post-check and is
    kept instead, or fails like any fresh factor, a tiny static pivot or an
    exact singularity as a LinearSolveError.  A NaN fails the post-check
    too, with no warning on the way (pytest makes one an error)."""
    kept = kept_arrow_factor()
    order = kept.order
    inverse = np.argsort(order)
    matrix = sp.csc_matrix(dense[np.ix_(inverse, inverse)])   # (P A P^T)
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(kwargs)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    if message is not None:
        with pytest.raises(linsolve.LinearSolveError, match=message):
            linsolve.solve(matrix, rhs, kept)
    else:
        first = kept.lu
        solution = linsolve.solve(matrix, rhs, kept)
        npt.assert_allclose(solution.x, np.linalg.solve(dense, rhs), rtol=1e-14)
        assert solution.residual <= linsolve.BACKWARD_ERROR_BOUND
        assert kept.lu is not first and not kept.natural
        npt.assert_array_equal(kept.order, order)
    assert len(calls) == 1
    assert calls[0]["permc_spec"] == "NATURAL"


def test_kept_factor_refines_a_nearby_matrix(rng):
    """A kept factor of a nearby matrix solves without a factorisation, to
    a backward error of at most ``REFINE_BOUND``, and stays kept: the
    natural-layout first factor refines the matrix re-laid in its order."""
    dense = ARROW + 1e-3 * rng.standard_normal((3, 3))
    kept = kept_arrow_factor()
    first = kept.lu
    inverse = np.argsort(kept.order)
    rhs = np.array([1.0, -2.0, 0.5])
    solution = linsolve.solve(sp.csc_matrix(dense[np.ix_(inverse, inverse)]), rhs, kept)
    assert kept.lu is first
    assert solution.residual <= linsolve.REFINE_BOUND
    npt.assert_allclose(solution.x, np.linalg.solve(dense, rhs), rtol=1e-13)


# Factorises a 16x16 coupled matrix 300 times through linsolve.factorise,
# alternately ordering it by minimum degree and re-laid in that order,
# then exits.
_FACTOR_LOOP = """
from fvsolid import MMSCase, build_mesh, lame_from_E_nu, linsolve, mms_bcs
from fvsolid.assembly import assemble_system, build_boundary_table, face_states
from fvsolid.kinematics import zero_state
from fvsolid.material import NeoHookean

material = NeoHookean(lame_from_E_nu(0.02e9, 0.3, "plane_strain"))
mesh = build_mesh(16, 16, 1.0, 1.0)
table = build_boundary_table(mesh, mms_bcs(MMSCase("uniaxial", "traction", 1.5), material))
f_face, _ = face_states(mesh, material, zero_state(mesh))
matrix = assemble_system(mesh, material, table, f_face)
order = linsolve.factorise(matrix).perm_c.copy()
ordered = assemble_system(mesh, material, table, f_face, mesh.jacobian_pattern.ordered(order))
for _ in range(150):
    linsolve.factorise(matrix)
    linsolve.factorise(ordered, True)
"""


def test_factor_settings_are_memory_safe(monkeypatch):
    """SuperLU's supernode settings stay at or below scipy's defaults
    (relax 10, panel_size 20), and a process that factorises a coupled
    matrix a few hundred times exits cleanly.  Larger values
    (relax 50, panel_size 40) corrupted the heap: the process died with a
    segfault at exit."""
    calls = []
    splu = spla.splu

    def recording_splu(*args, **kwargs):
        calls.append(kwargs)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    matrix = next(assembled_systems())
    linsolve.factorise(matrix)
    linsolve.factorise(matrix, True)
    for kwargs in calls:
        assert kwargs.get("relax", 10) <= 10
        assert kwargs.get("panel_size", 20) <= 20

    src = str(Path(fvsolid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    child = subprocess.run([sys.executable, "-c", _FACTOR_LOOP], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr[-2000:]
