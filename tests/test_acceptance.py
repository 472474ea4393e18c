"""Acceptance gate: the benchmark behaviours the solver is judged against.

One test per criterion; each prints a single verdict line on success, and a
pytest failure marks the criterion it belongs to.  Meshes, loads and
tolerances are pinned here on purpose: these are the numbers the package
promises, not tunables.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from fvsolid import (
    BOTTOM,
    LEFT,
    RIGHT,
    TOP,
    BoundaryCondition,
    LinearElastic,
    MMSCase,
    NeoHookean,
    SolveConfig,
    build_mesh,
    cantilever_deflection,
    compute_errors,
    lame_from_E_nu,
    mms_bcs,
)
from fvsolid import linsolve
from fvsolid.assembly import (
    DISPLACEMENT,
    TRACTION,
    assemble_system,
    build_boundary_table,
    face_states,
    newton_rhs,
)
from fvsolid.kinematics import State, zero_state
from fvsolid.solver import run
from tests import oracles

MESHES = (3, 8, 16, 32, 64)
SOFT = NeoHookean(lame_from_E_nu(0.02e9, 0.3, "plane_strain"))
STEEL = LinearElastic(lame_from_E_nu(200e9, 0.3, "plane_strain"))


def solve_mms(kind, bc, amplitude, n, method="nlbc", **cfg_kwargs):
    mesh = build_mesh(n, n, 1.0, 1.0)
    case = MMSCase(kind, bc, amplitude)
    cfg = SolveConfig(method=method, **cfg_kwargs)
    report = run(mesh, SOFT, mms_bcs(case, SOFT), cfg)
    metrics = compute_errors(mesh, report.state.displacement, case)
    return report, metrics


def solve_cantilever(nx, ny, method):
    mesh = build_mesh(nx, ny, 2.0, 0.1)
    bcs = {LEFT: BoundaryCondition(DISPLACEMENT, (0.0, 0.0, 0.0)),
           RIGHT: BoundaryCondition(TRACTION, (0.0, 1e6, 0.0)),
           BOTTOM: BoundaryCondition(TRACTION, (0.0, 0.0, 0.0)),
           TOP: BoundaryCondition(TRACTION, (0.0, 0.0, 0.0))}
    report = run(mesh, STEEL, bcs, SolveConfig(method=method))
    rows = mesh.n_cells + mesh.face_boundary_index[mesh.patch_faces(RIGHT)]
    deflection = float(report.state.displacement[rows, 1].mean())
    return report, deflection


def test_criterion_1_cantilever_bending():
    """End-loaded beam: one correction per mesh, mesh-converging deflection,
    and the two coupled variants coincide on the linear material."""
    start = time.perf_counter()
    analytic = cantilever_deflection(200e9, 0.3, 2.0, 1e6 * 0.1, 0.1 ** 3 / 12.0)
    errors = []
    for nx, ny in ((60, 3), (100, 5), (300, 15)):
        report, deflection = solve_cantilever(nx, ny, "nlbc")
        assert report.converged, f"{nx}x{ny}: {report.failure}"
        assert report.n_corr == [1], f"{nx}x{ny}: n_corr {report.n_corr}"
        errors.append(abs(deflection - analytic) / analytic)

        bc_report, bc_deflection = solve_cantilever(nx, ny, "bc")
        assert bc_report.converged
        gap = (np.linalg.norm(bc_report.state.displacement
                              - report.state.displacement)
               / np.linalg.norm(report.state.displacement))
        assert gap < 1e-10, f"{nx}x{ny}: bc/nlbc gap {gap:.3e}"

    assert errors[0] > errors[1] > errors[2], f"errors not decreasing: {errors}"
    assert errors[2] < 0.05, f"finest-mesh deflection error {errors[2]:.3%}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"criterion 1 cantilever bending: PASS "
          f"(errors {errors[0]:.2%} > {errors[1]:.2%} > {errors[2]:.2%}, "
          f"{elapsed:.1f}s)")


def test_criterion_2_compression_sweep_newton_exactness():
    """Stretch 0.65, displacement-driven: machine-accurate homogeneous field
    within three corrections on every mesh."""
    start = time.perf_counter()
    for n in MESHES:
        report, metrics = solve_mms("uniaxial", DISPLACEMENT, 0.65, n)
        assert report.converged, f"{n}x{n}: {report.failure}"
        assert sum(report.n_corr) <= 3, f"{n}x{n}: n_corr {report.n_corr}"
        assert metrics.mean < 1e-12, f"{n}x{n}: mean error {metrics.mean:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"criterion 2 compression sweep: PASS ({elapsed:.1f}s)")


def test_criterion_3_strong_compression_both_methods():
    """Stretch 0.10, displacement-driven: the coupled Newton stays at
    roundoff and the segregated method still converges."""
    for n in MESHES:
        report, metrics = solve_mms("uniaxial", DISPLACEMENT, 0.1, n)
        assert report.converged, f"nlbc {n}x{n}: {report.failure}"
        assert metrics.mean < 1e-10, f"nlbc {n}x{n}: {metrics.mean:.3e}"

        seg, seg_metrics = solve_mms("uniaxial", DISPLACEMENT, 0.1, n,
                                     method="seg", relaxation=1.0)
        assert seg.converged, f"seg {n}x{n}: {seg.failure}"
        assert seg_metrics.mean < 1e-7, f"seg {n}x{n}: {seg_metrics.mean:.3e}"
    print("criterion 3 strong compression: PASS")


def test_criterion_4_tension_accuracy_ordering():
    """Stretch 2.0, displacement-driven: both methods land under 1e-8 and
    the coupled Newton is strictly more accurate on every mesh."""
    for n in MESHES:
        newton, newton_metrics = solve_mms("uniaxial", DISPLACEMENT, 2.0, n)
        assert newton.converged, f"nlbc {n}x{n}: {newton.failure}"
        assert newton_metrics.mean < 1e-8

        seg, seg_metrics = solve_mms("uniaxial", DISPLACEMENT, 2.0, n,
                                     method="seg", relaxation=0.9,
                                     outer_tolerance=1e-8, max_corrections=500)
        assert seg.converged, f"seg {n}x{n}: {seg.failure}"
        assert seg_metrics.mean < 1e-8, f"seg {n}x{n}: {seg_metrics.mean:.3e}"
        assert newton_metrics.mean < seg_metrics.mean, (
            f"{n}x{n}: nlbc {newton_metrics.mean:.3e} "
            f"not below seg {seg_metrics.mean:.3e}")
    print("criterion 4 tension accuracy ordering: PASS")


def test_criterion_5_tension_traction_drives_seg_divergence():
    """Stretch 2.0, traction-driven: Newton converges on every mesh; the
    segregated method reports a failed run on the default mesh."""
    for n in MESHES:
        report, metrics = solve_mms("uniaxial", TRACTION, 2.0, n)
        assert report.converged, f"nlbc {n}x{n}: {report.failure}"
        assert metrics.mean < 1e-5, f"nlbc {n}x{n}: {metrics.mean:.3e}"

    seg, _ = solve_mms("uniaxial", TRACTION, 2.0, 16, method="seg")
    assert not seg.converged, "segregated run unexpectedly converged"
    assert seg.failure, "failed run carries no diagnosis"
    print(f"criterion 5 tension traction: PASS (seg: {seg.failure})")


def test_criterion_6_shear_sweep_both_methods():
    """Simple shear 0.45, displacement-driven: both methods converge on
    every mesh, Newton within three corrections."""
    for n in MESHES:
        report, metrics = solve_mms("shear", DISPLACEMENT, 0.45, n)
        assert report.converged, f"nlbc {n}x{n}: {report.failure}"
        assert sum(report.n_corr) <= 3, f"{n}x{n}: n_corr {report.n_corr}"
        assert metrics.mean < 1e-10

        seg, seg_metrics = solve_mms("shear", DISPLACEMENT, 0.45, n,
                                     method="seg", relaxation=1.0)
        assert seg.converged, f"seg {n}x{n}: {seg.failure}"
        assert seg_metrics.mean < 1e-7
    print("criterion 6 shear sweep: PASS")


def test_criterion_7_shear_traction_separates_methods():
    """Traction-driven shear on 16x16: Newton needs at most three
    corrections; the segregated method fails or exceeds 100 corrections."""
    report, metrics = solve_mms("shear", TRACTION, 0.45, 16)
    assert report.converged, f"nlbc: {report.failure}"
    assert sum(report.n_corr) <= 3, f"n_corr {report.n_corr}"
    assert metrics.mean < 1e-5, f"mean error {metrics.mean:.3e}"

    seg, _ = solve_mms("shear", TRACTION, 0.45, 16, method="seg")
    assert (not seg.converged) or seg.total_corrections > 100
    print(f"criterion 7 shear traction: PASS (seg: {seg.failure})")


def test_criterion_8_property_suite(rng):
    """Discrete and constitutive identities, all in one timed batch."""
    start = time.perf_counter()

    # (a) closed-form stress derivative against central differences
    h = 1e-6
    for _ in range(20):
        g = 0.2 * rng.uniform(-1.0, 1.0, (2, 2))
        b = rng.standard_normal((2, 2))
        fd = (SOFT.first_piola(g + h * b) - SOFT.first_piola(g - h * b)) / (2 * h)
        exact = oracles.dP_apply(SOFT, g, b)
        rel = np.linalg.norm(exact - fd) / np.linalg.norm(fd)
        assert rel < 1e-5, f"dP mismatch {rel:.3e}"

    # (b) right minor symmetry of the material tangent
    g = 0.2 * rng.uniform(-1.0, 1.0, (4, 2, 2))
    f = np.eye(2) + g
    c = np.einsum("bki,bkj->bij", f, f)
    cc = oracles.elasticity_tensor(SOFT, c)
    sym_gap = np.abs(cc - cc.transpose(0, 1, 2, 4, 3)).max() / np.abs(cc).max()
    assert sym_gap < 1e-14, f"minor symmetry broken at {sym_gap:.3e}"

    # (c) closed-form coupling tensors against the brute contraction
    n = np.broadcast_to([1.0, 0.0], (4, 2))
    for d in range(2):
        closed = oracles.t_tensor(SOFT, f, n, d)
        brute = oracles.t_tensor_contracted(SOFT, f, n, d)
        gap = np.abs(closed - brute).max() / max(np.abs(brute).max(), 1.0)
        assert gap < 1e-12, f"T[{d}] mismatch {gap:.3e}"

    # (d) closed cell surfaces, through the divergence the residual uses
    mesh = build_mesh(16, 16, 1.0, 1.0)
    total = mesh.cell_divergence @ mesh.face_normal
    assert np.abs(total).max() < 1e-14, "cell surfaces do not close"

    # (e) homogeneous states satisfy the interior equations
    grad = np.array([[0.3, 0.1], [-0.05, -0.2]])
    points = np.vstack([mesh.cell_centroids,
                        mesh.face_centroid[mesh.bface_face]])
    u = points @ grad.T
    state = State(u)
    bcs = {p: BoundaryCondition(DISPLACEMENT, (0.0, 0.0))
           for p in (LEFT, RIGHT, BOTTOM, TOP)}
    table = build_boundary_table(mesh, bcs)
    _, _, flux = face_states(mesh, SOFT, state)
    rhs, _ = newton_rhs(mesh, SOFT, state, table, flux)
    interior_rel = (np.abs(rhs[:mesh.n_cells]).max()
                    / (np.abs(flux).max() * mesh.face_area.max()))
    assert interior_rel < 1e-12, f"interior residual {interior_rel:.3e}"

    # (f) the sparse LU solve agrees with a dense solve of an assembled system
    sys_mesh = build_mesh(8, 8, 1.0, 1.0)
    case = MMSCase("uniaxial", TRACTION, 2.0)
    sys_table = build_boundary_table(sys_mesh, mms_bcs(case, SOFT))
    sys_state = zero_state(sys_mesh)
    f_face, s_face, sys_flux = face_states(sys_mesh, SOFT, sys_state)
    sys_rhs, _ = newton_rhs(sys_mesh, SOFT, sys_state, sys_table, sys_flux)
    sys_matrix = assemble_system(sys_mesh, SOFT, sys_table, f_face, s_face)
    direct = linsolve.solve(sys_matrix, sys_rhs.ravel()).x
    dense = np.linalg.solve(sys_matrix.toarray(), sys_rhs.ravel())
    gap = np.linalg.norm(direct - dense) / np.linalg.norm(dense)
    assert gap < 1e-8, f"direct deviates from dense by {gap:.3e}"

    # (g) incremental gradient composition
    g_old = 0.25 * rng.uniform(-1.0, 1.0, (6, 2, 2))
    g_inc = 0.1 * rng.uniform(-1.0, 1.0, (6, 2, 2))
    f_old = np.eye(2) + g_old
    composed = np.eye(2) + (g_old + g_inc @ f_old)
    direct = (np.eye(2) + g_inc) @ f_old
    assert np.abs(composed - direct).max() < 1e-14, "composition identity broken"

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 8 took {elapsed:.1f}s"
    print(f"criterion 8 property suite: PASS ({elapsed:.1f}s)")


def test_criterion_9_traction_stretch_window():
    """Traction-driven uniaxial tension at stretch 0.8 and 0.9 converges on
    the refined meshes with errors far inside 1e-6."""
    for amplitude in (0.8, 0.9):
        for n in (16, 32, 64):
            report, metrics = solve_mms("uniaxial", TRACTION, amplitude, n)
            assert report.converged, \
                f"stretch {amplitude}, {n}x{n}: {report.failure}"
            assert metrics.mean < 1e-6, (
                f"stretch {amplitude}, {n}x{n}: mean {metrics.mean:.3e}")
    print("criterion 9 traction stretch window: PASS")
