"""Outer iteration: convergence bookkeeping, method variants, failure modes."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse.linalg as spla

from fvsolid import (
    BOTTOM,
    LEFT,
    RIGHT,
    TOP,
    BoundaryCondition,
    MMSCase,
    SolveConfig,
    build_mesh,
    compute_errors,
    mms_bcs,
)
from fvsolid.assembly import DISPLACEMENT, SYMMETRY, TRACTION, build_boundary_table
from fvsolid import assembly, linsolve, solver
from fvsolid.solver import _Monitor, run

ZERO_DISPLACEMENT = {
    p: BoundaryCondition(DISPLACEMENT, (0.0, 0.0))
    for p in (LEFT, RIGHT, BOTTOM, TOP)
}


@pytest.fixture(scope="module")
def mesh8():
    return build_mesh(8, 8, 1.0, 1.0)


def mean_error(mesh, report, case):
    return compute_errors(mesh, report.state.displacement, case).mean


# ---------------------------------------------------------------------------
# residual bookkeeping
# ---------------------------------------------------------------------------


def test_monitor_norm_row_selection(rng):
    """One weighted 2-norm per update: all rows on the first, which fixes
    the denominator, and the force rows alone on every later one."""
    rhs = rng.standard_normal((6, 2))
    scale = rng.uniform(0.5, 2.0, 6)
    rows = np.array([True, False, True, True, False, False])
    monitor = _Monitor(tolerance=1e-12, floor=0.0, weight=scale, force_rows=rows)
    monitor.update(rhs)
    full = np.linalg.norm((rhs * scale[:, None]).ravel())
    assert monitor.denominator == pytest.approx(full)
    monitor.update(rhs)
    expected = np.linalg.norm((rhs[rows] * scale[rows, None]).ravel())
    assert monitor.history == pytest.approx([1.0, expected / full])
    assert full >= expected


# One cell row (force) and one prescribed-displacement row weighted by 2.
ROW_WEIGHT = np.array([1.0, 2.0])
FORCE_ROWS = np.array([True, False])


def rows(force: float, displacement: float = 0.0) -> np.ndarray:
    """A right-hand side whose weighted rows have the given norms."""
    return np.array([[force, 0.0], [displacement / 2.0, 0.0]])


def test_monitor_first_verdict_uses_all_rows():
    monitor = _Monitor(1e-7, 1.0, ROW_WEIGHT, FORCE_ROWS)
    # tiny force residual but a pending boundary assignment: not converged
    assert monitor.update(rows(1e-12, 10.0)) == "continue"
    assert monitor.denominator == 10.0
    assert monitor.history == [1.0]
    # once the assignments are in, the force rows alone decide
    assert monitor.update(rows(1e-12, 5.0)) == "converged"


def test_monitor_floor_bounds_denominator():
    monitor = _Monitor(1e-7, 100.0, ROW_WEIGHT, FORCE_ROWS)
    monitor.update(rows(1e-3))
    assert monitor.denominator == 100.0


def test_monitor_divergence_after_five_rises():
    monitor = _Monitor(1e-12, 1.0, ROW_WEIGHT, FORCE_ROWS)
    verdicts = [monitor.update(rows(v)) for v in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)]
    assert verdicts[:-1] == ["continue"] * 5
    assert verdicts[-1] == "diverged"
    # a single drop resets the streak, so five fresh rises are needed
    monitor = _Monitor(1e-12, 1.0, ROW_WEIGHT, FORCE_ROWS)
    verdicts = [monitor.update(rows(v))
                for v in (1.0, 2.0, 3.0, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5)]
    assert verdicts[-2] == "continue"
    assert verdicts[-1] == "diverged"


def test_run_weights_rows_force_like(mesh8, neo, monkeypatch):
    """The norm's row weights, set once per run: cell rows 1, prescribed
    displacement rows mu, traction and symmetry rows their face area."""
    monitors = counting(monkeypatch, solver, "_Monitor")
    bcs = {LEFT: BoundaryCondition(DISPLACEMENT, (0.0, 0.0)),
           RIGHT: BoundaryCondition(TRACTION, (1e5, 0.0)),
           BOTTOM: BoundaryCondition(SYMMETRY),
           TOP: BoundaryCondition(TRACTION, (0.0, 0.0))}
    run(mesh8, neo, bcs, SolveConfig(max_corrections=0))
    (_, _, weight, _), _ = monitors[0]
    m = mesh8
    npt.assert_allclose(weight[: m.n_cells], 1.0)
    npt.assert_allclose(weight[m.n_cells + m.face_boundary_index[m.patch_faces(LEFT)]],
                        neo.mu)
    for patch in (RIGHT, BOTTOM):
        faces = m.patch_faces(patch)
        npt.assert_allclose(weight[m.face_across[faces]], m.face_area[faces])


# ---------------------------------------------------------------------------
# coupled methods
# ---------------------------------------------------------------------------


def test_zero_load_converges_without_corrections(mesh8, neo):
    report = run(mesh8, neo, ZERO_DISPLACEMENT, SolveConfig(method="nlbc"))
    assert report.converged
    assert report.n_corr == [0]
    assert report.failure is None
    npt.assert_allclose(report.state.displacement, 0.0)
    assert report.wall_time > 0.0
    assert report.total_corrections == 0


def test_nlbc_single_correction_on_homogeneous_stretch(mesh8, neo):
    case = MMSCase("uniaxial", DISPLACEMENT, 1.3)
    report = run(mesh8, neo, mms_bcs(case, neo), SolveConfig(method="nlbc"))
    assert report.converged
    assert report.n_corr == [1]
    assert mean_error(mesh8, report, case) < 1e-12
    # the monitor logged the initial defect and the converged residual
    assert len(report.residual_history) == 1
    assert report.residual_history[0][0] == pytest.approx(1.0)
    assert report.residual_history[0][-1] < 1e-7


def test_bc_matches_nlbc_exactly_for_linear_material(mesh8, linear_mat):
    case = MMSCase("shear", DISPLACEMENT, 0.2)
    bcs = mms_bcs(case, linear_mat)
    rep_nlbc = run(mesh8, linear_mat, bcs, SolveConfig(method="nlbc"))
    rep_bc = run(mesh8, linear_mat, bcs, SolveConfig(method="bc"))
    assert rep_nlbc.converged and rep_bc.converged
    scale = np.abs(rep_nlbc.state.displacement).max()
    npt.assert_allclose(rep_bc.state.displacement,
                        rep_nlbc.state.displacement, atol=1e-12 * scale)


def test_bc_runs_hookean_tangent(mesh8, neo):
    """The linearised variant swaps in the small-strain tangent.  It stays a
    one-shot solve, exact for homogeneous Dirichlet data, but under the
    manufactured tractions it answers the Hookean problem instead of the
    finite-strain one."""
    disp_case = MMSCase("uniaxial", DISPLACEMENT, 1.5)
    report = run(mesh8, neo, mms_bcs(disp_case, neo), SolveConfig(method="bc"))
    assert report.converged and report.n_corr == [1]
    assert mean_error(mesh8, report, disp_case) < 1e-10

    trac_case = MMSCase("uniaxial", TRACTION, 1.5)
    report = run(mesh8, neo, mms_bcs(trac_case, neo), SolveConfig(method="bc"))
    assert report.converged
    assert mean_error(mesh8, report, trac_case) > 1e-3


def test_load_stepping_splits_the_path(mesh8, neo):
    case = MMSCase("uniaxial", DISPLACEMENT, 1.4)
    cfg = SolveConfig(method="nlbc", n_load_steps=3)
    report = run(mesh8, neo, mms_bcs(case, neo), cfg)
    assert report.converged
    assert len(report.n_corr) == 3
    assert len(report.residual_history) == 3
    assert mean_error(mesh8, report, case) < 1e-11
    assert report.total_corrections == sum(report.n_corr)


def test_traction_driven_newton_converges(mesh8, neo):
    case = MMSCase("uniaxial", TRACTION, 1.6)
    report = run(mesh8, neo, mms_bcs(case, neo), SolveConfig(method="nlbc"))
    assert report.converged
    assert mean_error(mesh8, report, case) < 1e-6


def count_assemblies(monkeypatch) -> list:
    calls = []
    assemble = solver.assemble_system

    def counting_assemble(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(solver, "assemble_system", counting_assemble)
    return calls


def test_converged_check_builds_no_matrix(mesh8, neo, linear_mat, monkeypatch,
                                          tmp_path):
    """The matrix is assembled once per solved correction and never for the
    residual check that ends a load step, also when the first correction's
    system is dumped before it is solved."""
    calls = count_assemblies(monkeypatch)
    case = MMSCase("uniaxial", TRACTION, 1.3)
    report = run(mesh8, neo, mms_bcs(case, neo),
                 SolveConfig(method="nlbc", n_load_steps=4))
    assert report.converged and len(report.n_corr) == 4
    assert len(calls) == report.total_corrections

    beam = build_mesh(8, 8, 2.0, 0.1)
    bcs = {LEFT: BoundaryCondition(DISPLACEMENT, (0.0, 0.0)),
           RIGHT: BoundaryCondition(TRACTION, (0.0, 1e4)),
           BOTTOM: BoundaryCondition(TRACTION, (0.0, 0.0)),
           TOP: BoundaryCondition(TRACTION, (0.0, 0.0))}
    for cfg in (SolveConfig(method="bc"),
                SolveConfig(method="nlbc", dump_dir=str(tmp_path))):
        calls.clear()
        report = run(beam, linear_mat, bcs, cfg)
        assert report.converged and report.n_corr == [1]
        assert len(calls) == report.total_corrections
    assert (tmp_path / "A.mtx").is_file()


def test_pure_traction_fails_cleanly(mesh8, neo):
    """With no displacement constraint the rigid-body modes leave the system
    singular.  The boundary map is rejected before the first solve, for
    every method: a singular solve could otherwise pass its post-check and
    run the whole correction budget with |u| near 1e14."""
    bcs = {p: BoundaryCondition(TRACTION, (0.0, 0.0))
           for p in (LEFT, BOTTOM, TOP)}
    bcs[RIGHT] = BoundaryCondition(TRACTION, (1e5, 0.0))
    for method in solver.METHODS:
        with pytest.raises(ValueError, match="rigid-body mode"):
            run(mesh8, neo, bcs, SolveConfig(method=method))


def test_unknown_method_rejected(mesh8, neo):
    with pytest.raises(ValueError, match="unknown method"):
        run(mesh8, neo, ZERO_DISPLACEMENT, SolveConfig(method="fem"))


def test_zero_load_steps_rejected():
    # a run with no load step would report success without solving
    with pytest.raises(ValueError, match="n_load_steps must be at least 1"):
        SolveConfig(n_load_steps=0)


@pytest.mark.parametrize("tolerance", [np.inf, 1.0, np.nan])
def test_tolerance_of_one_or_more_rejected(tolerance):
    # the first normalised residual is at most 1, so such a tolerance would
    # report convergence after no correction at all
    with pytest.raises(ValueError, match="outer_tolerance must be below 1"):
        SolveConfig(outer_tolerance=tolerance)


# ---------------------------------------------------------------------------
# segregated method
# ---------------------------------------------------------------------------


def test_seg_unrelaxed_lands_homogeneous_stretch_in_one(mesh8, neo):
    case = MMSCase("uniaxial", DISPLACEMENT, 0.65)
    cfg = SolveConfig(method="seg", relaxation=1.0)
    report = run(mesh8, neo, mms_bcs(case, neo), cfg)
    assert report.converged
    assert report.n_corr == [1]
    assert mean_error(mesh8, report, case) < 1e-12


def test_seg_relaxation_spares_prescribed_rows(mesh8, neo):
    """Under-relaxed runs still satisfy the boundary assignments exactly
    after the first correction; only the force balance iterates."""
    case = MMSCase("uniaxial", DISPLACEMENT, 1.2)
    cfg = SolveConfig(method="seg", relaxation=0.9, outer_tolerance=1e-9,
                      max_corrections=400)
    report = run(mesh8, neo, mms_bcs(case, neo), cfg)
    assert report.converged
    assert report.n_corr[0] > 1
    exact = np.vstack([mesh8.cell_centroids,
                       mesh8.face_centroid[mesh8.bface_face]]) @ (
        np.diag([0.2, 0.0]))
    brows = slice(mesh8.n_cells, mesh8.n_unknowns)
    npt.assert_allclose(report.state.displacement[brows],
                        exact[brows], atol=1e-9)
    assert mean_error(mesh8, report, case) < 1e-8


def test_seg_factorises_once_per_run(mesh8, neo, monkeypatch):
    """Both components share one scalar operator, and boundary kinds do
    not change between load steps, so seg builds and factorises it once
    per run, not once per component or step."""
    calls = []
    factorise = linsolve.factorise

    def counting_factorise(matrix):
        calls.append(1)
        return factorise(matrix)

    monkeypatch.setattr(linsolve, "factorise", counting_factorise)
    case = MMSCase("uniaxial", DISPLACEMENT, 1.2)
    report = run(mesh8, neo, mms_bcs(case, neo),
                 SolveConfig(method="seg", n_load_steps=3))
    assert report.converged and len(report.n_corr) == 3
    assert len(calls) == 1
    assert mean_error(mesh8, report, case) < 1e-7


def counting(monkeypatch, owner, name: str) -> list:
    """Replace ``owner.name`` by a wrapper that records each call's
    arguments."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_coupled_run_orders_its_pattern_once(mesh8, neo, monkeypatch):
    """A coupled run of k corrections orders its pattern by minimum degree
    at the first factorisation only and factorises the k - 1 later
    matrices in that order.  Runs share no ordering: nlbc and bc each
    start with their own."""
    calls = counting(monkeypatch, spla, "splu")
    case = MMSCase("uniaxial", TRACTION, 1.3)
    for method in ("nlbc", "bc"):
        calls.clear()
        report = run(mesh8, neo, mms_bcs(case, neo),
                     SolveConfig(method=method, n_load_steps=4))
        assert report.converged and report.total_corrections >= 4
        orders = [kwargs["permc_spec"] for _, kwargs in calls]
        assert orders == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (report.total_corrections - 1)
        if method == "nlbc":
            assert mean_error(mesh8, report, case) < 1e-6


def test_load_steps_redo_only_what_the_load_changes(mesh8, neo, monkeypatch):
    """Kinds, row weights and the rigid-body rank check are set up once per
    run.  The check that ends a load step evaluates the state that the
    next step's first correction starts from, so a run evaluates its face
    states once per correction plus once.  Every residual still reads the
    prescribed values of a full table build at its load factor and the
    face states of its own state, bit for bit."""
    checks = counting(monkeypatch, assembly, "_check_rigid_body_modes")
    evaluations = counting(monkeypatch, solver, "face_states")
    residuals = counting(monkeypatch, solver, "newton_rhs")
    bcs = mms_bcs(MMSCase("uniaxial", TRACTION, 1.3), neo)
    report = run(mesh8, neo, bcs, SolveConfig(method="nlbc", n_load_steps=4))
    assert report.converged and len(checks) == 1
    assert len(evaluations) == report.total_corrections + 1
    steps = np.repeat(np.arange(4), [n + 1 for n in report.n_corr])
    assert len(residuals) == steps.size
    for step, ((mesh, state, table, flux_density), _) in zip(steps, residuals):
        npt.assert_array_equal(table.value,
                               build_boundary_table(mesh, bcs, (step + 1) / 4).value)
        npt.assert_array_equal(flux_density,
                               assembly.face_states(mesh, neo, state)[2])


def test_histories_track_normalised_residuals(mesh8, neo):
    case = MMSCase("uniaxial", DISPLACEMENT, 1.2)
    cfg = SolveConfig(method="seg", relaxation=0.9)
    report = run(mesh8, neo, mms_bcs(case, neo), cfg)
    history = report.residual_history[0]
    assert history[0] == pytest.approx(1.0)
    assert history[-1] < 1e-7
    assert len(history) == report.n_corr[0] + 1


# ---------------------------------------------------------------------------
# failure modes, shared by every method
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["nlbc", "bc", "seg"])
def test_budget_exhaustion_reports_failure(mesh8, neo, method):
    # a zero tolerance is never met, and three corrections are too few for
    # the five consecutive rises that would call the run diverged
    case = MMSCase("uniaxial", TRACTION, 2.0)
    cfg = SolveConfig(method=method, max_corrections=3, outer_tolerance=0.0)
    report = run(mesh8, neo, mms_bcs(case, neo), cfg)
    assert not report.converged
    assert report.failure == "no convergence within 3 corrections"
    assert report.n_corr == [3]
    assert len(report.residual_history[0]) == report.n_corr[0] + 1


@pytest.mark.parametrize("method,n,kind,amplitude", [
    ("nlbc", 8, "uniaxial", 0.3),
    ("seg", 16, "shear", 0.45),
])
def test_divergence_reports_inversion(neo, method, n, kind, amplitude):
    """bc is absent: its Hookean material freezes the geometry, so no
    element can invert under it."""
    mesh = build_mesh(n, n, 1.0, 1.0)
    case = MMSCase(kind, TRACTION, amplitude)
    report = run(mesh, neo, mms_bcs(case, neo), SolveConfig(method=method))
    assert not report.converged
    assert "inverted element" in report.failure
    # the inverted state is rejected before its residual is recorded
    assert len(report.residual_history[-1]) == report.n_corr[-1]
