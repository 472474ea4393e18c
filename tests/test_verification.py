"""Manufactured fields, their boundary data, and the beam benchmark value."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from fvsolid import (BoundaryCondition, LinearElastic, MMSCase, NeoHookean, SolveConfig,
                     build_mesh, cantilever_deflection, compute_errors, lame_from_E_nu)
from fvsolid.assembly import DISPLACEMENT, SYMMETRY, TRACTION, boundary_values
from fvsolid.mesh import BOTTOM, LEFT, RIGHT, TOP
from fvsolid.solver import run
from fvsolid.verification import (
    CASES,
    dirichlet_data,
    mms_bcs,
    mms_deformation_gradient,
)

NORMALS = ((RIGHT, [1.0, 0.0]), (BOTTOM, [0.0, -1.0]), (TOP, [0.0, 1.0]))


def traction_data(case, material, t, patch):
    """The traction that ``mms_bcs`` prescribes on a patch at load factor t."""
    return mms_bcs(case, material)[patch].value(np.zeros((1, 2)), t)


def test_uniaxial_gradient_interpolates_in_load():
    case = MMSCase("uniaxial", DISPLACEMENT, 2.0)
    npt.assert_allclose(mms_deformation_gradient(case, 0.0), np.eye(2))
    npt.assert_allclose(mms_deformation_gradient(case, 0.5),
                        np.diag([1.5, 1.0]))
    npt.assert_allclose(mms_deformation_gradient(case, 1.0),
                        np.diag([2.0, 1.0]))


def test_shear_gradient_fills_upper_entry():
    case = MMSCase("shear", DISPLACEMENT, 0.45)
    f = mms_deformation_gradient(case, 1.0)
    expected = np.eye(2)
    expected[0, 1] = 0.45
    npt.assert_allclose(f, expected)
    npt.assert_allclose(mms_deformation_gradient(case, 0.2)[0, 1], 0.09)


def test_dirichlet_data_hand_values():
    stretch = MMSCase("uniaxial", DISPLACEMENT, 2.0)
    npt.assert_allclose(dirichlet_data(stretch, 1.0, [1.0, 0.5]),
                        [1.0, 0.0])
    shear = MMSCase("shear", DISPLACEMENT, 0.45)
    npt.assert_allclose(dirichlet_data(shear, 1.0, [0.5, 1.0]),
                        [0.45, 0.0])
    npt.assert_allclose(dirichlet_data(shear, 0.0, [0.5, 1.0]), 0.0)


def test_traction_data_from_scalar_formulas(neo):
    """Uniaxial traction against the stress written out component-wise."""
    case = MMSCase("uniaxial", TRACTION, 2.0)
    phi, mu, lam = 2.0, neo.mu, neo.lam
    s11 = mu * (1.0 - 1.0 / phi**2) + lam * np.log(phi) / phi**2
    s22 = lam * np.log(phi)
    t_right = traction_data(case, neo, 1.0, RIGHT)
    npt.assert_allclose(t_right, [phi * s11, 0.0], rtol=1e-14)
    t_top = traction_data(case, neo, 1.0, TOP)
    npt.assert_allclose(t_top, [0.0, s22], rtol=1e-14)


def test_shear_traction_is_exactly_mu_omega(neo):
    """Simple shear of this model carries P12 = mu * omega on the top face."""
    case = MMSCase("shear", TRACTION, 0.45)
    t_top = traction_data(case, neo, 1.0, TOP)
    npt.assert_allclose(t_top[0], neo.mu * 0.45, rtol=1e-14)
    t_right = traction_data(case, neo, 1.0, RIGHT)
    npt.assert_allclose(t_right[1], neo.mu * 0.45, rtol=1e-14)


@pytest.mark.parametrize("law", [NeoHookean, LinearElastic])
@pytest.mark.parametrize("kind,amplitude", [("uniaxial", 0.7), ("uniaxial", 1.5),
                                            ("shear", 0.45)])
def test_traction_data_is_flux_of_stress_state(law, kind, amplitude):
    """The boundary traction is P N of the one constitutive path, for
    both laws; the Hookean one is sigma N exactly, as P = sigma there."""
    material = law(lame_from_E_nu(0.02e9, 0.3))
    case = MMSCase(kind, TRACTION, amplitude)
    for t in (0.025, 0.5, 1.0):
        grad = mms_deformation_gradient(case, t) - np.eye(2)
        _, p = material.stress_state(grad)
        for patch, normal in NORMALS:
            normal = np.array(normal)
            traction = traction_data(case, material, t, patch)
            npt.assert_allclose(traction, p @ normal, rtol=1e-15,
                                atol=1e-15 * np.abs(p).max())
            if material.linear:
                sigma = (material.mu * (grad + grad.T)
                         + material.lam * np.trace(grad) * np.eye(2))
                npt.assert_array_equal(traction, sigma @ normal)


def test_mms_bcs_displacement_covers_all_patches(neo):
    case = MMSCase("uniaxial", DISPLACEMENT, 1.3)
    bcs = mms_bcs(case, neo)
    assert set(bcs) == {LEFT, RIGHT, BOTTOM, TOP}
    assert all(bc.kind == DISPLACEMENT for bc in bcs.values())
    npt.assert_allclose(bcs[RIGHT].value(np.array([1.0, 0.3]), 1.0),
                        [0.3, 0.0])


def test_mms_bcs_traction_pins_left_patch(neo):
    case = MMSCase("uniaxial", TRACTION, 1.3)
    bcs = mms_bcs(case, neo)
    assert bcs[LEFT].kind == DISPLACEMENT
    for patch in (RIGHT, BOTTOM, TOP):
        assert bcs[patch].kind == TRACTION
    # outward data: bottom carries minus the top traction
    top = bcs[TOP].value(np.zeros(2), 1.0)
    bottom = bcs[BOTTOM].value(np.zeros(2), 1.0)
    npt.assert_allclose(bottom, -top)


def test_mms_case_validation():
    with pytest.raises(ValueError, match="'stretch' must be positive, got -0.2"):
        MMSCase("uniaxial", DISPLACEMENT, -0.2)
    with pytest.raises(ValueError, match="unknown manufactured case"):
        MMSCase("bending", DISPLACEMENT, 1.0)
    with pytest.raises(ValueError, match="unknown bc kind"):
        MMSCase("shear", SYMMETRY, 0.45)
    # A bool is a number to Python and numpy, but never an amplitude.
    for kind, key in (("uniaxial", "stretch"), ("shear", "shear_factor")):
        for flag in (True, False, np.True_, np.False_):
            with pytest.raises(ValueError, match=f"'{key}' must be a number, got {flag}"):
                MMSCase(kind, TRACTION, flag)


@pytest.mark.parametrize("bc_kind", [DISPLACEMENT, TRACTION])
@pytest.mark.parametrize("kind,key", [("uniaxial", "stretch"), ("shear", "shear_factor")])
@pytest.mark.parametrize("amplitude", [np.nan, np.inf, -np.inf])
def test_mms_case_rejects_non_finite_amplitude(kind, key, bc_kind, amplitude):
    """The library refuses what the CLI refuses, in the CLI's words: a
    traction case would otherwise fold an element while building its
    boundary table."""
    with pytest.raises(ValueError, match=f"'{key}' must be finite, got {amplitude}"):
        MMSCase(kind, bc_kind, amplitude)


@pytest.mark.parametrize("method,law,stretch,tolerance,bound", [
    ("nlbc", NeoHookean, 1.2, 1e-7, 1e-10),
    ("nlbc", LinearElastic, 1.01, 1e-7, 1e-10),
    ("bc", LinearElastic, 1.01, 1e-7, 1e-10),
    ("seg", NeoHookean, 1.2, 1e-8, 1e-8),
    ("seg", LinearElastic, 1.01, 1e-8, 1e-8),
])
def test_quarter_model_on_symmetry_planes(method, law, stretch, tolerance, bound):
    """Uniaxial stretch solved on a quarter of the square: symmetry planes
    on the left and bottom, the exact tractions of ``mms_bcs`` on the
    right and top.  The homogeneous field satisfies both planes, so the
    run must land on it and keep u . N exactly zero there."""
    material = law(lame_from_E_nu(0.02e9, 0.3))
    mesh = build_mesh(8, 8, 1.0, 1.0)
    case = MMSCase("uniaxial", TRACTION, stretch)
    bcs = mms_bcs(case, material)
    bcs.update({LEFT: BoundaryCondition(SYMMETRY), BOTTOM: BoundaryCondition(SYMMETRY)})
    report = run(mesh, material, bcs, SolveConfig(method=method, outer_tolerance=tolerance,
                                                  max_corrections=2000))
    assert report.converged
    assert compute_errors(mesh, report.state.displacement, case).mean < bound
    for patch in (LEFT, BOTTOM):
        faces = mesh.patch_faces(patch)
        u = report.state.displacement[mesh.n_cells + mesh.face_boundary_index[faces]]
        npt.assert_array_equal((u * mesh.face_normal[faces]).sum(axis=1), 0.0)


def test_compute_errors_metrics():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    case = MMSCase("uniaxial", DISPLACEMENT, 1.5)
    grad = np.diag([0.5, 0.0])
    exact = np.vstack([mesh.cell_centroids,
                       mesh.face_centroid[mesh.bface_face]]) @ grad.T
    metrics = compute_errors(mesh, exact, case)
    assert metrics.mean == metrics.max == metrics.min == 0.0

    shifted = exact.copy()
    shifted[: mesh.n_cells] += [3e-4, 4e-4]
    metrics = compute_errors(mesh, shifted, case)
    npt.assert_allclose([metrics.mean, metrics.max, metrics.min], 5e-4)


def test_compute_errors_partial_load():
    mesh = build_mesh(3, 3, 1.0, 1.0)
    case = MMSCase("shear", DISPLACEMENT, 0.4)
    u = np.zeros((mesh.n_unknowns, 2))
    u[: mesh.n_cells, 0] = 0.2 * mesh.cell_centroids[:, 1]
    assert compute_errors(mesh, u, case, t=0.5).max < 1e-15


def test_cantilever_deflection_reference_value():
    """End-loaded plane-strain beam: 2 m by 0.1 m at 1 MPa end shear."""
    value = cantilever_deflection(E=200e9, nu=0.3, length=2.0,
                                  load=1e6 * 0.1,
                                  second_moment=0.1**3 / 12.0)
    assert value == pytest.approx(14.56e-3, rel=1e-3)


def test_cantilever_deflection_scales_linearly():
    base = cantilever_deflection(200e9, 0.3, 2.0, 1e5, 8.33e-5)
    npt.assert_allclose(cantilever_deflection(200e9, 0.3, 2.0, 2e5, 8.33e-5),
                        2.0 * base)


def test_cantilever_locks_near_incompressibility():
    """Volumetric locking of the default discretisation, recorded: the
    plane-strain cantilever case at nu = 0.499 (Hookean, ``nlbc``) is far
    too stiff.  Its end-deflection error falls under refinement but stays
    above 50 % at 300x15, where nu = 0.3 gives 0.2 %.  A remedy for
    locking must change this test."""
    cfg = SimpleNamespace(E=200e9, nu=0.499, regime="plane_strain", traction=1e6)
    case = CASES["cantilever"]
    material = LinearElastic(lame_from_E_nu(cfg.E, cfg.nu, cfg.regime))
    errors = []
    for nx, ny in ((100, 5), (300, 15)):
        mesh = build_mesh(nx, ny, *case.domain)
        report = run(mesh, material, case.bcs(cfg, material), SolveConfig(method="nlbc"))
        assert report.converged, f"{nx}x{ny}: {report.failure}"
        fields, _ = case.reference(mesh, report.state.displacement, cfg)
        errors.append(fields["deflection_rel_error"])
    assert errors[0] > errors[1] > 0.5, f"deflection errors {errors}"


@pytest.mark.parametrize("law", [NeoHookean, LinearElastic])
def test_mms_bcs_traction_patches_share_one_stress_per_load_factor(law):
    """Each load step's boundary values evaluate the exact stress once for
    the three traction patches, and every patch's traction is P N of a
    fresh evaluation bit for bit."""
    lame = lame_from_E_nu(0.02e9, 0.3)

    class Counting(law):
        calls = 0

        def stress_state(self, grad_u):
            Counting.calls += 1
            return super().stress_state(grad_u)

    case = MMSCase("uniaxial", TRACTION, 1.5)
    mesh = build_mesh(3, 4, 1.5, 1.0)
    bcs = mms_bcs(case, Counting(lame))
    loads = (0.025, 0.05, 0.5, 1.0)
    for t in loads:
        values = boundary_values(mesh, bcs, t)
        _, p = law(lame).stress_state(mms_deformation_gradient(case, t) - np.eye(2))
        for patch, normal in NORMALS:
            rows = mesh.face_boundary_index[mesh.patch_faces(patch)]
            npt.assert_array_equal(values[rows],
                                   np.broadcast_to(p @ np.array(normal), (rows.size, 2)))
    assert Counting.calls == len(loads)
