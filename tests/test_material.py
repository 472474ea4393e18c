"""Constitutive models: closed forms against finite differences and hand values."""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from fvsolid import (
    InvertedElementError,
    Lame,
    LinearElastic,
    NeoHookean,
    lame_from_E_nu,
)
from fvsolid.material import check_positive_jacobian
from fvsolid.tensors import mul2
from tests import oracles
from tests.conftest import random_gradients

# Order-one parameters keep finite-difference noise well below the comparison
# tolerances; scale invariance of the formulas is checked separately.
UNIT = NeoHookean(Lame(mu=0.8, lam=1.3))


def _second_piola(material, c):
    """S = F^-1 P of the material at right Cauchy-Green tensor C, through
    stress_state."""
    return oracles.second_piola(material, oracles.cholesky_gradient(c))


def _first_piola(material, g):
    """P, the stress whose normal component is the face flux."""
    return material.stress_state(g)[1]


# ---------------------------------------------------------------------------
# parameter conversion and guards
# ---------------------------------------------------------------------------


def test_lame_plane_strain():
    lame = lame_from_E_nu(200e9, 0.3, "plane_strain")
    assert lame.mu == pytest.approx(200e9 / 2.6)
    assert lame.lam == pytest.approx(200e9 * 0.3 / (1.3 * 0.4))


def test_lame_plane_stress():
    lame = lame_from_E_nu(1.0, 0.25, "plane_stress")
    assert lame.mu == pytest.approx(0.4)
    assert lame.lam == pytest.approx(0.25 / (1.25 * 0.75))


def test_lame_unknown_regime():
    with pytest.raises(ValueError, match="unknown regime"):
        lame_from_E_nu(1.0, 0.3, "axisymmetric")


@pytest.mark.parametrize("E,nu", [
    (1.0, 0.5), (1.0, -1.0), (1.0, 0.7), (np.nan, 0.3), (np.inf, 0.3),
    (0.0, 0.3), (-1.0, 0.3), (1.0, np.nan),
])
def test_lame_rejects_bad_moduli(E, nu):
    with pytest.raises(ValueError, match="must"):
        lame_from_E_nu(E, nu)


def test_inverted_element_error_message():
    err = InvertedElementError(17, -0.25, label="boundary face")
    assert err.index == 17
    assert err.det_f == -0.25
    assert "det(F) = -2.500000e-01" in str(err)
    assert "boundary face 17" in str(err)


def test_nan_jacobian_is_an_inverted_element():
    """A NaN det(F) compares false with zero, so the check must be written
    to fail on it rather than pass; the report names the NaN entry."""
    grad = np.zeros((3, 2, 2))
    grad[2, 0, 0] = np.nan
    with pytest.raises(InvertedElementError, match="nan at cell 2"):
        UNIT.stress_state(grad)


def test_non_finite_jacobian_is_not_an_inversion():
    """An overflowed det(F), NaN or +inf (which passed the check before), is
    reported as non-finite at its first entry, ahead of a finite fold."""
    det_f = np.array([1.0, -0.5, np.inf, np.nan])
    with pytest.raises(InvertedElementError,
                       match=r"^non-finite deformation: det\(F\) = inf at face 2$"):
        check_positive_jacobian(det_f, "face")
    with pytest.raises(InvertedElementError, match=r"^inverted element: det\(F\) = -5"):
        check_positive_jacobian(det_f[:2], "face")


@pytest.mark.parametrize("det_f, message", [
    ([np.inf], "non-finite deformation: det(F) = inf at face 0"),
    ([1.0, 2.0, np.nan, 3.0], "non-finite deformation: det(F) = nan at face 2"),
    ([1.0, 2.0, 0.0, 3.0], "inverted element: det(F) = 0.000000e+00 at face 2"),
    ([1.0, 2.0, -0.0, 3.0], "inverted element: det(F) = -0.000000e+00 at face 2"),
    ([1.0, 2.0, -0.5, 3.0], "inverted element: det(F) = -5.000000e-01 at face 2"),
    ([1.0, 2.0, np.inf, 3.0], "non-finite deformation: det(F) = inf at face 2"),
], ids=["inf", "nan", "zero", "negative_zero", "negative", "positive_with_inf"])
def test_jacobian_check_messages(det_f, message):
    """Every stack that is not all finite and positive fails the check's
    one-min-one-max test and gets the full report, word for word."""
    with pytest.raises(InvertedElementError) as info:
        check_positive_jacobian(np.array(det_f), "face")
    assert str(info.value) == message


def test_stress_state_raises_on_inversion():
    grad = np.zeros((3, 2, 2))
    grad[1] = np.diag([-1.5, 0.0])
    with pytest.raises(InvertedElementError, match="cell 1"):
        UNIT.stress_state(grad)
    # the same gradients pass under the geometry-frozen linear model
    LinearElastic(Lame(1.0, 1.0)).stress_state(grad)


# ---------------------------------------------------------------------------
# neo-Hookean closed forms
# ---------------------------------------------------------------------------


def test_second_piola_stress_free_at_identity():
    _, p = UNIT.stress_state(np.zeros((2, 2)))
    npt.assert_allclose(p, 0.0, atol=1e-15)
    npt.assert_allclose(oracles.second_piola(UNIT, np.zeros((2, 2))), 0.0, atol=1e-15)


def test_second_piola_uniaxial_hand_value():
    """F = diag(2, 1) evaluated from the model's scalar definition."""
    s = oracles.second_piola(UNIT, np.diag([1.0, 0.0]))
    log_j = 0.5 * np.log(4.0)
    expected = np.diag([
        UNIT.mu * (1.0 - 0.25) + UNIT.lam * log_j * 0.25,
        UNIT.lam * log_j,
    ])
    npt.assert_allclose(s, expected, rtol=1e-14)


def test_first_piola_is_f_times_c_based_second_piola(rng):
    """stress_state's P equals F S, with S from the C-based oracle (LAPACK
    inverse and determinant), to 1e-13 relative per gradient, for unit and
    physical moduli, at random gradients whose J spans 0.2 to 5."""
    f0 = np.eye(2) + random_gradients(rng, 200, scale=0.3)
    j = np.exp(rng.uniform(np.log(0.2), np.log(5.0), 200))
    grad = f0 * np.sqrt(j / np.linalg.det(f0))[:, None, None] - np.eye(2)
    f = np.eye(2) + grad
    assert 0.19 < np.linalg.det(f).min() and np.linalg.det(f).max() < 5.1
    for mat in (UNIT, NeoHookean(lame_from_E_nu(0.02e9, 0.3))):
        _, p = mat.stress_state(grad)
        ref = f @ oracles.second_piola_of_c(mat, np.swapaxes(f, -1, -2) @ f)
        gap = np.abs(p - ref).max(axis=(1, 2))
        assert (gap <= 1e-13 * np.abs(ref).max(axis=(1, 2))).all(), gap.max()


def _strain_energy(material, c):
    """Stored energy density, written out independently of the stress code;
    in plane strain C_33 = 1 adds one to the trace."""
    j = np.sqrt(np.linalg.det(c))
    return (0.5 * material.mu * (np.trace(c) + 1.0 - 3.0)
            - material.mu * np.log(j)
            + 0.5 * material.lam * np.log(j) ** 2)


def test_second_piola_is_energy_gradient(rng):
    """S = 2 dW/dC by central differences of the scalar energy."""
    h = 1e-6
    for _ in range(5):
        g = random_gradients(rng, 1)[0]
        f = np.eye(2) + g
        c = f.T @ f
        s = _second_piola(UNIT, c)
        fd = np.zeros((2, 2))
        for k in range(2):
            for l in range(2):
                dc = np.zeros((2, 2))
                dc[k, l] = dc[l, k] = h
                fd[k, l] = (_strain_energy(UNIT, c + dc)
                            - _strain_energy(UNIT, c - dc)) / (2.0 * h)
        # off-diagonal probes perturb two entries, so they pick up both
        # symmetric sensitivities at once: S_kl = fd_kl there, 2 fd_kk on
        # the diagonal
        npt.assert_allclose(s, fd * (1.0 + np.eye(2)), rtol=1e-6, atol=1e-8)


def test_elasticity_tensor_matches_finite_differences(rng):
    """dS = C : dE checked entry by entry around random states."""
    h = 1e-6
    g = random_gradients(rng, 1)[0]
    f = np.eye(2) + g
    c = f.T @ f
    cc = oracles.elasticity_tensor(UNIT, c)
    for k in range(2):
        for l in range(2):
            dc = np.zeros((2, 2))
            dc[k, l] += h
            dc[l, k] += h
            fd = (_second_piola(UNIT, c + dc) - _second_piola(UNIT, c - dc)) / (2.0 * h)
            npt.assert_allclose(cc[:, :, k, l], fd, rtol=5e-6, atol=1e-7)


def test_elasticity_tensor_symmetries(rng):
    g = random_gradients(rng, 4)
    f = np.eye(2) + g
    c = np.einsum("bki,bkj->bij", f, f)
    cc = oracles.elasticity_tensor(UNIT, c)
    scale = np.abs(cc).max()
    # right minor symmetry
    npt.assert_allclose(cc, cc.transpose(0, 1, 2, 4, 3), atol=1e-14 * scale)
    # major symmetry of the hyperelastic tangent
    npt.assert_allclose(cc, cc.transpose(0, 3, 4, 1, 2), atol=1e-14 * scale)


def test_t_tensor_closed_form_matches_contraction(rng):
    g = random_gradients(rng, 6)
    f = np.eye(2) + g
    n = np.zeros((6, 2))
    angles = rng.uniform(0.0, 2.0 * np.pi, 6)
    n[:, 0], n[:, 1] = np.cos(angles), np.sin(angles)
    for d in range(2):
        closed = oracles.t_tensor(UNIT, f, n, d)
        brute = oracles.t_tensor_contracted(UNIT, f, n, d)
        npt.assert_allclose(closed, brute, rtol=1e-12, atol=1e-12)


def test_dp_apply_matches_finite_differences(rng):
    h = 1e-7
    for _ in range(20):
        g = random_gradients(rng, 1)[0]
        b = rng.normal(size=(2, 2))
        fd = (_first_piola(UNIT, g + h * b) - _first_piola(UNIT, g - h * b)) / (2.0 * h)
        exact = oracles.dP_apply(UNIT, g, b)
        npt.assert_allclose(exact, fd, rtol=1e-5, atol=1e-6)


def _unit_vectors(rng, n):
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.column_stack((np.cos(angles), np.sin(angles)))


def _directions(rng, n):
    """Face directions m for H(m): the normal, its tangent and a random
    unit vector per face."""
    return n, np.column_stack((-n[:, 1], n[:, 0])), _unit_vectors(rng, len(n))


def _h_oracle(material, f, s, n, m, t_route):
    """H(m) = (w.m) I + sum_d m_d T_d from w = S N and an oracle route's
    tensors.  The oracle T^d couples row d of a gradient perturbation B,
    so under B = a x m the flux changes by (w.m) a + sum_d a_d T^d m:
    column d of H(m) is (w.m) e_d + T^d m."""
    dim = f.shape[-1]
    wm = np.einsum("...ij,...j,...i->...", s, n, m)
    columns = [np.einsum("...ij,...j->...i", t_route(material, f, n, d), m)
               for d in range(dim)]
    return wm[..., None, None] * np.eye(dim) + np.stack(columns, axis=-1)


def test_face_linearisation_reproduces_flux_derivative(rng):
    """H(m) a equals (dP : (a x m)) @ N exactly, and H(m) equals
    (w.m) I + sum_d m_d T_d, for the normal, the tangent and random m."""
    g = random_gradients(rng, 5)
    f, _ = UNIT.stress_state(g)
    s = oracles.second_piola(UNIT, g)
    n = np.zeros((5, 2))
    n[:, 0] = 1.0
    n[2:, :] = [0.0, 1.0]
    directions = _directions(rng, n)
    blocks = UNIT.face_linearisation(f, n, directions)
    assert len(blocks) == 3
    for m, h in zip(directions, blocks):
        assert h.shape == (5, 2, 2)
        npt.assert_allclose(h, _h_oracle(UNIT, f, s, n, m, oracles.t_tensor),
                            rtol=1e-11, atol=1e-11)
        for _ in range(4):
            a = rng.normal(size=2)
            for k in range(5):
                exact = oracles.dP_apply(UNIT, g[k], np.outer(a, m[k])) @ n[k]
                npt.assert_allclose(h[k] @ a, exact, rtol=1e-11, atol=1e-11)


def test_neo_hookean_tangent_at_rest_is_hookean_bit_for_bit(rng):
    """At zero displacement the neo-Hookean H(m) rounds exactly like the
    Hookean one, so the first correction's matrix is the linear one."""
    f, _ = UNIT.stress_state(np.zeros((6, 2, 2)))
    n = _unit_vectors(rng, 6)
    directions = _directions(rng, n)
    hooke = LinearElastic(Lame(UNIT.mu, UNIT.lam))
    for neo_h, hooke_h in zip(UNIT.face_linearisation(f, n, directions),
                              hooke.face_linearisation(f, n, directions)):
        npt.assert_array_equal(neo_h, hooke_h)


def _kernel_layout(rng, layout, n=40):
    """A displacement gradient, a face normal and the three directions of
    ``_directions`` as a batched stack, as ``swapaxes`` views (strided),
    component-major (each component contiguous, as the solver's face
    stacks are), or as one unbatched matrix and vectors."""
    g = random_gradients(rng, n)
    normal = _unit_vectors(rng, n)
    directions = _directions(rng, normal)
    if layout == "swapaxes":
        g = np.swapaxes(np.ascontiguousarray(np.swapaxes(g, -1, -2)), -1, -2)
        stacked = np.stack((normal,) + directions, axis=-1)     # (n, 2, 4)
        normal, *directions = (stacked[..., k] for k in range(4))
    elif layout == "component-major":
        g = np.asfortranarray(g)
        normal, *directions = (np.asfortranarray(m) for m in (normal,) + directions)
    elif layout == "single":
        g, normal, directions = g[0], normal[0], [m[0] for m in directions]
    return g, normal, directions


@pytest.mark.parametrize("layout", ["batched", "swapaxes", "component-major", "single"])
def test_kernels_match_matrix_forms_bit_for_bit(rng, layout):
    """The per-component stress and flux coefficients of both laws round
    exactly as the matrix forms of the test oracles (dyads, dot2 and
    broadcast identities) with the same grouping."""
    g, n, directions = _kernel_layout(rng, layout)
    for lame in (Lame(UNIT.mu, UNIT.lam), lame_from_E_nu(0.02e9, 0.3)):
        neo, hooke = NeoHookean(lame), LinearElastic(lame)
        f, _ = neo.stress_state(g)
        blocks = neo.face_linearisation(f, n, directions)
        assert blocks.shape == (3,) + np.shape(f)
        for h, ref in zip(blocks, oracles.neo_hookean_face_linearisation(
                neo, f, n, directions)):
            npt.assert_array_equal(h, ref)
        f_lin, p = hooke.stress_state(g)
        npt.assert_array_equal(p, oracles.linear_elastic_stress(hooke, g))
        blocks = hooke.face_linearisation(f_lin, n, directions)
        assert blocks.shape == (3,) + np.shape(f)
        for h, ref in zip(blocks, oracles.linear_elastic_face_linearisation(
                hooke, n, directions)):
            npt.assert_array_equal(h, ref)


def test_t_tensor_row_contract_matches_flux_derivative(rng):
    """sum_d T^d @ B[d] row-assembles the same directional flux change."""
    g = random_gradients(rng, 1)[0]
    f = np.eye(2) + g
    n = np.array([0.0, 1.0])
    b = rng.normal(size=(2, 2))
    total = sum(oracles.t_tensor(UNIT, f, n, d) @ b[d] for d in range(2))
    s = oracles.second_piola(UNIT, g)
    exact = oracles.dP_apply(UNIT, g, b) @ n - b @ (s @ n)
    npt.assert_allclose(total, exact, rtol=1e-11, atol=1e-11)


def test_rigid_rotation_is_stress_free():
    angle = 0.3
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    p = _first_piola(UNIT, rot - np.eye(2))
    npt.assert_allclose(p, 0.0, atol=1e-14)


def test_closed_forms_scale_with_moduli(rng, neo):
    """The physical material is a unit-modulus material times E: pure scaling."""
    g = random_gradients(rng, 3)
    unit_like = NeoHookean(Lame(mu=neo.mu / 0.02e9, lam=neo.lam / 0.02e9))
    npt.assert_allclose(neo.stress_state(g)[1],
                        0.02e9 * unit_like.stress_state(g)[1], rtol=1e-13)


# ---------------------------------------------------------------------------
# plane strain: the 2-D forms are the in-plane blocks of the 3-D ones
# ---------------------------------------------------------------------------


def _plane_strain(g):
    """3x3 displacement gradients of a plane-strain state (F_33 = 1)."""
    g3 = np.zeros(g.shape[:-2] + (3, 3))
    g3[..., :2, :2] = g
    return g3


def _assert_rel(actual, reference, rtol=1e-14):
    assert np.abs(actual - reference).max() <= rtol * np.abs(reference).max()


def test_neo_hookean_is_in_plane_block_of_3d_oracles(rng):
    """stress_state's P, its S = F^-1 P and face_linearisation against the
    3-D oracle formulas (LAPACK inverse and determinant) on the plane-strain
    embedding, in-plane block, for both unit and physical moduli."""
    g = random_gradients(rng, 50)
    angles = rng.uniform(0.0, 2.0 * np.pi, 50)
    n = np.column_stack((np.cos(angles), np.sin(angles)))
    n3 = np.column_stack((n, np.zeros(50)))
    f3 = np.eye(3) + _plane_strain(g)
    for mat in (UNIT, NeoHookean(lame_from_E_nu(0.02e9, 0.3))):
        s3 = oracles.second_piola_of_c(mat, np.swapaxes(f3, -1, -2) @ f3)
        f, p = mat.stress_state(g)
        npt.assert_array_equal(f, f3[:, :2, :2])
        _assert_rel(oracles.second_piola(mat, g), s3[:, :2, :2])
        _assert_rel(p, (f3 @ s3)[:, :2, :2])
        directions = _directions(rng, n)
        blocks = mat.face_linearisation(f, n, directions)
        for m, h in zip(directions, blocks):
            m3 = np.column_stack((m, np.zeros(50)))
            for oracle in (oracles.t_tensor, oracles.t_tensor_contracted):
                h3 = _h_oracle(mat, f3, s3, n3, m3, oracle)
                _assert_rel(h, h3[:, :2, :2])


def test_linear_elastic_is_in_plane_block_of_3d_hooke(rng):
    """Hooke's law and its flux coupling in 3-D, at zero out-of-plane
    strain, reduce to the 2-D stress and H(m) blocks."""
    mat = LinearElastic(Lame(mu=2.0, lam=3.0))
    g = rng.normal(size=(6, 2, 2))
    g3 = _plane_strain(g)
    eye3 = np.eye(3)
    sigma3 = (2.0 * (g3 + np.swapaxes(g3, -1, -2))
              + 3.0 * np.trace(g3, axis1=-2, axis2=-1)[:, None, None] * eye3)
    f, p = mat.stress_state(g)
    _assert_rel(p, sigma3[:, :2, :2])
    _assert_rel(oracles.second_piola(mat, g), sigma3[:, :2, :2])
    n = np.array([[0.6, 0.8]] * 6)
    n3 = np.column_stack((n, np.zeros(6)))
    # T_d[i, j] = d(sigma(B) N)_i / dB_jd for the 3-D Hookean stress
    t3 = (3.0 * np.einsum("bi,jd->bdij", n3, eye3)
          + 2.0 * (np.einsum("bd,ij->bdij", n3, eye3)
                   + np.einsum("id,bj->bdij", eye3, n3)))
    directions = _directions(rng, n)
    for m, h in zip(directions, mat.face_linearisation(f, n, directions)):
        m3 = np.column_stack((m, np.zeros(6)))
        _assert_rel(h, np.einsum("bdij,bd->bij", t3, m3)[:, :2, :2])


# ---------------------------------------------------------------------------
# linear elasticity
# ---------------------------------------------------------------------------


def test_linear_stress_formula(rng):
    mat = LinearElastic(Lame(mu=2.0, lam=3.0))
    g = rng.normal(size=(2, 2))
    expected = 2.0 * (g + g.T) + 3.0 * np.trace(g) * np.eye(2)
    npt.assert_allclose(mat.stress_state(g)[1], expected)
    npt.assert_allclose(_first_piola(mat, g), expected)
    npt.assert_allclose(oracles.dP_apply(mat, g, g), expected)


def test_linear_stress_state_freezes_geometry(rng):
    mat = LinearElastic(Lame(mu=2.0, lam=3.0))
    g = rng.normal(size=(4, 2, 2))
    f, s = mat.stress_state(g)
    npt.assert_allclose(f, np.broadcast_to(np.eye(2), (4, 2, 2)))
    npt.assert_allclose(s, 2.0 * (g + np.swapaxes(g, -1, -2))
                        + 3.0 * np.trace(g, axis1=-2, axis2=-1)[:, None, None] * np.eye(2))


def test_linear_flux_stress_is_sigma_exactly(rng):
    """With F the broadcast identity, P = F S rounds to sigma bit for bit,
    so a Hookean traction is sigma N however it is formed."""
    mat = LinearElastic(lame_from_E_nu(200e9, 0.3))
    g = 1e-3 * rng.normal(size=(8, 2, 2))
    f, s = mat.stress_state(g)
    npt.assert_array_equal(mul2(f, s), s)


def test_linear_face_linearisation_contract(rng):
    """H(m) a is the Hookean stress of a x m applied to N."""
    mat = LinearElastic(Lame(mu=2.0, lam=3.0))
    n = np.array([1.0, 0.0])
    f, _ = mat.stress_state(np.zeros((1, 2, 2)))
    n = np.broadcast_to(n, (1, 2))
    directions = _directions(rng, n)
    blocks = mat.face_linearisation(f, n, directions)
    for m, h in zip(directions, blocks):
        a = rng.normal(size=2)
        _, sigma = mat.stress_state(np.outer(a, m[0]))
        npt.assert_allclose(h[0] @ a, sigma @ n[0], rtol=1e-14)


def test_model_flags():
    assert NeoHookean(Lame(1.0, 1.0)).linear is False
    assert LinearElastic(Lame(1.0, 1.0)).linear is True
