"""Block-system assembly: boundary tables, residuals and the exact Jacobian.

The central check differentiates the assembled residual by central finite
differences, column by column, and holds the matrix against it for every
boundary-condition kind at a random nonlinear state.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse.linalg as spla

from fvsolid import (BOTTOM, LEFT, RIGHT, TOP, BoundaryCondition, MMSCase,
                     build_mesh, linsolve, mms_bcs)
from fvsolid.assembly import (
    DISPLACEMENT,
    SYMMETRY,
    TRACTION,
    RigidBodyModeError,
    assemble_scalar_operator,
    assemble_system,
    build_boundary_table,
    face_states,
    force_row_mask,
    newton_rhs,
)
from fvsolid.kinematics import State, zero_state
from fvsolid.material import InvertedElementError, Lame, LinearElastic, NeoHookean
from fvsolid.tensors import IDENTITY
from tests import oracles
from tests.conftest import random_gradients

UNIT = NeoHookean(Lame(mu=0.8, lam=1.3))
HOOKE = LinearElastic(Lame(mu=0.8, lam=1.3))

ALL_DISPLACEMENT = {
    LEFT: BoundaryCondition(DISPLACEMENT, (0.0, 0.0)),
    RIGHT: BoundaryCondition(DISPLACEMENT, (0.0, 0.0)),
    BOTTOM: BoundaryCondition(DISPLACEMENT, (0.0, 0.0)),
    TOP: BoundaryCondition(DISPLACEMENT, (0.0, 0.0)),
}

MIXED = {
    LEFT: BoundaryCondition(DISPLACEMENT, (0.0, 0.0)),
    RIGHT: BoundaryCondition(TRACTION, (0.1, 0.05)),
    BOTTOM: BoundaryCondition(SYMMETRY),
    TOP: BoundaryCondition(TRACTION, (0.0, -0.02)),
}


SYMMETRY_PLANES = {
    LEFT: BoundaryCondition(SYMMETRY),
    RIGHT: BoundaryCondition(TRACTION, (0.1, 0.0)),
    BOTTOM: BoundaryCondition(SYMMETRY),
    TOP: BoundaryCondition(DISPLACEMENT, (0.0, 0.01)),
}

BEAM = {
    LEFT: BoundaryCondition(DISPLACEMENT, (0.0, 0.0)),
    RIGHT: BoundaryCondition(TRACTION, (0.0, -0.01)),
    BOTTOM: BoundaryCondition(TRACTION, (0.0, 0.0)),
    TOP: BoundaryCondition(TRACTION, (0.0, 0.0)),
}


def force_like(mesh, table, rhs):
    """Right-hand side rows in force units, weighted as the solver's
    residual norm weights them: traction and symmetry rows by face area,
    prescribed-displacement rows by the shear modulus."""
    weight = np.ones(mesh.n_unknowns)
    weight[mesh.n_cells:] = np.where(force_row_mask(mesh, table)[mesh.n_cells:],
                                     mesh.face_area[mesh.bface_face], UNIT.mu)
    return weight[:, None] * rhs


def linear_field(mesh, g):
    points = np.vstack([mesh.cell_centroids,
                        mesh.face_centroid[mesh.bface_face]])
    return points @ g.T


def bfaces(mesh, patch):
    """Boundary-face indices of a patch."""
    return mesh.face_boundary_index[mesh.patch_faces(patch)]


# ---------------------------------------------------------------------------
# boundary table
# ---------------------------------------------------------------------------


def test_boundary_table_kinds_and_scaling(mesh_small):
    table = build_boundary_table(mesh_small, MIXED, t=0.5)
    b_right = bfaces(mesh_small, RIGHT)
    b_bottom = bfaces(mesh_small, BOTTOM)
    # constant values scale with the load factor
    npt.assert_allclose(table.value[b_right],
                        np.tile([0.05, 0.025], (len(b_right), 1)))
    npt.assert_allclose(table.value[b_bottom], 0.0)
    # residual row weights D per boundary face, the table's only record of
    # the kinds: I on prescribed-displacement faces, N x N on symmetry
    # faces, zero on traction faces
    assert table.disp.shape == (mesh_small.n_bfaces, 2, 2)
    for patch, weight in ((LEFT, IDENTITY), (RIGHT, 0.0), (TOP, 0.0),
                          (BOTTOM, [[0.0, 0.0], [0.0, 1.0]])):
        rows = table.disp[bfaces(mesh_small, patch)]
        npt.assert_array_equal(rows, np.broadcast_to(weight, rows.shape))


def test_boundary_table_ignores_out_of_plane_component(mesh_small):
    """A third value component, constant or returned by a callable, is
    dropped: the table equals the one built from the in-plane parts."""
    def with_z(value):
        return value if value is None else (*value, 7.0)

    def field(x, t):
        return t * x[:, ::-1]

    bcs2 = dict(MIXED)
    bcs2[LEFT] = BoundaryCondition(DISPLACEMENT, field)
    bcs3 = {p: BoundaryCondition(bc.kind, with_z(bc.value)) for p, bc in MIXED.items()}
    bcs3[LEFT] = BoundaryCondition(DISPLACEMENT, lambda x, t: np.column_stack(
        (field(x, t), np.ones(len(x)))))
    for t in (1.0, 0.5):
        reference = build_boundary_table(mesh_small, bcs2, t)
        table = build_boundary_table(mesh_small, bcs3, t)
        assert table.value.shape == (mesh_small.n_bfaces, 2)
        npt.assert_array_equal(table.disp, reference.disp)
        npt.assert_array_equal(table.value, reference.value)


def test_boundary_table_callable_values(mesh_small):
    bcs = dict(ALL_DISPLACEMENT)
    bcs[TOP] = BoundaryCondition(DISPLACEMENT,
                                 lambda x, t: x * [t, 0.0])
    table = build_boundary_table(mesh_small, bcs, t=2.0)
    faces = mesh_small.patch_faces(TOP)
    b = mesh_small.face_boundary_index[faces]
    npt.assert_allclose(table.value[b, 0],
                        2.0 * mesh_small.face_centroid[faces, 0])


# A 4x2 beam: two faces on LEFT and RIGHT, four on TOP and BOTTOM.
BEAM_4X2 = build_mesh(4, 2, 2.0, 0.1)
ROWS = np.arange(8.0).reshape(4, 2) / 10.0


@pytest.mark.parametrize("value, expected", [
    ((0.3, -0.2), np.multiply((0.3, -0.2), 0.5)),
    ((0.3, -0.2, 9.0), np.multiply((0.3, -0.2), 0.5)),
    (ROWS, 0.5 * ROWS),
    (np.column_stack((ROWS, np.ones(4))), 0.5 * ROWS),
    (lambda x, t: np.array([0.3, -0.2]), [0.3, -0.2]),
    (lambda x, t: np.array([0.3, -0.2, 9.0]), [0.3, -0.2]),
    (lambda x, t: t * x, 0.5 * BEAM_4X2.face_centroid[BEAM_4X2.patch_faces(TOP)]),
    (lambda x, t: np.column_stack((x, x[:, 0])),
     BEAM_4X2.face_centroid[BEAM_4X2.patch_faces(TOP)]),
], ids=["vector", "vector3", "rows", "rows3", "callable-vector", "callable-vector3",
        "callable-rows", "callable-rows3"])
def test_boundary_table_takes_vectors_and_face_rows(value, expected):
    """A 2- or 3-vector, or one such row per face, constant (scaled by the
    load factor) or from a callable, sets the patch's in-plane rows."""
    bcs = dict(BEAM)
    bcs[TOP] = BoundaryCondition(TRACTION, value)
    table = build_boundary_table(BEAM_4X2, bcs, t=0.5)
    npt.assert_array_equal(table.value[bfaces(BEAM_4X2, TOP)],
                           np.broadcast_to(expected, (4, 2)))


def _shape_message(faces, shape):
    return re.escape(f"must have 2 or 3 components or one such row per face "
                     f"({faces} faces), got shape {shape}")


@pytest.mark.parametrize("patch, kind, value, message", [
    (RIGHT, TRACTION, [5.0], _shape_message(2, (1,))),
    (RIGHT, TRACTION, [1.0, 2.0, 3.0, 4.0], _shape_message(2, (4,))),
    (TOP, TRACTION, lambda x, t: x[:, 0], _shape_message(4, (4,))),
    (RIGHT, TRACTION, 5.0, _shape_message(2, ())),
    (TOP, TRACTION, lambda x, t: np.zeros((3, 2)), _shape_message(4, (3, 2))),
    (TOP, TRACTION, np.zeros((4, 4)), _shape_message(4, (4, 4))),
    (RIGHT, TRACTION, [np.nan, 0.0], "must be finite, got nan"),
    (LEFT, DISPLACEMENT, (0.0, 0.0, -np.inf), "must be finite, got -inf"),
    (TOP, TRACTION, lambda x, t: np.where(x > 1.0, np.inf, 0.0), "must be finite, got inf"),
], ids=["one-component", "four-components", "number-per-face", "scalar", "rows-short",
        "rows-wide", "nan", "inf-third-component", "inf-row"])
def test_boundary_table_rejects_bad_values(patch, kind, value, message):
    """Any other value is refused, naming its patch, kind and load factor.
    They used to be read: [5.0] as (5, 5) on every face, [1, 2, 3, 4] as
    (1, 2), a number per face as one 2-vector from its first two entries;
    5.0 raised numpy's IndexError and [nan, 0] ran to a backward error nan."""
    bcs = dict(BEAM)
    bcs[patch] = BoundaryCondition(kind, value)
    with pytest.raises(ValueError,
                       match=f"^{kind} value on patch {patch} at load factor 0.5 {message}$"):
        build_boundary_table(BEAM_4X2, bcs, t=0.5)


def test_boundary_table_matches_per_face_evaluation():
    """One call per patch gives the same table, bit for bit, as calling
    each face's value on its own centroid."""
    mesh = build_mesh(4, 3, 1.0, 0.75)
    bcs = mms_bcs(MMSCase("shear", TRACTION, 0.4), UNIT)   # displacement left
    bcs[BOTTOM] = BoundaryCondition(SYMMETRY)
    table = build_boundary_table(mesh, bcs, t=0.7)
    disp = np.zeros((mesh.n_bfaces, 2, 2))
    value = np.zeros((mesh.n_bfaces, 2))
    for patch, bc in bcs.items():
        for face in mesh.patch_faces(patch):
            b = mesh.face_boundary_index[face]
            normal = mesh.face_normal[face]
            disp[b] = {DISPLACEMENT: np.eye(2), TRACTION: np.zeros((2, 2)),
                       SYMMETRY: np.outer(normal, normal)}[bc.kind]
            if bc.value is not None:
                value[b] = bc.value(mesh.face_centroid[face], 0.7)
    npt.assert_array_equal(table.disp, disp)
    npt.assert_array_equal(table.value, value)
    assert np.abs(value[bfaces(mesh, LEFT), 0]).max() > 0.0


def test_boundary_table_rejects_unknown_kind(mesh_small):
    bcs = dict(ALL_DISPLACEMENT)
    bcs[TOP] = BoundaryCondition("clamped")
    with pytest.raises(ValueError, match="unknown boundary kind"):
        build_boundary_table(mesh_small, bcs)


def test_boundary_table_rejects_unknown_patch(mesh_small):
    bcs = dict(ALL_DISPLACEMENT)
    bcs[7] = BoundaryCondition(TRACTION, (0.0, 0.0))
    with pytest.raises(ValueError, match=r"unknown boundary patches: \[7\]"):
        build_boundary_table(mesh_small, bcs)


def test_boundary_table_requires_all_patches(mesh_small):
    bcs = dict(ALL_DISPLACEMENT)
    del bcs[BOTTOM]
    with pytest.raises(ValueError, match=r"without a boundary condition: \[2\]"):
        build_boundary_table(mesh_small, bcs)


def test_boundary_table_rejects_free_rigid_body_modes(mesh_small):
    """Traction everywhere leaves all three rigid motions free; symmetry on
    two opposite sides leaves the translation along them free; one fixed
    face leaves the rotation about it free.  Symmetry on two adjacent
    sides fixes all three."""
    traction = BoundaryCondition(TRACTION, (0.0, 0.0))
    one_face = build_mesh(4, 1, 1.0, 0.25)
    for mesh, patches in ((mesh_small, {}),
                          (mesh_small, {LEFT: SYMMETRY, RIGHT: SYMMETRY}),
                          (one_face, {LEFT: DISPLACEMENT})):
        bcs = {p: BoundaryCondition(patches.get(p, TRACTION), traction.value)
               for p in (LEFT, RIGHT, BOTTOM, TOP)}
        with pytest.raises(ValueError, match="rigid-body mode"):
            build_boundary_table(mesh, bcs)
    bcs = {LEFT: BoundaryCondition(SYMMETRY), BOTTOM: BoundaryCondition(SYMMETRY),
           RIGHT: traction, TOP: traction}
    disp = build_boundary_table(mesh_small, bcs).disp
    # N x N, the symmetry weight, is the only one of trace 1.
    assert (np.trace(disp, axis1=1, axis2=2) == 1.0).sum() == 3 + 4


def test_force_row_mask(mesh_small):
    table = build_boundary_table(mesh_small, MIXED)
    mask = force_row_mask(mesh_small, table)
    assert mask[: mesh_small.n_cells].all()
    left_rows = mesh_small.n_cells + bfaces(mesh_small, LEFT)
    right_rows = mesh_small.n_cells + bfaces(mesh_small, RIGHT)
    bottom_rows = mesh_small.n_cells + bfaces(mesh_small, BOTTOM)
    assert not mask[left_rows].any()
    assert mask[right_rows].all()
    assert mask[bottom_rows].all()


def test_row_weight_rules_match_kind_codes():
    """The force rows, the segregated step and the rigid-body verdict read
    D alone; on every assignment of the three kinds to the four patches
    they equal the rules that decoded per-face kind codes."""
    kinds = (DISPLACEMENT, TRACTION, SYMMETRY)
    accepted = 0
    for mesh in (build_mesh(4, 3, 1.5, 1.0), build_mesh(4, 1, 1.0, 0.25),
                 build_mesh(1, 1, 1.0, 1.0)):
        for assignment in itertools.product(kinds, repeat=4):
            bcs = {p: BoundaryCondition(k, (0.1, -0.2))
                   for p, k in zip((LEFT, RIGHT, BOTTOM, TOP), assignment)}
            kind = oracles.kind_codes(mesh, bcs)
            free = np.linalg.matrix_rank(oracles.rigid_body_rows(mesh, kind)) < 3
            try:
                table = build_boundary_table(mesh, bcs)
            except RigidBodyModeError:
                assert free, assignment
                continue
            assert not free, assignment
            accepted += 1
            npt.assert_array_equal(force_row_mask(mesh, table),
                                   oracles.force_row_mask(mesh, kind))
            npt.assert_array_equal(assemble_scalar_operator(mesh, table, 2.5)[1],
                                   oracles.scalar_step(mesh, kind, 2.5))
    assert accepted == 201


# ---------------------------------------------------------------------------
# face states and residual
# ---------------------------------------------------------------------------


def test_face_states_reproduce_homogeneous_gradient(mesh_small, rng):
    g = random_gradients(rng, 1)[0]
    state = State(linear_field(mesh_small, g))
    f_face, flux = face_states(mesh_small, UNIT, state)
    f_exp, p_exp = UNIT.stress_state(np.broadcast_to(g, f_face.shape))
    npt.assert_allclose(f_face, f_exp, atol=1e-13)
    npt.assert_allclose(flux,
                        np.einsum("ij,fj->fi", p_exp[0], mesh_small.face_normal),
                        atol=1e-13)


def test_linear_flux_is_sigma_n_bit_for_bit(mesh_small, rng):
    """Under frozen geometry the flux of ``face_states`` is sigma N of the
    face gradient bit for bit, and F is the identity: no deformation
    gradient enters a Hookean flux."""
    m = mesh_small
    u = 0.01 * rng.standard_normal((m.n_unknowns, 2))
    f_face, flux = face_states(m, HOOKE, State(u))
    grad = (m.face_gradient @ u).reshape(2, m.n_faces, 2).transpose(1, 2, 0)
    sigma = (HOOKE.mu * (grad + np.swapaxes(grad, 1, 2))
             + HOOKE.lam * np.trace(grad, axis1=1, axis2=2)[:, None, None] * IDENTITY)
    n = m.face_normal
    npt.assert_array_equal(f_face, np.broadcast_to(IDENTITY, (m.n_faces, 2, 2)))
    npt.assert_array_equal(flux, sigma[:, :, 0] * n[:, None, 0] + sigma[:, :, 1] * n[:, None, 1])


def test_face_states_reject_inverted_cells(mesh_small):
    """Moving the left-patch unknown of boundary face 1 (row 13) by +1 in
    x gives cell 3, its owner, du_x/dx = -2.  Cells are checked before
    faces, so the error names the cell."""
    state = zero_state(mesh_small)
    state.displacement[13] = (1.0, 0.0)
    with pytest.raises(InvertedElementError, match="cell 3") as err:
        face_states(mesh_small, UNIT, state)
    assert (err.value.index, err.value.det_f) == (3, -1.0)


@pytest.mark.parametrize("row,shift,label,index,det_f", [
    (4, (-0.75, 0.0), "face", 1, -0.5),
    (15, (0.375, 0.0), "boundary face", 3, -0.5),
])
def test_face_states_reject_inverted_faces(mesh_small, row, shift, label,
                                           index, det_f):
    """A displaced cell (row 4) folds its west face; a displaced left-patch
    unknown (row 15, boundary face 3) folds that face.  The Gauss gradients
    of the cells see half the jump and stay positive."""
    state = zero_state(mesh_small)
    state.displacement[row] = shift
    with pytest.raises(InvertedElementError, match=f"at {label} {index}$") as err:
        face_states(mesh_small, UNIT, state)
    assert (err.value.index, err.value.det_f) == (index, det_f)


def test_face_states_name_interior_fold_before_worse_boundary_fold(mesh_small):
    """Row 4 folds interior face 1 (det -0.25) and row 15 folds boundary
    face 3 (det -0.5, also the smallest det over all faces, global face 3).
    Interior faces are checked first, so the error names interior face 1,
    numbered among the interior faces."""
    state = zero_state(mesh_small)
    state.displacement[4] = (-0.625, 0.0)
    state.displacement[15] = (0.375, 0.0)
    with pytest.raises(InvertedElementError,
                       match=r"^inverted element: det\(F\) = -2\.500000e-01 at face 1$") as err:
        face_states(mesh_small, UNIT, state)
    assert (err.value.index, err.value.det_f) == (1, -0.25)


def test_face_gradients_match_reconstruction_oracle(mesh_small, mesh16, rng):
    """The face-derivative operators give the reconstruction written out
    face by face: vertex differences inside, cell gradient with the normal
    column replaced by the face quotient on the boundary."""
    for mesh in (mesh_small, mesh16):
        g = random_gradients(rng, 1)[0]
        u = linear_field(mesh, g) + 0.01 * mesh.dx * rng.standard_normal(
            (mesh.n_unknowns, 2))
        f_face, _ = face_states(mesh, UNIT, State(u))
        ref = oracles.face_gradients(mesh, u)
        assert np.abs(f_face - IDENTITY - ref).max() <= 1e-13 * np.abs(ref).max()


def test_homogeneous_state_residual_vanishes(mesh_small, rng):
    """Exact linear fields satisfy every discrete equation to roundoff."""
    g = random_gradients(rng, 1)[0]
    p = UNIT.stress_state(g)[1]

    def disp(x, t):
        return x @ g.T

    def trac(n):
        return lambda x, t, v=p @ n: v

    bcs = {LEFT: BoundaryCondition(DISPLACEMENT, disp),
           BOTTOM: BoundaryCondition(DISPLACEMENT, disp),
           RIGHT: BoundaryCondition(TRACTION, trac(np.array([1.0, 0]))),
           TOP: BoundaryCondition(TRACTION, trac(np.array([0, 1.0])))}
    table = build_boundary_table(mesh_small, bcs)
    state = State(linear_field(mesh_small, g))
    _, flux = face_states(mesh_small, UNIT, state)
    rhs = newton_rhs(mesh_small, state, table, flux)
    scale = np.abs(p).max() * mesh_small.face_area.max()
    npt.assert_allclose(force_like(mesh_small, table, rhs), 0.0, atol=1e-12 * scale)


def test_newton_rhs_cell_rows_read_no_table(mesh_small, rng):
    """Cell rows are minus the collected face forces, bit for bit, whatever
    the boundary table holds: swapping the row weights D and the values
    between faces changes only the boundary rows."""
    m = mesh_small
    state = State(0.01 * rng.standard_normal((m.n_unknowns, 2)))
    _, flux = face_states(m, UNIT, state)
    expected = 0.0 - m.face_rows @ flux
    table = build_boundary_table(m, MIXED)
    swapped = replace(table, disp=table.disp[::-1], value=rng.standard_normal(table.value.shape))
    for t in (table, swapped):
        rhs = newton_rhs(m, state, t, flux)
        npt.assert_array_equal(rhs[:m.n_cells], expected[:m.n_cells])
    assert not np.array_equal(newton_rhs(m, state, swapped, flux)[m.n_cells:],
                              newton_rhs(m, state, table, flux)[m.n_cells:])


@pytest.mark.parametrize("value", [(0.3, -0.2), lambda x, t: t * x],
                         ids=["constant", "callable"])
def test_symmetry_patch_ignores_its_value(mesh_small, value, rng):
    """A symmetry plane prescribes no data: a value given to its patch
    leaves zero table values and the residual of the patch given none."""
    bare = build_boundary_table(mesh_small, SYMMETRY_PLANES, t=0.5)
    bcs = {**SYMMETRY_PLANES, BOTTOM: BoundaryCondition(SYMMETRY, value)}
    table = build_boundary_table(mesh_small, bcs, t=0.5)
    npt.assert_array_equal(table.value[bfaces(mesh_small, BOTTOM)], 0.0)
    npt.assert_array_equal(table.value, bare.value)
    state = State(0.01 * rng.standard_normal((mesh_small.n_unknowns, 2)))
    _, flux = face_states(mesh_small, UNIT, state)
    npt.assert_array_equal(newton_rhs(mesh_small, state, table, flux),
                           newton_rhs(mesh_small, state, bare, flux))


def test_newton_rhs_cell_rows_match_scatter_oracle(mesh_small, mesh16, rng):
    for mesh in (mesh_small, mesh16):
        table = build_boundary_table(mesh, ALL_DISPLACEMENT)
        flux = rng.normal(size=(mesh.n_faces, 2))
        rhs = newton_rhs(mesh, zero_state(mesh), table, flux)
        ref = oracles.cell_force_rows(mesh, flux)
        assert np.abs(rhs[:mesh.n_cells] - ref).max() <= 1e-14 * np.abs(ref).max()


def test_newton_rhs_displacement_defect(mesh_small):
    table = build_boundary_table(mesh_small, ALL_DISPLACEMENT)
    state = zero_state(mesh_small)
    state.displacement[mesh_small.n_cells + 2] = (0.02, -0.01)
    _, flux = face_states(mesh_small, UNIT, state)
    rhs = newton_rhs(mesh_small, state, table, flux)
    npt.assert_allclose(rhs[mesh_small.n_cells + 2], [-0.02, 0.01])


# ---------------------------------------------------------------------------
# Jacobian against finite differences
# ---------------------------------------------------------------------------


def residual_function(mesh, material, table):
    def rhs_of(u):
        state = State(u)
        _, flux = face_states(mesh, material, state)
        return newton_rhs(mesh, state, table, flux)
    return rhs_of


@pytest.mark.parametrize("bcs,material", [(ALL_DISPLACEMENT, UNIT), (MIXED, UNIT),
                                          (MIXED, HOOKE)],
                         ids=["displacement", "mixed", "mixed-linear"])
def test_matrix_is_derivative_of_residual(bcs, material, rng):
    """Central differences of the residual reproduce every matrix column,
    for the neo-Hookean (nlbc) and the linear (bc) material."""
    mesh = build_mesh(3, 4, 1.5, 1.0)
    g = random_gradients(rng, 1, scale=0.15)[0]
    u = linear_field(mesh, g)
    u += 0.01 * rng.standard_normal(u.shape)
    state = State(u)

    table = build_boundary_table(mesh, bcs)
    f_face, _ = face_states(mesh, material, state)
    dense = assemble_system(mesh, material, table, f_face).toarray()

    rhs_of = residual_function(mesh, material, table)
    h = 1e-6
    fd = np.zeros_like(dense)
    for block in range(mesh.n_unknowns):
        for comp in range(2):
            du = np.zeros((mesh.n_unknowns, 2))
            du[block, comp] = h
            # the residual's derivative is minus the matrix
            fd[:, 2 * block + comp] = -(
                (rhs_of(u + du) - rhs_of(u - du)) / (2.0 * h)
            ).ravel()
    scale = np.abs(dense).max()
    npt.assert_allclose(fd, dense, atol=5e-7 * scale)


@pytest.mark.parametrize("material", [UNIT, HOOKE], ids=["neo", "linear"])
@pytest.mark.parametrize("dims,bcs", [
    ((3, 4, 1.5, 1.0), MIXED), ((3, 4, 1.5, 1.0), ALL_DISPLACEMENT),
    ((3, 4, 1.5, 1.0), SYMMETRY_PLANES), ((8, 8, 2.0, 0.1), BEAM),
    ((1, 1, 1.0, 1.0), MIXED)], ids=["mixed", "displacement", "symmetry", "beam", "one-cell"])
def test_fill_matches_block_formula(dims, bcs, material, rng):
    """The numeric fill stores the whole block pattern of the defining
    block-sparse formula, whatever the row weights (the pattern of the
    formula with D = 0), and the formula's values to rounding, at a
    perturbed nonlinear state: the off-diagonal blocks of displacement
    rows, which the formula drops, are stored as exact zeros."""
    mesh = build_mesh(*dims)
    g = random_gradients(rng, 1, scale=0.15)[0]
    u = linear_field(mesh, g)
    u += 0.01 * min(mesh.dx, mesh.dy) * rng.standard_normal(u.shape)
    table = build_boundary_table(mesh, bcs)
    f_face, _ = face_states(mesh, material, State(u))
    actual = assemble_system(mesh, material, table, f_face)
    ref = oracles.jacobian(mesh, material, table, f_face)
    unweighted = oracles.jacobian(mesh, material,
                                  replace(table, disp=np.zeros_like(table.disp)),
                                  f_face).tocsc()
    unweighted.sort_indices()
    assert actual.format == "csc" and actual.has_sorted_indices
    npt.assert_array_equal(actual.indptr, unweighted.indptr)
    npt.assert_array_equal(actual.indices, unweighted.indices)
    npt.assert_allclose(actual.toarray(), ref.toarray(), rtol=0.0,
                        atol=1e-14 * np.abs(ref.data).max())
    fixed = np.flatnonzero(~force_row_mask(mesh, table))
    entries = actual.tocoo()
    rows, cols = entries.row // 2, entries.col // 2
    off = np.isin(rows, fixed) & (rows != cols)
    assert off.any() == (fixed.size > 0)
    assert np.all(entries.data[off] == 0.0)


def holds_factor(array) -> bool:
    """Whether an array is, or is a view into, a SuperLU factor's memory."""
    while array is not None:
        if isinstance(array, spla.SuperLU):
            return True
        array = getattr(array, "base", None)
    return False


@pytest.mark.parametrize("dims,bcs,rtol", [
    ((3, 4, 1.5, 1.0), MIXED, 1e-13), ((3, 4, 1.5, 1.0), ALL_DISPLACEMENT, 1e-13),
    ((3, 4, 1.5, 1.0), SYMMETRY_PLANES, 1e-13),
    # condition number 2e6: the two factors' rounding differs by 1.4e-12
    ((8, 8, 2.0, 0.1), BEAM, 1e-11)],
    ids=["mixed", "displacement", "symmetry", "beam"])
def test_ordered_layout_solves_like_a_fresh_ordering(dims, bcs, rtol, rng):
    """Re-laid in the first factor's column order p, the fill is the CSC
    form of P A P^T, entry (p[i], p[j]) = A[i, j], and its solve with that
    order gives a fresh minimum-degree solve's Newton increment at a
    perturbed neo-Hookean state.  Neither the re-laid pattern nor either
    solve's column order keeps a factor alive."""
    mesh = build_mesh(*dims)
    g = random_gradients(rng, 1, scale=0.15)[0]
    u = linear_field(mesh, g)
    u += 0.01 * min(mesh.dx, mesh.dy) * rng.standard_normal(u.shape)
    state = State(u)
    table = build_boundary_table(mesh, bcs)
    f_face, flux = face_states(mesh, UNIT, state)
    rhs = newton_rhs(mesh, state, table, flux).ravel()

    matrix = assemble_system(mesh, UNIT, table, f_face)
    fresh = linsolve.solve(matrix, rhs)
    pattern = mesh.jacobian_pattern.ordered(fresh.order)
    ordered = assemble_system(mesh, UNIT, table, f_face, pattern)
    assert ordered.format == "csc" and ordered.has_sorted_indices
    p = fresh.order
    npt.assert_array_equal(ordered.toarray()[np.ix_(p, p)], matrix.toarray())

    solution = linsolve.solve(ordered, rhs, fresh.order)
    assert np.linalg.norm(solution.x - fresh.x) <= rtol * np.linalg.norm(fresh.x)
    assert solution.residual <= linsolve.BACKWARD_ERROR_BOUND
    assert not any(holds_factor(value) for value in vars(pattern).values())
    assert not holds_factor(fresh.order) and not holds_factor(solution.order)


def test_ordered_pattern_shares_and_freezes(rng):
    """``ordered`` returns read-only arrays, shares the fill operator, the
    diagonal and the boundary labels with the mesh pattern, and leaves the
    mesh pattern's own arrays as they were."""
    mesh = build_mesh(3, 4, 1.5, 1.0)
    natural = mesh.jacobian_pattern
    before = {name: value.copy() for name, value in vars(natural).items()}
    pattern = natural.ordered(rng.permutation(2 * mesh.n_unknowns).astype(np.int32))
    assert mesh.jacobian_pattern is natural
    for name in ("fill", "diagonal", "bface_block"):
        assert getattr(pattern, name) is getattr(natural, name)
    for name in ("indptr", "indices", "gather"):
        assert not getattr(pattern, name).flags.writeable
        npt.assert_array_equal(getattr(natural, name), before[name])
    npt.assert_array_equal(natural.fill.toarray(), before["fill"].toarray())


def test_stored_pattern_is_the_mesh_pattern(rng):
    """The stored pattern depends on the mesh only: every boundary map
    gives the mesh pattern's CSC indptr and indices, in natural order and
    in a factor's column order, and every stored entry of a
    prescribed-displacement row off its diagonal block is exactly 0.0."""
    mesh = build_mesh(3, 4, 1.5, 1.0)
    natural = mesh.jacobian_pattern
    u = linear_field(mesh, random_gradients(rng, 1, scale=0.15)[0])
    u += 0.01 * min(mesh.dx, mesh.dy) * rng.standard_normal(u.shape)
    f_face, _ = face_states(mesh, UNIT, State(u))
    order = linsolve.solve(assemble_system(mesh, UNIT, build_boundary_table(mesh, MIXED),
                                           f_face),
                           np.ones(2 * mesh.n_unknowns)).order
    for pattern in (natural, natural.ordered(order)):
        for bcs in (MIXED, ALL_DISPLACEMENT, SYMMETRY_PLANES):
            table = build_boundary_table(mesh, bcs)
            matrix = assemble_system(mesh, UNIT, table, f_face, pattern)
            npt.assert_array_equal(matrix.indptr, pattern.indptr)
            npt.assert_array_equal(matrix.indices, pattern.indices)
            entries = matrix.tocoo()
            rows, cols = entries.row // 2, entries.col // 2
            if pattern is not natural:
                rows, cols = (np.argsort(order)[index] // 2
                              for index in (entries.row, entries.col))
            fixed = np.flatnonzero(~force_row_mask(mesh, table))
            off = np.isin(rows, fixed) & (rows != cols)
            assert off.any()
            assert np.all(entries.data[off] == 0.0)


def test_refill_in_place_matches_fresh_assembly():
    """A run's successive face states (Newton on a neo-Hookean traction
    stretch), assembled into one matrix object per layout, the natural one
    and its re-lay in the first factor's order: every refill's data equals
    a fresh assembly's bit for bit, and so does its solve."""
    mesh = build_mesh(6, 5, 1.2, 1.0)
    table = build_boundary_table(mesh, mms_bcs(MMSCase("uniaxial", TRACTION, 1.3), UNIT))
    state, order, steps = zero_state(mesh), None, []
    for _ in range(4):
        f_face, flux = face_states(mesh, UNIT, state)
        rhs = newton_rhs(mesh, state, table, flux).ravel()
        solution = linsolve.solve(assemble_system(mesh, UNIT, table, f_face), rhs)
        order = solution.order if order is None else order
        steps.append((f_face, rhs))
        state = State(state.displacement + solution.x.reshape(-1, 2))

    natural = mesh.jacobian_pattern
    for pattern, layout_order in ((natural, None), (natural.ordered(order), order)):
        matrix = None
        for f_face, rhs in steps:
            kept = matrix
            matrix = assemble_system(mesh, UNIT, table, f_face, pattern, matrix)
            assert kept is None or matrix is kept
            fresh = assemble_system(mesh, UNIT, table, f_face, pattern)
            for name in ("data", "indices", "indptr"):
                npt.assert_array_equal(getattr(matrix, name), getattr(fresh, name))
            npt.assert_array_equal(linsolve.solve(matrix, rhs, layout_order).x,
                                   linsolve.solve(fresh, rhs, layout_order).x)


@pytest.mark.parametrize("material", [UNIT, HOOKE], ids=["neo", "linear"])
@pytest.mark.parametrize("dims,bcs", [((3, 4, 1.5, 1.0), MIXED), ((8, 8, 2.0, 0.1), BEAM)],
                         ids=["mixed", "beam"])
def test_row_weights_leave_force_rows_exact(dims, bcs, material, rng):
    """Weighting every boundary row by I - D is exact where I - D = I:
    the cell and traction rows equal those of the unweighted fill (D = 0)
    bit for bit."""
    mesh = build_mesh(*dims)
    u = linear_field(mesh, random_gradients(rng, 1, scale=0.15)[0])
    u += 0.01 * min(mesh.dx, mesh.dy) * rng.standard_normal(u.shape)
    table = build_boundary_table(mesh, bcs)
    f_face, _ = face_states(mesh, material, State(u))
    weighted = assemble_system(mesh, material, table, f_face)
    bare = assemble_system(mesh, material, replace(table, disp=np.zeros_like(table.disp)),
                           f_face)
    rows = np.concatenate([np.arange(mesh.n_cells)] + [
        mesh.n_cells + bfaces(mesh, patch) for patch, bc in bcs.items() if bc.kind == TRACTION])
    scalar = (2 * rows[:, None] + (0, 1)).ravel()
    npt.assert_array_equal(weighted[scalar].toarray(), bare[scalar].toarray())


def test_matrix_annihilates_translations(mesh_small, rng):
    """Rigid translations produce no force residual change: cell and traction
    rows of the matrix sum to zero over any constant vector."""
    g = random_gradients(rng, 1)[0]
    state = State(linear_field(mesh_small, g))
    table = build_boundary_table(mesh_small, MIXED)
    f_face, _ = face_states(mesh_small, UNIT, state)
    matrix = assemble_system(mesh_small, UNIT, table, f_face)

    shift = np.tile([0.7, -0.4], mesh_small.n_unknowns)
    out = (matrix @ shift).reshape(-1, 2)
    scale = np.abs(matrix.data).max()

    cells = np.arange(mesh_small.n_cells)
    npt.assert_allclose(out[cells], 0.0, atol=1e-12 * scale)
    for patch in (RIGHT, TOP):   # traction rows
        rows = mesh_small.n_cells + bfaces(mesh_small, patch)
        npt.assert_allclose(out[rows], 0.0, atol=1e-12 * scale)
    # prescribed-displacement rows are identities and report the shift
    rows = mesh_small.n_cells + bfaces(mesh_small, LEFT)
    npt.assert_allclose(out[rows], np.tile([0.7, -0.4], (len(rows), 1)))


def test_assemble_single_cell_mesh():
    """No interior faces at all: the empty-batch paths must hold."""
    mesh = build_mesh(1, 1, 1.0, 1.0)
    table = build_boundary_table(mesh, MIXED)
    f_face, _ = face_states(mesh, UNIT, zero_state(mesh))
    matrix = assemble_system(mesh, UNIT, table, f_face)
    assert matrix.shape == (2 * mesh.n_unknowns,) * 2
    assert np.isfinite(matrix.data).all()


def test_zero_state_zero_load_rhs(mesh_small):
    table = build_boundary_table(mesh_small, ALL_DISPLACEMENT)
    state = zero_state(mesh_small)
    f_face, flux = face_states(mesh_small, UNIT, state)
    rhs = newton_rhs(mesh_small, state, table, flux)
    matrix = assemble_system(mesh_small, UNIT, table, f_face)
    npt.assert_allclose(rhs, 0.0)
    assert rhs.shape == (mesh_small.n_unknowns, 2)
    assert matrix.shape == (2 * mesh_small.n_unknowns,) * 2


# ---------------------------------------------------------------------------
# segregated scalar operator
# ---------------------------------------------------------------------------


def test_scalar_operator_exact_on_linear_fields(mesh_small, rng):
    g = random_gradients(rng, 1)[0]
    u = linear_field(mesh_small, g)
    table = build_boundary_table(mesh_small, ALL_DISPLACEMENT)
    op, step = assemble_scalar_operator(mesh_small, table, 2.5)
    out = op @ u
    # Laplacian rows of a linear field vanish identically, per component
    npt.assert_allclose(out[: mesh_small.n_cells], 0.0, atol=1e-12)
    # fixed rows pass the boundary value through, unstepped
    npt.assert_allclose(out[mesh_small.n_cells:], u[mesh_small.n_cells:])
    assert np.all(step == 1.0)


def test_scalar_operator_boundary_rows(mesh_small):
    table = build_boundary_table(mesh_small, MIXED)
    m = mesh_small
    op, step = assemble_scalar_operator(m, table, 2.5)
    op = op.toarray()
    assert step.shape == (m.n_unknowns, 2)
    npt.assert_array_equal(step[:m.n_cells], 1.0)
    # every boundary row is an identity row, with no cell coupling
    for r in range(m.n_cells, m.n_unknowns):
        expected = np.zeros(m.n_unknowns)
        expected[r] = 1.0
        npt.assert_array_equal(op[r], expected)
    right = m.patch_faces(RIGHT)
    rows = m.n_cells + m.face_boundary_index[right]
    # traction rows: both components step by distance / coefficient
    npt.assert_allclose(step[rows], np.repeat(m.face_distance[right, None] / 2.5, 2, axis=1))
    # the left displacement rows take their full value
    npt.assert_array_equal(step[m.n_cells + bfaces(m, LEFT)], 1.0)
    # symmetry on the bottom fixes the normal (y) component only
    bottom_rows = m.n_cells + bfaces(m, BOTTOM)
    npt.assert_array_equal(step[bottom_rows, 1], 1.0)
    npt.assert_allclose(step[bottom_rows, 0],
                        m.face_distance[m.patch_faces(BOTTOM)] / 2.5)
