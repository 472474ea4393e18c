"""Linearised momentum assembly: residual and block matrix of a Newton correction.

Unknown layout: one in-plane 2-vector per cell followed by one 2-vector
per boundary face; every face tensor is the 2x2 in-plane block.

Every face gradient comes from the same two face-derivative operators of
the mesh, ``Q = face_quotient`` (normal difference quotient) and
``Dt = face_tangential`` (endpoint-vertex difference inside, owner Gauss
gradient along the tangent on the boundary):

    grad U_f = (Q U)_f x N_f + (Dt U)_f x t_f

The residual collects the face fluxes onto the unknown rows with
``face_rows`` (cell divergence, then each boundary face's own flux) and
mixes each row with its boundary condition through per-row 2x2 weights:

    r = (I - D) (face_rows @ flux) + D U - b

with D = 0 on cell and traction rows, I on prescribed-displacement rows
and N x N on symmetry planes, stored once per load step in the boundary
table; b holds the prescribed values.  The right-hand side is -r.

The material returns, for each face, the flux coefficient H(m) of a
direction m: a gradient perturbation a x m changes the flux density by
``H(m) a``.  The matrix is therefore the exact derivative of r, defined
by the same operators:

    dr/dU = blocks(face_rows, I - D) @ (blocks(Q, H(N)) + blocks(Dt, H(t)))
            + blockdiag(D)

where ``blocks(A, W)`` is the block-sparse matrix with block (i, j) equal
to ``A[i, j] * W[i]``.  It is filled, not built from that algebra: the
mesh's ``jacobian_pattern`` (a symbolic analysis run once per mesh) holds
the 2x2 block pattern and maps the per-face H(N), H(t) to every block's
sum over faces in one sparse product.  Each correction then weights the
boundary rows with D != 0, adds D on their diagonal, and gathers the
values into the CSR data.  Whole blocks are stored, zeros included;
prescribed-displacement rows keep only their diagonal block.  Traction
and symmetry rows stay in stress units; the residual norm rescales them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .kinematics import State, cell_gradient
from .material import InvertedElementError, check_positive_jacobian
from .mesh import CartesianMesh
from .tensors import IDENTITY, det2, matvec2, mul2, outer

DISPLACEMENT = "displacement"
TRACTION = "traction"
SYMMETRY = "symmetry"
_KIND_CODE = {DISPLACEMENT: 0, TRACTION: 1, SYMMETRY: 2}


@dataclass(frozen=True)
class BoundaryCondition:
    """Per-patch condition; ``value`` is a constant vector or a callable
    value(X, t) for load scalar t, called once per patch with the (n, 2)
    stack of the patch's face centroids and returning (n, 2) values or one
    vector for the whole patch.  Only the first two components of a value
    are read, so a third (out-of-plane) component is ignored."""

    kind: str
    value: object = None


class RigidBodyModeError(ValueError):
    """The boundary conditions leave a rigid-body motion unconstrained."""


@dataclass
class BoundaryTable:
    kind: np.ndarray    # (n_bfaces,) codes per _KIND_CODE
    value: np.ndarray   # (n_bfaces, 2) prescribed data at the current load
    disp: np.ndarray    # (n_unknowns, 2, 2) row weights D of the residual


def build_boundary_table(mesh: CartesianMesh, bcs: dict, t: float = 1.0) -> BoundaryTable:
    """Kinds, prescribed values at load factor t, and the residual's row
    weights D: I on prescribed-displacement rows, N x N on symmetry
    planes, zero on cell and traction rows."""
    unknown = set(bcs) - set(range(4))
    if unknown:
        raise ValueError(f"unknown boundary patches: {sorted(unknown, key=str)}")
    kind = np.empty(mesh.n_bfaces, dtype=np.int8)
    value = np.zeros((mesh.n_bfaces, 2))
    for patch, bc in bcs.items():
        if bc.kind not in _KIND_CODE:
            raise ValueError(f"unknown boundary kind {bc.kind!r} on patch {patch}")
        faces = mesh.patch_faces(patch)
        b = mesh.face_boundary_index[faces]
        kind[b] = _KIND_CODE[bc.kind]
        if callable(bc.value):
            value[b] = np.asarray(bc.value(mesh.face_centroid[faces], t))[..., :2]
        elif bc.value is not None:
            value[b] = np.asarray(bc.value, dtype=float)[..., :2] * t
    missing = set(range(4)) - set(bcs)
    if missing:
        raise ValueError(f"patches without a boundary condition: {sorted(missing)}")
    _check_rigid_body_modes(mesh, kind)
    rows = mesh.n_cells + np.arange(mesh.n_bfaces)
    symm = kind == _KIND_CODE[SYMMETRY]
    normal = mesh.face_normal[mesh.bface_face[symm]]
    disp = np.zeros((mesh.n_unknowns, 2, 2))
    disp[rows[kind == _KIND_CODE[DISPLACEMENT]]] = IDENTITY
    disp[rows[symm]] = outer(normal, normal)
    return BoundaryTable(kind, value, disp)


def _check_rigid_body_modes(mesh: CartesianMesh, kind: np.ndarray) -> None:
    """Raise unless the displacement and symmetry faces fix both
    translations and the rotation.  A rigid motion u = a + theta (-y, x)
    meets the constraint d . u(p) = 0 for direction d at point p through
    the row [d_x, d_y, d_y p_x - d_x p_y]: two rows (e_x, e_y) per
    displacement face, one (the normal) per symmetry face."""
    faces = mesh.bface_face
    # Centred and scaled by the domain size, so that the rotation column is
    # as large as the translation ones and the rank test is well posed.
    point = ((mesh.face_centroid[faces] - (mesh.lx / 2, mesh.ly / 2))
             / max(mesh.lx, mesh.ly))
    fixed = point[kind == _KIND_CODE[DISPLACEMENT]]
    sliding = kind == _KIND_CODE[SYMMETRY]
    d = np.concatenate((np.tile((1.0, 0.0), (len(fixed), 1)),
                        np.tile((0.0, 1.0), (len(fixed), 1)),
                        mesh.face_normal[faces[sliding]]))
    p = np.concatenate((fixed, fixed, point[sliding]))
    rows = np.column_stack((d, d[:, 1] * p[:, 0] - d[:, 0] * p[:, 1]))
    if np.linalg.matrix_rank(rows) < 3:
        raise RigidBodyModeError(
            "boundary conditions leave a rigid-body mode free: displacement "
            "and symmetry patches must fix both translations and the rotation")


def force_row_mask(mesh: CartesianMesh, table: BoundaryTable) -> np.ndarray:
    """Rows that state a force balance: every cell row plus the boundary
    rows that prescribe traction (or a symmetry plane).

    Prescribed-displacement rows are excluded: after any successful linear
    solve their defect equals the solver's forward error, which no outer
    correction can push below the matrix condition floor, so judging
    convergence on them would test the linear solver instead of the state.
    """
    mask = np.ones(mesh.n_unknowns, dtype=bool)
    rows = mesh.face_across[mesh.boundary_faces]
    mask[rows[table.kind == _KIND_CODE[DISPLACEMENT]]] = False
    return mask


# ----------------------------------------------------------------------
# face states and right-hand side
# ----------------------------------------------------------------------

def face_states(mesh: CartesianMesh, material, state: State):
    """Deformation gradient, second Piola stress and flux density per face.

    Face gradients are ``(Q U) x N + (Dt U) x t``.  The material is
    evaluated at them, so the assembled coefficients are the exact
    derivative of the flux each face reports.  Cells only get the
    inversion check (det F > 0) on their Gauss gradient.
    """
    u = state.displacement
    if not material.linear:     # frozen geometry cannot invert
        check_positive_jacobian(det2(IDENTITY + cell_gradient(mesh, u)), "cell")
    grad = (outer(mesh.face_quotient @ u, mesh.face_normal)
            + outer(mesh.face_tangential @ u, mesh.face_tangent))
    try:
        f_face, s_face = material.stress_state(grad, "face")
    except InvertedElementError:
        # Name the fold by kind, numbered within its kind: interior first.
        det_f = det2(IDENTITY + grad)
        check_positive_jacobian(det_f[mesh.interior_faces], "face")
        check_positive_jacobian(det_f[mesh.boundary_faces], "boundary face")
        raise
    flux_density = matvec2(f_face, matvec2(s_face, mesh.face_normal))
    return f_face, s_face, flux_density


def newton_rhs(mesh: CartesianMesh, material, state: State, table: BoundaryTable,
               flux_density: np.ndarray):
    """Residual right-hand side -r and the per-row weights of its norm.

    Cell rows carry the negative accumulated surface force (force units).
    Boundary rows carry the boundary-condition defect in its native units;
    the weights rescale traction rows by face area and displacement rows
    by the shear modulus so the norm is uniformly force-like.
    """
    target = np.zeros((mesh.n_unknowns, 2))
    target[mesh.n_cells:] = np.where((table.kind == _KIND_CODE[SYMMETRY])[:, None],
                                     0.0, table.value)
    rhs = (target - matvec2(IDENTITY - table.disp, mesh.face_rows @ flux_density)
           - matvec2(table.disp, state.displacement))

    row_scale = np.ones(mesh.n_unknowns)
    row_scale[mesh.n_cells:] = np.where(table.kind == _KIND_CODE[DISPLACEMENT],
                                        material.mu, mesh.face_area[mesh.bface_face])
    return rhs, row_scale


# ----------------------------------------------------------------------
# block system
# ----------------------------------------------------------------------

def assemble_system(mesh: CartesianMesh, material, table: BoundaryTable,
                    f_face: np.ndarray, s_face: np.ndarray) -> sp.csr_matrix:
    """One Newton correction's (2N, 2N) matrix from ``face_states``' F and
    S: the numeric fill of the mesh's ``jacobian_pattern``."""
    pattern = mesh.jacobian_pattern
    h_blocks = material.face_linearisation(
        f_face, s_face, mesh.face_normal, (mesh.face_normal, mesh.face_tangent))
    values = pattern.fill @ np.concatenate(h_blocks).reshape(-1, 4)
    blocks = values.reshape(-1, 2, 2)
    # Boundary rows come last.  Where D != 0 their blocks become (I - D) S
    # and D is added on the diagonal; cell and traction rows keep S.
    n_cells, bface = mesh.n_cells, pattern.bface_block
    row_blocks = blocks[blocks.shape[0] - bface.size:]
    weighted = np.flatnonzero(table.kind[bface] != _KIND_CODE[TRACTION])
    row_blocks[weighted] = mul2(IDENTITY - table.disp[n_cells + bface[weighted]],
                                row_blocks[weighted])
    blocks[pattern.diagonal[n_cells:]] += table.disp[n_cells:]
    # Prescribed-displacement rows keep only their diagonal block.
    fixed = table.kind == _KIND_CODE[DISPLACEMENT]
    keep = ~(fixed[pattern.bface_entry] & pattern.bface_entry_off)
    head = pattern.indices.size - keep.size     # entries of the cell rows
    counts = np.diff(pattern.indptr[2 * n_cells:])
    counts[np.repeat(fixed, 2)] = 2
    indptr = pattern.indptr.copy()
    indptr[2 * n_cells + 1:] = head + np.cumsum(counts)
    gather = np.concatenate((pattern.gather[:head], pattern.gather[head:][keep]))
    indices = np.concatenate((pattern.indices[:head], pattern.indices[head:][keep]))
    return sp.csr_matrix((values.ravel()[gather], indices, indptr),
                         shape=(2 * mesh.n_unknowns,) * 2)


# ----------------------------------------------------------------------
# segregated scalar operator
# ----------------------------------------------------------------------

def assemble_scalar_operator(mesh: CartesianMesh, table: BoundaryTable,
                             coefficient: float, component: int) -> sp.csr_matrix:
    """Constant implicit operator of the segregated method for one
    displacement component: a scalar Laplacian with the given diffusion
    coefficient on cell rows, and per-kind boundary rows.

    Prescribed-displacement faces get identity rows.  Traction faces get
    the explicit update classic segregated solvers use: the face value
    moves by distance/coefficient times the traction defect of the
    previous iterate, with no implicit tie to the new cell value, so the
    row is diagonal at quotient scale.  Symmetry planes pick whichever of
    the two fits the component.
    """
    bfaces = mesh.bface_face
    normal_dominant = np.abs(mesh.face_normal[bfaces, component]) > 0.5
    fixed = (table.kind == _KIND_CODE[DISPLACEMENT]) | (
        (table.kind == _KIND_CODE[SYMMETRY]) & normal_dominant)
    diagonal = np.zeros(mesh.n_unknowns)
    diagonal[mesh.n_cells:] = np.where(fixed, 1.0, coefficient / mesh.face_distance[bfaces])
    matrix = coefficient * (mesh.cell_divergence @ mesh.face_quotient)
    matrix.resize(mesh.n_unknowns, mesh.n_unknowns)
    return (matrix + sp.diags(diagonal)).tocsr()
