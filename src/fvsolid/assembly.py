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
mixes each boundary row with its condition through a 2x2 weight:

    r = (I - D) (face_rows @ flux) + D U - b

with D = I on prescribed-displacement rows, N x N on symmetry planes and
zero on traction rows, stored per boundary face once per run in the
boundary table (cell rows have neither D nor b); b holds the prescribed
values, the only part a load step changes.  ``newton_rhs`` returns -r;
only the solver measures it.

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
sum over faces in one sparse product.  ``assemble_system`` then weights
the boundary rows by I - D, adds D on their diagonal and gathers the
values into the pattern's CSC data: the mesh's natural layout, or its
re-lay in a factor's column order (``BlockPattern.ordered``).  The stored
pattern is the mesh's: whole blocks, zeros included, so a prescribed-
displacement row stores exact zeros off its diagonal (I - D = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .kinematics import State, cell_gradient
from .material import InvertedElementError, check_positive_jacobian
from .mesh import BlockPattern, CartesianMesh
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
    disp: np.ndarray    # (n_bfaces, 2, 2) row weights D of the residual


def build_boundary_table(mesh: CartesianMesh, bcs: dict, t: float = 1.0) -> BoundaryTable:
    """Kinds, prescribed values at load factor t, and the residual's row
    weights D per boundary face: I on prescribed displacement, N x N on
    symmetry planes, zero on traction.  Only the values depend on t: a
    later load step of the same run needs only ``boundary_values``."""
    unknown = set(bcs) - set(range(4))
    if unknown:
        raise ValueError(f"unknown boundary patches: {sorted(unknown, key=str)}")
    kind = np.empty(mesh.n_bfaces, dtype=np.int8)
    for patch, bc in bcs.items():
        if bc.kind not in _KIND_CODE:
            raise ValueError(f"unknown boundary kind {bc.kind!r} on patch {patch}")
        kind[mesh.face_boundary_index[mesh.patch_faces(patch)]] = _KIND_CODE[bc.kind]
    missing = set(range(4)) - set(bcs)
    if missing:
        raise ValueError(f"patches without a boundary condition: {sorted(missing)}")
    value = boundary_values(mesh, bcs, t)
    _check_rigid_body_modes(mesh, kind)
    symm = kind == _KIND_CODE[SYMMETRY]
    normal = mesh.face_normal[mesh.bface_face[symm]]
    disp = np.zeros((mesh.n_bfaces, 2, 2))
    disp[kind == _KIND_CODE[DISPLACEMENT]] = IDENTITY
    disp[symm] = outer(normal, normal)
    return BoundaryTable(kind, value, disp)


def boundary_values(mesh: CartesianMesh, bcs: dict, t: float) -> np.ndarray:
    """(n_bfaces, 2) prescribed values of a checked boundary map at load
    factor t; a symmetry plane has none, whatever value it is given."""
    value = np.zeros((mesh.n_bfaces, 2))
    for patch, bc in bcs.items():
        if bc.kind == SYMMETRY or bc.value is None:
            continue
        faces = mesh.patch_faces(patch)
        data = (bc.value(mesh.face_centroid[faces], t) if callable(bc.value)
                else np.asarray(bc.value, dtype=float) * t)
        value[mesh.face_boundary_index[faces]] = np.asarray(data)[..., :2]
    return value


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
    mask[mesh.n_cells:] = table.kind != _KIND_CODE[DISPLACEMENT]
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
        f_face, s_face = material.stress_state(grad)
    except InvertedElementError:
        # Name the fold by kind, numbered within its kind: interior first.
        det_f = det2(IDENTITY + grad)
        check_positive_jacobian(det_f[mesh.interior_faces], "face")
        check_positive_jacobian(det_f[mesh.boundary_faces], "boundary face")
        raise
    flux_density = matvec2(f_face, matvec2(s_face, mesh.face_normal))
    return f_face, s_face, flux_density


def newton_rhs(mesh: CartesianMesh, state: State, table: BoundaryTable,
               flux_density: np.ndarray) -> np.ndarray:
    """Residual right-hand side -r.

    Cell rows carry the negative accumulated surface force (force units).
    Boundary rows carry the boundary-condition defect in its native units:
    traction and symmetry rows in stress, displacement rows in length.
    """
    # 0.0 - x, not -x: a zero row stays +0.0.
    rhs = 0.0 - mesh.face_rows @ flux_density
    tail = rhs[mesh.n_cells:]
    tail[...] = (table.value + matvec2(IDENTITY - table.disp, tail)
                 - matvec2(table.disp, state.displacement[mesh.n_cells:]))
    return rhs


# ----------------------------------------------------------------------
# block system
# ----------------------------------------------------------------------

def assemble_system(mesh: CartesianMesh, material, table: BoundaryTable,
                    f_face: np.ndarray, s_face: np.ndarray,
                    pattern: BlockPattern | None = None) -> sp.csc_matrix:
    """One Newton correction's (2N, 2N) CSC matrix from ``face_states``' F
    and S: the numeric fill of ``pattern`` (by default the mesh's
    ``jacobian_pattern``, in natural order) under the table's row
    weights."""
    if pattern is None:
        pattern = mesh.jacobian_pattern
    h_blocks = material.face_linearisation(
        f_face, s_face, mesh.face_normal, (mesh.face_normal, mesh.face_tangent))
    blocks = (pattern.fill @ np.concatenate(h_blocks).reshape(-1, 4)).reshape(-1, 2, 2)
    # Boundary rows are the block tail: (I - D) S there (exactly S on
    # traction rows, zero on displacement rows) and D added on the diagonal.
    n_cells, bface = mesh.n_cells, pattern.bface_block
    tail = blocks[blocks.shape[0] - bface.size:]
    tail[...] = mul2(IDENTITY - table.disp[bface], tail)
    blocks[pattern.diagonal[n_cells:]] += table.disp
    return sp.csc_matrix((blocks.ravel()[pattern.gather], pattern.indices, pattern.indptr),
                         shape=(pattern.indptr.size - 1,) * 2)


# ----------------------------------------------------------------------
# segregated scalar operator
# ----------------------------------------------------------------------

def assemble_scalar_operator(mesh: CartesianMesh, table: BoundaryTable,
                             coefficient: float) -> tuple[sp.csr_matrix, np.ndarray]:
    """The segregated method's constant implicit operator, shared by both
    components, and the (n_unknowns, 2) step that scales their right-hand
    sides.

    Cell rows are a scalar Laplacian with the given diffusion coefficient
    and every boundary row is an identity row, so the operator depends only
    on the mesh and the coefficient.  The boundary kinds enter through the
    step alone: 1 on cell rows and prescribed components (displacement
    faces, the normal component on symmetry planes), distance/coefficient on
    free ones (traction faces, the tangential one on symmetry planes), the
    explicit traction update classic segregated solvers use.
    """
    bfaces = mesh.bface_face
    kind = table.kind[:, None]
    fixed = (kind == _KIND_CODE[DISPLACEMENT]) | (
        (kind == _KIND_CODE[SYMMETRY]) & (np.abs(mesh.face_normal[bfaces]) > 0.5))
    step = np.ones((mesh.n_unknowns, 2))
    step[mesh.n_cells:] = np.where(fixed, 1.0, mesh.face_distance[bfaces, None] / coefficient)
    matrix = coefficient * (mesh.cell_divergence @ mesh.face_quotient)
    matrix.resize(mesh.n_unknowns, mesh.n_unknowns)
    diagonal = np.zeros(mesh.n_unknowns)
    diagonal[mesh.n_cells:] = 1.0
    return (matrix + sp.diags(diagonal)).tocsr(), step
