"""Linearised momentum assembly: residual and block matrix of a Newton correction.

Unknown layout: one in-plane 2-vector per cell followed by one 2-vector
per boundary face; every face tensor is the 2x2 in-plane block.

Every face gradient comes from the same two face-derivative operators of
the mesh, ``Q = face_quotient`` (normal difference quotient) and
``Dt = face_tangential`` (endpoint-vertex difference inside, owner Gauss
gradient along the tangent on the boundary):

    grad U_f = (Q U)_f x N_f + (Dt U)_f x t_f

evaluated with the mesh's ``face_gradient``.

Fields follow the layout rule of ``tensors``, except the flux
coefficients H, which stay C-ordered: the Jacobian fill reads them as
one (2 n_faces, 4) matrix.

The residual collects the face fluxes P N (the first Piola traction of
the material's ``stress_state``) onto the unknown rows with ``face_rows``
(cell divergence, then each boundary face's own flux) and mixes each
boundary row with its condition through a 2x2 weight:

    r = (I - D) (face_rows @ flux) + D U - b

with D = I on prescribed-displacement rows, N x N on symmetry planes and
zero on traction rows, stored per boundary face once per run in the
boundary table as the only record of each face's condition (cell rows
have neither D nor b); b holds the prescribed values, the only part a
load step changes.  ``newton_rhs`` returns -r; only the solver measures
it.

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
re-lay in a factor's column order (``BlockPattern.ordered``).  The
gather fills a new matrix, or refills in place one that an earlier call
returned for the same pattern, so a run builds and checks one matrix
per layout.  The stored pattern is the mesh's: whole blocks, zeros
included, so a prescribed-displacement row stores exact zeros off its
diagonal (I - D = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .kinematics import State, apply, cell_gradient
from .material import InvertedElementError, check_positive_jacobian
from .mesh import BlockPattern, CartesianMesh
from .tensors import IDENTITY, det2, matvec2, mul2, outer

DISPLACEMENT = "displacement"
TRACTION = "traction"
SYMMETRY = "symmetry"
# Each kind's row weight D, from the (n, 2) normals of a patch's faces.
_WEIGHT = {DISPLACEMENT: lambda n: IDENTITY, TRACTION: lambda n: 0.0,
           SYMMETRY: lambda n: outer(n, n)}


@dataclass(frozen=True)
class BoundaryCondition:
    """Per-patch condition; ``value`` is a constant vector or a callable
    value(X, t) for load scalar t, called once per patch with the (n, 2)
    stack of the patch's face centroids and returning (n, 2) values or one
    vector for the whole patch.  A value is finite, with 2 or 3 components
    or one such row per face; a third (out-of-plane) component is ignored."""

    kind: str
    value: object = None


class RigidBodyModeError(ValueError):
    """The boundary conditions leave a rigid-body motion unconstrained."""


@dataclass
class BoundaryTable:
    """Per boundary face: the prescribed data and the row weight D, the
    only record of the condition's kind (I, N x N or zero)."""
    value: np.ndarray   # (n_bfaces, 2) prescribed data at the current load
    disp: np.ndarray    # (n_bfaces, 2, 2) row weights D of the residual
    constant: np.ndarray    # (n_bfaces, 2) checked constant values at unit load


def build_boundary_table(mesh: CartesianMesh, bcs: dict, t: float = 1.0) -> BoundaryTable:
    """Prescribed values at load factor t and the residual's row weight D
    per boundary face: I on prescribed displacement, N x N on symmetry
    planes, zero on traction.  Only the values depend on t: a later load
    step of the same run needs only ``boundary_values`` with the table's
    constant values, which are checked here once."""
    unknown = set(bcs) - set(range(4))
    if unknown:
        raise ValueError(f"unknown boundary patches: {sorted(unknown, key=str)}")
    disp = np.zeros((mesh.n_bfaces, 2, 2))
    for patch, bc in bcs.items():
        if bc.kind not in _WEIGHT:
            raise ValueError(f"unknown boundary kind {bc.kind!r} on patch {patch}")
        faces = mesh.patch_faces(patch)
        disp[mesh.face_boundary_index[faces]] = _WEIGHT[bc.kind](mesh.face_normal[faces])
    missing = set(range(4)) - set(bcs)
    if missing:
        raise ValueError(f"patches without a boundary condition: {sorted(missing)}")
    value = boundary_values(mesh, bcs, t)
    constant = boundary_values(
        mesh, {patch: bc for patch, bc in bcs.items() if not callable(bc.value)}, 1.0)
    _check_rigid_body_modes(mesh, disp)
    return BoundaryTable(value, disp, constant)


def boundary_values(mesh: CartesianMesh, bcs: dict, t: float,
                    constant: np.ndarray | None = None) -> np.ndarray:
    """(n_bfaces, 2) prescribed values of a checked boundary map at load
    factor t; a symmetry plane has none, whatever value it is given.  A
    value must be finite, with 2 or 3 components or one such row per face
    of its patch; anything else is a ValueError.  Given ``constant``, a
    table's constant values at unit load, only the callables are
    evaluated and checked, and the constant values are t * ``constant``."""
    value = np.zeros((mesh.n_bfaces, 2)) if constant is None else constant * t
    for patch, bc in bcs.items():
        if bc.kind == SYMMETRY or bc.value is None or (
                constant is not None and not callable(bc.value)):
            continue
        faces = mesh.patch_faces(patch)
        data = np.asarray(bc.value(mesh.face_centroid[faces], t) if callable(bc.value)
                          else np.asarray(bc.value, dtype=float) * t, dtype=float)
        where = f"{bc.kind} value on patch {patch} at load factor {t:g}"
        if data.shape not in {(2,), (3,), (len(faces), 2), (len(faces), 3)}:
            raise ValueError(f"{where} must have 2 or 3 components or one such row "
                             f"per face ({len(faces)} faces), got shape {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError(f"{where} must be finite, got {data[~np.isfinite(data)][0]}")
        value[mesh.face_boundary_index[faces]] = data[..., :2]
    return value


def _check_rigid_body_modes(mesh: CartesianMesh, disp: np.ndarray) -> None:
    """Raise unless the row weights D fix both translations and the
    rotation.  A rigid motion u = a + theta (-y, x) meets the constraint
    d . u(p) = 0 for direction d at point p through the row
    [d_x, d_y, d_y p_x - d_x p_y]; each boundary face contributes the two
    rows d of its D at its centroid (zero rows on traction faces)."""
    centroid = mesh.face_centroid[mesh.bface_face]
    # Centred and scaled by the centroids' bounding box, so that the rotation
    # column is as large as the translation ones and the rank is well posed.
    lo, hi = centroid.min(axis=0), centroid.max(axis=0)
    point = np.repeat((centroid - (lo + hi) / 2) / (hi - lo).max(), 2, axis=0)
    d = disp.reshape(-1, 2)
    rows = np.column_stack((d, d[:, 1] * point[:, 0] - d[:, 0] * point[:, 1]))
    if np.linalg.matrix_rank(rows) < 3:
        raise RigidBodyModeError(
            "boundary conditions leave a rigid-body mode free: displacement "
            "and symmetry patches must fix both translations and the rotation")


def force_row_mask(mesh: CartesianMesh, table: BoundaryTable) -> np.ndarray:
    """Rows that state a force balance: every cell row plus the boundary
    rows whose D is not the identity (traction and symmetry planes).

    The rest are prescribed-displacement rows (D = I), which the residual
    norm weights by mu instead of a face area and seg assigns without
    relaxation.
    """
    mask = np.ones(mesh.n_unknowns, dtype=bool)
    mask[mesh.n_cells:] = (table.disp != IDENTITY).any(axis=(1, 2))
    return mask


# ----------------------------------------------------------------------
# face states and right-hand side
# ----------------------------------------------------------------------

def face_states(mesh: CartesianMesh, material, state: State):
    """Deformation gradient and flux density P N per face.

    Face gradients are ``(Q U) x N + (Dt U) x t``, a component-major
    (n_faces, 2, 2) view of ``face_gradient`` applied to each displacement
    component.  The material is evaluated at
    them, so the assembled coefficients are the exact derivative of the
    flux each face reports.  Cells only get the inversion check (det F > 0,
    finite) on their Gauss gradient.
    """
    u = state.displacement
    if not material.linear:     # frozen geometry cannot invert
        g = cell_gradient(mesh, u)
        with np.errstate(over="ignore", invalid="ignore"):  # reported as non-finite
            det_f = (1.0 + g[:, 0, 0]) * (1.0 + g[:, 1, 1]) - g[:, 0, 1] * g[:, 1, 0]
        check_positive_jacobian(det_f, "cell")
    grad = apply(mesh.face_gradient, u).T.reshape(2, 2, mesh.n_faces).transpose(2, 0, 1)
    try:
        f_face, p_face = material.stress_state(grad)
    except InvertedElementError:
        # Name the fold by kind, numbered within its kind: interior first.
        with np.errstate(over="ignore", invalid="ignore"):
            det_f = det2(IDENTITY + grad)
        check_positive_jacobian(det_f[mesh.interior_faces], "face")
        check_positive_jacobian(det_f[mesh.boundary_faces], "boundary face")
        raise
    return f_face, matvec2(p_face, mesh.face_normal)


def newton_rhs(mesh: CartesianMesh, state: State, table: BoundaryTable,
               flux_density: np.ndarray) -> np.ndarray:
    """Residual right-hand side -r.

    Cell rows carry the negative accumulated surface force (force units).
    Boundary rows carry the boundary-condition defect in its native units:
    traction and symmetry rows in stress, displacement rows in length.
    """
    # 0.0 - x, not -x: a zero row stays +0.0.
    rhs = apply(mesh.face_rows, flux_density)
    np.subtract(0.0, rhs, out=rhs)
    tail = rhs[mesh.n_cells:]
    tail[...] = (table.value + matvec2(IDENTITY - table.disp, tail)
                 - matvec2(table.disp, state.displacement[mesh.n_cells:]))
    return rhs


# ----------------------------------------------------------------------
# block system
# ----------------------------------------------------------------------

def assemble_system(mesh: CartesianMesh, material, table: BoundaryTable,
                    f_face: np.ndarray, pattern: BlockPattern | None = None,
                    out: sp.csc_matrix | None = None) -> sp.csc_matrix:
    """One Newton correction's (2N, 2N) CSC matrix from ``face_states``' F:
    the numeric fill of ``pattern`` (by default the mesh's
    ``jacobian_pattern``, in natural order) under the table's row weights.

    Given ``out``, a matrix that an earlier call returned for the same
    pattern, the values are written into its data in place and ``out`` is
    returned: scipy's constructor checks, and ``splu``'s scan for a
    canonical format, then run once per matrix object, not once per fill."""
    if pattern is None:
        pattern = mesh.jacobian_pattern
    h_blocks = material.face_linearisation(
        f_face, mesh.face_normal, (mesh.face_normal, mesh.face_tangent))
    blocks = (pattern.fill @ h_blocks.reshape(-1, 4)).reshape(-1, 2, 2)
    # Boundary rows are the block tail: each block times I - D there (as is on
    # traction rows, zero on displacement rows) and D added on the diagonal.
    n_cells, bface = mesh.n_cells, pattern.bface_block
    tail = blocks[blocks.shape[0] - bface.size:]
    tail[...] = mul2(IDENTITY - table.disp[bface], tail)
    blocks[pattern.diagonal[n_cells:]] += table.disp
    if out is None:
        out = sp.csc_matrix((np.empty(pattern.gather.size), pattern.indices, pattern.indptr),
                            shape=(pattern.indptr.size - 1,) * 2)
    # mode="clip" (the gather is in range): "raise" would buffer the output.
    np.take(blocks.ravel(), pattern.gather, out=out.data, mode="clip")
    return out


# ----------------------------------------------------------------------
# segregated scalar operator
# ----------------------------------------------------------------------

def assemble_scalar_operator(mesh: CartesianMesh, table: BoundaryTable,
                             coefficient: float) -> tuple[sp.csr_matrix, np.ndarray]:
    """The segregated method's constant implicit operator, shared by both
    components, and the component-major (n_unknowns, 2) step that scales
    their right-hand sides.

    Cell rows are a scalar Laplacian with the given diffusion coefficient
    and every boundary row is an identity row, so the operator depends only
    on the mesh and the coefficient.  The boundary conditions enter through
    the step alone, read from the diagonal of each face's D: 1 on cell rows
    and on components D fixes (diagonal 1: both on displacement faces, the
    normal one on symmetry planes), distance/coefficient on free ones
    (diagonal 0), the explicit traction update classic segregated solvers
    use.
    """
    bfaces = mesh.bface_face
    fixed = np.diagonal(table.disp, axis1=1, axis2=2) > 0.5
    step = np.ones((mesh.n_unknowns, 2), order="F")
    step[mesh.n_cells:] = np.where(fixed, 1.0, mesh.face_distance[bfaces, None] / coefficient)
    matrix = coefficient * (mesh.cell_divergence @ mesh.face_quotient)
    matrix.resize(mesh.n_unknowns, mesh.n_unknowns)
    diagonal = np.zeros(mesh.n_unknowns)
    diagonal[mesh.n_cells:] = 1.0
    return (matrix + sp.diags(diagonal)).tocsr(), step
