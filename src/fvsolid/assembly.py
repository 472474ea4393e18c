"""Linearised momentum assembly: the block system one Newton correction solves.

Unknown layout: one in-plane 2-vector per cell followed by one 2-vector
per boundary face; every face tensor is the 2x2 in-plane block.

Cell rows balance the surface-force increments against the accumulated
surface force.  For a face with outward normal N, geometric vector
``w = S @ N`` and coupling tensors ``T[d]``, a gradient perturbation B of
the displacement changes the flux density by ``B @ w + sum_d T[d] @ B e_d``.
With ``H(m) = (w.m) I + sum_d m_d T[d]`` the matrix rows are the exact
derivative of the residual's face reconstructions:

- interior faces reconstruct their gradient face-locally, a normal
  difference quotient plus a tangential difference of the two endpoint
  vertex values, so their flux varies by
  ``(area/|d|) H(N) (dU_across - dU_owner) + H(t) (dU_hi - dU_lo)``
  with the endpoint values expanded through the vertex stencils
- boundary faces reconstruct from the owner-cell gradient with the
  normal column replaced by the face quotient, so their flux varies by
  ``(area/|d|) H(N) (dU_face - dU_owner)`` plus the chain through the
  owner's Gauss gradient, ``area sum_f' (s' a'/V) H((I - N x N) N') dU_f'``
  over the owner's faces (two-cell averages inside, boundary unknowns on
  the outline)

Boundary rows impose the conditions on the boundary-face unknowns:
identity rows for prescribed displacement, the same one-sided linearised
traction as above in stress units for prescribed traction (the residual
norm rescales them), and a normal/tangential mix for symmetry planes.
Matching every row to the derivative of the residual it zeroes keeps the
outer iteration a true Newton method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .kinematics import State, boundary_face_gradient, vertex_values
from .material import check_positive_jacobian
from .mesh import CartesianMesh
from .tensors import IDENTITY, det2, outer

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


@dataclass
class BoundaryTable:
    kind: np.ndarray    # (n_bfaces,) codes per _KIND_CODE
    value: np.ndarray   # (n_bfaces, 2) prescribed data at the current load


def build_boundary_table(mesh: CartesianMesh, bcs: dict, t: float = 1.0) -> BoundaryTable:
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
    return BoundaryTable(kind, value)


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

    Interior faces reconstruct their gradient face-locally: normal part
    from the two-cell difference quotient, tangential part from the face's
    endpoint vertex values.  Boundary faces start from the owner-cell
    gradient and replace its normal column with the quotient against the
    face's own displacement unknown.  The material is evaluated at the
    reconstructed gradients, so the assembled coefficients are the exact
    derivative of the flux each face reports.  Cell states only get the
    inversion check (det F > 0).
    """
    u = state.displacement
    if not material.linear:     # frozen geometry cannot invert
        check_positive_jacobian(det2(IDENTITY + state.grad), "cell")
    vert_u = vertex_values(mesh, u)
    f_face = np.empty((mesh.n_faces, 2, 2))
    s_face = np.empty((mesh.n_faces, 2, 2))

    interior = mesh.interior_faces
    own, nb = mesh.face_owner[interior], mesh.face_neighbour[interior]
    quot = (u[nb] - u[own]) / mesh.face_distance[interior, None]
    tang = ((vert_u[mesh.face_vertex_hi[interior]]
             - vert_u[mesh.face_vertex_lo[interior]])
            / mesh.face_area[interior, None])
    grad_i = (outer(quot, mesh.face_normal[interior])
              + outer(tang, mesh.face_tangent[interior]))
    f_face[interior], s_face[interior] = material.stress_state(grad_i, "face")

    boundary = mesh.boundary_faces
    own_b = mesh.face_owner[boundary]
    grad_b = boundary_face_gradient(
        state.grad[own_b], u[own_b], u[mesh.face_across[boundary]],
        mesh.face_normal[boundary], mesh.face_distance[boundary])
    f_face[boundary], s_face[boundary] = material.stress_state(grad_b, "boundary face")

    flux_density = (f_face @ (s_face @ mesh.face_normal[:, :, None]))[:, :, 0]
    return f_face, s_face, flux_density


def newton_rhs(mesh: CartesianMesh, material, state: State, table: BoundaryTable,
               flux_density: np.ndarray):
    """Residual right-hand side and the per-row weights of its norm.

    Cell rows carry the negative accumulated surface force (force units).
    Boundary rows carry the boundary-condition defect in its native units;
    the weights rescale traction rows by face area and displacement rows
    by the shear modulus so the norm is uniformly force-like.
    """
    rhs = np.zeros((mesh.n_unknowns, 2))
    rhs[:mesh.n_cells] = -(mesh.cell_divergence @ flux_density)

    row_scale = np.ones(mesh.n_unknowns)
    boundary = mesh.boundary_faces
    b = mesh.face_boundary_index[boundary]
    rows = mesh.n_cells + b
    kind = table.kind[b]
    normal = mesh.face_normal[boundary]

    disp = kind == _KIND_CODE[DISPLACEMENT]
    rhs[rows[disp]] = table.value[b[disp]] - state.displacement[rows[disp]]
    row_scale[rows[disp]] = material.mu

    trac = kind == _KIND_CODE[TRACTION]
    rhs[rows[trac]] = table.value[b[trac]] - flux_density[boundary[trac]]
    row_scale[rows[trac]] = mesh.face_area[boundary[trac]]

    symm = kind == _KIND_CODE[SYMMETRY]
    if symm.any():
        n_s = normal[symm]
        u_s = state.displacement[rows[symm]]
        t_res = -flux_density[boundary[symm]]
        un = np.einsum("bi,bi->b", u_s, n_s)
        tn = np.einsum("bi,bi->b", t_res, n_s)
        rhs[rows[symm]] = (-un[:, None] * n_s
                           + t_res - tn[:, None] * n_s)
        row_scale[rows[symm]] = mesh.face_area[boundary[symm]]

    return rhs, row_scale


# ----------------------------------------------------------------------
# block system
# ----------------------------------------------------------------------

@dataclass
class BlockSystem:
    matrix: sp.csr_matrix      # scalar form, (2N, 2N)
    rhs: np.ndarray            # (N, 2)
    row_scale: np.ndarray      # (N,) residual-norm weights


class _BlockBuilder:
    def __init__(self):
        self.rows: list[np.ndarray] = []
        self.cols: list[np.ndarray] = []
        self.mats: list[np.ndarray] = []

    def add(self, rows, cols, mats):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size == 0:
            return
        self.rows.append(rows)
        self.cols.append(cols)
        self.mats.append(mats)

    def to_csr(self, n_blocks: int) -> sp.csr_matrix:
        rows = np.concatenate(self.rows)
        cols = np.concatenate(self.cols)
        mats = np.concatenate(self.mats)
        ii, jj = np.meshgrid((0, 1), (0, 1), indexing="ij")
        r = (2 * rows)[:, None, None] + ii
        c = (2 * cols)[:, None, None] + jj
        coo = sp.coo_matrix((mats.ravel(), (r.ravel(), c.ravel())),
                            shape=(2 * n_blocks, 2 * n_blocks))
        return coo.tocsr()


def _tangential(builder: _BlockBuilder, endpoints: tuple, rows_per_face: np.ndarray,
                coef: np.ndarray) -> None:
    """Scatter coef[f] @ (dU_hi - dU_lo) onto the rows; ``endpoints`` holds
    the vertex stencils of the faces' hi and lo endpoints in COO form, one
    row per face."""
    for stencils, sign in zip(endpoints, (1.0, -1.0)):
        builder.add(rows_per_face[stencils.row], stencils.col,
                    sign * stencils.data[:, None, None] * coef[stencils.row])


def _h_block(w: np.ndarray, t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Directional flux coefficient H(m) = (w.m) I + sum_d m_d T[d], linear
    in the direction m."""
    eye = np.broadcast_to(IDENTITY, t.shape[:-3] + (2, 2))
    return (np.einsum("...i,...i->...", w, m)[..., None, None] * eye
            + np.einsum("...d,...dij->...ij", m, t))


def _owner_gradient_chain(builder: _BlockBuilder, mesh: CartesianMesh,
                          faces: np.ndarray, rows: np.ndarray,
                          w_f: np.ndarray, t_f: np.ndarray,
                          scale: np.ndarray, proj: np.ndarray | None = None) -> None:
    """Exact derivative of a boundary face's tangential reconstruction.

    The reconstruction keeps the owner-cell Gauss gradient outside the
    face-normal column, so perturbing any face value dU_f' of the owner
    changes the flux density by (s' a'/V) H((I - N x N) N') dU_f'.  Adds
    scale[f] times those blocks; interior face values split evenly over
    the two cells, boundary ones bind their own bface unknown.
    """
    if faces.size == 0:
        return
    own = mesh.face_owner[faces]
    n_face = mesh.face_normal[faces]
    vol = mesh.cell_volume[own]
    for k in range(4):
        fk = mesh.cell_faces[own, k]
        sk = mesh.cell_face_sign[own, k]
        nk = mesh.face_normal[fk]
        m = nk - np.einsum("bi,bi->b", nk, n_face)[:, None] * n_face
        coef = scale * sk * mesh.face_area[fk] / vol
        block = coef[:, None, None] * _h_block(w_f, t_f, m)
        if proj is not None:
            block = proj @ block
        inter = mesh.face_neighbour[fk] >= 0
        fi = fk[inter]
        other = mesh.face_owner[fi] + mesh.face_neighbour[fi] - own[inter]
        builder.add(rows[inter], own[inter], 0.5 * block[inter])
        builder.add(rows[inter], other, 0.5 * block[inter])
        outline = ~inter
        builder.add(rows[outline], mesh.face_across[fk[outline]], block[outline])


def assemble_system(mesh: CartesianMesh, material, state: State,
                    table: BoundaryTable) -> BlockSystem:
    """Assemble one Newton correction's matrix and right-hand side."""
    f_face, s_face, flux_density = face_states(mesh, material, state)
    normal = mesh.face_normal
    tangent = mesh.face_tangent
    w, t = material.face_linearisation(f_face, s_face, normal)

    h_n = _h_block(w, t, normal)
    h_t = _h_block(w, t, tangent)
    a_n = (mesh.face_area / mesh.face_distance)[:, None, None] * h_n

    builder = _BlockBuilder()
    owner, across = mesh.face_owner, mesh.face_across
    boundary = mesh.boundary_faces

    # Normal difference quotients, owner rows for every face.
    builder.add(owner, across, a_n)
    builder.add(owner, owner, -a_n)
    # Mirrored neighbour rows on interior faces.
    interior = mesh.interior_faces
    nb = mesh.face_neighbour[interior]
    builder.add(nb, owner[interior], a_n[interior])
    builder.add(nb, nb, -a_n[interior])

    # Tangential terms on cell rows: endpoint differences for interior
    # faces, the owner-gradient chain for boundary ones.
    endpoints = tuple(mesh.vertex_stencil[verts[interior]].tocoo()
                      for verts in (mesh.face_vertex_hi, mesh.face_vertex_lo))
    _tangential(builder, endpoints, owner[interior], h_t[interior])
    _tangential(builder, endpoints, nb, -h_t[interior])
    _owner_gradient_chain(builder, mesh, boundary, owner[boundary],
                          w[boundary], t[boundary], mesh.face_area[boundary])

    # Boundary-condition rows.
    b = mesh.face_boundary_index[boundary]
    rows = mesh.n_cells + b
    kind = table.kind[b]

    disp = boundary[kind == _KIND_CODE[DISPLACEMENT]]
    disp_rows = mesh.n_cells + mesh.face_boundary_index[disp]
    builder.add(disp_rows, disp_rows, np.broadcast_to(IDENTITY, (disp.size, 2, 2)))

    trac = boundary[kind == _KIND_CODE[TRACTION]]
    if trac.size:
        trac_rows = mesh.n_cells + mesh.face_boundary_index[trac]
        bn = h_n[trac] / mesh.face_distance[trac, None, None]
        builder.add(trac_rows, trac_rows, bn)
        builder.add(trac_rows, owner[trac], -bn)
        _owner_gradient_chain(builder, mesh, trac, trac_rows,
                              w[trac], t[trac], np.ones(trac.size))

    symm = boundary[kind == _KIND_CODE[SYMMETRY]]
    if symm.size:
        symm_rows = mesh.n_cells + mesh.face_boundary_index[symm]
        nn = outer(normal[symm], normal[symm])
        proj = IDENTITY - nn
        bn = proj @ (h_n[symm] / mesh.face_distance[symm, None, None])
        builder.add(symm_rows, symm_rows, nn + bn)
        builder.add(symm_rows, owner[symm], -bn)
        _owner_gradient_chain(builder, mesh, symm, symm_rows,
                              w[symm], t[symm], np.ones(symm.size), proj=proj)

    rhs, row_scale = newton_rhs(mesh, material, state, table, flux_density)
    matrix = builder.to_csr(mesh.n_unknowns)
    return BlockSystem(matrix=matrix, rhs=rhs, row_scale=row_scale)


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
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def add(r, c, v):
        rows.append(np.asarray(r, dtype=np.int64))
        cols.append(np.asarray(c, dtype=np.int64))
        vals.append(np.asarray(v, dtype=float))

    quot = coefficient * mesh.face_area / mesh.face_distance
    owner, across = mesh.face_owner, mesh.face_across
    add(owner, across, quot)
    add(owner, owner, -quot)
    interior = mesh.interior_faces
    nb = mesh.face_neighbour[interior]
    add(nb, owner[interior], quot[interior])
    add(nb, nb, -quot[interior])

    boundary = mesh.boundary_faces
    b_rows = mesh.n_cells + mesh.face_boundary_index[boundary]
    kind = table.kind[mesh.face_boundary_index[boundary]]
    normal_dominant = np.abs(mesh.face_normal[boundary, component]) > 0.5
    fixed = (kind == _KIND_CODE[DISPLACEMENT]) | (
        (kind == _KIND_CODE[SYMMETRY]) & normal_dominant)
    free = ~fixed

    add(b_rows[fixed], b_rows[fixed], np.ones(int(fixed.sum())))
    bquot = coefficient / mesh.face_distance[boundary[free]]
    add(b_rows[free], b_rows[free], bquot)

    n = mesh.n_unknowns
    coo = sp.coo_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n))
    return coo.tocsr()
