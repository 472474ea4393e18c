"""Reference routes the tests compare the solver's fast forms against.

Stresses: a displacement gradient with a given right Cauchy-Green tensor,
so that checks posed in C reach ``stress_state``; the second Piola stress
S = F^-1 P of the first Piola stress ``stress_state`` returns, so that
checks posed in S reach it too; and the neo-Hookean S from C by LAPACK
inverse and determinant.

Tangents: the material elasticity dS/dE as a full fourth-order tensor, its
push to mixed form, the directional derivative of the first Piola stress
built from it, and the row-d traction-coupling tensor T^d both in closed
form and by brute contraction.  The solver itself only uses
``face_linearisation``, whose flux coefficient of a direction m is
H(m) = (S N.m) I + sum_d (T^d m) x e_d: under a gradient perturbation
a x m, row d of it (a_d m) couples through T^d.  The tangent routes work
in any dimension: fed 2x2 tensors they give the solver's in-plane
formulas, fed the 3x3 plane-strain embedding (F_33 = 1) they give the
3-D ones.

Matrix-form kernels: the 2x2 inverse, the scalar product and the flux
coefficients of both laws and the Hookean stress as (n, 1, 1) x (2, 2)
broadcasts of dyads and the identity, the form the solver's
per-component kernels replaced; they must agree bit for bit.

Mesh scatters: the Gauss cell gradient, the vertex interpolation and the
face-to-cell force sum written as index loops with ``np.add.at``, the
face-gradient reconstruction written face by face, and the face gradient
as the outer products of the two face-derivative operators' values with
N and t, against which the solver's prebuilt sparse operators are held.

Interleaved residual route: ``face_states`` and ``newton_rhs`` as they
were before fields went component-major, with C-ordered (interleaved)
fields and each operator applied as one two-column product, against
which the solver's per-component route is held bit for bit.

Mesh construction: the face, cell-face and vertex-stencil arrays built face
by face and vertex by vertex, against which the mesh's vectorised index
arithmetic is held, and the tangential face-derivative operator as a sum
of sparse products.  Every sparse operator of the mesh and its coupled
Jacobian pattern as scipy builds them from COO triples, stacks and
products (the mesh's former construction), against which the mesh's
direct CSR builds are held bit for bit.

Boundary kinds: the per-face int kind codes and the three rules that
once decoded them (force rows, the segregated step's fixed components and
the rigid-body constraint rows), against which the rules that read the
row weight D are held.

Sparse algebra: the coupled Newton matrix by its defining block-sparse
formula, against which the numeric fill of ``assemble_system`` is held,
and the same formula with every row weight D = 0, whose block pattern is
the mesh's stored pattern.

Convergence verdict: the consecutive-rise counter that once judged each
load step's residuals, against which the solver's verdict on the
history alone is held.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from fvsolid.mesh import BlockPattern
from fvsolid.tensors import IDENTITY, det2, matvec2, outer


def cholesky_gradient(c: np.ndarray) -> np.ndarray:
    """A displacement gradient whose right Cauchy-Green tensor is C: with
    the Cholesky factor C = L L^T, F = L^T gives F^T F = C and det F > 0.
    The materials take a displacement gradient only, so a check posed in C
    (the energy gradient, finite differences of S in C) enters through it."""
    return np.swapaxes(np.linalg.cholesky(c), -1, -2) - np.eye(c.shape[-1])


def second_piola(material, grad_u: np.ndarray) -> np.ndarray:
    """S = F^-1 P of the material at a displacement gradient, from the
    (F, P) of its ``stress_state``, by LAPACK inverse."""
    f, p = material.stress_state(grad_u)
    return np.linalg.inv(f) @ p


def second_piola_of_c(material, c: np.ndarray) -> np.ndarray:
    """Neo-Hookean S = mu (I - C^-1) + lam ln(J) C^-1 by LAPACK inverse and
    determinant."""
    c_inv = np.linalg.inv(c)
    log_j = 0.5 * np.log(np.linalg.det(c))
    return (material.mu * (np.eye(c.shape[-1]) - c_inv)
            + material.lam * log_j[..., None, None] * c_inv)


def elasticity_tensor(material, c: np.ndarray) -> np.ndarray:
    """Neo-Hookean material elasticity dS/dE as a fourth-order tensor."""
    c_inv = np.linalg.inv(c)
    log_j = 0.5 * np.log(np.linalg.det(c))
    term_vol = material.lam * np.einsum("...ij,...kl->...ijkl", c_inv, c_inv)
    j_sym = 0.5 * (np.einsum("...ik,...jl->...ijkl", c_inv, c_inv)
                   + np.einsum("...il,...jk->...ijkl", c_inv, c_inv))
    coef = 2.0 * (material.mu - material.lam * log_j)
    return term_vol + coef[..., None, None, None, None] * j_sym


def transformed_elasticity(material, f: np.ndarray) -> np.ndarray:
    """Push the material tangent to mixed form: M_aJdL = F_aI C_IJKL F_dK."""
    c = np.einsum("...ki,...kj->...ij", f, f)
    cc = elasticity_tensor(material, c)
    return np.einsum("...aI,...IJKL,...dK->...aJdL", f, cc, f)


def dP_apply(material, grad_u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Directional derivative of the first Piola stress along a gradient
    perturbation ``a``: a @ S plus the material-tangent contraction for the
    neo-Hookean solid, the Hookean stress of ``a`` for the linear one."""
    if material.linear:
        return material.stress_state(a)[1]
    f = np.eye(grad_u.shape[-1]) + grad_u
    c = np.einsum("...ki,...kj->...ij", f, f)
    s = second_piola_of_c(material, c)
    m = transformed_elasticity(material, f)
    return a @ s + np.einsum("...aJdL,...dL->...aJ", m, a)


def t_tensor(material, f: np.ndarray, n: np.ndarray, d: int) -> np.ndarray:
    """Row-d traction-coupling tensor in closed form.

    T^d_aL contracts the transformed tangent with the face normal over its
    second slot while fixing the third slot at d.  With A = F C^-1,
    a = A N, b = C^-1 N this collapses to

        T^d = lam (a x A_d) + (mu - lam ln J) (e_d x b + a_d A)

    because A F^T = I exactly.
    """
    c = np.einsum("...ki,...kj->...ij", f, f)
    a_mat = f @ np.linalg.inv(c)
    a = np.einsum("...ij,...j->...i", a_mat, n)
    b = np.einsum("...ji,...j->...i", a_mat, a)
    log_j = np.log(np.linalg.det(f))
    e_d = np.eye(f.shape[-1])[d]
    coef = (material.mu - material.lam * log_j)[..., None, None]
    return (material.lam * outer(a, a_mat[..., d, :])
            + coef * (outer(np.broadcast_to(e_d, a.shape), b)
                      + a[..., d, None, None] * a_mat))


def t_tensor_contracted(material, f: np.ndarray, n: np.ndarray, d: int) -> np.ndarray:
    """Same tensor by brute contraction of the transformed tangent."""
    m = transformed_elasticity(material, f)
    return np.einsum("...aJdL,...J->...adL", m, n)[..., d, :]


def dot2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar product a.b of (batched) 2-vectors."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def inv2(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse and determinant of (batched) 2x2 matrices: the adjugate
    times the reciprocal determinant."""
    det = det2(a)
    r = 1.0 / det
    inv = np.empty(np.shape(a))
    inv[..., 0, 0] = a[..., 1, 1] * r
    inv[..., 1, 0] = -a[..., 1, 0] * r
    inv[..., 0, 1] = -a[..., 0, 1] * r
    inv[..., 1, 1] = a[..., 0, 0] * r
    return inv, det


def neo_hookean_face_linearisation(material, f: np.ndarray, n: np.ndarray,
                                   directions) -> list[np.ndarray]:
    """H(m) = lam (a x Am - ln J Am x a) + mu (Am x a + (N.m) I), with
    A = F^-T and a = A N, in matrix form."""
    f_inv, det_f = inv2(f)
    f_inv_t = np.swapaxes(f_inv, -1, -2)
    a = matvec2(f_inv_t, n)
    log_j = np.log(det_f)[..., None, None]
    blocks = []
    for m in directions:
        am = matvec2(f_inv_t, m)
        am_a = outer(am, a)
        blocks.append(material.lam * (outer(a, am) - log_j * am_a)
                      + material.mu * (am_a + dot2(n, m)[..., None, None] * IDENTITY))
    return blocks


def linear_elastic_stress(material, grad_u: np.ndarray) -> np.ndarray:
    """sigma = mu (g + g^T) + lam tr(g) I in matrix form."""
    tr = np.trace(grad_u, axis1=-2, axis2=-1)
    return (material.mu * (grad_u + np.swapaxes(grad_u, -1, -2))
            + material.lam * tr[..., None, None] * IDENTITY)


def linear_elastic_face_linearisation(material, n: np.ndarray,
                                      directions) -> list[np.ndarray]:
    """H(m) = lam (N x m) + mu (m x N + (N.m) I) in matrix form."""
    return [material.lam * outer(n, m)
            + material.mu * (outer(m, n) + dot2(n, m)[..., None, None] * IDENTITY)
            for m in directions]


def cell_gradient(mesh, values: np.ndarray) -> np.ndarray:
    """Gauss cell gradient by scattering each face's area-weighted
    value x normal onto its owner (+) and neighbour (-)."""
    face_vals = np.empty((mesh.n_faces, values.shape[1]))
    interior = mesh.interior_faces
    face_vals[interior] = 0.5 * (values[mesh.face_owner[interior]]
                                 + values[mesh.face_neighbour[interior]])
    boundary = mesh.boundary_faces
    face_vals[boundary] = values[mesh.face_across[boundary]]
    weighted = mesh.face_area[:, None, None] * outer(face_vals, mesh.face_normal)
    grad = np.zeros((mesh.n_cells, values.shape[1], 2))
    np.add.at(grad, mesh.face_owner, weighted)
    np.subtract.at(grad, mesh.face_neighbour[interior], weighted[interior])
    return grad / mesh.cell_volume[:, None, None]


def vertex_values(mesh, values: np.ndarray) -> np.ndarray:
    """Vertex interpolation by scattering the stencil entries row by row."""
    out = np.zeros((mesh.n_vertices, values.shape[1]))
    stencils = mesh.vertex_stencil
    rows = np.repeat(np.arange(mesh.n_vertices), np.diff(stencils.indptr))
    np.add.at(out, rows, stencils.data[:, None] * values[stencils.indices])
    return out


def face_gradients(mesh, values: np.ndarray) -> np.ndarray:
    """Face displacement gradients reconstructed face by face: the normal
    quotient plus the endpoint-vertex difference along the tangent on
    interior faces; on boundary faces the owner's cell gradient with its
    normal column replaced by the quotient against the face unknown."""
    grad = np.empty((mesh.n_faces, 2, 2))
    verts = vertex_values(mesh, values)
    cells = cell_gradient(mesh, values)
    for f in range(mesh.n_faces):
        normal, own = mesh.face_normal[f], mesh.face_owner[f]
        quotient = (values[mesh.face_across[f]] - values[own]) / mesh.face_distance[f]
        if mesh.face_neighbour[f] >= 0:
            tangential = (verts[mesh.face_vertex_hi[f]]
                          - verts[mesh.face_vertex_lo[f]]) / mesh.face_area[f]
            grad[f] = outer(quotient, normal) + outer(tangential, mesh.face_tangent[f])
        else:
            grad[f] = cells[own] + outer(quotient - cells[own] @ normal, normal)
    return grad


def face_gradient(mesh, values: np.ndarray) -> np.ndarray:
    """Face displacement gradients in outer-product form, (Q U) x N +
    (Dt U) x t, one product per face-derivative operator."""
    return (outer(mesh.face_quotient @ values, mesh.face_normal)
            + outer(mesh.face_tangential @ values, mesh.face_tangent))


def interleaved_face_states(mesh, material, state):
    """F and the flux density P N per face by the interleaved route: one
    two-column product of ``face_gradient`` with the C-ordered
    displacement, then the material on the C-ordered face gradients."""
    u = np.ascontiguousarray(state.displacement)
    grad = (mesh.face_gradient @ u).reshape(2, mesh.n_faces, 2).transpose(1, 2, 0)
    f, p = material.stress_state(np.ascontiguousarray(grad))
    return np.ascontiguousarray(f), np.ascontiguousarray(matvec2(p, mesh.face_normal))


def interleaved_newton_rhs(mesh, state, table, flux_density):
    """-r by the interleaved route: one two-column product of
    ``face_rows`` with the C-ordered flux density."""
    rhs = 0.0 - mesh.face_rows @ np.ascontiguousarray(flux_density)
    tail = rhs[mesh.n_cells:]
    tail[...] = (table.value + matvec2(IDENTITY - table.disp, tail)
                 - matvec2(table.disp, state.displacement[mesh.n_cells:]))
    return rhs


def face_tangential(mesh):
    """The tangential face-derivative operator as a sum of sparse products:
    the masked endpoint-vertex stencil difference plus, per direction d,
    the face tangent's d component times row ``owner`` of the Gauss
    gradient operator along d."""
    on_boundary = (mesh.face_boundary_index >= 0).astype(float)
    stencil = mesh.vertex_stencil
    out = (sp.diags((1.0 - on_boundary) / mesh.face_area)
           @ (stencil[mesh.face_vertex_hi] - stencil[mesh.face_vertex_lo]))
    to_cells = sp.diags(1.0 / mesh.cell_volume) @ mesh.cell_divergence
    for d in (0, 1):
        gauss_d = to_cells @ sp.diags(mesh.face_normal[:, d]) @ mesh.face_average
        along_t = sp.diags(on_boundary * mesh.face_tangent[:, d])
        out = out + along_t @ gauss_d[mesh.face_owner]
    out = out.tocsr()
    out.eliminate_zeros()
    return out


def _blocks(op, weights: np.ndarray) -> sp.bsr_matrix:
    """Block-sparse matrix whose block (i, j) is op[i, j] * weights[i]."""
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    return sp.bsr_matrix((op.data[:, None, None] * weights[rows], op.indices, op.indptr),
                         shape=(2 * op.shape[0], 2 * op.shape[1]))


def jacobian(mesh, material, table, f_face):
    """The coupled Newton matrix by its defining formula in block-sparse
    algebra,

        dr/dU = blocks(face_rows, I - D) @ (blocks(Q, H(N)) + blocks(Dt, H(t)))
                + blockdiag(D),

    with ``blocks(A, W)`` the matrix whose block (i, j) is A[i, j] W[i].
    The block sums store whole 2x2 blocks and drop the blocks that add up
    to zero, which are the off-diagonal blocks of prescribed-displacement
    rows (I - D = 0 there); ``assemble_system`` stores those as exact
    zeros."""
    h_normal, h_tangent = material.face_linearisation(
        f_face, mesh.face_normal, (mesh.face_normal, mesh.face_tangent))
    flux_derivative = (_blocks(mesh.face_quotient, h_normal)
                       + _blocks(mesh.face_tangential, h_tangent))
    disp = np.concatenate((np.zeros((mesh.n_cells, 2, 2)), table.disp))    # D = 0 on cells
    return (_blocks(mesh.face_rows, np.eye(2) - disp) @ flux_derivative
            + _blocks(sp.identity(mesh.n_unknowns, format="csr"), disp)).tocsr()


def cell_force_rows(mesh, flux_density: np.ndarray) -> np.ndarray:
    """Cell rows of the residual: minus the net outward surface force."""
    rows = np.zeros((mesh.n_cells, flux_density.shape[1]))
    flux = mesh.face_area[:, None] * flux_density
    np.subtract.at(rows, mesh.face_owner, flux)
    interior = mesh.interior_faces
    np.add.at(rows, mesh.face_neighbour[interior], flux[interior])
    return rows


def mesh_arrays(mesh) -> dict:
    """Face and vertex-stencil arrays of a Cartesian mesh built
    face by face and vertex by vertex in Python loops, the reference for the
    mesh's index arithmetic."""
    nx, ny, nc, dx, dy = mesh.nx, mesh.ny, mesh.n_cells, mesh.dx, mesh.dy
    n_vertical = (nx + 1) * ny
    nf = n_vertical + nx * (ny + 1)
    out = {
        "face_owner": np.empty(nf, dtype=np.int64),
        "face_neighbour": np.full(nf, -1, dtype=np.int64),
        "face_normal": np.zeros((nf, 2)),
        "face_area": np.empty(nf),
        "face_centroid": np.zeros((nf, 2)),
        "face_distance": np.empty(nf),
        "face_patch": np.full(nf, -1, dtype=np.int64),
        "face_boundary_index": np.full(nf, -1, dtype=np.int64),
        "face_tangent": np.zeros((nf, 2)),
        "face_vertex_lo": np.empty(nf, dtype=np.int64),
        "face_vertex_hi": np.empty(nf, dtype=np.int64),
    }

    def cell(i, j):
        return j * nx + i

    def vertex(i, j):
        return j * (nx + 1) + i

    def face(f, area, centroid, tangent, lo, hi, owner, normal, distance,
             neighbour=-1, patch=-1, bindex=-1):
        for key, value in (("face_area", area), ("face_centroid", centroid),
                           ("face_tangent", tangent), ("face_vertex_lo", lo),
                           ("face_vertex_hi", hi), ("face_owner", owner),
                           ("face_normal", normal), ("face_distance", distance),
                           ("face_neighbour", neighbour), ("face_patch", patch),
                           ("face_boundary_index", bindex)):
            out[key][f] = value

    for i in range(nx + 1):            # vertical faces, id = i*ny + j
        for j in range(ny):
            common = (dy, (i * dx, (j + 0.5) * dy), (0.0, 1.0),
                      vertex(i, j), vertex(i, j + 1))
            if i == 0:
                face(i * ny + j, *common, cell(0, j), (-1.0, 0.0), 0.5 * dx,
                     patch=0, bindex=j)
            elif i == nx:
                face(i * ny + j, *common, cell(nx - 1, j), (1.0, 0.0), 0.5 * dx,
                     patch=1, bindex=ny + j)
            else:
                face(i * ny + j, *common, cell(i - 1, j), (1.0, 0.0), dx,
                     neighbour=cell(i, j))
    for j in range(ny + 1):            # horizontal faces
        for i in range(nx):
            f = n_vertical + j * nx + i
            common = (dx, ((i + 0.5) * dx, j * dy), (1.0, 0.0),
                      vertex(i, j), vertex(i + 1, j))
            if j == 0:
                face(f, *common, cell(i, 0), (0.0, -1.0), 0.5 * dy,
                     patch=2, bindex=2 * ny + i)
            elif j == ny:
                face(f, *common, cell(i, ny - 1), (0.0, 1.0), 0.5 * dy,
                     patch=3, bindex=2 * ny + nx + i)
            else:
                face(f, *common, cell(i, j - 1), (0.0, 1.0), dy,
                     neighbour=cell(i, j))

    ptr, ids, weights = [0], [], []
    for j in range(ny + 1):
        for i in range(nx + 1):
            on = (i == 0, i == nx, j == 0, j == ny)
            if not any(on):
                sid = [cell(i - 1, j - 1), cell(i, j - 1), cell(i - 1, j), cell(i, j)]
            elif sum(on) == 2:         # corner: end face of the left/right patch
                sid = [nc + (0 if i == 0 else ny) + (0 if j == 0 else ny - 1)]
            elif i == 0 or i == nx:
                base = nc + (0 if i == 0 else ny)
                sid = [base + j - 1, base + j]
            else:
                base = nc + 2 * ny + (0 if j == 0 else nx)
                sid = [base + i - 1, base + i]
            ids.extend(sid)
            weights.extend([1.0 / len(sid)] * len(sid))
            ptr.append(len(ids))
    out["vertex_stencil.indptr"] = np.asarray(ptr)
    out["vertex_stencil.indices"] = np.asarray(ids)
    out["vertex_stencil.data"] = np.asarray(weights)
    return out



def product_operators(mesh) -> dict:
    """Every sparse operator of the mesh built through scipy's COO
    conversion, ``vstack`` and sparse products, each from the others here
    (not from the mesh's), keyed by the mesh's attribute name."""
    nx, ny, nc, nf = mesh.nx, mesh.ny, mesh.n_cells, mesh.n_faces
    n_unknowns, n_vertices = mesh.n_unknowns, mesh.n_vertices
    interior, boundary = mesh.interior_faces, mesh.boundary_faces
    owner, across = mesh.face_owner, mesh.face_across
    ops = {}

    ops["face_average"] = sp.csr_matrix(
        (np.concatenate((np.full(2 * interior.size, 0.5), np.ones(boundary.size))),
         (np.concatenate((interior, interior, boundary)),
          np.concatenate((owner[interior], mesh.face_neighbour[interior], across[boundary])))),
        shape=(nf, n_unknowns))

    ops["cell_divergence"] = div = sp.csr_matrix(
        (np.concatenate((mesh.face_area, -mesh.face_area[interior])),
         (np.concatenate((owner, mesh.face_neighbour[interior])),
          np.concatenate((np.arange(nf), interior)))),
        shape=(nc, nf))

    vi, vj = (a.ravel() for a in np.meshgrid(np.arange(nx + 1), np.arange(ny + 1),
                                              indexing="xy"))
    on_x, on_y = (vi == 0) | (vi == nx), (vj == 0) | (vj == ny)
    inner, corner = ~(on_x | on_y), on_x & on_y
    side = np.where(vi == 0, 0, ny)
    first = np.where(on_x, side + vj - 1, 2 * ny + np.where(vj == 0, 0, nx) + vi - 1)
    first = np.where(corner, side + np.where(vj == 0, 0, ny - 1), first)
    counts = np.where(inner, 4, np.where(corner, 1, 2))
    cols = np.where(inner[:, None],
                    ((vj - 1) * nx + vi - 1)[:, None] + np.array([0, 1, nx, nx + 1]),
                    nc + first[:, None] + np.arange(4))
    keep = np.arange(4) < counts[:, None]
    weights = np.broadcast_to(1.0 / counts[:, None], keep.shape)
    ops["vertex_stencil"] = sp.csr_matrix(
        (weights[keep], cols[keep], np.concatenate(([0], np.cumsum(counts)))),
        shape=(n_vertices, n_unknowns))

    data = div.data * np.repeat(1.0 / mesh.cell_volume, np.diff(div.indptr))
    stacked = sp.vstack([sp.csr_matrix((data * n, div.indices, div.indptr), shape=div.shape)
                         for n in mesh.face_normal[div.indices].T], format="csr")
    ops["gauss_gradient"] = stacked @ ops["face_average"]

    inv_d = 1.0 / mesh.face_distance
    faces = np.arange(nf)
    ops["face_quotient"] = sp.csr_matrix(
        (np.concatenate((-inv_d, inv_d)),
         (np.concatenate((faces, faces)), np.concatenate((owner, across)))),
        shape=(nf, n_unknowns))

    inv_area = 1.0 / mesh.face_area[interior]
    cell_col = n_vertices + owner[boundary]
    pick = sp.csr_matrix(
        (np.concatenate((inv_area, -inv_area, mesh.face_tangent[boundary].T.ravel())),
         (np.concatenate((interior, interior, boundary, boundary)),
          np.concatenate((mesh.face_vertex_hi[interior], mesh.face_vertex_lo[interior],
                          cell_col, nc + cell_col)))),
        shape=(nf, n_vertices + 2 * nc))
    tangential = pick @ sp.vstack((ops["vertex_stencil"], ops["gauss_gradient"]), format="csr")
    tangential.sort_indices()
    ops["face_tangential"] = tangential

    pick = sp.csr_matrix(
        (np.stack((mesh.face_normal.T, mesh.face_tangent.T), axis=-1).ravel(),
         np.tile(np.column_stack((faces, nf + faces)).ravel(), 2),
         np.arange(0, 4 * nf + 1, 2)), shape=(2 * nf, 2 * nf))
    pick.eliminate_zeros()
    gradient = pick @ sp.vstack((ops["face_quotient"], tangential), format="csr")
    gradient.sort_indices()
    ops["face_gradient"] = gradient

    select = sp.csr_matrix((np.ones(mesh.n_bfaces), mesh.bface_face,
                            np.arange(mesh.n_bfaces + 1)), shape=(mesh.n_bfaces, nf))
    ops["face_rows"] = sp.vstack((div, select), format="csr")
    return ops


def product_jacobian_pattern(mesh, ops: dict) -> BlockPattern:
    """The coupled Jacobian's ``BlockPattern`` from the operators of
    ``product_operators``: the block pattern as the structure of the
    product |face_rows| (|Q| + |Dt|), every (i, f, j) triple expanded from
    face_rows in CSC (face) order, block ids looked up by fancy indexing,
    and the CSC layout as the CSR of a float BSR transpose."""
    n, nf = mesh.n_unknowns, mesh.n_faces
    pair = (ops["face_quotient"], ops["face_tangential"])
    reach = abs(ops["face_rows"]) @ (abs(pair[0]) + abs(pair[1]))
    reach.sort_indices()
    n_blocks = reach.nnz
    block_id = sp.csr_matrix((np.arange(1.0, n_blocks + 1), reach.indices, reach.indptr),
                             shape=(n, n))
    by_face = ops["face_rows"].tocsc().tocoo()
    chains = [_chain(by_face.row, by_face.col, by_face.data, op) for op in pair]
    i, f, j, value = (np.concatenate(part) for part in zip(*chains))
    f[chains[0][1].size:] += nf
    k = np.asarray(block_id[i, j]).ravel().astype(np.int32) - 1
    indptr = np.zeros(2 * nf + 1, dtype=np.int32)
    np.cumsum(np.bincount(f, minlength=2 * nf), out=indptr[1:])
    fill = sp.csc_matrix((value, k, indptr), shape=(n_blocks, 2 * nf))
    layout = sp.bsr_matrix((np.arange(1.0, 4 * n_blocks + 1).reshape(-1, 2, 2),
                            reach.indices, reach.indptr), shape=(2 * n, 2 * n))
    layout = layout.T.tocsr()
    counts = np.diff(reach.indptr)[mesh.n_cells:]
    return BlockPattern(
        fill=fill, diagonal=(block_id.diagonal() - 1).astype(np.int32),
        indptr=layout.indptr.astype(np.int32), indices=layout.indices.astype(np.int32),
        gather=(layout.data - 1).astype(np.int32),
        bface_block=np.repeat(np.arange(mesh.n_bfaces, dtype=np.int32), counts))


def _chain(rows: np.ndarray, mids: np.ndarray, weights: np.ndarray, op):
    """Expand each (row, mid, weight) by row ``mid`` of ``op``: the
    (row, mid, col, weight * op[mid, col]) of every stored op entry."""
    counts = np.diff(op.indptr)[mids]
    starts = np.repeat(op.indptr[mids] - np.cumsum(counts) + counts, counts)
    pos = starts + np.arange(starts.size)
    return (np.repeat(rows, counts), np.repeat(mids, counts), op.indices[pos],
            np.repeat(weights, counts) * op.data[pos])

KIND_CODE = {"displacement": 0, "traction": 1, "symmetry": 2}


def kind_codes(mesh, bcs: dict) -> np.ndarray:
    """(n_bfaces,) kind code per boundary face, through the face-by-face
    patch of ``mesh_arrays``."""
    arrays = mesh_arrays(mesh)
    bindex, patch = arrays["face_boundary_index"], arrays["face_patch"]
    on = bindex >= 0
    kind = np.empty(mesh.n_bfaces, dtype=np.int8)
    kind[bindex[on]] = [KIND_CODE[bcs[p].kind] for p in patch[on]]
    return kind


def force_row_mask(mesh, kind: np.ndarray) -> np.ndarray:
    """Every cell row and every boundary row not prescribing displacement."""
    mask = np.ones(mesh.n_unknowns, dtype=bool)
    mask[mesh.n_cells:] = kind != KIND_CODE["displacement"]
    return mask


def scalar_step(mesh, kind: np.ndarray, coefficient: float) -> np.ndarray:
    """The segregated step: 1 on cell rows and fixed components (both on a
    displacement face, the normal one on a symmetry plane), distance over
    coefficient on free ones."""
    bfaces = mesh.bface_face
    kind = kind[:, None]
    fixed = (kind == KIND_CODE["displacement"]) | (
        (kind == KIND_CODE["symmetry"]) & (np.abs(mesh.face_normal[bfaces]) > 0.5))
    step = np.ones((mesh.n_unknowns, 2))
    step[mesh.n_cells:] = np.where(fixed, 1.0, mesh.face_distance[bfaces, None] / coefficient)
    return step


def rigid_body_rows(mesh, kind: np.ndarray) -> np.ndarray:
    """Rigid-motion constraint rows [d_x, d_y, d_y p_x - d_x p_y]: e_x and
    e_y per displacement face, the normal per symmetry face, at points
    centred and scaled by the domain extents."""
    faces = mesh.bface_face
    point = ((mesh.face_centroid[faces] - (mesh.lx / 2, mesh.ly / 2))
             / max(mesh.lx, mesh.ly))
    fixed = point[kind == KIND_CODE["displacement"]]
    sliding = kind == KIND_CODE["symmetry"]
    d = np.concatenate((np.tile((1.0, 0.0), (len(fixed), 1)),
                        np.tile((0.0, 1.0), (len(fixed), 1)),
                        mesh.face_normal[faces[sliding]]))
    p = np.concatenate((fixed, fixed, point[sliding]))
    return np.column_stack((d, d[:, 1] * p[:, 0] - d[:, 0] * p[:, 1]))


def rise_counter_verdicts(history, tolerance: float) -> list[str]:
    """The verdict after each value of ``history`` by the counter state
    machine: converged below the tolerance (leaving the state alone),
    otherwise count a rise over the previous value (reset on any other
    value, NaN included) and call five in a row diverged."""
    previous, rises, verdicts = np.inf, 0, []
    for value in history:
        if value < tolerance:
            verdicts.append("converged")
            continue
        rises = rises + 1 if value > previous else 0
        previous = value
        verdicts.append("diverged" if rises >= 5 else "continue")
    return verdicts
