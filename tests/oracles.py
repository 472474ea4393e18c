"""Reference routes the tests compare the solver's fast forms against.

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

Mesh scatters: the Gauss cell gradient, the vertex interpolation and the
face-to-cell force sum written as index loops with ``np.add.at``, and the
face-gradient reconstruction written face by face, against which the
solver's prebuilt sparse operators are held.

Mesh construction: the face, cell-face and vertex-stencil arrays built face
by face and vertex by vertex, against which the mesh's vectorised index
arithmetic is held, and the tangential face-derivative operator as a sum
of sparse products.

Sparse algebra: the coupled Newton matrix by its defining block-sparse
formula, against which the symbolic pattern and numeric fill of
``assemble_system`` are held.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from fvsolid.tensors import outer


def second_piola(material, c: np.ndarray) -> np.ndarray:
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
        return material.stress(a)
    f = np.eye(grad_u.shape[-1]) + grad_u
    c = np.einsum("...ki,...kj->...ij", f, f)
    s = second_piola(material, c)
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


def jacobian(mesh, material, table, f_face, s_face):
    """The coupled Newton matrix by its defining formula in block-sparse
    algebra,

        dr/dU = blocks(face_rows, I - D) @ (blocks(Q, H(N)) + blocks(Dt, H(t)))
                + blockdiag(D),

    with ``blocks(A, W)`` the matrix whose block (i, j) is A[i, j] W[i].
    The block sums store whole 2x2 blocks and drop the blocks that add up
    to zero, which are the off-diagonal blocks of prescribed-displacement
    rows (I - D = 0 there)."""
    h_normal, h_tangent = material.face_linearisation(
        f_face, s_face, mesh.face_normal, (mesh.face_normal, mesh.face_tangent))
    flux_derivative = (_blocks(mesh.face_quotient, h_normal)
                       + _blocks(mesh.face_tangential, h_tangent))
    return (_blocks(mesh.face_rows, np.eye(2) - table.disp) @ flux_derivative
            + _blocks(sp.identity(mesh.n_unknowns, format="csr"), table.disp)).tocsr()


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
