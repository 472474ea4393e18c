"""Reference routes the tests compare the solver's fast forms against.

Tangents: the material elasticity dS/dE as a full fourth-order tensor, its
push to mixed form, the directional derivative of the first Piola stress
built from it, and the row-d traction-coupling tensor both in closed form
and by brute contraction.  The solver itself only uses
``face_linearisation``.

Mesh scatters: the Gauss cell gradient, the vertex interpolation and the
face-to-cell force sum written as index loops with ``np.add.at``, against
which the solver's prebuilt sparse operators are held.
"""

from __future__ import annotations

import numpy as np

from fvsolid.tensors import IDENTITY, outer


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
    f = IDENTITY + grad_u
    c = np.einsum("...ki,...kj->...ij", f, f)
    s = material.second_piola(c)
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
    e_d = IDENTITY[d]
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
    grad = np.zeros((mesh.n_cells, values.shape[1], 3))
    np.add.at(grad, mesh.face_owner, weighted)
    np.subtract.at(grad, mesh.face_neighbour[interior], weighted[interior])
    return grad / mesh.cell_volume[:, None, None]


def vertex_values(mesh, values: np.ndarray) -> np.ndarray:
    """Vertex interpolation by scattering the stencil entries row by row."""
    out = np.zeros((mesh.n_vertices, values.shape[1]))
    counts = np.diff(mesh.stencil_ptr)
    rows = np.repeat(np.arange(mesh.n_vertices), counts)
    np.add.at(out, rows, mesh.stencil_weights[:, None] * values[mesh.stencil_ids])
    return out


def cell_force_rows(mesh, flux_density: np.ndarray) -> np.ndarray:
    """Cell rows of the residual: minus the net outward surface force."""
    rows = np.zeros((mesh.n_cells, flux_density.shape[1]))
    flux = mesh.face_area[:, None] * flux_density
    np.subtract.at(rows, mesh.face_owner, flux)
    interior = mesh.interior_faces
    np.add.at(rows, mesh.face_neighbour[interior], flux[interior])
    return rows
