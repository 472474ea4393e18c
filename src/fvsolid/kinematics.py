"""Displacement state and the gradient operations that evolve it.

The solver state holds one displacement vector per unknown (cells first,
boundary faces after) and one accumulated displacement gradient per cell.
Everything lives on the fixed reference mesh, so cell gradients of each
correction's increment add straight onto the stored gradient and
F = I + grad(U) at any time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import CartesianMesh
from .tensors import IDENTITY, outer


@dataclass
class State:
    displacement: np.ndarray   # (n_unknowns, 3)
    grad: np.ndarray           # (n_cells, 3, 3)

    def copy(self) -> "State":
        return State(self.displacement.copy(), self.grad.copy())


def zero_state(mesh: CartesianMesh) -> State:
    return State(np.zeros((mesh.n_unknowns, 3)), np.zeros((mesh.n_cells, 3, 3)))


def cell_gradient(mesh: CartesianMesh, values: np.ndarray) -> np.ndarray:
    """Gauss cell gradient of a per-unknown vector field.

    Interior face values are the two-cell average, boundary faces carry
    their own unknown.  Exact for fields linear in position on this mesh.
    """
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


def vertex_values(mesh: CartesianMesh, values: np.ndarray) -> np.ndarray:
    """Interpolate a per-unknown field to mesh vertices with the fixed
    vertex stencils (cell averages inside, boundary-face values on the
    outline)."""
    out = np.zeros((mesh.n_vertices, values.shape[1]))
    counts = np.diff(mesh.stencil_ptr)
    rows = np.repeat(np.arange(mesh.n_vertices), counts)
    np.add.at(out, rows,
              mesh.stencil_weights[:, None] * values[mesh.stencil_ids])
    return out


def advance_state(mesh: CartesianMesh, state: State, increment: np.ndarray) -> State:
    """Apply a displacement increment: add it to the unknowns and fold its
    cell gradient into the accumulated gradient."""
    disp = state.displacement + increment
    grad = state.grad + cell_gradient(mesh, increment)
    return State(disp, grad)


def boundary_face_gradient(grad_cell: np.ndarray, u_cell: np.ndarray,
                           u_face: np.ndarray, normal: np.ndarray,
                           distance: np.ndarray) -> np.ndarray:
    """One-sided displacement gradient at boundary faces.

    Starts from the adjacent cell gradient and replaces its normal
    component with the difference quotient between the face and cell
    values, keeping the tangential part.
    """
    quotient = (u_face - u_cell) / distance[..., None]
    normal_part = np.einsum("...ij,...j->...i", grad_cell, normal)
    return grad_cell + outer(quotient - normal_part, normal)


def deformation_gradient(grad: np.ndarray) -> np.ndarray:
    return IDENTITY + grad
