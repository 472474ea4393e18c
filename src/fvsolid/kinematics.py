"""Displacement state and the gradient operations that evolve it.

The solver state holds one in-plane displacement 2-vector per unknown
(cells first, boundary faces after) and one accumulated 2x2 displacement
gradient per cell.  Everything lives on the fixed reference mesh, so cell
gradients of each correction's increment add straight onto the stored
gradient and F = I + grad(U) at any time.

The Gauss gradient and the vertex interpolation are products with the
mesh's prebuilt sparse operators: ``face_average`` then
``cell_divergence`` for the gradient, ``vertex_stencil`` for the vertex
values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import CartesianMesh
from .tensors import outer


@dataclass
class State:
    displacement: np.ndarray   # (n_unknowns, 2)
    grad: np.ndarray           # (n_cells, 2, 2)


def zero_state(mesh: CartesianMesh) -> State:
    return State(np.zeros((mesh.n_unknowns, 2)), np.zeros((mesh.n_cells, 2, 2)))


def cell_gradient(mesh: CartesianMesh, values: np.ndarray) -> np.ndarray:
    """Gauss cell gradient of a per-unknown vector field.

    Interior face values are the two-cell average, boundary faces carry
    their own unknown.  Exact for fields linear in position on this mesh.
    """
    weighted = outer(mesh.face_average @ values, mesh.face_normal)
    flat = mesh.cell_divergence @ weighted.reshape(mesh.n_faces, -1)
    return flat.reshape(mesh.n_cells, -1, 2) / mesh.cell_volume[:, None, None]


def vertex_values(mesh: CartesianMesh, values: np.ndarray) -> np.ndarray:
    """Interpolate a per-unknown field to mesh vertices with the fixed
    vertex stencils (cell averages inside, boundary-face values on the
    outline)."""
    return mesh.vertex_stencil @ values


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
