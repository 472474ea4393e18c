"""Displacement state and the gradient operations on it.

The solver state holds one in-plane displacement 2-vector per unknown
(cells first, boundary faces after).  Everything lives on the fixed
reference mesh, so F = I + grad(U) at any time, with the gradient taken
from the current displacement: the Gauss cell gradient here, the face
gradients from the mesh's face-derivative operators in ``assembly``.

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


def zero_state(mesh: CartesianMesh) -> State:
    return State(np.zeros((mesh.n_unknowns, 2)))


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


def advance_state(state: State, increment: np.ndarray) -> State:
    """Apply a displacement increment to the unknowns."""
    return State(state.displacement + increment)
