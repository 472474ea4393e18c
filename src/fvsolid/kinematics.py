"""Displacement state and the gradient operations on it.

The solver state holds one in-plane displacement 2-vector per unknown
(cells first, boundary faces after).  Everything lives on the fixed
reference mesh, so F = I + grad(U) at any time, with the gradient taken
from the current displacement: the Gauss cell gradient here, the face
gradients from the mesh's face-derivative operators in ``assembly``.

The Gauss gradient and the vertex interpolation are single products with
the mesh's prebuilt sparse operators: ``gauss_gradient`` (both derivative
directions stacked) for the gradient, ``vertex_stencil`` for the vertex
values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import CartesianMesh


@dataclass
class State:
    displacement: np.ndarray   # (n_unknowns, 2)


def zero_state(mesh: CartesianMesh) -> State:
    return State(np.zeros((mesh.n_unknowns, 2)))


def cell_gradient(mesh: CartesianMesh, values: np.ndarray) -> np.ndarray:
    """Gauss cell gradient of a per-unknown vector field.

    Interior face values are the two-cell average, boundary faces carry
    their own unknown.  Exact for fields linear in position on this mesh.
    A (n_cells, k, 2) view of one ``gauss_gradient`` product.
    """
    return (mesh.gauss_gradient @ values).reshape(2, mesh.n_cells, -1).transpose(1, 2, 0)


def vertex_values(mesh: CartesianMesh, values: np.ndarray) -> np.ndarray:
    """Interpolate a per-unknown field to mesh vertices with the fixed
    vertex stencils (cell averages inside, boundary-face values on the
    outline)."""
    return mesh.vertex_stencil @ values


def advance_state(state: State, increment: np.ndarray) -> State:
    """Apply a displacement increment to the unknowns."""
    return State(state.displacement + increment)
