"""Displacement state and the gradient operations on it.

The solver state holds one in-plane displacement 2-vector per unknown
(cells first, boundary faces after).  Everything lives on the fixed
reference mesh, so F = I + grad(U) at any time, with the gradient taken
from the current displacement: the Gauss cell gradient here, the face
gradients from the mesh's face-derivative operators in ``assembly``.

Fields follow the layout rule of ``tensors``.  ``apply`` takes a mesh
operator to a field one component at a time, as single-vector sparse
products; scipy runs a two-column product through a slower two-wide
loop.  The Gauss gradient (``gauss_gradient``, both derivative
directions stacked) and the vertex interpolation (``vertex_stencil``)
are such products.

``apply`` calls scipy's CSR kernel ``csr_matvec`` itself, the kernel
that ``operator @ vector`` runs: it accumulates each component straight
into its row of the output, where ``@`` would allocate a vector per
product for a copy into that row, and it skips ``@``'s dispatch.  The
summation order, and so every value, is ``@``'s.  The kernel's module,
``scipy.sparse._sparsetools``, is private: it is the package's one
private scipy import, kept because every public route costs more.

The output is the caller's buffer if given (on the correction path, the
run's ``assembly.Workspace``), so a product allocates nothing, and
``face_states``' gradients are views into that buffer; the run likewise
advances its state in place (``advance_state``'s ``out``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .mesh import CartesianMesh


@dataclass
class State:
    displacement: np.ndarray   # (n_unknowns, 2)


def zero_state(mesh: CartesianMesh) -> State:
    return State(np.zeros((mesh.n_unknowns, 2), order="F"))


def apply(operator: sp.csr_matrix, values: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """``operator @ values`` for a CSR operator and a field of k
    components, (rows, k) component-major: one single-vector product per
    component, each summed in the same order as the k-column product.
    The result is the transpose view of ``out``, a (k, rows) buffer whose
    rows are contiguous (made if not given)."""
    rows, cols = operator.shape
    # The kernel reads its arrays as CSR, without bounds checks.
    if operator.format != "csr" or values.shape[0] != cols:
        raise ValueError(f"need a CSR operator with {values.shape[0]} columns, "
                         f"got {operator.format} with {cols}")
    if out is None:
        out = np.empty((values.shape[1], rows))
    if out.shape != (values.shape[1], rows):
        raise ValueError(f"need a {(values.shape[1], rows)} output, got {out.shape}")
    out.fill(0.0)               # the kernel adds into its output
    for k, component in enumerate(out):
        _sparsetools.csr_matvec(rows, cols, operator.indptr, operator.indices,
                                operator.data, values[:, k], component)
    return out.T


def cell_gradient(mesh: CartesianMesh, values: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Gauss cell gradient of a per-unknown vector field.

    Interior face values are the two-cell average, boundary faces carry
    their own unknown.  Exact for fields linear in position on this mesh.
    A component-major (n_cells, k, 2) view of ``gauss_gradient`` applied
    to each component, written into ``out`` as ``apply`` does.
    """
    grad = apply(mesh.gauss_gradient, values, out)
    return grad.T.reshape(-1, 2, mesh.n_cells).transpose(2, 0, 1)


def vertex_values(mesh: CartesianMesh, values: np.ndarray) -> np.ndarray:
    """Interpolate a per-unknown field to mesh vertices with the fixed
    vertex stencils (cell averages inside, boundary-face values on the
    outline)."""
    return apply(mesh.vertex_stencil, values)


def advance_state(state: State, increment: np.ndarray, out: State | None = None) -> State:
    """Apply a displacement increment to the unknowns, into ``out``: a new
    state if not given, or ``state`` itself to advance it in place."""
    if out is None:
        out = State(np.empty(state.displacement.shape, order="F"))
    np.add(state.displacement, increment, out=out.displacement)
    return out
