"""Structured Cartesian mesh with unit depth for plane-strain problems.

The mesh is built once and never mutated.  Cells are numbered row-major
(index = j*nx + i), boundary faces are numbered patch-major in the fixed
patch order left, right, bottom, top.  The solver's unknown vector stacks
cell values first and boundary-face values after them, so the unknown index
of boundary face b is ``n_cells + b``.

Each face is a rectangle of in-plane length times unit depth.  Only the two
depth edges at the face endpoints carry tangential-derivative information
for plane-strain fields (the in-plane edges have binormal e_z, orthogonal to
every in-plane vector), so only the two endpoint vertices matter.  Vertex
values are interpolated from the unknowns with fixed vertex stencils:

- interior vertex: the four surrounding cells, weight 1/4 each
- boundary vertex inside a patch: the two adjacent boundary faces, 1/2 each
- corner vertex: the nearest boundary face of the adjacent patch that comes
  first in the patch order (weight 1)

Three sparse operators turn the face and stencil arrays into single
products for the residual path: ``face_average`` (unknowns to faces),
``cell_divergence`` (faces to cells) and ``vertex_stencil`` (unknowns to
vertices).  Each is built on first use and then kept with the mesh.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

LEFT, RIGHT, BOTTOM, TOP = 0, 1, 2, 3
PATCH_NAMES = ("left", "right", "bottom", "top")


class CartesianMesh:
    """Uniform nx-by-ny cell mesh on [0, lx] x [0, ly] with unit depth."""

    def __init__(self, nx: int, ny: int, lx: float, ly: float):
        if nx < 1 or ny < 1:
            raise ValueError(f"mesh needs at least one cell per direction, got {nx}x{ny}")
        if lx <= 0.0 or ly <= 0.0:
            raise ValueError(f"mesh extents must be positive, got {lx} x {ly}")
        self.nx, self.ny = nx, ny
        self.lx, self.ly = float(lx), float(ly)
        self.dx, self.dy = self.lx / nx, self.ly / ny

        self.n_cells = nx * ny
        self.n_bfaces = 2 * (nx + ny)
        self.n_unknowns = self.n_cells + self.n_bfaces
        self.n_vertices = (nx + 1) * (ny + 1)

        self._build_geometry()
        self._build_faces()
        self._build_stencils()
        for arr in (self.cell_centroids, self.vertices, self.face_owner,
                    self.face_neighbour, self.face_normal, self.face_area,
                    self.face_centroid, self.face_distance, self.face_patch,
                    self.face_boundary_index, self.face_tangent,
                    self.face_vertex_lo, self.face_vertex_hi,
                    self.face_across, self.cell_volume, self.bface_face,
                    self.cell_faces, self.cell_face_sign,
                    self.stencil_ptr, self.stencil_ids, self.stencil_weights):
            arr.flags.writeable = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_geometry(self) -> None:
        nx, ny, dx, dy = self.nx, self.ny, self.dx, self.dy
        ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
        self.cell_centroids = np.zeros((self.n_cells, 3))
        self.cell_centroids[:, 0] = ((ii + 0.5) * dx).ravel()
        self.cell_centroids[:, 1] = ((jj + 0.5) * dy).ravel()
        self.cell_volume = np.full(self.n_cells, dx * dy)

        vi, vj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="xy")
        self.vertices = np.zeros((self.n_vertices, 3))
        self.vertices[:, 0] = (vi * dx).ravel()
        self.vertices[:, 1] = (vj * dy).ravel()

    def cell_index(self, i: int, j: int) -> int:
        return j * self.nx + i

    def vertex_index(self, i: int, j: int) -> int:
        return j * (self.nx + 1) + i

    def _build_faces(self) -> None:
        nx, ny, dx, dy = self.nx, self.ny, self.dx, self.dy
        n_vertical = (nx + 1) * ny
        n_horizontal = nx * (ny + 1)
        nf = n_vertical + n_horizontal
        self.n_faces = nf

        owner = np.empty(nf, dtype=np.int64)
        neigh = np.full(nf, -1, dtype=np.int64)
        normal = np.zeros((nf, 3))
        area = np.empty(nf)
        centroid = np.zeros((nf, 3))
        distance = np.empty(nf)
        patch = np.full(nf, -1, dtype=np.int64)
        bindex = np.full(nf, -1, dtype=np.int64)
        tangent = np.zeros((nf, 3))
        vlo = np.empty(nf, dtype=np.int64)
        vhi = np.empty(nf, dtype=np.int64)

        # Vertical faces (in-plane segment along y), id = i*ny + j.
        for i in range(nx + 1):
            for j in range(ny):
                f = i * ny + j
                area[f] = dy
                centroid[f] = (i * dx, (j + 0.5) * dy, 0.0)
                tangent[f] = (0.0, 1.0, 0.0)
                vlo[f] = self.vertex_index(i, j)
                vhi[f] = self.vertex_index(i, j + 1)
                if i == 0:
                    owner[f] = self.cell_index(0, j)
                    normal[f] = (-1.0, 0.0, 0.0)
                    distance[f] = 0.5 * dx
                    patch[f] = LEFT
                    bindex[f] = j
                elif i == nx:
                    owner[f] = self.cell_index(nx - 1, j)
                    normal[f] = (1.0, 0.0, 0.0)
                    distance[f] = 0.5 * dx
                    patch[f] = RIGHT
                    bindex[f] = ny + j
                else:
                    owner[f] = self.cell_index(i - 1, j)
                    neigh[f] = self.cell_index(i, j)
                    normal[f] = (1.0, 0.0, 0.0)
                    distance[f] = dx

        # Horizontal faces (segment along x), id = n_vertical + j*nx + i.
        for j in range(ny + 1):
            for i in range(nx):
                f = n_vertical + j * nx + i
                area[f] = dx
                centroid[f] = ((i + 0.5) * dx, j * dy, 0.0)
                tangent[f] = (1.0, 0.0, 0.0)
                vlo[f] = self.vertex_index(i, j)
                vhi[f] = self.vertex_index(i + 1, j)
                if j == 0:
                    owner[f] = self.cell_index(i, 0)
                    normal[f] = (0.0, -1.0, 0.0)
                    distance[f] = 0.5 * dy
                    patch[f] = BOTTOM
                    bindex[f] = 2 * ny + i
                elif j == ny:
                    owner[f] = self.cell_index(i, ny - 1)
                    normal[f] = (0.0, 1.0, 0.0)
                    distance[f] = 0.5 * dy
                    patch[f] = TOP
                    bindex[f] = 2 * ny + nx + i
                else:
                    owner[f] = self.cell_index(i, j - 1)
                    neigh[f] = self.cell_index(i, j)
                    normal[f] = (0.0, 1.0, 0.0)
                    distance[f] = dy

        self.face_owner = owner
        self.face_neighbour = neigh
        self.face_normal = normal
        self.face_area = area
        self.face_centroid = centroid
        self.face_distance = distance
        self.face_patch = patch
        self.face_boundary_index = bindex
        self.face_tangent = tangent
        self.face_vertex_lo = vlo
        self.face_vertex_hi = vhi

        # Across-face unknown: neighbour cell, or the boundary-face unknown.
        across = neigh.copy()
        on_boundary = bindex >= 0
        across[on_boundary] = self.n_cells + bindex[on_boundary]
        self.face_across = across

        # Per-cell face list (west, east, south, north) with the sign that
        # makes sign * normal point outward from the cell.
        cell_faces = np.empty((self.n_cells, 4), dtype=np.int64)
        cell_face_sign = np.empty((self.n_cells, 4))
        for j in range(ny):
            for i in range(nx):
                c = self.cell_index(i, j)
                cell_faces[c] = (i * ny + j, (i + 1) * ny + j,
                                 n_vertical + j * nx + i,
                                 n_vertical + (j + 1) * nx + i)
                cell_face_sign[c] = (-1.0 if i > 0 else 1.0, 1.0,
                                     -1.0 if j > 0 else 1.0, 1.0)
        self.cell_faces = cell_faces
        self.cell_face_sign = cell_face_sign

        self.interior_faces = np.flatnonzero(~on_boundary)
        self.boundary_faces = np.flatnonzero(on_boundary)
        bface_face = np.empty(self.n_bfaces, dtype=np.int64)
        bface_face[bindex[on_boundary]] = self.boundary_faces
        self.bface_face = bface_face

    def _vertex_stencil(self, i: int, j: int) -> tuple[list[int], list[float]]:
        nx, ny, nc = self.nx, self.ny, self.n_cells
        on_left, on_right = i == 0, i == nx
        on_bottom, on_top = j == 0, j == ny
        n_on = sum((on_left, on_right, on_bottom, on_top))

        if n_on == 0:
            cells = [self.cell_index(i - 1, j - 1), self.cell_index(i, j - 1),
                     self.cell_index(i - 1, j), self.cell_index(i, j)]
            return cells, [0.25] * 4

        if n_on == 1:
            if on_left:
                ids = [nc + (j - 1), nc + j]
            elif on_right:
                ids = [nc + ny + (j - 1), nc + ny + j]
            elif on_bottom:
                ids = [nc + 2 * ny + (i - 1), nc + 2 * ny + i]
            else:
                ids = [nc + 2 * ny + nx + (i - 1), nc + 2 * ny + nx + i]
            return ids, [0.5, 0.5]

        # Corner: single nearest boundary face of the first patch in the
        # fixed order left < right < bottom < top.
        if on_left:
            b = 0 if on_bottom else ny - 1
        else:
            b = ny + (0 if on_bottom else ny - 1)
        return [nc + b], [1.0]

    def _build_stencils(self) -> None:
        nx, ny = self.nx, self.ny
        ptr = [0]
        ids: list[int] = []
        weights: list[float] = []
        for j in range(ny + 1):
            for i in range(nx + 1):
                sid, sw = self._vertex_stencil(i, j)
                ids.extend(sid)
                weights.extend(sw)
                ptr.append(len(ids))
        self.stencil_ptr = np.asarray(ptr, dtype=np.int64)
        self.stencil_ids = np.asarray(ids, dtype=np.int64)
        self.stencil_weights = np.asarray(weights)

    # ------------------------------------------------------------------
    # sparse operators
    # ------------------------------------------------------------------

    @cached_property
    def face_average(self) -> sp.csr_matrix:
        """(n_faces, n_unknowns) face values of a per-unknown field: the
        two-cell average on interior faces, the face's own unknown on the
        boundary."""
        interior, boundary = self.interior_faces, self.boundary_faces
        rows = np.concatenate((interior, interior, boundary))
        cols = np.concatenate((self.face_owner[interior],
                               self.face_neighbour[interior],
                               self.face_across[boundary]))
        vals = np.concatenate((np.full(2 * interior.size, 0.5),
                               np.ones(boundary.size)))
        return sp.csr_matrix((vals, (rows, cols)),
                             shape=(self.n_faces, self.n_unknowns))

    @cached_property
    def cell_divergence(self) -> sp.csr_matrix:
        """(n_cells, n_faces) net outward surface integral per cell: each
        face value times its area, added to the owner and subtracted from
        the neighbour."""
        interior = self.interior_faces
        rows = np.concatenate((self.face_owner, self.face_neighbour[interior]))
        cols = np.concatenate((np.arange(self.n_faces), interior))
        vals = np.concatenate((self.face_area, -self.face_area[interior]))
        return sp.csr_matrix((vals, (rows, cols)),
                             shape=(self.n_cells, self.n_faces))

    @cached_property
    def vertex_stencil(self) -> sp.csr_matrix:
        """(n_vertices, n_unknowns) the fixed vertex stencils as rows."""
        return sp.csr_matrix((self.stencil_weights, self.stencil_ids,
                              self.stencil_ptr),
                             shape=(self.n_vertices, self.n_unknowns))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def edge_stencil(self, vertex: int) -> tuple[np.ndarray, np.ndarray]:
        """Unknown indices and weights interpolating a value at a vertex."""
        lo, hi = self.stencil_ptr[vertex], self.stencil_ptr[vertex + 1]
        return self.stencil_ids[lo:hi], self.stencil_weights[lo:hi]

    def patch_faces(self, patch: int) -> np.ndarray:
        """Face ids of a boundary patch, in boundary-index order."""
        faces = self.boundary_faces
        return faces[self.face_patch[faces] == patch]

    def patch_bfaces(self, patch: int) -> np.ndarray:
        """Boundary-face indices belonging to a patch."""
        faces = self.patch_faces(patch)
        return self.face_boundary_index[faces]


def build_mesh(nx: int, ny: int, lx: float, ly: float) -> CartesianMesh:
    """Build the uniform Cartesian unit-depth mesh."""
    return CartesianMesh(nx, ny, lx, ly)
