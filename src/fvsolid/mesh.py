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

Sparse operators turn the face and stencil arrays into single products
for the residual and its Jacobian: ``face_average`` (unknowns to faces),
``cell_divergence`` (faces to cells), ``vertex_stencil`` (unknowns to
vertices), the two face-derivative operators ``face_quotient`` (normal)
and ``face_tangential`` (tangential), and ``face_rows`` (faces to unknown
rows).  Each is built on first use and then kept with the mesh.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

LEFT, RIGHT, BOTTOM, TOP = 0, 1, 2, 3


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
        for arr in vars(self).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_geometry(self) -> None:
        nx, ny, dx, dy = self.nx, self.ny, self.dx, self.dy
        ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
        self.cell_centroids = np.column_stack((((ii + 0.5) * dx).ravel(),
                                               ((jj + 0.5) * dy).ravel()))
        self.cell_volume = np.full(self.n_cells, dx * dy)

        vi, vj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="xy")
        self.vertices = np.column_stack(((vi * dx).ravel(), (vj * dy).ravel()))

    def _build_faces(self) -> None:
        nx, ny, dx, dy = self.nx, self.ny, self.dx, self.dy
        n_vertical = (nx + 1) * ny
        self.n_faces = n_vertical + nx * (ny + 1)

        # Vertical faces (in-plane segment along y), id = i*ny + j, then
        # horizontal faces (segment along x), id = n_vertical + j*nx + i.
        vi, vj = (a.ravel() for a in np.meshgrid(np.arange(nx + 1), np.arange(ny),
                                                  indexing="ij"))
        hi, hj = (a.ravel() for a in np.meshgrid(np.arange(nx), np.arange(ny + 1),
                                                  indexing="xy"))
        v_lo, v_hi = vi == 0, vi == nx
        h_lo, h_hi = hj == 0, hj == ny
        v_in, h_in = ~(v_lo | v_hi), ~(h_lo | h_hi)

        self.face_owner = np.concatenate((vj * nx + np.maximum(vi - 1, 0),
                                          np.maximum(hj - 1, 0) * nx + hi))
        self.face_neighbour = np.concatenate((np.where(v_in, vj * nx + vi, -1),
                                              np.where(h_in, hj * nx + hi, -1)))
        self.face_normal = np.concatenate((
            np.column_stack((np.where(v_lo, -1.0, 1.0), np.zeros(vi.size))),
            np.column_stack((np.zeros(hi.size), np.where(h_lo, -1.0, 1.0)))))
        self.face_tangent = np.concatenate((np.tile((0.0, 1.0), (vi.size, 1)),
                                            np.tile((1.0, 0.0), (hi.size, 1))))
        self.face_area = np.concatenate((np.full(vi.size, dy), np.full(hi.size, dx)))
        self.face_centroid = np.concatenate((
            np.column_stack((vi * dx, (vj + 0.5) * dy)),
            np.column_stack(((hi + 0.5) * dx, hj * dy))))
        self.face_distance = np.concatenate((np.where(v_in, dx, 0.5 * dx),
                                             np.where(h_in, dy, 0.5 * dy)))
        self.face_vertex_lo = np.concatenate((vj * (nx + 1) + vi, hj * (nx + 1) + hi))
        self.face_vertex_hi = np.concatenate(((vj + 1) * (nx + 1) + vi,
                                              hj * (nx + 1) + hi + 1))
        self.face_patch = np.concatenate((np.select((v_lo, v_hi), (LEFT, RIGHT), -1),
                                          np.select((h_lo, h_hi), (BOTTOM, TOP), -1)))
        # Boundary index: patch-major (left, right, bottom, top), then along
        # the patch.
        bindex = np.concatenate((np.select((v_lo, v_hi), (vj, ny + vj), -1),
                                 np.select((h_lo, h_hi), (2 * ny + hi, 2 * ny + nx + hi), -1)))
        self.face_boundary_index = bindex

        # Across-face unknown: neighbour cell, or the boundary-face unknown.
        on_boundary = bindex >= 0
        self.face_across = np.where(on_boundary, self.n_cells + bindex,
                                    self.face_neighbour)

        self.interior_faces = np.flatnonzero(~on_boundary)
        self.boundary_faces = np.flatnonzero(on_boundary)
        bface_face = np.empty(self.n_bfaces, dtype=np.int64)
        bface_face[bindex[on_boundary]] = self.boundary_faces
        self.bface_face = bface_face

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
        """(n_vertices, n_unknowns) the fixed vertex stencils as rows, each
        row's unknowns in ascending order."""
        nx, ny, nc = self.nx, self.ny, self.n_cells
        vi, vj = (a.ravel() for a in np.meshgrid(np.arange(nx + 1), np.arange(ny + 1),
                                                  indexing="xy"))
        on_x, on_y = (vi == 0) | (vi == nx), (vj == 0) | (vj == ny)
        inner = ~(on_x | on_y)
        corner = on_x & on_y
        # Boundary vertices take the boundary face of their patch just
        # below (left, right) or just left of (bottom, top) them and the
        # next one.  Corners take the nearest face of the first patch in the
        # order left < right < bottom < top: an end face of the left or
        # right patch.
        side = np.where(vi == 0, 0, ny)
        first = np.where(on_x, side + vj - 1, 2 * ny + np.where(vj == 0, 0, nx) + vi - 1)
        first = np.where(corner, side + np.where(vj == 0, 0, ny - 1), first)
        counts = np.where(inner, 4, np.where(corner, 1, 2))
        cols = np.where(inner[:, None],
                        ((vj - 1) * nx + vi - 1)[:, None] + np.array([0, 1, nx, nx + 1]),
                        nc + first[:, None] + np.arange(4))
        keep = np.arange(4) < counts[:, None]
        weights = np.broadcast_to(1.0 / counts[:, None], keep.shape)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return sp.csr_matrix((weights[keep], cols[keep], indptr),
                             shape=(self.n_vertices, self.n_unknowns))

    @cached_property
    def face_quotient(self) -> sp.csr_matrix:
        """(n_faces, n_unknowns) normal difference quotient per face: the
        across unknown minus the owner cell, over their distance."""
        faces = np.arange(self.n_faces)
        inv_d = 1.0 / self.face_distance
        return sp.csr_matrix((np.concatenate((-inv_d, inv_d)),
                              (np.concatenate((faces, faces)),
                               np.concatenate((self.face_owner, self.face_across)))),
                             shape=(self.n_faces, self.n_unknowns))

    @cached_property
    def face_tangential(self) -> sp.csr_matrix:
        """(n_faces, n_unknowns) tangential derivative per face: the
        endpoint-vertex difference over the face length inside, the owner
        cell's Gauss gradient along the face tangent on the boundary."""
        on_boundary = (self.face_boundary_index >= 0).astype(float)
        stencil = self.vertex_stencil
        out = (sp.diags((1.0 - on_boundary) / self.face_area)
               @ (stencil[self.face_vertex_hi] - stencil[self.face_vertex_lo]))
        to_cells = sp.diags(1.0 / self.cell_volume) @ self.cell_divergence
        for d in (0, 1):
            gauss_d = to_cells @ sp.diags(self.face_normal[:, d]) @ self.face_average
            along_t = sp.diags(on_boundary * self.face_tangent[:, d])
            out = out + along_t @ gauss_d[self.face_owner]
        out = out.tocsr()
        out.eliminate_zeros()
        return out

    @cached_property
    def face_rows(self) -> sp.csr_matrix:
        """(n_unknowns, n_faces) face values onto unknown rows:
        ``cell_divergence`` on the cell rows, each boundary face's own value
        on its boundary-face row."""
        select = sp.csr_matrix((np.ones(self.n_bfaces), self.bface_face,
                                np.arange(self.n_bfaces + 1)),
                               shape=(self.n_bfaces, self.n_faces))
        return sp.vstack((self.cell_divergence, select), format="csr")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def patch_faces(self, patch: int) -> np.ndarray:
        """Face ids of a boundary patch, in boundary-index order."""
        faces = self.boundary_faces
        return faces[self.face_patch[faces] == patch]


def build_mesh(nx: int, ny: int, lx: float, ly: float) -> CartesianMesh:
    """Build the uniform Cartesian unit-depth mesh."""
    return CartesianMesh(nx, ny, lx, ly)
