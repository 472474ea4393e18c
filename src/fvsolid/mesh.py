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
rows).  ``jacobian_pattern`` is the symbolic analysis of the coupled
Jacobian built from them (see ``BlockPattern``).  Each is built on first
use and then kept with the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

LEFT, RIGHT, BOTTOM, TOP = 0, 1, 2, 3


@dataclass(frozen=True)
class BlockPattern:
    """Symbolic analysis of the coupled Jacobian, run once per mesh.

    The 2x2 blocks k = (i, j) are those of ``face_rows @ (face_quotient +
    face_tangential)`` plus the diagonal, in row-major (CSR) order, with
    int32 indices.  Before its row weights, block k of the Jacobian is

        sum_f CQ[k, f] H_f(N) + CT[k, f] H_f(t)

    with CQ[k, f] = face_rows[i, f] face_quotient[f, j] and CT the same with
    ``face_tangential``, so a fill is one product of ``fill = [CQ | CT]``
    with the stacked, flattened (2 n_faces, 4) coefficients.  The scalar
    (2N, 2N) CSR layout stores every entry of every block, zeros included;
    ``gather`` maps its data to the flattened (n_blocks, 4) block values.
    Boundary-face rows come last, so their blocks and entries are the
    tails of those arrays, labelled with their boundary index.
    """

    fill: sp.csc_matrix         # (n_blocks, 2 n_faces)
    diagonal: np.ndarray        # (n_unknowns,) block id of (i, i)
    indptr: np.ndarray          # (2N + 1,) scalar CSR layout
    indices: np.ndarray         # (nnz,)
    gather: np.ndarray          # (nnz,) flattened block value of each entry
    bface_block: np.ndarray     # boundary index of each boundary-row block
    bface_entry: np.ndarray     # boundary index of each boundary-row entry
    bface_entry_off: np.ndarray  # that entry lies off the diagonal block


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
        interior, boundary = self.interior_faces, self.boundary_faces
        inv_area = 1.0 / self.face_area[interior]
        ends = sp.csr_matrix((np.concatenate((inv_area, -inv_area)),
                              (np.concatenate((interior, interior)),
                               np.concatenate((self.face_vertex_hi[interior],
                                               self.face_vertex_lo[interior])))),
                             shape=(self.n_faces, self.n_vertices))
        # Owner Gauss gradient along t: each owner face's signed area times
        # its normal along t, over the cell volume, on that face's average.
        owner = self.face_owner[boundary]
        face, _, via, weight = _chain(boundary, owner, 1.0 / self.cell_volume[owner],
                                      self.cell_divergence)
        weight *= (self.face_normal[via] * self.face_tangent[face]).sum(axis=1)
        gauss = sp.csr_matrix((weight, (face, via)), shape=(self.n_faces, self.n_faces))
        return ends @ self.vertex_stencil + gauss @ self.face_average

    @cached_property
    def face_rows(self) -> sp.csr_matrix:
        """(n_unknowns, n_faces) face values onto unknown rows:
        ``cell_divergence`` on the cell rows, each boundary face's own value
        on its boundary-face row."""
        select = sp.csr_matrix((np.ones(self.n_bfaces), self.bface_face,
                                np.arange(self.n_bfaces + 1)),
                               shape=(self.n_bfaces, self.n_faces))
        return sp.vstack((self.cell_divergence, select), format="csr")

    @cached_property
    def jacobian_pattern(self) -> BlockPattern:
        """Block pattern and fill operators of the coupled Jacobian (see
        ``BlockPattern``), built on first use."""
        n = self.n_unknowns
        ops = (self.face_quotient, self.face_tangential)
        reach = (abs(self.face_rows) @ (abs(ops[0]) + abs(ops[1]))
                 + sp.identity(n, format="csr")).tocsr()
        reach.sort_indices()
        n_blocks = reach.nnz
        block_id = sp.csr_matrix((np.arange(1.0, n_blocks + 1), reach.indices, reach.indptr),
                                 shape=(n, n))
        # Every (i, f, j) of face_rows[i, f] op[f, j], in face order, so the
        # fill operator comes out in column (CSC) form without a sort.
        by_face = self.face_rows.tocsc().tocoo()
        chains = [_chain(by_face.row, by_face.col, by_face.data, op) for op in ops]
        i, f, j, value = (np.concatenate(pair) for pair in zip(*chains))
        f[chains[0][1].size:] += self.n_faces
        k = np.asarray(block_id[i, j]).ravel().astype(np.int32) - 1
        indptr = np.zeros(2 * self.n_faces + 1, dtype=np.int32)
        np.cumsum(np.bincount(f, minlength=2 * self.n_faces), out=indptr[1:])
        fill = sp.csc_matrix((value, k, indptr), shape=(n_blocks, 2 * self.n_faces))
        # The scalar layout of the whole pattern, with block k's entry
        # (a, b) stored as 4 k + 2 a + b + 1 (nonzero, so none is dropped).
        layout = sp.bsr_matrix((np.arange(1.0, 4 * n_blocks + 1).reshape(-1, 2, 2),
                                reach.indices, reach.indptr), shape=(2 * n, 2 * n)).tocsr()
        counts = np.diff(reach.indptr)[self.n_cells:]
        bface = np.arange(self.n_bfaces, dtype=np.int32)
        bface_entry = np.repeat(bface, 4 * counts)
        column = layout.indices[-bface_entry.size:] // 2
        return BlockPattern(
            fill=fill, diagonal=(block_id.diagonal() - 1).astype(np.int32),
            indptr=layout.indptr.astype(np.int32), indices=layout.indices.astype(np.int32),
            gather=(layout.data - 1).astype(np.int32),
            bface_block=np.repeat(bface, counts), bface_entry=bface_entry,
            bface_entry_off=column != self.n_cells + bface_entry)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def patch_faces(self, patch: int) -> np.ndarray:
        """Face ids of a boundary patch, in boundary-index order."""
        faces = self.boundary_faces
        return faces[self.face_patch[faces] == patch]


def _chain(rows: np.ndarray, mids: np.ndarray, weights: np.ndarray,
           op: sp.csr_matrix):
    """Expand each (row, mid, weight) by row ``mid`` of ``op``: returns the
    (row, mid, col, weight * op[mid, col]) of every stored op entry."""
    counts = np.diff(op.indptr)[mids]
    starts = np.repeat(op.indptr[mids] - np.cumsum(counts) + counts, counts)
    pos = starts + np.arange(starts.size)
    return (np.repeat(rows, counts), np.repeat(mids, counts), op.indices[pos],
            np.repeat(weights, counts) * op.data[pos])


def build_mesh(nx: int, ny: int, lx: float, ly: float) -> CartesianMesh:
    """Build the uniform Cartesian unit-depth mesh."""
    return CartesianMesh(nx, ny, lx, ly)
