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
vertices), ``gauss_gradient`` (unknowns to cell gradients), the two
face-derivative operators ``face_quotient`` (normal) and ``face_tangential``
(tangential), ``face_gradient`` (unknowns to face gradients, from those two)
and ``face_rows`` (faces to unknown rows).  ``jacobian_pattern`` is the
symbolic analysis of the coupled Jacobian built from them (see
``BlockPattern``).  Each is built on first use and then kept with the mesh.
Where the face arrays give a row's entries, the CSR arrays are written
directly; sparse products remain only where a row sums several stencils
(the Gauss gradient, the tangential derivative and the block pattern).
Every array is bit for bit what scipy's COO conversions, stacks and
products of the defining formulas store (the reference builds in the
tests), so no product with an operator changes in its last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

LEFT, RIGHT, BOTTOM, TOP = 0, 1, 2, 3


@dataclass(frozen=True)
class BlockPattern:
    """Symbolic analysis of the coupled Jacobian, run once per mesh.

    The 2x2 blocks k = (i, j) are those of ``face_rows @ (face_quotient +
    face_tangential)`` plus the diagonal, in row-major order, with int32
    indices.  Before its row weights, block k of the Jacobian is

        sum_f CQ[k, f] H_f(N) + CT[k, f] H_f(t)

    with CQ[k, f] = face_rows[i, f] face_quotient[f, j] and CT the same with
    ``face_tangential``, so a fill is one product of ``fill = [CQ | CT]``
    with the stacked, flattened (2 n_faces, 4) coefficients.  The scalar
    (2N, 2N) CSC layout stores every entry of every block, zeros included,
    whatever the boundary conditions; ``gather`` maps its data to the
    flattened (n_blocks, 4) block values.  Boundary-face rows come last,
    so their blocks are the tail of the block order, labelled with their
    boundary index.  The arrays are read-only, like every mesh array.
    ``ordered`` re-lays the CSC layout in a factor's column order.
    """

    fill: sp.csc_matrix         # (n_blocks, 2 n_faces)
    diagonal: np.ndarray        # (n_unknowns,) block id of (i, i)
    indptr: np.ndarray          # (2N + 1,) scalar CSC layout
    indices: np.ndarray         # (nnz,)
    gather: np.ndarray          # (nnz,) flattened block value of each entry
    bface_block: np.ndarray     # boundary index of each boundary-row block

    def __post_init__(self):
        _freeze(self)

    def ordered(self, order: np.ndarray) -> BlockPattern:
        """The same pattern with its CSC layout in column order p = ``order``:
        the CSC form of P A P^T, whose entry (p[i], p[j]) is A's (i, j).
        SuperLU factorises it with ``NATURAL``, so a fill needs no
        conversion or permutation.  ``fill``, ``diagonal`` and
        ``bface_block`` are shared."""
        n = self.indptr.size - 1
        col = order[np.repeat(np.arange(n), np.diff(self.indptr))]
        row = order[self.indices]
        sort = np.argsort(col.astype(np.int64) * n + row)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(col, minlength=n), out=indptr[1:])
        return replace(self, indptr=indptr, indices=row[sort].astype(np.int32),
                       gather=self.gather[sort])


class CartesianMesh:
    """Uniform nx-by-ny cell mesh on [0, lx] x [0, ly] with unit depth."""

    def __init__(self, nx: int, ny: int, lx: float, ly: float):
        # A bool is an int to Python, but never a cell count.
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                   for n in (nx, ny)):
            raise ValueError(f"mesh cell counts must be integers, got {nx!r} x {ny!r}")
        if nx < 1 or ny < 1:
            raise ValueError(f"mesh needs at least one cell per direction, got {nx}x{ny}")
        if not (0.0 < lx < np.inf and 0.0 < ly < np.inf):
            raise ValueError(f"mesh extents must be finite and positive, got {lx} x {ly}")
        self.nx, self.ny = nx, ny
        self.lx, self.ly = float(lx), float(ly)
        self.dx, self.dy = self.lx / nx, self.ly / ny

        self.n_cells = nx * ny
        self.n_bfaces = 2 * (nx + ny)
        self.n_unknowns = self.n_cells + self.n_bfaces
        self.n_vertices = (nx + 1) * (ny + 1)

        self._build_geometry()
        self._build_faces()
        _freeze(self)

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
        interior = self.face_neighbour >= 0
        counts = 1 + interior
        cols = np.column_stack((np.where(interior, self.face_owner, self.face_across),
                                self.face_neighbour))
        return sp.csr_matrix((np.repeat(np.where(interior, 0.5, 1.0), counts),
                              cols[np.column_stack((np.ones_like(interior), interior))],
                              np.concatenate(([0], np.cumsum(counts)))),
                             shape=(self.n_faces, self.n_unknowns))

    @cached_property
    def cell_divergence(self) -> sp.csr_matrix:
        """(n_cells, n_faces) net outward surface integral per cell: each
        face value times its area, added to the owner and subtracted from
        the neighbour.  Row c holds the cell's left, right, bottom and top
        faces, in face order."""
        nx, ny = self.nx, self.ny
        i, j = np.arange(nx), np.arange(ny)[:, None]
        lo = (nx + 1) * ny + j * nx + i
        faces = np.stack((i * ny + j, (i + 1) * ny + j, lo, lo + nx), axis=-1).reshape(-1, 4)
        area = self.face_area[faces]
        owned = self.face_owner[faces] == np.arange(self.n_cells)[:, None]
        return sp.csr_matrix((np.where(owned, area, -area).ravel(), faces.ravel(),
                              np.arange(0, 4 * self.n_cells + 1, 4)),
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
        inv_d = 1.0 / self.face_distance
        return sp.csr_matrix((np.column_stack((-inv_d, inv_d)).ravel(),
                              np.column_stack((self.face_owner, self.face_across)).ravel(),
                              np.arange(0, 2 * self.n_faces + 1, 2)),
                             shape=(self.n_faces, self.n_unknowns))

    @cached_property
    def face_tangential(self) -> sp.csr_matrix:
        """(n_faces, n_unknowns) tangential derivative per face: the
        endpoint-vertex difference over the face length inside, the owner
        cell's ``gauss_gradient`` along the face tangent on the boundary.
        Stored with sorted indices, so that no later call (scipy's ``abs``
        sums duplicates, which sorts) reorders it in place."""
        interior = self.face_neighbour >= 0
        inv_area = 1.0 / self.face_area
        owner = self.n_vertices + self.face_owner
        # One product picks rows of the vertex stencils over the Gauss gradient.
        pick = sp.csr_matrix((
            np.where(interior[:, None], np.column_stack((-inv_area, inv_area)),
                     self.face_tangent).ravel(),
            np.where(interior[:, None], np.column_stack((self.face_vertex_lo, self.face_vertex_hi)),
                     np.column_stack((owner, self.n_cells + owner))).ravel(),
            np.arange(0, 2 * self.n_faces + 1, 2)),
            shape=(self.n_faces, self.n_vertices + 2 * self.n_cells))
        out = pick @ sp.vstack((self.vertex_stencil, self.gauss_gradient), format="csr")
        out.sort_indices()
        return out

    @cached_property
    def gauss_gradient(self) -> sp.csr_matrix:
        """(2 n_cells, n_unknowns) Gauss cell gradient: row b n_cells + c is
        d/dX_b at cell c, diag(1/V) ``cell_divergence`` diag(N_b) ``face_average``."""
        div = self.cell_divergence
        data = div.data * np.repeat(1.0 / self.cell_volume, np.diff(div.indptr))
        normal = self.face_normal[div.indices]
        stacked = sp.csr_matrix((np.concatenate((data * normal[:, 0], data * normal[:, 1])),
                                 np.tile(div.indices, 2),
                                 np.concatenate((div.indptr, div.nnz + div.indptr[1:]))),
                                shape=(2 * self.n_cells, self.n_faces))
        return stacked @ self.face_average

    @cached_property
    def face_gradient(self) -> sp.csr_matrix:
        """(2 n_faces, n_unknowns) face gradient: row b n_faces + f is N_b Q +
        t_b Dt at face f (Q = ``face_quotient``, Dt = ``face_tangential``).
        Vertical faces (numbered first) have N = (+-1, 0) and t = (0, 1),
        horizontal ones N = (0, +-1) and t = (1, 0), so the rows are, in
        turn, N_x Q on vertical faces, Dt on horizontal ones, Dt on
        vertical ones and N_y Q on horizontal ones."""
        nv = (self.nx + 1) * self.ny
        q, dt = self.face_quotient, self.face_tangential
        # Each row of Q holds two entries; times the normal's nonzero component.
        q_data = q.data * np.repeat(self.face_normal.sum(axis=1), 2)
        cut, n_dt = dt.indptr[nv], dt.nnz
        return sp.csr_matrix((
            np.concatenate((q_data[:2 * nv], dt.data[cut:], dt.data[:cut], q_data[2 * nv:])),
            np.concatenate((q.indices[:2 * nv], dt.indices[cut:], dt.indices[:cut],
                            q.indices[2 * nv:])),
            np.concatenate((q.indptr[:nv + 1], 2 * nv - cut + dt.indptr[nv + 1:],
                            2 * nv + n_dt - cut + dt.indptr[1:nv + 1],
                            n_dt + q.indptr[nv + 1:]))),
            shape=(2 * self.n_faces, self.n_unknowns))

    @cached_property
    def face_rows(self) -> sp.csr_matrix:
        """(n_unknowns, n_faces) face values onto unknown rows:
        ``cell_divergence`` on the cell rows, each boundary face's own value
        on its boundary-face row."""
        div = self.cell_divergence
        return sp.csr_matrix((np.concatenate((div.data, np.ones(self.n_bfaces))),
                              np.concatenate((div.indices, self.bface_face)),
                              np.concatenate((div.indptr,
                                              div.nnz + np.arange(1, self.n_bfaces + 1)))),
                             shape=(self.n_unknowns, self.n_faces))

    @cached_property
    def jacobian_pattern(self) -> BlockPattern:
        """Block pattern and fill operators of the coupled Jacobian (see
        ``BlockPattern``), built on first use."""
        n, nf = self.n_unknowns, self.n_faces
        q, dt = self.face_quotient, self.face_tangential
        # The blocks are the structure of face_rows @ (Q + Dt), as booleans;
        # the diagonal is among them: Q joins every unknown to itself.
        reach = _structure(self.face_rows) @ (_structure(q) + _structure(dt))
        reach.sort_indices()
        block_id = sp.csr_matrix((np.arange(reach.nnz, dtype=np.int32), reach.indices,
                                  reach.indptr), shape=(n, n))
        # Every (i, f, j) of face_rows[i, f] op[f, j], in face order, so the
        # fill operator comes out in column (CSC) form without a sort.  Face
        # f's column of face_rows holds its owner (weight: the area), then
        # its across unknown (minus the area inside, 1 on the boundary), so
        # column r of the fill is row r of the stacked [Q; Dt] taken for the
        # owner, then again for the across unknown.
        ptr = np.concatenate((q.indptr, q.nnz + dt.indptr[1:]))
        cols, vals = np.concatenate((q.indices, dt.indices)), np.concatenate((q.data, dt.data))
        counts = np.diff(ptr)
        owner_at = np.arange(ptr[-1]) + np.repeat(ptr[:-1], counts)
        block, value = np.empty(2 * ptr[-1], dtype=np.int32), np.empty(2 * ptr[-1])
        for at, unknown, weight in (
                (owner_at, self.face_owner, self.face_area),
                (owner_at + np.repeat(counts, counts), self.face_across,
                 np.where(self.face_neighbour >= 0, -self.face_area, 1.0))):
            block[at] = block_id[np.repeat(np.tile(unknown.astype(np.int32), 2), counts), cols].A1
            value[at] = np.repeat(np.tile(weight, 2), counts) * vals
        fill = sp.csc_matrix((value, block, 2 * ptr), shape=(reach.nnz, 2 * nf))
        # The scalar layout of the whole pattern, with block k's entry
        # (a, b) stored as 4 k + 2 a + b.  CSC as the CSR of the BSR
        # transpose: block-wise conversions only.
        layout = sp.bsr_matrix((np.arange(4 * reach.nnz, dtype=np.int32).reshape(-1, 2, 2),
                                reach.indices, reach.indptr), shape=(2 * n, 2 * n)).T.tocsr()
        return BlockPattern(
            fill=fill, diagonal=block_id.diagonal(),
            indptr=layout.indptr, indices=layout.indices, gather=layout.data,
            bface_block=np.repeat(np.arange(self.n_bfaces, dtype=np.int32),
                                  np.diff(reach.indptr)[self.n_cells:]))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def patch_faces(self, patch: int) -> np.ndarray:
        """Face ids of a boundary patch, a slice of the patch-major ``bface_face``."""
        start = sum((self.ny, self.ny, self.nx)[:patch])
        return self.bface_face[start:start + (self.ny if patch < BOTTOM else self.nx)]


def _freeze(obj) -> None:
    """Mark every array attribute of ``obj`` read-only."""
    for arr in vars(obj).values():
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False


def _structure(op: sp.csr_matrix) -> sp.csr_matrix:
    """The stored pattern of ``op`` as a boolean matrix."""
    return sp.csr_matrix((np.ones(op.nnz, dtype=bool), op.indices, op.indptr), shape=op.shape)


def build_mesh(nx: int, ny: int, lx: float, ly: float) -> CartesianMesh:
    """Build the uniform Cartesian unit-depth mesh."""
    return CartesianMesh(nx, ny, lx, ly)
