"""Geometry, connectivity and interpolation stencils of the Cartesian mesh."""

from __future__ import annotations

import re
from functools import cached_property

import numpy as np
import numpy.testing as npt
import pytest

from fvsolid import BOTTOM, LEFT, RIGHT, TOP, build_mesh
from tests import oracles


def stencil(m, vertex):
    """Unknown indices and weights of one vertex stencil (a CSR row)."""
    lo, hi = m.vertex_stencil.indptr[vertex:vertex + 2]
    return m.vertex_stencil.indices[lo:hi], m.vertex_stencil.data[lo:hi]


def patch_bfaces(m, patch):
    return m.face_boundary_index[m.patch_faces(patch)]

# ---------------------------------------------------------------------------
# counts and geometry
# ---------------------------------------------------------------------------


def test_counts(mesh_small):
    m = mesh_small
    assert m.n_cells == 12
    assert m.n_bfaces == 2 * (3 + 4)
    assert m.n_unknowns == m.n_cells + m.n_bfaces
    assert m.n_faces == (m.nx + 1) * m.ny + (m.ny + 1) * m.nx
    assert m.n_vertices == 4 * 5
    assert len(m.interior_faces) + len(m.boundary_faces) == m.n_faces


def test_invalid_arguments():
    with pytest.raises(ValueError, match="at least one cell"):
        build_mesh(0, 4, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        build_mesh(3, 4, 1.0, -2.0)


@pytest.mark.parametrize("args,message", [
    ((2, 2, np.nan, 1.0), "extents must be finite and positive, got nan x 1.0"),
    ((2, 2, 1.0, np.inf), "extents must be finite and positive, got 1.0 x inf"),
    ((2, 2, -np.inf, 1.0), "extents must be finite and positive, got -inf x 1.0"),
    ((True, 2, 1.0, 1.0), "cell counts must be integers, got True x 2"),
    ((2, np.True_, 1.0, 1.0), "cell counts must be integers, got 2 x np.True_"),
    ((2.5, 2, 1.0, 1.0), "cell counts must be integers, got 2.5 x 2"),
    ((2, 2.0, 1.0, 1.0), "cell counts must be integers, got 2 x 2.0"),
    (("3", 2, 1.0, 1.0), "cell counts must be integers, got '3' x 2"),
])
def test_build_mesh_rejects(args, message):
    """Non-finite extents and non-integer counts (bool included) are a
    ValueError naming the value, not a NaN geometry, a 1-cell mesh or a
    numpy TypeError."""
    with pytest.raises(ValueError, match=re.escape(message)):
        build_mesh(*args)


def test_build_mesh_takes_numpy_integer_counts():
    mesh = build_mesh(np.int64(3), np.int32(2), 1.5, 1.0)
    assert (mesh.nx, mesh.ny, mesh.n_cells) == (3, 2, 6)


def test_cell_volumes_fill_domain(mesh_small):
    npt.assert_allclose(mesh_small.cell_volume.sum(), 1.5 * 1.0)


def test_spacings(mesh_small):
    assert mesh_small.dx == pytest.approx(0.5)
    assert mesh_small.dy == pytest.approx(0.25)


def test_centroids_row_major(mesh_small):
    m = mesh_small
    c = 1 * m.nx + 2            # cell (i, j) = (2, 1), row-major
    npt.assert_allclose(m.cell_centroids[c], [2.5 * m.dx, 1.5 * m.dy])


def test_normals_are_unit_and_axis_aligned(mesh_small):
    norms = np.linalg.norm(mesh_small.face_normal, axis=1)
    npt.assert_allclose(norms, 1.0)
    npt.assert_allclose(
        np.abs(mesh_small.face_normal).sum(axis=1), 1.0
    )
    # Tangents are orthogonal to the normals.
    dots = np.einsum("fi,fi->f", mesh_small.face_normal, mesh_small.face_tangent)
    npt.assert_allclose(dots, 0.0, atol=1e-15)


def test_patch_normals_point_outward(mesh_small):
    m = mesh_small
    outward = {LEFT: [-1, 0], RIGHT: [1, 0],
               BOTTOM: [0, -1], TOP: [0, 1]}
    for patch, direction in outward.items():
        faces = m.patch_faces(patch)
        assert len(faces) == (m.ny if patch in (LEFT, RIGHT) else m.nx)
        npt.assert_allclose(m.face_normal[faces],
                            np.tile(direction, (len(faces), 1)))


def test_closed_surface_per_cell(mesh_small):
    """Signed area-weighted normals of each cell's faces sum to zero."""
    m = mesh_small
    npt.assert_allclose(m.cell_divergence @ m.face_normal, 0.0, atol=1e-14)


def test_cell_face_signs_point_outward(mesh_small):
    """Each cell's divergence row holds its four faces, and every entry's
    sign times the face normal points out of the cell."""
    m = mesh_small
    div = m.cell_divergence.tocoo()
    npt.assert_array_equal(np.bincount(div.row), 4)
    outward = np.sign(div.data)[:, None] * m.face_normal[div.col]
    towards = m.face_centroid[div.col] - m.cell_centroids[div.row]
    assert (np.einsum("ki,ki->k", outward, towards) > 0.0).all()


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------


def test_interior_across_is_neighbour(mesh_small):
    m = mesh_small
    inter = m.interior_faces
    npt.assert_array_equal(m.face_across[inter], m.face_neighbour[inter])
    assert (m.face_neighbour[inter] >= 0).all()
    patches = np.concatenate([m.patch_faces(p) for p in (LEFT, RIGHT, BOTTOM, TOP)])
    assert np.intersect1d(patches, inter).size == 0


def test_boundary_across_is_bface_unknown(mesh_small):
    m = mesh_small
    bnd = m.boundary_faces
    npt.assert_array_equal(
        m.face_across[bnd], m.n_cells + m.face_boundary_index[bnd]
    )
    assert (m.face_neighbour[bnd] == -1).all()
    # boundary_faces is ordered by boundary index
    npt.assert_array_equal(m.face_boundary_index[bnd], np.arange(m.n_bfaces))
    npt.assert_array_equal(m.bface_face, bnd)


def test_patch_bface_ranges(mesh_small):
    m = mesh_small
    ny, nx = m.ny, m.nx
    npt.assert_array_equal(patch_bfaces(m, LEFT), np.arange(ny))
    npt.assert_array_equal(patch_bfaces(m, RIGHT), ny + np.arange(ny))
    npt.assert_array_equal(patch_bfaces(m, BOTTOM), 2 * ny + np.arange(nx))
    npt.assert_array_equal(patch_bfaces(m, TOP), 2 * ny + nx + np.arange(nx))


def test_face_distances(mesh_small):
    m = mesh_small
    inter = m.interior_faces
    vertical = inter[m.face_tangent[inter, 1] == 1.0]
    horizontal = inter[m.face_tangent[inter, 0] == 1.0]
    npt.assert_allclose(m.face_distance[vertical], m.dx)
    npt.assert_allclose(m.face_distance[horizontal], m.dy)
    left = m.patch_faces(LEFT)
    npt.assert_allclose(m.face_distance[left], 0.5 * m.dx)
    top = m.patch_faces(TOP)
    npt.assert_allclose(m.face_distance[top], 0.5 * m.dy)


def test_owner_distance_matches_geometry(mesh_small):
    m = mesh_small
    for f in range(m.n_faces):
        gap = m.face_centroid[f] - m.cell_centroids[m.face_owner[f]]
        if m.face_neighbour[f] >= 0:
            gap = m.cell_centroids[m.face_neighbour[f]] - m.cell_centroids[m.face_owner[f]]
        npt.assert_allclose(np.linalg.norm(gap), m.face_distance[f])


@pytest.mark.parametrize("dims", [(3, 4, 1.5, 1.0), (1, 1, 1.0, 1.0),
                                  (7, 2, 2.0, 0.1)])
def test_arrays_match_loop_construction(dims):
    """The index arithmetic builds exactly the arrays of the face by
    face and vertex by vertex reference loops."""
    m = build_mesh(*dims)
    arrays = oracles.mesh_arrays(m)
    patch = arrays.pop("face_patch")
    for p in (LEFT, RIGHT, BOTTOM, TOP):
        npt.assert_array_equal(m.patch_faces(p), np.flatnonzero(patch == p))
    for name, ref in arrays.items():
        owner, _, part = name.partition(".")
        actual = getattr(getattr(m, owner), part) if part else getattr(m, owner)
        assert actual.shape == ref.shape and actual.dtype.kind == ref.dtype.kind, name
        npt.assert_array_equal(actual, ref, err_msg=name)


def test_arrays_are_frozen(mesh_small):
    with pytest.raises(ValueError):
        mesh_small.face_area[0] = 99.0


# ---------------------------------------------------------------------------
# vertex stencils
# ---------------------------------------------------------------------------


def test_stencil_weights_sum_to_one(mesh_small):
    m = mesh_small
    for v in range(m.n_vertices):
        ids, w = stencil(m, v)
        assert w.sum() == pytest.approx(1.0)
        assert (ids >= 0).all() and (ids < m.n_unknowns).all()


def test_interior_vertex_stencil(mesh_small):
    m = mesh_small
    ids, w = stencil(m, 1 * (m.nx + 1) + 1)
    expected = {0 * m.nx + 0, 0 * m.nx + 1, 1 * m.nx + 0, 1 * m.nx + 1}
    assert set(ids) == expected
    npt.assert_allclose(w, 0.25)


def test_edge_vertex_stencil_uses_boundary_faces(mesh_small):
    m = mesh_small
    ids, w = stencil(m, 2 * (m.nx + 1) + 0)
    assert set(ids) == {m.n_cells + 1, m.n_cells + 2}
    npt.assert_allclose(w, 0.5)


def test_corner_vertex_stencil(mesh_small):
    m = mesh_small
    ids, w = stencil(m, 0)
    npt.assert_array_equal(ids, [m.n_cells + 0])
    npt.assert_allclose(w, [1.0])
    ids, _ = stencil(m, m.ny * (m.nx + 1) + m.nx)
    npt.assert_array_equal(ids, [m.n_cells + m.ny + (m.ny - 1)])


# ---------------------------------------------------------------------------
# face-derivative operators
# ---------------------------------------------------------------------------


def test_face_derivatives_exact_for_linear_fields(mesh_small, rng):
    """For U = g X + c the normal quotient gives g N and the tangential
    operator g t on every face, boundary faces included."""
    m = mesh_small
    g = rng.uniform(-1.0, 1.0, (2, 2))
    points = np.vstack([m.cell_centroids, m.face_centroid[m.bface_face]])
    u = points @ g.T + (0.3, -0.1)
    npt.assert_allclose(m.face_quotient @ u, m.face_normal @ g.T, atol=1e-13)
    npt.assert_allclose(m.face_tangential @ u, m.face_tangent @ g.T, atol=1e-13)


def test_face_rows_stack_divergence_over_boundary_faces(mesh_small, rng):
    m = mesh_small
    flux = rng.normal(size=(m.n_faces, 2))
    out = m.face_rows @ flux
    npt.assert_array_equal(out[:m.n_cells], m.cell_divergence @ flux)
    npt.assert_array_equal(out[m.n_cells:], flux[m.bface_face])


def canonical(matrix):
    out = matrix.tocsr(copy=True)
    out.sort_indices()
    return out


@pytest.mark.parametrize("dims", [(3, 4, 1.5, 1.0), (1, 1, 1.0, 1.0), (1, 3, 1.0, 2.0),
                                  (7, 2, 0.3, 5.0), (16, 16, 1.0, 1.0),
                                  (60, 3, 2.0, 0.1)])
def test_face_tangential_matches_product_construction(dims):
    """The direct build from the vertex stencils and the owner Gauss
    weights stores the pattern of the sum of sparse products and its
    values to rounding."""
    m = build_mesh(*dims)
    actual, ref = canonical(m.face_tangential), canonical(oracles.face_tangential(m))
    npt.assert_array_equal(actual.indptr, ref.indptr)
    npt.assert_array_equal(actual.indices, ref.indices)
    npt.assert_allclose(actual.data, ref.data, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("dims", [(3, 4, 1.5, 1.0), (16, 16, 1.0, 1.0), (300, 15, 2.0, 0.1)])
def test_face_gradient_matches_outer_form(dims, rng):
    """Row b n_faces + f of ``face_gradient`` is N_b Q + t_b Dt at face f:
    one product gives (Q u) x N + (Dt u) x t to rounding."""
    m = build_mesh(*dims)
    u = rng.standard_normal((m.n_unknowns, 2))
    ref = oracles.face_gradient(m, u)
    grad = (m.face_gradient @ u).reshape(2, m.n_faces, 2).transpose(1, 2, 0)
    assert np.abs(grad - ref).max() <= 1e-15 * np.abs(ref).max()


def assert_bitwise_equal(actual, ref, name):
    assert actual.dtype == ref.dtype and actual.shape == ref.shape, name
    assert actual.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("dims", [(1, 1, 1.0, 1.0), (1, 3, 1.0, 2.0), (3, 1, 2.0, 1.0),
                                  (7, 2, 0.3, 5.0), (3, 4, 1.5, 1.0), (16, 16, 1.0, 1.0),
                                  (64, 64, 1.0, 1.0), (300, 15, 2.0, 0.1)])
def test_operators_and_pattern_match_product_construction(dims):
    """Every operator and every ``BlockPattern`` array is built directly
    from the face arrays, yet stores what scipy's COO conversions, stacks
    and products store: the same indptr, indices and data, bit for bit,
    and the same index dtype.  So no product with them, and no fill,
    changes in its last bit."""
    m = build_mesh(*dims)
    ops = oracles.product_operators(m)
    for name, ref in ops.items():
        op = getattr(m, name)
        assert type(op) is type(ref) and op.shape == ref.shape, name
        for part in ("indptr", "indices", "data"):
            assert_bitwise_equal(getattr(op, part), getattr(ref, part), f"{name}.{part}")
    pattern = m.jacobian_pattern
    ref = oracles.product_jacobian_pattern(m, ops)
    assert type(pattern.fill) is type(ref.fill) and pattern.fill.shape == ref.fill.shape
    for part in ("indptr", "indices", "data"):
        assert_bitwise_equal(getattr(pattern.fill, part), getattr(ref.fill, part), f"fill.{part}")
    for name in ("diagonal", "indptr", "indices", "gather", "bface_block"):
        assert_bitwise_equal(getattr(pattern, name), getattr(ref, name), name)


def test_jacobian_pattern_is_built_on_first_use():
    """The symbolic analysis belongs to the coupled assembly: building a
    mesh (and its residual operators) does not run it."""
    m = build_mesh(4, 3, 1.0, 1.0)
    assert m.face_tangential.nnz > 0 and m.face_rows.nnz > 0
    assert "jacobian_pattern" not in vars(m)
    pattern = m.jacobian_pattern
    assert m.jacobian_pattern is pattern
    for name in ("indptr", "indices", "gather", "diagonal"):
        assert getattr(pattern, name).dtype == np.int32, name
    assert pattern.fill.shape == (pattern.gather.size // 4, 2 * m.n_faces)


@pytest.mark.parametrize("dims", [(3, 4, 1.5, 1.0), (300, 15, 2.0, 0.1)])
def test_jacobian_pattern_reorders_no_cached_operator(dims):
    """The symbolic analysis reads the cached sparse operators and reorders
    none of them in place: each keeps its indices and data, so the
    summation order of a product with it does not depend on whether the
    coupled pattern was built first."""
    m = build_mesh(*dims)
    names = [name for name, value in vars(type(m)).items()
             if isinstance(value, cached_property) and name != "jacobian_pattern"]
    assert "face_tangential" in names
    built = {name: getattr(m, name) for name in names}
    before = {name: (op.indices.copy(), op.data.copy()) for name, op in built.items()}
    m.jacobian_pattern
    for name, op in built.items():
        npt.assert_array_equal(op.indices, before[name][0], err_msg=name)
        npt.assert_array_equal(op.data, before[name][1], err_msg=name)
