"""State bookkeeping and gradient reconstruction on the reference mesh."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import numpy.testing as npt

import fvsolid
from fvsolid.kinematics import (advance_state, cell_gradient, vertex_values,
                                zero_state)
from tests import oracles
from tests.conftest import random_gradients


def linear_field(mesh, g, shift=(0.0, 0.0)):
    """Per-unknown samples of U(X) = g @ X + shift at cell and face centroids."""
    points = np.vstack([mesh.cell_centroids,
                        mesh.face_centroid[mesh.bface_face]])
    return points @ g.T + np.asarray(shift)


def test_zero_state_shapes(mesh_small):
    s = zero_state(mesh_small)
    assert s.displacement.shape == (mesh_small.n_unknowns, 2)
    assert not s.displacement.any()


def test_cell_gradient_exact_for_linear_fields(mesh_small, rng):
    g = random_gradients(rng, 1)[0]
    u = linear_field(mesh_small, g, shift=(0.3, -0.1))
    grad = cell_gradient(mesh_small, u)
    npt.assert_allclose(grad, np.broadcast_to(g, grad.shape), atol=1e-13)


def test_cell_gradient_kills_constants(mesh_small):
    u = np.tile([0.7, -0.2], (mesh_small.n_unknowns, 1))
    grad = cell_gradient(mesh_small, u)
    npt.assert_allclose(grad, 0.0, atol=1e-15)


def test_cell_gradient_matches_scatter_oracle(mesh_small, mesh16, rng):
    for mesh in (mesh_small, mesh16):
        u = rng.normal(size=(mesh.n_unknowns, 2))
        ref = oracles.cell_gradient(mesh, u)
        assert np.abs(cell_gradient(mesh, u) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_vertex_values_match_scatter_oracle(mesh_small, mesh16, rng):
    for mesh in (mesh_small, mesh16):
        u = rng.normal(size=(mesh.n_unknowns, 2))
        ref = oracles.vertex_values(mesh, u)
        assert np.abs(vertex_values(mesh, u) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_vertex_values_exact_for_linear_fields(mesh_small, rng):
    """Linear exactness everywhere except the four corners, which carry the
    nearest boundary-face value by construction (no residual reads them)."""
    g = random_gradients(rng, 1)[0]
    u = linear_field(mesh_small, g)
    at_vertices = vertex_values(mesh_small, u)
    expected = mesh_small.vertices @ g.T
    m = mesh_small
    corners = [j * (m.nx + 1) + i for i in (0, m.nx) for j in (0, m.ny)]
    regular = np.setdiff1d(np.arange(m.n_vertices), corners)
    npt.assert_allclose(at_vertices[regular], expected[regular], atol=1e-14)
    for v in corners:
        first = m.vertex_stencil.indices[m.vertex_stencil.indptr[v]]
        npt.assert_allclose(at_vertices[v], u[first])


def test_vertex_values_preserve_constants(mesh16):
    u = np.tile([1.5, 2.5], (mesh16.n_unknowns, 1))
    out = vertex_values(mesh16, u)
    npt.assert_allclose(out, np.tile([1.5, 2.5], (mesh16.n_vertices, 1)))


def test_advance_state_accumulates(mesh_small, rng):
    g1 = random_gradients(rng, 1)[0]
    g2 = random_gradients(rng, 1)[0]
    s0 = zero_state(mesh_small)
    s1 = advance_state(s0, linear_field(mesh_small, g1))
    s2 = advance_state(s1, linear_field(mesh_small, g2))
    npt.assert_allclose(s2.displacement,
                        linear_field(mesh_small, g1 + g2), atol=1e-13)
    grad = cell_gradient(mesh_small, s2.displacement)
    npt.assert_allclose(grad, np.broadcast_to(g1 + g2, grad.shape), atol=1e-13)


def test_advance_state_leaves_input_untouched(mesh_small):
    s0 = zero_state(mesh_small)
    advance_state(s0, np.ones((mesh_small.n_unknowns, 2)))
    assert not s0.displacement.any()


def test_no_private_scipy_import_but_sparsetools():
    """No module imports a private scipy name (a dotted part that starts
    with ``_``), except ``kinematics``' ``scipy.sparse._sparsetools``,
    whose ``csr_matvec`` ``apply`` runs: ROADMAP item 18 prices both
    public routes.  A second private import fails here."""
    private = set()
    for path in Path(fvsolid.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            private |= {(path.stem, name) for name in names
                        if name.split(".")[0] == "scipy"
                        and any(part.startswith("_") for part in name.split("."))}
    assert private <= {("kinematics", "scipy.sparse._sparsetools")}
