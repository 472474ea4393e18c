"""Artifact writers: formatting, stable bytes, and VTK structure."""

from __future__ import annotations

import json

import numpy as np
import numpy.testing as npt

from fvsolid import build_mesh
from fvsolid.kinematics import vertex_values
from fvsolid.output import (
    CONVERGENCE_COLUMNS,
    ERRORS_COLUMNS,
    _fmt,
    write_csv,
    write_report,
    write_vtk,
)


def test_fmt_booleans_and_floats():
    assert _fmt(True) == "true"
    assert _fmt(False) == "false"
    assert _fmt(0.1) == "0.10000000000000001"
    assert float(_fmt(1.0 / 3.0)) == 1.0 / 3.0
    assert _fmt(12) == "12"
    assert _fmt("seg") == "seg"


def test_column_orders_are_stable():
    assert ERRORS_COLUMNS == ["case", "method", "bc", "nx", "ny", "n_cells",
                              "converged", "n_corr", "mean_error",
                              "max_error", "min_error"]
    assert CONVERGENCE_COLUMNS == ["nx", "ny", "load_step", "correction",
                                   "residual"]


def test_write_csv_row_contents(tmp_path):
    path = tmp_path / "errors.csv"
    rows = [{"case": "shear", "method": "nlbc", "bc": "displacement",
             "nx": 16, "ny": 16, "n_cells": 256, "converged": True,
             "n_corr": 2, "mean_error": 1.25e-13, "max_error": 4e-13,
             "min_error": 0.5e-13}]
    write_csv(path, ERRORS_COLUMNS, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(ERRORS_COLUMNS)
    fields = lines[1].split(",")
    assert fields[:8] == ["shear", "nlbc", "displacement", "16", "16",
                          "256", "true", "2"]
    assert float(fields[8]) == 1.25e-13


def test_write_csv_reruns_are_byte_identical(tmp_path):
    rows = [{"nx": 8, "ny": 8, "load_step": 1, "correction": k,
             "residual": 10.0 ** (-k)} for k in range(5)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, CONVERGENCE_COLUMNS, rows)
    write_csv(b, CONVERGENCE_COLUMNS, rows)
    assert a.read_bytes() == b.read_bytes()


def test_write_report_is_sorted_json(tmp_path):
    path = tmp_path / "report.json"
    write_report(path, {"zeta": 1, "alpha": {"n_corr": [2, 1]}})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"alpha"') < text.index('"zeta"')
    assert json.loads(text) == {"zeta": 1, "alpha": {"n_corr": [2, 1]}}


def test_vertex_displacements_linear_exactness(tmp_path):
    """The VTK vertex displacements of a linear field are exact away from
    the four corners (which carry the nearest boundary-face value)."""
    mesh = build_mesh(5, 3, 1.0, 0.6)
    g = np.array([[0.1, 0.3], [-0.2, 0.05]])
    points = np.vstack([mesh.cell_centroids,
                        mesh.face_centroid[mesh.bface_face]])
    path = tmp_path / "linear.vtk"
    write_vtk(path, mesh, points @ g.T)
    lines, sections = parse_vtk(path)
    start, _ = sections["VECTORS"]
    out = np.array([line.split() for line in
                    lines[start + 1: start + 1 + mesh.n_vertices]], dtype=float)
    corners = [j * (mesh.nx + 1) + i for i in (0, mesh.nx)
               for j in (0, mesh.ny)]
    regular = np.setdiff1d(np.arange(mesh.n_vertices), corners)
    npt.assert_allclose(out[regular, :2], (mesh.vertices @ g.T)[regular],
                        atol=1e-14)
    # plane data: every z component is written as 0
    npt.assert_array_equal(out[:, 2], 0.0)


def parse_vtk(path):
    lines = path.read_text().splitlines()
    sections = {}
    i = 0
    while i < len(lines):
        token = lines[i].split(" ")[0]
        if token in ("POINTS", "CELLS", "CELL_TYPES", "VECTORS"):
            count = int(lines[i].split()[1]) if token != "VECTORS" else None
            sections[token] = (i, count)
        i += 1
    return lines, sections


def test_write_vtk_structure(tmp_path):
    mesh = build_mesh(3, 2, 1.0, 1.0)
    u = np.zeros((mesh.n_unknowns, 2))
    u[:, 0] = 0.25
    path = tmp_path / "deformed.vtk"
    write_vtk(path, mesh, u)

    lines, sections = parse_vtk(path)
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"

    start, n_points = sections["POINTS"]
    assert n_points == mesh.n_vertices
    first_point = np.array(lines[start + 1].split(), dtype=float)
    npt.assert_allclose(first_point, [*(mesh.vertices[0] + [0.25, 0.0]), 0.0])

    start, n_cells = sections["CELLS"]
    assert n_cells == mesh.n_cells
    assert lines[start].split() == ["CELLS", "6", "30"]
    # first quad: counterclockwise corner vertices of cell (0, 0)
    assert lines[start + 1] == "4 0 1 5 4"

    start, n_types = sections["CELL_TYPES"]
    assert n_types == mesh.n_cells
    assert set(lines[start + 1: start + 1 + n_types]) == {"9"}

    start, _ = sections["VECTORS"]
    assert lines[start] == "VECTORS displacement double"
    vec = np.array(lines[start + 1].split(), dtype=float)
    npt.assert_allclose(vec, [0.25, 0.0, 0.0])


def test_write_vtk_reruns_are_byte_identical(tmp_path, rng):
    mesh = build_mesh(4, 4, 1.0, 1.0)
    u = rng.standard_normal((mesh.n_unknowns, 2)) * 1e-3
    a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
    write_vtk(a, mesh, u)
    write_vtk(b, mesh, u)
    assert a.read_bytes() == b.read_bytes()


def test_write_vtk_vectors_are_the_displacement(tmp_path):
    """The VECTORS block is the interpolated displacement itself, to the
    last bit, not the written point minus the vertex: a 1e-9 displacement
    on the 2.0 x 0.1 beam loses no digits to the vertex coordinates."""
    mesh = build_mesh(20, 2, 2.0, 0.1)
    u = np.full((mesh.n_unknowns, 2), 1e-9)
    u[:, 1] = -3e-9
    path = tmp_path / "small.vtk"
    write_vtk(path, mesh, u)
    lines, sections = parse_vtk(path)
    start, _ = sections["VECTORS"]
    out = np.array([line.split() for line in
                    lines[start + 1: start + 1 + mesh.n_vertices]], dtype=float)
    npt.assert_array_equal(out[:, :2], vertex_values(mesh, u))
    start, _ = sections["POINTS"]
    points = np.array([line.split() for line in
                       lines[start + 1: start + 1 + mesh.n_vertices]], dtype=float)
    npt.assert_array_equal(points[:, :2], mesh.vertices + vertex_values(mesh, u))
