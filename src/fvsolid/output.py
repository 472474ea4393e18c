"""Artifact writers: CSV tables, legacy VTK meshes, and JSON run reports.

Column order of the CSV files is part of the interface and documented in
docs/output_schema.md.  All floats are written with repr-level precision so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .kinematics import vertex_values
from .mesh import CartesianMesh

ERRORS_COLUMNS = ["case", "method", "bc", "nx", "ny", "n_cells", "converged",
                  "n_corr", "mean_error", "max_error", "min_error"]
CONVERGENCE_COLUMNS = ["nx", "ny", "load_step", "correction", "residual"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def write_report(path, report: dict) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_vtk(path, mesh: CartesianMesh, displacement: np.ndarray) -> None:
    """Legacy ASCII VTK unstructured grid of the displaced vertices; points
    and vectors carry a literal 0 as their z component."""
    u = vertex_values(mesh, displacement)
    nx, ny = mesh.nx, mesh.ny
    with open(path, "w") as handle:
        handle.write("# vtk DataFile Version 3.0\ndeformed configuration\n"
                     "ASCII\nDATASET UNSTRUCTURED_GRID\n")
        handle.write(f"POINTS {mesh.n_vertices} double\n")
        for p in mesh.vertices + u:
            handle.write(f"{p[0]:.17g} {p[1]:.17g} 0\n")
        handle.write(f"CELLS {mesh.n_cells} {5 * mesh.n_cells}\n")
        for j in range(ny):
            for i in range(nx):
                v = j * (nx + 1) + i
                handle.write(f"4 {v} {v + 1} {v + nx + 2} {v + nx + 1}\n")
        handle.write(f"CELL_TYPES {mesh.n_cells}\n")
        for _ in range(mesh.n_cells):
            handle.write("9\n")
        handle.write(f"POINT_DATA {mesh.n_vertices}\n")
        handle.write("VECTORS displacement double\n")
        for vector in u:
            handle.write(f"{vector[0]:.17g} {vector[1]:.17g} 0\n")
