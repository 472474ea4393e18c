"""Outer driver: one correction loop for the coupled and segregated methods.

The loop evaluates the face states and the momentum residual once per
correction for every method; the face states of the check that ends a
load step also serve the next step's first correction, so a run makes
one more face-state evaluation than it has corrections.  The three
methods differ only in how they turn that evaluation into an increment,
with a set-up done once per run:

- ``nlbc``: Newton-Raphson on the momentum residual, one block-coupled
  ``linsolve.solve`` (symmetric-mode LU, post-checked) per correction; the
  block matrix is assembled only for a correction that is solved, never
  for the converged check that ends a load step, and from the second
  correction of a run on in the first factor's column order
- ``bc``: the same linearisation with the material replaced by its
  small-strain linear counterpart, so one correction solves the problem
- ``seg``: one constant implicit operator for both components (scalar
  Laplacian, identity boundary rows), factorised (symmetric-mode LU) once
  per run, boundary kinds entering only as a right-hand-side step, all
  coupling evaluated from the previous iterate, and a fixed under-relaxation
  on the update of the force-balance unknowns (prescribed boundary values
  are assignments and take their full solved value)

Residual bookkeeping: the assembly returns each evaluation's right-hand
side and only the loop measures it, by one force-like norm per evaluation
(row weights set once per run: face area on traction and symmetry rows,
mu on displacement rows) normalised by the first evaluation's all-row
norm, floored by the force scale mu * min cell spacing.  The verdict reads
the force-balance rows only: prescribed-displacement rows seed the
normalisation and block convergence before the first correction, but
their post-solve defect is linear-solver forward error, which no outer
iteration controls, so it never vetoes convergence afterwards.  A run is
declared diverged after five consecutive residual increases, an inverted
element, a failed linear solve, or exhausting the correction budget.  A
boundary map that leaves a rigid-body mode free is rejected (ValueError)
before the first correction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import linsolve
from .assembly import (BoundaryTable, assemble_scalar_operator,
                       assemble_system, boundary_values, build_boundary_table,
                       face_states, force_row_mask, newton_rhs)
from .kinematics import State, advance_state, zero_state
from .material import InvertedElementError, Lame, LinearElastic
from .mesh import CartesianMesh


@dataclass(frozen=True)
class SolveConfig:
    method: str = "nlbc"            # nlbc | bc | seg
    outer_tolerance: float = 1e-7
    max_corrections: int = 200
    n_load_steps: int = 1
    relaxation: float = 0.9         # seg only, on force-balance unknowns
    dump_dir: str | None = None

    def __post_init__(self):
        if self.n_load_steps < 1:
            raise ValueError(f"n_load_steps must be at least 1, got {self.n_load_steps}")
        # The first normalised residual is at most 1: a tolerance of 1 or
        # more would pass it without a single correction.
        if not self.outer_tolerance < 1:
            raise ValueError(f"outer_tolerance must be below 1, got {self.outer_tolerance}")


@dataclass
class RunReport:
    method: str
    converged: bool
    failure: str | None
    n_corr: list[int]               # corrections per load step
    residual_history: list[list[float]]
    state: State
    wall_time: float

    @property
    def total_corrections(self) -> int:
        return int(sum(self.n_corr))


class _Monitor:
    """Normalised-residual tracking with divergence detection.

    Every update takes one force-like norm of the right-hand side.  The
    first reads all rows and fixes the denominator (floored), so a pending
    prescribed-displacement defect cannot pass for convergence at
    correction zero; every later one reads the force rows only.
    """

    def __init__(self, tolerance: float, floor: float, weight: np.ndarray,
                 force_rows: np.ndarray):
        self.tolerance = tolerance
        self.floor = floor
        self.weight = weight
        self.force_rows = force_rows
        self.denominator: float | None = None
        self.previous = np.inf
        self.rises = 0
        self.history: list[float] = []

    def update(self, rhs: np.ndarray) -> str:
        first = self.denominator is None
        rows = slice(None) if first else self.force_rows
        raw = float(np.linalg.norm(rhs[rows] * self.weight[rows, None]))
        if first:
            self.denominator = max(raw, self.floor)
        value = raw / self.denominator
        self.history.append(value)
        if value < self.tolerance:
            return "converged"
        self.rises = self.rises + 1 if value > self.previous else 0
        self.previous = value
        if self.rises >= 5:
            return "diverged"
        return "continue"


def _coupled(mesh: CartesianMesh, material, table: BoundaryTable,
             force_rows: np.ndarray, cfg: SolveConfig):
    """nlbc and bc: solve the block system of the current iterate.

    Every method's set-up returns ``solve(f_face, s_face, rhs, dump_dir)``,
    which turns the face states and right-hand side of the loop's residual
    evaluation into the (N, 2) increment.  Here it assembles the matrix
    from those face states, writes it to ``dump_dir`` if one is given, and
    solves it.  The stored pattern is the mesh's, and the row weights are
    the table's, which every load step shares.  The first factorisation
    orders the pattern by minimum degree; the second re-lays the pattern
    in that order, and every later matrix is filled straight into it.
    """
    pattern = mesh.jacobian_pattern
    order = None                    # the first factor's column order

    def solve(f_face, s_face, rhs: np.ndarray, dump_dir: str | None) -> np.ndarray:
        nonlocal pattern, order
        if order is not None and pattern is mesh.jacobian_pattern:
            pattern = pattern.ordered(order)
        matrix = assemble_system(mesh, material, table, f_face, s_face, pattern)
        if dump_dir:
            linsolve.dump_system(dump_dir, matrix, rhs.ravel())
        solution = linsolve.solve(matrix, rhs.ravel(), order)
        order = solution.order
        return solution.x.reshape(-1, 2)

    return solve


def _segregated(mesh: CartesianMesh, material, table: BoundaryTable,
                force_rows: np.ndarray, cfg: SolveConfig):
    """seg: one scalar operator for both components, factorised once per
    run, with relaxed force rows.  The dumped system is that operator and
    the x-component's stepped right-hand side."""
    operator, step = assemble_scalar_operator(mesh, table, 2.0 * material.mu + material.lam)
    # Equilibrate before factorising: the identity boundary rows are tiny
    # next to the Laplacian rows and would otherwise soak up the
    # elimination noise of the stiff rows.
    matrix, row_scale = linsolve.equilibrate(operator)
    factor = linsolve.factorise(matrix)
    scale = row_scale[:, None] * step

    def solve(f_face, s_face, rhs: np.ndarray, dump_dir: str | None) -> np.ndarray:
        if dump_dir:
            linsolve.dump_system(dump_dir, operator, step[:, 0] * rhs[:, 0])
        increment = factor.solve(scale * rhs)
        # Prescribed-displacement rows are assignments of known values;
        # only the force-balance unknowns are under-relaxed.
        increment[force_rows] *= cfg.relaxation
        return increment

    return solve


_SOLVERS = {"nlbc": _coupled, "bc": _coupled, "seg": _segregated}
METHODS = tuple(_SOLVERS)


def run(mesh: CartesianMesh, material, bcs: dict, cfg: SolveConfig) -> RunReport:
    if cfg.method not in METHODS:
        raise ValueError(f"unknown method {cfg.method!r}")
    if cfg.method == "bc":
        material = LinearElastic(Lame(material.mu, material.lam))
    start = time.perf_counter()
    state = zero_state(mesh)
    floor = material.mu * min(mesh.dx, mesh.dy)
    n_corr: list[int] = []
    histories: list[list[float]] = []
    failure = None

    # Boundary kinds, row weights, the rigid-body check, force rows and norm
    # weights do not depend on the load factor: each method sets up once per
    # run, and later load steps only re-evaluate the prescribed values.
    table = build_boundary_table(mesh, bcs, 1.0 / cfg.n_load_steps)
    force_rows = force_row_mask(mesh, table)
    weight = np.ones(mesh.n_unknowns)
    weight[mesh.n_cells:] = np.where(force_rows[mesh.n_cells:],
                                     mesh.face_area[mesh.bface_face], material.mu)
    solve = _SOLVERS[cfg.method](mesh, material, table, force_rows, cfg)
    # Face states depend only on the state: the check that ends a load step
    # also serves the next step's first correction.
    states = None

    for step in range(cfg.n_load_steps):
        if step > 0:
            table = replace(table, value=boundary_values(
                mesh, bcs, (step + 1) / cfg.n_load_steps))
        monitor = _Monitor(cfg.outer_tolerance, floor, weight, force_rows)
        corrections = 0
        while True:
            if states is None:
                try:
                    states = face_states(mesh, material, state)
                except InvertedElementError as err:
                    failure = str(err)
                    break
            f_face, s_face, flux_density = states
            rhs = newton_rhs(mesh, state, table, flux_density)
            verdict = monitor.update(rhs)
            if verdict == "converged":
                break
            if verdict == "diverged":
                failure = "residual rose over 5 consecutive corrections"
                break
            if corrections >= cfg.max_corrections:
                failure = f"no convergence within {cfg.max_corrections} corrections"
                break
            dump_dir = cfg.dump_dir if step == 0 and corrections == 0 else None
            try:
                increment = solve(f_face, s_face, rhs, dump_dir)
            except linsolve.LinearSolveError as err:
                failure = f"linear solve failed: {err}"
                break
            state = advance_state(state, increment)
            states = None
            corrections += 1
        n_corr.append(corrections)
        histories.append(monitor.history)
        if failure is not None:
            break
    return RunReport(method=cfg.method, converged=failure is None,
                     failure=failure, n_corr=n_corr,
                     residual_history=histories, state=state,
                     wall_time=time.perf_counter() - start)
