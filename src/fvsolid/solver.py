"""Outer driver: one correction loop for the coupled and segregated methods.

The loop evaluates the face states and the momentum residual once per
correction for every method; the face states of the check that ends a
load step also serve the next step's first correction, so a run makes
one more face-state evaluation than it has corrections.  The three
methods differ only in how they turn that evaluation into an increment,
with a set-up done once per run:

- ``nlbc``: Newton-Raphson on the momentum residual, one block-coupled
  ``linsolve.solve`` per correction: refinement with the run's latest
  factor, or a fresh symmetric-mode LU with its post-check once that
  stops contracting; the block matrix is assembled only for a correction
  that is solved, never for the converged check that ends a load step,
  and from the second correction of a run on in the first factor's
  column order
- ``bc``: the same linearisation with the material replaced by its
  small-strain linear counterpart, so one correction solves the problem
- ``seg``: one constant implicit operator for both components (scalar
  Laplacian, identity boundary rows), built once per run and inverted
  exactly by fast diagonalisation, with no factorisation (on the uniform
  mesh the Laplacian is separable), boundary kinds entering only as a
  right-hand-side step, all coupling evaluated from the previous iterate,
  and a fixed under-relaxation on the update of the force-balance
  unknowns (prescribed boundary values are assignments and take their
  full solved value)

Residual bookkeeping: the assembly returns each evaluation's right-hand
side and only the loop measures it, by one force-like norm of all rows
per evaluation (``_residual``; row weights set once per run: face area
on traction and symmetry rows, mu on displacement rows) normalised by
the load step's first norm, floored by the force scale mu * min cell
spacing.  Each load step's list of these values is its only record of
the residual, and ``_verdict`` judges that list alone, so measuring a
trial state does not touch it.  Every method solves a
prescribed-displacement row as an identity row, so a correction meets
its prescribed value to rounding; a prescribed value the state has not
reached keeps blocking convergence, and a NaN or inf in any row never
reads as converged.  A run is declared diverged after five consecutive
residual increases, an inverted element, a failed linear solve, or
exhausting the correction budget.  A boundary map that leaves a
rigid-body mode free is rejected (ValueError) before the first
correction.
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
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        for key in ("n_load_steps", "max_corrections"):
            value = getattr(self, key)
            # A bool is an int to Python, but never a count.
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{key} must be an integer, got {value}")
        if self.n_load_steps < 1:
            raise ValueError(f"n_load_steps must be at least 1, got {self.n_load_steps}")
        if self.max_corrections < 0:
            raise ValueError(f"max_corrections must be at least 0, got {self.max_corrections}")
        if not (np.isfinite(self.relaxation) and self.relaxation > 0):
            raise ValueError(f"relaxation must be finite and positive, got {self.relaxation}")
        # The first normalised residual is at most 1: a tolerance of 1 or
        # more would pass it without a single correction, and one of 0 or
        # less could never be met.
        if not self.outer_tolerance < 1:
            raise ValueError(f"outer_tolerance must be below 1, got {self.outer_tolerance}")
        if not self.outer_tolerance > 0:
            raise ValueError("outer_tolerance must be finite and positive, "
                             f"got {self.outer_tolerance}")


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


def _residual(rhs: np.ndarray, weight: np.ndarray) -> float:
    """Force-like norm of all rows of ``rhs``, summed one component after
    the other whatever its layout; ``weight`` has its shape and layout."""
    return linsolve.norm2((rhs * weight).T)


def _verdict(history: list[float], tolerance: float) -> str:
    """Judge a load step's normalised residuals: converged once the last is
    below the tolerance (a NaN never is), diverged once the last six rise
    strictly (five consecutive increases), and continue otherwise."""
    if history[-1] < tolerance:
        return "converged"
    last = history[-6:]
    if len(last) == 6 and all(a < b for a, b in zip(last, last[1:])):
        return "diverged"
    return "continue"


def _coupled(mesh: CartesianMesh, material, table: BoundaryTable,
             force_rows: np.ndarray, cfg: SolveConfig):
    """nlbc and bc: solve the block system of the current iterate.

    Every method's set-up returns ``solve(f_face, rhs, dump_dir)``,
    which turns the face states and right-hand side of the loop's residual
    evaluation into the component-major (N, 2) increment.  Here it
    assembles the matrix from those face states, writes it to ``dump_dir``
    if one is given, and solves it.  The stored pattern is the mesh's, and
    the row weights are the table's, which every load step shares.  The
    first factorisation orders the pattern by minimum degree; the second
    correction re-lays the pattern in that order, and every later matrix
    is filled straight into it.
    Each pattern gets one CSC matrix, built by its first assembly and
    refilled in place by every later one (``assemble_system``'s ``out``).
    The run's ``linsolve.KeptFactor`` holds that matrix, the column order
    and the latest factor, which later corrections refine with.
    The block system is interleaved (one 2x2 block per unknown pair): the
    right-hand side is copied into that order once, and the solution back
    to component-major once.
    """
    pattern = mesh.jacobian_pattern
    kept = linsolve.KeptFactor()

    def solve(f_face, rhs: np.ndarray, dump_dir: str | None) -> np.ndarray:
        nonlocal pattern
        if kept.order is not None and pattern is mesh.jacobian_pattern:
            pattern, kept.matrix = pattern.ordered(kept.order), None
        kept.matrix = assemble_system(mesh, material, table, f_face, pattern, kept.matrix)
        flat = rhs.ravel()
        if dump_dir:
            linsolve.dump_system(dump_dir, kept.matrix, flat)
        solution = linsolve.solve(kept.matrix, flat, kept)
        return np.asfortranarray(solution.x.reshape(-1, 2))     # component-major

    return solve


def _segregated(mesh: CartesianMesh, material, table: BoundaryTable,
                force_rows: np.ndarray, cfg: SolveConfig):
    """seg: one scalar operator for both components, inverted exactly by
    fast diagonalisation (``linsolve.sine_basis``), with relaxed force
    rows.  The dumped system is that operator and the x-component's stepped
    right-hand side.  The step and relaxation arrays are component-major
    like the right-hand side.

    The boundary rows are identity rows, so a solve takes x_b = (step rhs)_b
    and then x_c = L_cc^-1 ((step rhs)_c - L_cb x_b), where the cell block
    L_cc = c ((dy/dx) I x T_nx + (dx/dy) T_ny x I) of the uniform mesh is
    applied in the sine bases of both directions, on the (2, ny, nx) view
    of the cell rows: S_y^T ((S_y R S_x^T) / eigenvalues) S_x.
    """
    coefficient = 2.0 * material.mu + material.lam
    operator, step = assemble_scalar_operator(mesh, table, coefficient)
    n, shape = mesh.n_cells, (2, mesh.ny, mesh.nx)
    coupling = operator[:n, n:]                         # L_cb
    basis_x, lam_x = linsolve.sine_basis(mesh.nx)
    basis_y, lam_y = linsolve.sine_basis(mesh.ny)
    eigenvalues = coefficient * (mesh.dy / mesh.dx * lam_x + mesh.dx / mesh.dy * lam_y[:, None])
    # Prescribed-displacement rows are assignments of known values; only
    # the force-balance unknowns are under-relaxed.
    relax = np.ones_like(step)
    relax[force_rows] = cfg.relaxation

    def solve(f_face, rhs: np.ndarray, dump_dir: str | None) -> np.ndarray:
        if dump_dir:
            linsolve.dump_system(dump_dir, operator, step[:, 0] * rhs[:, 0])
        increment = step * rhs
        cells = increment.T[:, :n]                      # (2, n_cells) view
        cells -= (coupling @ increment[n:]).T
        modes = basis_y @ cells.reshape(shape) @ basis_x.T
        cells[:] = (basis_y.T @ (modes / eigenvalues) @ basis_x).reshape(2, n)
        increment *= relax
        return increment

    return solve


_SOLVERS = {"nlbc": _coupled, "bc": _coupled, "seg": _segregated}
METHODS = tuple(_SOLVERS)


def run(mesh: CartesianMesh, material, bcs: dict, cfg: SolveConfig) -> RunReport:
    if cfg.method == "bc":
        material = LinearElastic(Lame(material.mu, material.lam))
    start = time.perf_counter()
    state = zero_state(mesh)
    floor = material.mu * min(mesh.dx, mesh.dy)
    n_corr: list[int] = []
    histories: list[list[float]] = []
    failure = None

    # Row weights (the only record of the kinds), the rigid-body check, force
    # rows and norm weights do not depend on the load factor: each method sets
    # up once per run, and later load steps only re-evaluate the values.
    table = build_boundary_table(mesh, bcs, 1.0 / cfg.n_load_steps)
    force_rows = force_row_mask(mesh, table)
    weight = np.ones(mesh.n_unknowns)
    weight[mesh.n_cells:] = np.where(force_rows[mesh.n_cells:],
                                     mesh.face_area[mesh.bface_face], material.mu)
    solve = _SOLVERS[cfg.method](mesh, material, table, force_rows, cfg)
    # The norm's row weights, once per component in the right-hand side's
    # component-major layout.
    weight = np.stack((weight, weight)).T
    # Face states depend only on the state: the check that ends a load step
    # also serves the next step's first correction.
    states = None

    for step in range(cfg.n_load_steps):
        if step > 0:
            table = replace(table, value=boundary_values(
                mesh, bcs, (step + 1) / cfg.n_load_steps, table.constant))
        history: list[float] = []
        corrections = 0
        while True:
            if states is None:
                try:
                    states = face_states(mesh, material, state)
                except InvertedElementError as err:
                    failure = str(err)
                    break
            f_face, flux_density = states
            rhs = newton_rhs(mesh, state, table, flux_density)
            residual = _residual(rhs, weight)
            if not history:
                denominator = max(residual, floor)
            history.append(residual / denominator)
            verdict = _verdict(history, cfg.outer_tolerance)
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
                increment = solve(f_face, rhs, dump_dir)
            except linsolve.LinearSolveError as err:
                failure = f"linear solve failed: {err}"
                break
            state = advance_state(state, increment)
            states = None
            corrections += 1
        n_corr.append(corrections)
        histories.append(history)
        if failure is not None:
            break
    return RunReport(method=cfg.method, converged=failure is None,
                     failure=failure, n_corr=n_corr,
                     residual_history=histories, state=state,
                     wall_time=time.perf_counter() - start)
