"""Outer driver: one correction loop for the coupled and segregated methods.

Three methods share the loop and differ only in how each load step
linearises the momentum residual and solves for the increment:

- ``nlbc``: Newton-Raphson on the momentum residual; the block matrix is
  assembled only for a correction that is solved, never for the converged
  check that ends a load step
- ``bc``: the same linearisation with the material replaced by its
  small-strain linear counterpart, so one correction solves the problem
- ``seg``: component-by-component scalar solves with a constant implicit
  operator, factorised (symmetric-mode LU) once per load step, all
  coupling evaluated from the previous iterate, and a fixed
  under-relaxation on the update of the force-balance unknowns (prescribed
  boundary values are assignments and take their full solved value)

Residual bookkeeping: every correction's right-hand side is reduced to a
force-like norm (boundary rows rescaled by the weights the assembly
provides) and normalised by the first correction's all-row norm, floored
by the force scale mu * min cell spacing.  The convergence verdict reads
the force-balance rows only: prescribed-displacement rows seed the
normalisation and block convergence before the first correction, but
their post-solve defect is linear-solver forward error, which no outer
iteration controls, so it never vetoes convergence afterwards.  A run is
declared diverged after five consecutive residual increases, an inverted
element, a failed linear solve, or exhausting the correction budget.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import linsolve
from .assembly import (BoundaryTable, assemble_scalar_operator,
                       assemble_system, build_boundary_table, face_states,
                       force_row_mask, newton_rhs)
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
    linear: linsolve.LinearSolverConfig = linsolve.LinearSolverConfig()
    dump_dir: str | None = None

    def __post_init__(self):
        if self.n_load_steps < 1:
            raise ValueError(f"n_load_steps must be at least 1, got {self.n_load_steps}")


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


def residual_norm(rhs: np.ndarray, row_scale: np.ndarray,
                  rows: np.ndarray | slice = slice(None)) -> float:
    """Force-like 2-norm of (a row subset of) a block right-hand side."""
    scaled = rhs[rows] * row_scale[rows, None]
    return float(np.linalg.norm(scaled))


class _Monitor:
    """Normalised-residual tracking with divergence detection.

    The first update's all-row norm fixes the denominator (floored), so a
    pending prescribed-displacement defect cannot pass for convergence at
    correction zero; every verdict reads the force-row norm.
    """

    def __init__(self, tolerance: float, floor: float):
        self.tolerance = tolerance
        self.floor = floor
        self.denominator: float | None = None
        self.previous = np.inf
        self.rises = 0
        self.history: list[float] = []

    def update(self, raw_force: float, raw_all: float) -> str:
        first = self.denominator is None
        if first:
            self.denominator = max(raw_all, self.floor)
        value = (raw_all if first else raw_force) / self.denominator
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

    Every method's load-step setup returns ``linearise(state)``, giving the
    residual right-hand side, its norm weights, ``system()`` for the dump
    hook and ``solve()`` for the (N, 2) increment.  Both build the matrix
    once, on first use, from the face states of the residual.
    """

    def linearise(state: State):
        f_face, s_face, flux_density = face_states(mesh, material, state)
        rhs, row_scale = newton_rhs(mesh, material, state, table, flux_density)

        @functools.cache
        def system():
            return assemble_system(mesh, material, table, f_face, s_face), rhs.ravel()

        def solve() -> np.ndarray:
            return linsolve.solve(*system(), cfg.linear).x.reshape(-1, 2)

        return rhs, row_scale, system, solve

    return linearise


def _segregated(mesh: CartesianMesh, material, table: BoundaryTable,
                force_rows: np.ndarray, cfg: SolveConfig):
    """seg: frozen scalar factors per component, relaxed force rows.  The
    dumped system is the x-component scalar operator."""
    coefficient = 2.0 * material.mu + material.lam
    operators = [assemble_scalar_operator(mesh, table, coefficient, comp)
                 for comp in (0, 1)]
    # Equilibrate before factorising: the identity boundary rows are tiny
    # next to the Laplacian rows and would otherwise soak up the
    # elimination noise of the stiff rows.
    scaled = [linsolve.equilibrate(op) for op in operators]
    factors = [linsolve.factorise(mat) for mat, _ in scaled]
    row_scales = [s for _, s in scaled]

    def linearise(state: State):
        _, _, flux_density = face_states(mesh, material, state)
        rhs, row_scale = newton_rhs(mesh, material, state, table, flux_density)

        def solve() -> np.ndarray:
            increment = np.empty((mesh.n_unknowns, 2))
            for comp in (0, 1):
                increment[:, comp] = factors[comp].solve(row_scales[comp]
                                                         * rhs[:, comp])
            # Prescribed-displacement rows are assignments of known values;
            # only the force-balance unknowns are under-relaxed.
            increment[force_rows] *= cfg.relaxation
            return increment

        return rhs, row_scale, lambda: (operators[0], rhs[:, 0]), solve

    return linearise


_LINEARISATIONS = {"nlbc": _coupled, "bc": _coupled, "seg": _segregated}
METHODS = tuple(_LINEARISATIONS)


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

    for step in range(cfg.n_load_steps):
        table = build_boundary_table(mesh, bcs, (step + 1) / cfg.n_load_steps)
        force_rows = force_row_mask(mesh, table)
        linearise = _LINEARISATIONS[cfg.method](mesh, material, table,
                                                force_rows, cfg)
        monitor = _Monitor(cfg.outer_tolerance, floor)
        corrections = 0
        while True:
            try:
                rhs, row_scale, system, solve = linearise(state)
            except InvertedElementError as err:
                failure = str(err)
                break
            verdict = monitor.update(residual_norm(rhs, row_scale, force_rows),
                                     residual_norm(rhs, row_scale))
            if verdict == "converged":
                break
            if verdict == "diverged":
                failure = "residual rose over 5 consecutive corrections"
                break
            if corrections >= cfg.max_corrections:
                failure = f"no convergence within {cfg.max_corrections} corrections"
                break
            if cfg.dump_dir and step == 0 and corrections == 0:
                linsolve.dump_system(cfg.dump_dir, *system())
            try:
                increment = solve()
            except linsolve.LinearSolveError as err:
                failure = f"linear solve failed: {err}"
                break
            state = advance_state(state, increment)
            corrections += 1
        n_corr.append(corrections)
        histories.append(monitor.history)
        if failure is not None:
            break
    return RunReport(method=cfg.method, converged=failure is None,
                     failure=failure, n_corr=n_corr,
                     residual_history=histories, state=state,
                     wall_time=time.perf_counter() - start)
