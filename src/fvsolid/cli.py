"""Command-line runner.

Usage:
    fvsolid --config case.cfg [--method nlbc|bc|seg] [--mesh NXxNY]
            [--sweep n1,n2,...] [--dump-matrix] [--out dir]

The config file is flat ``key = value`` text (# starts a comment), each
key at most once.  Three cases are registered:

- ``cantilever``: end-loaded thin beam, linear-elastic by default, judged
  against the analytic end deflection
- ``uniaxial``: homogeneous stretch of the unit square (requires
  ``stretch``), displacement- or traction-driven
- ``shear``: homogeneous simple shear of the unit square (``shear_factor``,
  default 0.45)

Flags override file values.  Artifacts land in the output directory:
report.json, convergence.csv, errors.csv (manufactured cases), one
deformed*.vtk per mesh, and A.mtx/R.mtx with --dump-matrix.  Exit status:
0 converged, 1 bad configuration or I/O failure, 2 divergence reported.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import output
from .assembly import (DISPLACEMENT, TRACTION, BoundaryCondition,
                       RigidBodyModeError)
from .material import LinearElastic, NeoHookean, lame_from_E_nu
from .mesh import BOTTOM, LEFT, RIGHT, TOP, CartesianMesh, build_mesh
from .solver import METHODS, RunReport, SolveConfig, run
from .verification import (MMSCase, cantilever_deflection, compute_errors,
                           mms_bcs)

CASES = ("cantilever", "uniaxial", "shear")


class ConfigError(Exception):
    pass


@dataclass
class CaseConfig:
    case: str = ""
    method: str = "nlbc"
    mesh: tuple = ()                  # defaulted per case when empty
    sweep: tuple = ()                 # square mesh sizes; empty = single run
    bc: str = DISPLACEMENT
    stretch: float = None
    shear_factor: float = 0.45
    E: float = None
    nu: float = None
    regime: str = "plane_strain"
    material: str = ""                # neo | linear, defaulted per case
    traction: float = 1e6             # cantilever end load (Pa)
    tolerance: float = 1e-7
    max_corrections: int = 200
    load_steps: int = 1
    relaxation: float = 0.9
    out: str = "."
    dump_matrix: bool = False


_CASE_DEFAULTS = {
    "cantilever": dict(E=200e9, nu=0.3, mesh=(100, 5), material="linear"),
    "uniaxial": dict(E=0.02e9, nu=0.3, mesh=(16, 16), material="neo"),
    "shear": dict(E=0.02e9, nu=0.3, mesh=(16, 16), material="neo"),
}

_FLOAT_KEYS = {"stretch", "shear_factor", "E", "nu", "traction",
               "tolerance", "relaxation"}
_INT_KEYS = {"max_corrections", "load_steps"}


def _parse_mesh(text: str) -> tuple:
    try:
        nx, ny = text.lower().split("x")
        return int(nx), int(ny)
    except ValueError:
        raise ConfigError(f"mesh must look like NXxNY, got {text!r}") from None


def _parse_sweep(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"sweep must be comma-separated integers, got {text!r}") from None


def parse_config(path: str, overrides: dict | None = None) -> CaseConfig:
    """Read a key = value file, apply flag overrides, validate."""
    known = {f.name for f in fields(CaseConfig)}
    raw: dict = {}
    first_line: dict = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in known:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                if key in first_line:
                    raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r} "
                                      f"(first set on line {first_line[key]})")
                first_line[key] = lineno
                raw[key] = value
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None

    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value

    cfg = CaseConfig()
    for key, value in raw.items():
        if key == "mesh":
            value = _parse_mesh(value) if isinstance(value, str) else value
        elif key == "sweep":
            value = _parse_sweep(value) if isinstance(value, str) else value
        elif isinstance(value, str) and key in _FLOAT_KEYS:
            try:
                value = float(value)
            except ValueError:
                raise ConfigError(f"config key {key!r} needs a number, got {value!r}") from None
        elif isinstance(value, str) and key in _INT_KEYS:
            try:
                value = int(value)
            except ValueError:
                raise ConfigError(f"config key {key!r} needs an integer, got {value!r}") from None
        elif key == "dump_matrix" and isinstance(value, str):
            value = value.lower() in ("1", "true", "yes")
        setattr(cfg, key, value)

    _validate(cfg)
    return cfg


def _validate(cfg: CaseConfig) -> None:
    if cfg.case not in CASES:
        raise ConfigError(f"config needs case = one of {', '.join(CASES)}")
    if cfg.method not in METHODS:
        raise ConfigError(f"unknown method {cfg.method!r}")
    for key, least in (("load_steps", 1), ("max_corrections", 0)):
        if getattr(cfg, key) < least:
            raise ConfigError(f"{key!r} must be at least {least}, got {getattr(cfg, key)}")
    for key in ("tolerance", "relaxation"):
        value = getattr(cfg, key)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{key!r} must be finite and positive, got {value}")
    for key in ("stretch", "shear_factor", "traction"):
        value = getattr(cfg, key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key!r} must be finite, got {value}")
    if min(cfg.mesh, default=1) < 1:
        raise ConfigError("'mesh' needs at least one cell per direction, "
                          f"got {'x'.join(map(str, cfg.mesh))}")
    if min(cfg.sweep, default=1) < 1:
        raise ConfigError("'sweep' sizes must be at least 1, "
                          f"got {','.join(map(str, cfg.sweep))}")
    defaults = _CASE_DEFAULTS[cfg.case]
    if not cfg.mesh:
        cfg.mesh = defaults["mesh"]
    if cfg.E is None:
        cfg.E = defaults["E"]
    if cfg.nu is None:
        cfg.nu = defaults["nu"]
    if not cfg.material:
        cfg.material = defaults["material"]
    if not (math.isfinite(cfg.E) and cfg.E > 0):
        raise ConfigError(f"'E' must be finite and positive, got {cfg.E}")
    if not -1 < cfg.nu < 0.5:
        raise ConfigError(f"'nu' must lie in (-1, 0.5), got {cfg.nu}")
    if cfg.case == "uniaxial" and cfg.stretch is None:
        raise ConfigError("case 'uniaxial' requires key 'stretch'")
    if cfg.case == "uniaxial" and cfg.stretch <= 0:
        raise ConfigError("'stretch' must be positive")
    if cfg.bc not in (DISPLACEMENT, TRACTION):
        raise ConfigError(f"unknown bc {cfg.bc!r}")
    if cfg.material not in ("neo", "linear"):
        raise ConfigError(f"unknown material {cfg.material!r}")
    if cfg.case == "cantilever" and cfg.sweep:
        raise ConfigError("cantilever runs take mesh = NXxNY, not sweep")
    if cfg.regime not in ("plane_strain", "plane_stress"):
        raise ConfigError(f"unknown regime {cfg.regime!r}")


# ----------------------------------------------------------------------
# case setup and execution
# ----------------------------------------------------------------------

def _make_material(cfg: CaseConfig):
    lame = lame_from_E_nu(cfg.E, cfg.nu, cfg.regime)
    return NeoHookean(lame) if cfg.material == "neo" else LinearElastic(lame)


def _solve_config(cfg: CaseConfig, out_dir: str) -> SolveConfig:
    return SolveConfig(method=cfg.method, outer_tolerance=cfg.tolerance,
                       max_corrections=cfg.max_corrections,
                       n_load_steps=cfg.load_steps, relaxation=cfg.relaxation,
                       dump_dir=out_dir if cfg.dump_matrix else None)


def _cantilever_bcs(cfg: CaseConfig) -> dict:
    return {
        LEFT: BoundaryCondition(DISPLACEMENT, np.zeros(2)),
        RIGHT: BoundaryCondition(TRACTION, np.array([0.0, cfg.traction])),
        BOTTOM: BoundaryCondition(TRACTION, np.zeros(2)),
        TOP: BoundaryCondition(TRACTION, np.zeros(2)),
    }


def _meshes(cfg: CaseConfig) -> list:
    if cfg.sweep:
        return [(n, n) for n in cfg.sweep]
    return [tuple(cfg.mesh)]


def _mms_case(cfg: CaseConfig) -> MMSCase:
    amplitude = cfg.stretch if cfg.case == "uniaxial" else cfg.shear_factor
    return MMSCase(kind=cfg.case, bc_kind=cfg.bc, amplitude=amplitude)


def run_case(cfg: CaseConfig) -> int:
    """Run every mesh of the configured case and write the artifacts."""
    out_dir = cfg.out
    os.makedirs(out_dir, exist_ok=True)
    material = _make_material(cfg)
    solve_cfg = _solve_config(cfg, out_dir)
    is_mms = cfg.case in ("uniaxial", "shear")

    runs = []
    error_rows = []
    convergence_rows = []
    all_converged = True
    for nx, ny in _meshes(cfg):
        if cfg.case == "cantilever":
            mesh = build_mesh(nx, ny, 2.0, 0.1)
            bcs = _cantilever_bcs(cfg)
        else:
            mesh = build_mesh(nx, ny, 1.0, 1.0)
            bcs = mms_bcs(_mms_case(cfg), material)

        report = run(mesh, material, bcs, solve_cfg)
        all_converged &= report.converged

        entry = {
            "mesh": [nx, ny],
            "converged": report.converged,
            "failure": report.failure,
            "n_corr": report.n_corr,
            "wall_time": report.wall_time,
            "final_residual": (report.residual_history[-1][-1]
                               if report.residual_history and report.residual_history[-1]
                               else None),
        }
        if is_mms:
            metrics = compute_errors(mesh, report.state.displacement, _mms_case(cfg))
            entry.update(error_mean=metrics.mean, error_max=metrics.max,
                         error_min=metrics.min)
            error_rows.append({
                "case": cfg.case, "method": cfg.method, "bc": cfg.bc,
                "nx": nx, "ny": ny, "n_cells": mesh.n_cells,
                "converged": report.converged,
                "n_corr": report.total_corrections,
                "mean_error": metrics.mean, "max_error": metrics.max,
                "min_error": metrics.min,
            })
        else:
            deflection = _end_deflection(mesh, report)
            analytic = cantilever_deflection(cfg.E, cfg.nu, 2.0,
                                             cfg.traction * 0.1, 0.1 ** 3 / 12.0)
            entry.update(deflection=deflection, deflection_analytic=analytic,
                         deflection_rel_error=abs(deflection - analytic) / analytic)
        runs.append(entry)

        for step, history in enumerate(report.residual_history):
            for k, value in enumerate(history):
                convergence_rows.append({"nx": nx, "ny": ny, "load_step": step,
                                         "correction": k, "residual": value})

        suffix = f"_{nx}x{ny}" if cfg.sweep else ""
        output.write_vtk(os.path.join(out_dir, f"deformed{suffix}.vtk"),
                         mesh, report.state.displacement)

    report_doc = {
        "case": cfg.case, "method": cfg.method, "bc": cfg.bc,
        "mesh": list(_meshes(cfg)[0]) if not cfg.sweep else None,
        "sweep": list(cfg.sweep) or None,
        "converged": all_converged,
        "runs": runs,
    }
    output.write_report(os.path.join(out_dir, "report.json"), report_doc)
    output.write_csv(os.path.join(out_dir, "convergence.csv"),
                     output.CONVERGENCE_COLUMNS, convergence_rows)
    if is_mms:
        output.write_csv(os.path.join(out_dir, "errors.csv"),
                         output.ERRORS_COLUMNS, error_rows)
    return 0 if all_converged else 2


def _end_deflection(mesh: CartesianMesh, report: RunReport) -> float:
    faces = mesh.patch_faces(RIGHT)
    rows = mesh.n_cells + mesh.face_boundary_index[faces]
    return float(report.state.displacement[rows, 1].mean())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fvsolid", description="finite-volume solid mechanics runner")
    parser.add_argument("--config", required=True, help="key = value case file")
    parser.add_argument("--method", choices=METHODS, default=None)
    parser.add_argument("--mesh", default=None, help="NXxNY override")
    parser.add_argument("--sweep", default=None, help="comma-separated square mesh sizes")
    parser.add_argument("--dump-matrix", action="store_true", default=None,
                        help="write A.mtx and R.mtx of the first correction")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    overrides = {"method": args.method, "mesh": args.mesh, "sweep": args.sweep,
                 "out": args.out, "dump_matrix": args.dump_matrix}
    try:
        cfg = parse_config(args.config, overrides)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        return run_case(cfg)
    except (OSError, RigidBodyModeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
