"""Command-line runner.

Usage:
    fvsolid --config case.cfg [--method nlbc|bc|seg] [--mesh NXxNY]
            [--sweep n1,n2,...] [--dump-matrix] [--out dir]

The config file is flat ``key = value`` text (# starts a comment), each
key at most once.  Each case refuses the keys only other cases read:

- ``cantilever``: end-loaded 2 x 0.1 beam judged against the analytic end
  deflection of its regime; takes ``traction`` (nonzero end load)
- ``uniaxial``: homogeneous stretch of the unit square; takes ``stretch``
  (required), ``bc`` and ``sweep``
- ``shear``: homogeneous simple shear of the unit square; takes
  ``shear_factor`` (default 0.45), ``bc`` and ``sweep``

Flags override file values.  Artifacts land in the output directory:
report.json, convergence.csv, errors.csv (manufactured cases), one
deformed*.vtk per mesh, and A.mtx/R.mtx with --dump-matrix (the first
correction of the first mesh).  Exit status:
0 converged, 1 usage error, bad configuration or I/O failure,
2 divergence reported.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import typing
from dataclasses import dataclass, replace

from . import output
from .assembly import DISPLACEMENT
from .material import LinearElastic, NeoHookean, lame_from_E_nu
from .mesh import build_mesh
from .solver import METHODS, SolveConfig, run
from .verification import CASES


class ConfigError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise ConfigError: exit 1 with one line, not argparse's
    exit 2, which means a reported divergence here."""

    def error(self, message):
        raise ConfigError(message)


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


_MATERIALS = {"neo": NeoHookean, "linear": LinearElastic}
_BOOLEANS = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}


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


_PARSERS = {"mesh": _parse_mesh, "sweep": _parse_sweep}
_NUMBERS = {float: "a number", int: "an integer"}


def parse_config(path: str, overrides: dict | None = None) -> CaseConfig:
    """Read a key = value file, apply flag overrides (text, as in the
    file), validate."""
    types = typing.get_type_hints(CaseConfig)
    raw: dict = {}
    first_line: dict = {}
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in types:
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
    for key, text in raw.items():
        kind = types[key]
        if key in _PARSERS:
            value = _PARSERS[key](text)
        elif kind is bool:
            if text.lower() not in _BOOLEANS:
                raise ConfigError(f"config key {key!r} needs one of "
                                  f"{'/'.join(_BOOLEANS)}, got {text!r}")
            value = _BOOLEANS[text.lower()]
        elif kind in _NUMBERS:
            try:
                value = kind(text)
            except ValueError:
                raise ConfigError(f"config key {key!r} needs {_NUMBERS[kind]}, "
                                  f"got {text!r}") from None
        else:
            value = text
        setattr(cfg, key, value)

    _validate(cfg, set(raw))
    return cfg


def _validate(cfg: CaseConfig, given: set) -> None:
    if cfg.case not in CASES:
        raise ConfigError(f"config needs case = one of {', '.join(CASES)}")
    case = CASES[cfg.case]
    others = {key for other in CASES.values() for key in other.keys} - set(case.keys)
    for key in sorted(others & given):
        raise ConfigError(f"case {cfg.case!r} does not take key {key!r}")
    if cfg.method not in METHODS:
        raise ConfigError(f"unknown method {cfg.method!r}")
    if not cfg.out:
        raise ConfigError("'out' must name a directory, got ''")
    for key, least in (("load_steps", 1), ("max_corrections", 0)):
        if getattr(cfg, key) < least:
            raise ConfigError(f"{key!r} must be at least {least}, got {getattr(cfg, key)}")
    for key in ("tolerance", "relaxation"):
        value = getattr(cfg, key)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{key!r} must be finite and positive, got {value}")
    if cfg.tolerance >= 1:
        # The first normalised residual is at most 1: it would pass unsolved.
        raise ConfigError(f"'tolerance' must be below 1, got {cfg.tolerance}")
    if min(cfg.mesh, default=1) < 1:
        raise ConfigError("'mesh' needs at least one cell per direction, "
                          f"got {'x'.join(map(str, cfg.mesh))}")
    if min(cfg.sweep, default=1) < 1:
        raise ConfigError("'sweep' sizes must be at least 1, "
                          f"got {','.join(map(str, cfg.sweep))}")
    if len(set(cfg.sweep)) < len(cfg.sweep):
        # A repeated size would overwrite its VTK and repeat its report rows.
        raise ConfigError("'sweep' sizes must be distinct, "
                          f"got {','.join(map(str, cfg.sweep))}")
    if {"mesh", "sweep"} <= given:
        raise ConfigError("give 'mesh' or 'sweep', not both")
    for key in ("mesh", "E", "nu", "material"):
        if getattr(cfg, key) in (None, "", ()):
            setattr(cfg, key, getattr(case, key))
    for key in case.keys:
        value = getattr(cfg, key)
        if value is None:
            raise ConfigError(f"case {cfg.case!r} requires key {key!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key!r} must be finite, got {value}")
    try:
        lame_from_E_nu(cfg.E, cfg.nu, cfg.regime)     # first: a check may use them
        case.check(cfg)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    if cfg.material not in _MATERIALS:
        raise ConfigError(f"unknown material {cfg.material!r}")
    if cfg.regime == "plane_stress" and cfg.material == "neo":
        # The neo-Hookean law is the plane-strain one; plane stress would
        # need S33 = 0 through the thickness stretch.
        raise ConfigError("regime 'plane_stress' needs material = linear: "
                          "the neo-Hookean law is plane strain only")


# ----------------------------------------------------------------------
# case setup and execution
# ----------------------------------------------------------------------

def run_case(cfg: CaseConfig) -> int:
    """Run every mesh of the configured case and write the artifacts."""
    case = CASES[cfg.case]
    material = _MATERIALS[cfg.material](lame_from_E_nu(cfg.E, cfg.nu, cfg.regime))
    solve_cfg = SolveConfig(method=cfg.method, outer_tolerance=cfg.tolerance,
                            max_corrections=cfg.max_corrections,
                            n_load_steps=cfg.load_steps, relaxation=cfg.relaxation,
                            dump_dir=cfg.out if cfg.dump_matrix else None)

    runs = []
    error_rows = []
    convergence_rows = []
    all_converged = True
    for nx, ny in [(n, n) for n in cfg.sweep] or [cfg.mesh]:
        mesh = build_mesh(nx, ny, *case.domain)
        report = run(mesh, material, case.bcs(cfg, material), solve_cfg)
        # A.mtx/R.mtx hold the first mesh's first correction.
        solve_cfg = replace(solve_cfg, dump_dir=None)
        all_converged &= report.converged
        quantities, errors = case.reference(mesh, report.state.displacement, cfg)
        runs.append({
            "mesh": [nx, ny],
            "converged": report.converged,
            "failure": report.failure,
            "n_corr": report.n_corr,
            "wall_time": report.wall_time,
            "final_residual": (report.residual_history[-1][-1]
                               if report.residual_history and report.residual_history[-1]
                               else None),
            **quantities,
        })
        if errors is not None:
            error_rows.append({
                "case": cfg.case, "method": cfg.method, "bc": cfg.bc,
                "nx": nx, "ny": ny, "n_cells": mesh.n_cells,
                "converged": report.converged,
                "n_corr": report.total_corrections, **errors,
            })

        for step, history in enumerate(report.residual_history):
            for k, value in enumerate(history):
                convergence_rows.append({"nx": nx, "ny": ny, "load_step": step,
                                         "correction": k, "residual": value})

        suffix = f"_{nx}x{ny}" if cfg.sweep else ""
        output.write_vtk(os.path.join(cfg.out, f"deformed{suffix}.vtk"),
                         mesh, report.state.displacement)

    report_doc = {
        "case": cfg.case, "method": cfg.method, "bc": cfg.bc,
        "mesh": list(cfg.mesh) if not cfg.sweep else None,
        "sweep": list(cfg.sweep) or None,
        "converged": all_converged,
        "runs": runs,
    }
    output.write_report(os.path.join(cfg.out, "report.json"), report_doc)
    output.write_csv(os.path.join(cfg.out, "convergence.csv"),
                     output.CONVERGENCE_COLUMNS, convergence_rows)
    if error_rows:
        output.write_csv(os.path.join(cfg.out, "errors.csv"),
                         output.ERRORS_COLUMNS, error_rows)
    return 0 if all_converged else 2


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="fvsolid", description="finite-volume solid mechanics runner")
    parser.add_argument("--config", required=True, help="key = value case file")
    parser.add_argument("--method", default=None, help=" | ".join(METHODS))
    parser.add_argument("--mesh", default=None, help="NXxNY override")
    parser.add_argument("--sweep", default=None, help="comma-separated square mesh sizes")
    parser.add_argument("--dump-matrix", action="store_const", const="true",
                        help="write A.mtx and R.mtx of the first correction")
    parser.add_argument("--out", default=None, help="output directory")
    try:
        args = parser.parse_args(argv)
        return run_case(parse_config(args.config, {
            "method": args.method, "mesh": args.mesh, "sweep": args.sweep,
            "out": args.out, "dump_matrix": args.dump_matrix}))
    # A bad flag or file, or a run refused: a rigid-body mode, a bad boundary value.
    except (ConfigError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
