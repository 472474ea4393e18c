"""Config parsing, artifact layout, and exit codes of the command-line runner."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import re
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.io
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvsolid import cli, linsolve
from fvsolid import (MMSCase, SolveConfig, build_mesh, cantilever_deflection,
                     lame_from_E_nu, mms_bcs, run)
from fvsolid.assembly import assemble_system, build_boundary_table, face_states
from fvsolid.cli import CaseConfig, ConfigError, main, parse_config, run_case
from fvsolid.kinematics import zero_state
from fvsolid.material import NeoHookean
from fvsolid.verification import CASES
from tests.test_acceptance import solve_cantilever
from tests.test_solver import fail_factorisation


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def test_parse_config_defaults_per_case(tmp_path):
    path = write_cfg(tmp_path, """
        # end-loaded beam
        case = cantilever
        method = nlbc
    """)
    cfg = parse_config(path)
    assert cfg.case == "cantilever"
    assert cfg.mesh == (100, 5)
    assert cfg.E == 200e9 and cfg.nu == 0.3
    assert cfg.material == "linear"
    assert cfg.tolerance == 1e-7


# Integer-looking text on purpose: a float key must still parse to a float.
NUMERIC_TEXT = {"stretch": "2", "shear_factor": "1", "traction": "5", "E": "20000000",
                "nu": "0", "tolerance": "1e-6", "max_corrections": "50",
                "load_steps": "3", "relaxation": "1"}


def test_parse_config_values_and_comments(tmp_path):
    path = write_cfg(tmp_path, """
        case = uniaxial
        stretch = 0.65     # compression run
        mesh = 32x16
        bc = displacement
        max_corrections = 50
        relaxation = 0.8
        dump_matrix = true
    """)
    cfg = parse_config(path)
    assert cfg.stretch == 0.65
    assert cfg.mesh == (32, 16)
    assert cfg.max_corrections == 50
    assert cfg.relaxation == 0.8
    assert cfg.dump_matrix is True
    assert cfg.material == "neo"
    # every numeric field parses to its annotated type, in the case that
    # reads it; the shared keys in every case
    hints = typing.get_type_hints(CaseConfig)
    assert set(NUMERIC_TEXT) == {k for k, t in hints.items() if t in (float, int)}
    case_keys = {key for case in CASES.values() for key in case.keys}
    for name, case in CASES.items():
        keys = [k for k in NUMERIC_TEXT if k not in case_keys or k in case.keys]
        text = f"case = {name}\n" + "".join(f"{k} = {NUMERIC_TEXT[k]}\n" for k in keys)
        cfg = parse_config(write_cfg(tmp_path, text, f"{name}.cfg"))
        for key in keys:
            value = getattr(cfg, key)
            assert type(value) is hints[key], key
            assert value == hints[key](NUMERIC_TEXT[key])


@pytest.mark.parametrize("text,value", [
    ("true", True), ("YES", True), ("1", True), ("False", False), ("no", False), ("0", False)])
def test_parse_config_dump_matrix_words(tmp_path, text, value):
    path = write_cfg(tmp_path, f"case = shear\ndump_matrix = {text}\n")
    assert parse_config(path).dump_matrix is value


def test_overrides_beat_file_values(tmp_path):
    path = write_cfg(tmp_path, "case = shear\nmethod = nlbc\n")
    cfg = parse_config(path, {"method": "seg", "mesh": "8x8", "out": None})
    assert cfg.method == "seg"
    assert cfg.mesh == (8, 8)
    assert cfg.out == "."          # None overrides are ignored


def test_parse_config_sweep(tmp_path):
    path = write_cfg(tmp_path, "case = shear\nsweep = 3,8,16\n")
    assert parse_config(path).sweep == (3, 8, 16)


@pytest.mark.parametrize("text,message", [
    ("case = uniaxial\nstretch = 2\nwidth = 3\n", "unknown config key 'width'"),
    ("case = uniaxial\nstretch 2\n", "expected key = value"),
    ("case = uniaxial\nstretch = tall\n", "needs a number"),
    ("case = uniaxial\nstretch = 2\nmax_corrections = few\n", "needs an integer"),
    ("case = uniaxial\nstretch = 2\nmesh = 16by16\n", "mesh must look like NXxNY"),
    ("case = uniaxial\nstretch = 2\nsweep = 3;8\n", "comma-separated integers"),
    ("method = nlbc\n", "config needs case"),
    ("case = twisting\n", "config needs case"),
    ("case = shear\nmethod = fem\n", "unknown method 'fem'"),
    ("case = uniaxial\n", "requires key 'stretch'"),
    ("case = uniaxial\nstretch = -1\n", "'stretch' must be positive"),
    ("case = shear\nbc = symmetry\n", "unknown bc"),
    ("case = shear\nmaterial = rubber\n", "unknown material"),
    ("case = cantilever\nsweep = 3,8\n", "case 'cantilever' does not take key 'sweep'"),
    ("case = cantilever\nbc = traction\n", "case 'cantilever' does not take key 'bc'"),
    ("case = cantilever\nstretch = 5\n", "case 'cantilever' does not take key 'stretch'"),
    ("case = shear\ntraction = 5\n", "case 'shear' does not take key 'traction'"),
    ("case = uniaxial\nstretch = 2\nshear_factor = 0.1\n",
     "case 'uniaxial' does not take key 'shear_factor'"),
    ("case = cantilever\ntraction = 0\n", "'cantilever' needs a nonzero 'traction'"),
    ("case = cantilever\ntraction = inf\n", "'traction' must be finite"),
    ("case = cantilever\ntraction = 1e-320\n",
     "reference deflection does not underflow to 0, got 1e-320"),
    ("case = shear\nregime = beam\n", "unknown regime"),
    ("case = shear\nE = -1\n", "E must be finite and positive, got -1.0"),
    ("case = uniaxial\nstretch = 1.5\nmesh = 4x4\nE = 5e-324\n",
     "E must not be subnormal .*got 5e-324"),
    ("case = cantilever\nmesh = 4x2\nE = 1e-320\n", "E must not be subnormal .*got 1e-320"),
    ("case = cantilever\nmesh = 4x2\nE = 1e-300\n",
     "needs a reference deflection that does not overflow, got inf from E = 1e-300"),
    ("case = shear\nnu = 0.5\n", r"nu must lie in \(-1, 0\.5\), got 0\.5"),
    ("case = shear\nregime = plane_stress\n", "'plane_stress' needs material = linear"),
    ("case = shear\nrho0 = 1000\n", "unknown config key 'rho0'"),
    ("case = shear\nlinear_solver = direct\n", "unknown config key 'linear_solver'"),
    ("case = uniaxial\nstretch = nan\n", "'stretch' must be finite"),
    ("case = shear\nmesh = 0x4\n", "'mesh' needs at least one cell per direction, got 0x4"),
    ("case = shear\nsweep = 0,4\n", "'sweep' sizes must be at least 1, got 0,4"),
    ("case = shear\nsweep = 4,3,4\n", "'sweep' sizes must be distinct, got 4,3,4"),
    ("case = uniaxial\nstretch = 1e-300\n",
     r"'stretch' must be positive, got 1e-300, and not so small that 1 \+ \(stretch - 1\)"),
    ("case = uniaxial\nstretch = 1.2\nmesh = 5x3\nsweep = 3,4\n",
     "give 'mesh' or 'sweep', not both"),
    ("case = shear\ntolerance = -1\n", "'tolerance' must be finite and positive"),
    ("case = shear\ntolerance = 1\n", "'tolerance' must be below 1, got 1.0"),
    ("case = uniaxial\nstretch = 1.5\ntolerance = 2\n", "'tolerance' must be below 1, got 2.0"),
    ("case = shear\nrelaxation = 0\n", "'relaxation' must be finite and positive"),
    ("case = uniaxial\nstretch = 2\nstretch = 3\n",
     r"case\.cfg:3: duplicate config key 'stretch' \(first set on line 2\)"),
    ("case = shear\ndump_matrix = ture\n", "'dump_matrix' needs one of .*got 'ture'"),
    ("case = shear\ndump_matrix = junk\n", "'dump_matrix' needs one of .*got 'junk'"),
    ("case = shear\ndump_matrix =\n", "'dump_matrix' needs one of .*got ''"),
])
def test_parse_config_rejects(tmp_path, text, message):
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match=message):
        parse_config(path)


def test_parse_config_reports_line_numbers(tmp_path):
    path = write_cfg(tmp_path, "case = shear\n\nbogus = 1\n")
    with pytest.raises(ConfigError, match=r"case\.cfg:3: unknown config key"):
        parse_config(path)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(str(tmp_path / "absent.cfg"))


# ---------------------------------------------------------------------------
# running cases and artifacts
# ---------------------------------------------------------------------------


def test_run_case_writes_mms_artifacts(tmp_path):
    out = tmp_path / "artifacts"
    path = write_cfg(tmp_path, f"""
        case = shear
        mesh = 8x8
        out = {out}
    """)
    assert run_case(parse_config(path)) == 0

    report = json.loads((out / "report.json").read_text())
    assert report["case"] == "shear"
    assert report["converged"] is True
    assert report["mesh"] == [8, 8]
    assert report["sweep"] is None
    (entry,) = report["runs"]
    assert entry["n_corr"] == [1]
    assert entry["error_mean"] < 1e-12
    assert entry["final_residual"] < 1e-7

    errors = (out / "errors.csv").read_text().splitlines()
    assert len(errors) == 2
    assert errors[1].startswith("shear,nlbc,displacement,8,8,64,true,1,")

    convergence = (out / "convergence.csv").read_text().splitlines()
    assert convergence[0] == "nx,ny,load_step,correction,residual"
    assert len(convergence) == 1 + 2      # initial defect + converged entry
    assert (out / "deformed.vtk").exists()


def test_run_case_sweep_artifacts(tmp_path):
    out = tmp_path / "sweep"
    path = write_cfg(tmp_path, f"""
        case = uniaxial
        stretch = 1.3
        sweep = 3,4
        out = {out}
    """)
    assert run_case(parse_config(path)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mesh"] is None
    assert report["sweep"] == [3, 4]
    assert [r["mesh"] for r in report["runs"]] == [[3, 3], [4, 4]]
    assert (out / "deformed_3x3.vtk").exists()
    assert (out / "deformed_4x4.vtk").exists()
    assert not (out / "deformed.vtk").exists()
    errors = (out / "errors.csv").read_text().splitlines()
    assert len(errors) == 3


def test_run_case_cantilever_report(tmp_path):
    out = tmp_path / "beam"
    path = write_cfg(tmp_path, f"""
        case = cantilever
        mesh = 30x3
        out = {out}
    """)
    assert run_case(parse_config(path)) == 0
    report = json.loads((out / "report.json").read_text())
    (entry,) = report["runs"]
    assert entry["n_corr"] == [1]
    assert entry["deflection_analytic"] == pytest.approx(14.56e-3, rel=1e-3)
    assert 0.0 < entry["deflection"] < 2.0 * entry["deflection_analytic"]
    assert entry["deflection_rel_error"] < 0.5
    assert not (out / "errors.csv").exists()


def test_default_cantilever_reports_criterion_1(tmp_path):
    """The default cantilever (100x5, nlbc, 1e6 Pa) writes the error that
    criterion 1 computes from its own literal mesh, load and reference."""
    path = write_cfg(tmp_path, f"case = cantilever\nout = {tmp_path / 'beam'}\n")
    assert run_case(parse_config(path)) == 0
    (entry,) = json.loads((tmp_path / "beam" / "report.json").read_text())["runs"]
    assert entry["mesh"] == [100, 5]
    _, deflection = solve_cantilever(100, 5, "nlbc")
    analytic = cantilever_deflection(200e9, 0.3, 2.0, 1e6 * 0.1, 0.1 ** 3 / 12.0)
    assert entry["deflection_rel_error"] == pytest.approx(
        abs(deflection - analytic) / analytic, rel=1e-12, abs=0.0)


def test_cantilever_reference_follows_the_regime(tmp_path):
    """Under plane stress the reference is P L^3 / (3 E I), not the
    plane-strain E / (1 - nu^2) one: the default beam then sits 1.3 %
    from it instead of 8.5 %."""
    out = tmp_path / "stress"
    path = write_cfg(tmp_path, f"""
        case = cantilever
        regime = plane_stress
        out = {out}
    """)
    assert run_case(parse_config(path)) == 0
    (entry,) = json.loads((out / "report.json").read_text())["runs"]
    assert entry["deflection_analytic"] == pytest.approx(16.00e-3, rel=1e-3)
    assert entry["deflection_rel_error"] < 0.02


def test_cantilever_error_ignores_the_load_sign(tmp_path):
    """A downward end load gives the upward one's relative error, measured
    against |analytic|, not a negative one."""
    errors = []
    for name, traction in (("up", 1e6), ("down", -1e6)):
        out = tmp_path / name
        path = write_cfg(tmp_path, f"""
            case = cantilever
            mesh = 30x3
            traction = {traction}
            out = {out}
        """, name=f"{name}.cfg")
        assert run_case(parse_config(path)) == 0
        (entry,) = json.loads((out / "report.json").read_text())["runs"]
        errors.append(entry["deflection_rel_error"])
    assert errors[0] > 0.0
    assert errors[1] == pytest.approx(errors[0], rel=1e-12)


def test_run_case_reports_divergence_with_exit_2(tmp_path):
    out = tmp_path / "diverged"
    path = write_cfg(tmp_path, f"""
        case = uniaxial
        stretch = 2
        bc = traction
        method = seg
        mesh = 8x8
        max_corrections = 15
        out = {out}
    """)
    assert run_case(parse_config(path)) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    (entry,) = report["runs"]
    assert entry["failure"] == "no convergence within 15 corrections"
    # artifacts of the failed run still land for inspection
    assert (out / "convergence.csv").exists()
    assert (out / "deformed.vtk").exists()


@pytest.mark.parametrize("method", ["nlbc", "bc"])
def test_main_reports_a_failed_linear_solve_with_exit_2(tmp_path, monkeypatch, method):
    """A factorisation that fails ends the run: exit 2, and report.json
    carries the failure that names the cause."""
    monkeypatch.setattr(linsolve, "factorise", fail_factorisation)
    out = tmp_path / "singular"
    path = write_cfg(tmp_path, f"""
        case = uniaxial
        bc = traction
        stretch = 1.3
        method = {method}
        mesh = 8x8
        load_steps = 2
    """)
    assert main(["--config", path, "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    (entry,) = report["runs"]
    assert entry["failure"] == ("linear solve failed: LU factorisation failed: "
                                "Factor is exactly singular")
    assert entry["n_corr"] == [0]


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_huge_modulus_converges_with_finite_report(tmp_path):
    """At E = 1e300 the squares of a plain 2-norm overflow: the post-check
    read backward error NaN, the run exited 2 and the report held NaN."""
    out = tmp_path / "huge"
    path = write_cfg(tmp_path, "case = shear\nmesh = 4x4\nE = 1e300\n")
    assert main(["--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(), parse_constant=reject_constant)
    (entry,) = report["runs"]
    assert entry["converged"] and entry["final_residual"] < 1e-7


@pytest.mark.parametrize("method", ["nlbc", "bc", "seg"])
def test_overflowing_prescribed_stretch_reports_non_finite(tmp_path, capsys, method):
    """At stretch 1e306 the prescribed defect times mu overflows the
    residual's weighted rows.  The run exits 2 with nothing on stderr (no
    RuntimeWarning: pytest makes one an error) and the failure in the
    report."""
    out = tmp_path / "out"
    path = write_cfg(tmp_path, f"case = uniaxial\nbc = displacement\nstretch = 1e306\n"
                               f"mesh = 3x3\nmethod = {method}\n")
    assert main(["--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    (entry,) = json.loads((out / "report.json").read_text())["runs"]
    assert not entry["converged"] and entry["failure"]


@pytest.mark.parametrize("bc", ["displacement", "traction"])
@pytest.mark.parametrize("method", ["nlbc", "bc", "seg"])
@pytest.mark.parametrize("E", ["5e307", "1e308", "1.7e308"])
def test_huge_moduli_are_refused(tmp_path, capsys, E, method, bc):
    """A modulus whose 2 mu + lam would overflow the solver's coefficients
    (the coupled matrix, seg's operator, the face linearisation) is refused
    before the first write: exit 1 and one line naming E."""
    path = write_cfg(tmp_path, f"case = uniaxial\nbc = {bc}\nstretch = 1.5\nE = {E}\n"
                               f"mesh = 3x3\nmethod = {method}\n")
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: Young's modulus E = {float(E)} ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_load_that_dwarfs_the_modulus_is_not_an_inversion(tmp_path):
    """At E = 1e-150 the default beam load overflows det(F) after the first
    correction.  The run exits 2 naming a non-finite state, with no
    RuntimeWarning on the way (pytest makes one an error); it used to name
    an inverted element with det(F) = nan."""
    out = tmp_path / "tiny"
    path = write_cfg(tmp_path, "case = cantilever\nmaterial = neo\nmesh = 4x4\nE = 1e-150\n")
    assert main(["--config", path, "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text(), parse_constant=reject_constant)
    (entry,) = report["runs"]
    assert entry["failure"] == "non-finite deformation: det(F) = nan at cell 0"


def test_run_case_reruns_are_byte_identical(tmp_path):
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        path = write_cfg(tmp_path, f"""
            case = shear
            mesh = 8x8
            out = {out}
        """, name=f"{name}.cfg")
        assert run_case(parse_config(path)) == 0
        outs.append(out)
    for artifact in ("convergence.csv", "errors.csv", "deformed.vtk"):
        a = (outs[0] / artifact).read_bytes()
        b = (outs[1] / artifact).read_bytes()
        assert a == b, f"{artifact} differs between identical runs"


def test_dump_matrix_writes_loadable_system(tmp_path):
    n = 16 + 16                 # cells + boundary faces
    # nlbc dumps the two-component block system, seg the scalar operator both
    # components share
    for method, rows in (("nlbc", 2 * n), ("seg", n)):
        out = tmp_path / method
        path = write_cfg(tmp_path, f"""
            case = shear
            mesh = 4x4
            method = {method}
            dump_matrix = true
            out = {out}
        """)
        assert run_case(parse_config(path)) == 0
        matrix = scipy.io.mmread(out / "A.mtx").tocsr()
        assert matrix.shape == (rows, rows)
        rhs = np.asarray(scipy.io.mmread(out / "R.mtx")).ravel()
        assert rhs.shape == (rows,)
        assert np.isfinite(rhs).all()


def test_sweep_dumps_the_first_mesh_system(tmp_path):
    """A sweep's A.mtx is the first mesh's first correction, not the last
    mesh's: 2 (9 cells + 12 boundary faces) rows for sweep = 3,4."""
    out = tmp_path / "sweep"
    path = write_cfg(tmp_path, f"""
        case = uniaxial
        stretch = 1.3
        sweep = 3,4
        dump_matrix = true
        out = {out}
    """)
    assert run_case(parse_config(path)) == 0
    assert scipy.io.mmread(out / "A.mtx").shape == (42, 42)
    assert np.asarray(scipy.io.mmread(out / "R.mtx")).shape == (42, 1)


def test_dump_matrix_is_the_natural_order_system(tmp_path):
    """nlbc on a displacement-driven stretch dumps the first correction's
    matrix as ``assemble_system`` returns it at the zero state, entry for
    entry and in A's own order (not P A P^T): the stored zeros of the
    displacement rows included."""
    out = tmp_path / "dump"
    path = write_cfg(tmp_path, f"""
        case = uniaxial
        stretch = 1.5
        bc = displacement
        mesh = 4x4
        dump_matrix = true
        out = {out}
    """)
    cfg = parse_config(path)
    assert run_case(cfg) == 0
    mesh = build_mesh(4, 4, 1.0, 1.0)
    material = NeoHookean(lame_from_E_nu(cfg.E, cfg.nu))
    table = build_boundary_table(
        mesh, mms_bcs(MMSCase("uniaxial", "displacement", 1.5), material))
    f_face, _ = face_states(mesh, material, zero_state(mesh))
    expected = assemble_system(mesh, material, table, f_face).tocoo()
    dumped = scipy.io.mmread(out / "A.mtx")

    def entries(matrix):
        key = np.lexsort((matrix.row, matrix.col))
        return matrix.row[key], matrix.col[key], matrix.data[key]

    for got, want in zip(entries(dumped), entries(expected)):
        npt.assert_array_equal(got, want)


def test_seg_dump_solves_to_the_first_x_increment(tmp_path):
    """seg on a traction-driven stretch dumps the shared scalar operator,
    identity rows on every boundary face, and the x-component's stepped
    right-hand side: solving it gives the x-displacement after the first
    (unrelaxed) correction."""
    out = tmp_path / "dump"
    path = write_cfg(tmp_path, f"""
        case = uniaxial
        stretch = 1.2
        bc = traction
        mesh = 6x5
        method = seg
        relaxation = 1.0
        max_corrections = 1
        dump_matrix = true
        out = {out}
    """)
    cfg = parse_config(path)
    assert run_case(cfg) == 2           # one correction does not converge
    mesh = build_mesh(6, 5, 1.0, 1.0)
    material = NeoHookean(lame_from_E_nu(cfg.E, cfg.nu))
    report = run(mesh, material, mms_bcs(MMSCase("uniaxial", "traction", 1.2), material),
                 SolveConfig(method="seg", relaxation=1.0, max_corrections=1))
    assert report.n_corr == [1]
    matrix = scipy.io.mmread(out / "A.mtx").tocsr()
    boundary = matrix[mesh.n_cells:]
    npt.assert_array_equal(boundary.toarray(), np.eye(mesh.n_unknowns)[mesh.n_cells:])
    rhs = np.asarray(scipy.io.mmread(out / "R.mtx")).ravel()
    x = spla.spsolve(matrix.tocsc(), rhs)
    expected = report.state.displacement[:, 0]
    npt.assert_allclose(x, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def test_main_runs_with_flag_overrides(tmp_path):
    out = tmp_path / "cli"
    path = write_cfg(tmp_path, "case = shear\nmesh = 16x16\n")
    code = main(["--config", path, "--mesh", "8x8", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mesh"] == [8, 8]


def test_main_reports_config_errors(tmp_path, capsys):
    path = write_cfg(tmp_path, "case = uniaxial\n")
    assert main(["--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "stretch" in err


@pytest.mark.parametrize("line", [
    "linear_solver = foo",
    "linear_solver = auto",
    "load_steps = 0",
    "nu = 0.5",
    "nu = -1",
    "E = nan",
    "E = 0",
    "sweep = 0,4",
    "tolerance = -1",
    "tolerance = nan",
    "tolerance = 1",
    "tolerance = 2",
    "relaxation = 0",
    "mesh = 8x8",       # a second mesh key
    "gmres_restart = 0",
    "linear_max_iterations = 0",
    "linear_tolerance = -1",
    "linear_tolerance = nan",
    "max_corrections = -1",
    "linear_solver = direct",
    "stretch = nan",
    "stretch = inf",
    "shear_factor = nan",
    "traction = inf",
    "traction = 5",     # a cantilever key
    "bc = foo",
    "regime = plane_stress",    # with the shear case's neo-Hookean default
])
def test_main_rejects_bad_solver_settings(tmp_path, capsys, line):
    path = write_cfg(tmp_path, f"case = shear\nmesh = 4x4\n{line}\n")
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_main_rejects_beam_with_free_rotation(tmp_path, capsys):
    """A one-cell-deep cantilever is clamped at a single face, which leaves
    the rotation about it free: exit 1 with one line, not 200 corrections
    to a meaningless answer."""
    path = write_cfg(tmp_path, "case = cantilever\nmesh = 10x1\n")
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rigid-body mode" in err
    assert len(err.splitlines()) == 1


def test_main_rejects_overflowing_exact_traction(tmp_path, capsys):
    """At stretch 1e305 the manufactured traction overflows: exit 1 with the
    boundary table's one line, and no RuntimeWarning on the way (pytest
    makes one an error).  It used to warn three times and exit 2 on a
    backward error nan."""
    path = write_cfg(tmp_path, "case = uniaxial\nbc = traction\nstretch = 1e305\nmesh = 4x4\n")
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("error: traction value on patch 1 at load "
                                       "factor 1 must be finite, got inf\n")


def test_main_rejects_beam_load_below_its_reference(tmp_path, capsys):
    """A cantilever load so small that its thin-beam deflection underflows
    to 0 leaves the relative error undefined: exit 1 with one line before
    any solve, not a ZeroDivisionError after it."""
    path = write_cfg(tmp_path, "case = cantilever\nmesh = 4x2\ntraction = 1e-320\n")
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "underflow" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_parse_config_rejects_undecodable_file(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_bytes(b"case = shear\nout = \xff\n")
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(str(path))


def test_parse_config_reads_a_byte_order_mark(tmp_path):
    """A file saved as UTF-8 with a byte order mark parses like the plain
    file; the mark used to join the first key ('\\ufeffcase', unknown)."""
    text = "case = shear\nmesh = 4x4\n"
    plain = write_cfg(tmp_path, text)
    marked = tmp_path / "marked.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert parse_config(str(marked)) == parse_config(plain)


REMOVED_KEYS = ("linear_solver", "linear_tolerance", "linear_max_iterations",
                "gmres_restart")
PLAUSIBLE = {"method": "seg", "mesh": "4x4", "sweep": "3,8", "bc": "traction",
             "stretch": "1.5", "shear_factor": "-0.2", "E": "1e6", "nu": "0.3",
             "regime": "plane_stress", "material": "linear", "traction": "-5",
             "tolerance": "1e-8", "max_corrections": "50", "load_steps": "4",
             "relaxation": "1.0", "out": "run", "dump_matrix": "true"}
# Half the keys drawn are loads, so that non-finite loads reach validation.
FUZZ_KEYS = (st.sampled_from(["stretch", "shear_factor", "traction"])
             | st.sampled_from(sorted(PLAUSIBLE) + list(REMOVED_KEYS)))
FUZZ_ENTRY = FUZZ_KEYS.flatmap(
    lambda key: st.tuples(st.just(key), st.one_of(
        st.just(PLAUSIBLE.get(key, "1")),
        st.sampled_from(["nan", "inf", "-inf", "1e400"]),
        st.sampled_from(["", "junk", "0", "-1"]),
        st.text(st.characters(codec="utf-8", exclude_characters="\n\r"),
                max_size=8))))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=st.sampled_from(["uniaxial", "shear", "cantilever", "junk"]),
       entries=st.lists(FUZZ_ENTRY, max_size=3, unique_by=lambda kv: kv[0]))
def test_parse_config_fuzz(tmp_path_factory, case, entries):
    """Any file either parses to a config with finite loads or raises
    ConfigError; a removed linear-solver key is an unknown key."""
    assert set(PLAUSIBLE) == {f.name for f in fields(CaseConfig)} - {"case"}
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    text = f"case = {case}\n" + "".join(f"{k} = {v}\n" for k, v in entries)
    path.write_bytes(text.encode("utf-8"))
    try:
        cfg = parse_config(str(path))
    except ConfigError:
        return
    assert not {k for k, _ in entries} & set(REMOVED_KEYS)
    assert all(v is None or math.isfinite(v)
               for v in (cfg.stretch, cfg.shear_factor, cfg.traction))


# Sizes and budgets stay small so that one run takes milliseconds: meshes
# up to 6x6 and at most 20 corrections per load step.
SMALL = {**PLAUSIBLE, "mesh": "6x6", "sweep": "2,4", "max_corrections": "20",
         "load_steps": "2"}
SIZE_KEYS = ("mesh", "sweep", "max_corrections", "load_steps")
SHARED_KEYS = set(SMALL) - {key for case in CASES.values() for key in case.keys}
# A case and up to four good entries among the keys that case takes.
CASE_AND_GOOD = st.sampled_from(["uniaxial", "shear", "cantilever"]).flatmap(
    lambda case: st.tuples(st.just(case), st.lists(
        st.sampled_from(sorted((k, SMALL[k]) for k in SHARED_KEYS | set(CASES[case].keys))),
        max_size=4, unique_by=lambda kv: kv[0])))
# Base values beyond the mesh and budget: the keys a case requires.
BASE = {"uniaxial": {"stretch": SMALL["stretch"]}}
# An edge or junk value for one key: non-finite, empty, negative, arbitrary
# text, or (for the size keys) a small edge size instead of text.
ODD_ENTRY = st.sampled_from(sorted(SMALL)).flatmap(
    lambda key: st.tuples(st.just(key), st.one_of(
        st.sampled_from(["", "junk", "0", "-1", "nan", "inf", "-inf", "1e400", "1e-320",
                         "1e-150", "1e150"]),
        st.sampled_from(["1x1", "3x2", "6x1", "1", "3"]) if key in SIZE_KEYS
        else st.text(st.characters(codec="utf-8", exclude_characters="\n\r"),
                     max_size=8))))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case_and_good=CASE_AND_GOOD, odd=st.none() | ODD_ENTRY)
# A load that dwarfs the modulus overflows det(F) in the first correction.
@example(case_and_good=("cantilever", [("material", "neo")]), odd=("E", "1e-150"))
# A cell error whose square overflows.
@example(case_and_good=("shear", []), odd=("shear_factor", "1e200"))
# A stretch whose full value 1 + (stretch - 1) rounds to 0: a singular F.
@example(case_and_good=("uniaxial", [("bc", "traction")]), odd=("stretch", "1e-300"))
# A prescribed stretch whose weighted defect overflows the residual norm.
@example(case_and_good=("uniaxial", [("mesh", "3x3"), ("method", "seg")]),
         odd=("stretch", "1e306"))
@example(case_and_good=("uniaxial", [("mesh", "3x3"), ("method", "nlbc")]),
         odd=("stretch", "1e306"))
# Moduli whose 2 mu + lam is too large for the solver's coefficients.
@example(case_and_good=("uniaxial", [("mesh", "3x3"), ("method", "nlbc")]),
         odd=("E", "1.7e308"))
@example(case_and_good=("shear", [("mesh", "3x3"), ("method", "seg")]), odd=("E", "5e307"))
def test_main_fuzz_exits_cleanly(tmp_path_factory, case_and_good, odd):
    """Any small config file ends with exit 0, 1 or 2, never with an
    exception escaping ``main`` (a traceback from the command line); exit 1
    prints one error line, and leaves no empty output directory."""
    case, good = case_and_good
    out = tmp_path_factory.mktemp("main")
    path = out / "fuzz.cfg"
    values = {"case": case, "mesh": "4x4", "max_corrections": "20", **BASE.get(case, {}),
              **dict(good)}
    if odd is not None:
        values[odd[0]] = odd[1]
    path.write_bytes("".join(f"{k} = {v}\n" for k, v in values.items()).encode("utf-8"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "--out", str(out / "run")])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error:")
        assert len(err.getvalue().splitlines()) == 1
        assert not (out / "run").exists() or any((out / "run").iterdir())


def test_console_script_is_main():
    """pyproject's ``fvsolid`` console script resolves to the ``main`` that
    these tests call."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"fvsolid": "fvsolid.cli:main"}
    module, _, name = scripts["fvsolid"].partition(":")
    assert getattr(importlib.import_module(module), name) is main


@pytest.mark.parametrize("argv,message", [
    (["--method", "fem"], "unknown method 'fem'"),     # as from the file
    (["--bogus"], "unrecognized arguments: --bogus"),
    (["--sweep", "3,4"], "give 'mesh' or 'sweep', not both"),     # over the file's mesh
])
def test_main_usage_errors_exit_1(tmp_path, capsys, argv, message):
    """A usage error exits 1 with one line, like a bad file: exit 2 would
    read as a reported divergence."""
    path = write_cfg(tmp_path, "case = shear\nmesh = 4x4\n")
    assert main(["--config", path, "--out", str(tmp_path / "out"), *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_main_refused_run_leaves_no_directory_it_made(tmp_path, capsys, monkeypatch):
    """A run that the boundary table refuses exits 1 before its first
    write, so it makes no output directory, nested ones included.  A
    directory that was there before stays, and a run refused after a write
    keeps what it wrote."""
    path = write_cfg(tmp_path, "case = cantilever\nmesh = 10x1\n")
    assert main(["--config", path, "--out", str(tmp_path / "a" / "b" / "out")]) == 1
    assert "rigid-body mode" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()

    existing = tmp_path / "existing"
    existing.mkdir()
    assert main(["--config", path, "--out", str(existing / "out")]) == 1
    assert "rigid-body mode" in capsys.readouterr().err
    assert list(existing.iterdir()) == []

    def refused_after_a_write(cfg):
        Path(cfg.out).mkdir(parents=True)
        (Path(cfg.out) / "deformed.vtk").write_text("")
        raise ValueError("refused after a write")

    monkeypatch.setattr(cli, "run_case", refused_after_a_write)
    assert main(["--config", path, "--out", str(existing / "a" / "out")]) == 1
    assert capsys.readouterr().err == "error: refused after a write\n"
    assert [p.name for p in (existing / "a" / "out").iterdir()] == ["deformed.vtk"]


def test_main_run_that_raises_makes_no_directory(tmp_path, monkeypatch):
    """An exception that ``main`` does not handle still escapes it, and the
    output directory exists only once an artifact is written into it."""
    def fail(*args):
        raise RuntimeError("failed before any write")

    monkeypatch.setattr(cli, "run", fail)
    path = write_cfg(tmp_path, "case = shear\nmesh = 4x4\n")
    with pytest.raises(RuntimeError, match="failed before any write"):
        main(["--config", path, "--out", str(tmp_path / "a" / "b")])
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("line,argv", [("out =\n", []), ("", ["--out", ""])])
def test_main_refuses_an_empty_out(tmp_path, capsys, monkeypatch, line, argv):
    """An empty ``out``, from the file or the flag, exits 1 with one line
    rather than writing into the working directory."""
    monkeypatch.chdir(tmp_path)
    path = write_cfg(tmp_path, f"case = shear\nmesh = 4x4\n{line}")
    assert main(["--config", path, *argv]) == 1
    assert capsys.readouterr().err == "error: 'out' must name a directory, got ''\n"
    assert [p.name for p in tmp_path.iterdir()] == ["case.cfg"]


def test_main_requires_config_flag(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err == ("error: the following arguments are "
                                       "required: --config\n")


def test_main_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "--config" in capsys.readouterr().out


def readme_block(language: str) -> str:
    """The one fenced block of this language in README.md."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(rf"^```{language}\n(.*?)^```", readme, re.M | re.S)
    return block


def test_readme_examples_run(tmp_path, capsys):
    """README's config example runs through main, and its library example
    prints a converged one-correction beam: either fails once the README
    drifts from the config keys or the API."""
    path = write_cfg(tmp_path, readme_block("ini"))
    assert main(["--config", path, "--out", str(tmp_path / "results")]) == 0
    assert len((tmp_path / "results" / "errors.csv").read_text().splitlines()) == 1 + 3
    exec(readme_block("python"), {})
    assert capsys.readouterr().out == "True [1]\n"
