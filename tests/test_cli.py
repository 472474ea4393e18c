"""Config parsing, artifact layout, and exit codes of the command-line runner."""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.io

from fvsolid.cli import ConfigError, main, parse_config, run_case


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
    ("case = cantilever\nsweep = 3,8\n", "not sweep"),
    ("case = shear\nregime = beam\n", "unknown regime"),
    ("case = shear\nrho0 = 1000\n", "unknown config key 'rho0'"),
    ("case = shear\nmesh = 0x4\n", "'mesh' needs at least one cell per direction, got 0x4"),
    ("case = shear\nsweep = 0,4\n", "'sweep' sizes must be at least 1, got 0,4"),
    ("case = shear\ntolerance = -1\n", "'tolerance' must be finite and positive"),
    ("case = shear\nrelaxation = 0\n", "'relaxation' must be finite and positive"),
    ("case = uniaxial\nstretch = 2\nstretch = 3\n",
     r"case\.cfg:3: duplicate config key 'stretch' \(first set on line 2\)"),
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
    # nlbc dumps the two-component block system, seg its x-component operator
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
    "relaxation = 0",
    "mesh = 8x8",       # a second mesh key
    "gmres_restart = 0",
    "linear_max_iterations = 0",
    "linear_tolerance = -1",
    "linear_tolerance = nan",
    "max_corrections = -1",
])
def test_main_rejects_bad_solver_settings(tmp_path, capsys, line):
    path = write_cfg(tmp_path, f"case = shear\nmesh = 4x4\n{line}\n")
    assert main(["--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_main_requires_config_flag():
    with pytest.raises(SystemExit):
        main([])
