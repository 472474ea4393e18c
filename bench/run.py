"""End-to-end benchmark of pinned fvsolid solves, with an optional layer trace.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py --compare OLD.json NEW.json

One process runs one workload as a closed loop: one operation at a time,
the next starting when the previous one ends, for about ``--seconds``.  An operation follows ``cli.run_case``: build the meshes and the
boundary-condition map, call ``solver.run`` for every solve of the
workload, check each result against its acceptance bound, and write the
VTK, CSV and JSON artifacts.  The seed draws the workload's load
amplitude; the solver sees only the generated case.  Set-up and solve
times are reported in seconds at a reference speed, read off a fixed
calibration loop around each of them (see calibrate and README.md).

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` operations alternate untraced and traced (see
tracing.py), and the last line carries the per-layer metrics.  ``--out`` merges the full record, machine fingerprint included,
into a JSON file that ``--compare`` reads.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

sys.dont_write_bytecode = True      # leave no caches in the checkout
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

SETUP_MIN, SETUP_MAX = 5, 50   # set-ups per untraced operation ...
SETUP_BUDGET_S = 0.3        # ... past the minimum, while they take less than this
REF_S = 0.03                # the reference speed: calibrate() takes this long
MMS_TRACTION_BOUND = 1e-6   # acceptance criterion 9
MMS_DISPLACEMENT_BOUND = 1e-8   # acceptance criterion 4
CANTILEVER_ERROR_BOUND = 0.05   # acceptance criterion 1
CANTILEVER_GAP_BOUND = 1e-10    # bc/nlbc gap, criterion 1
SOFT_E, STEEL_E, NU = 0.02e9, 200e9, 0.3

END_TO_END = {
    "setup_s": "s", "solve_s": "s", "s_per_correction": "s",
    "corrections": "count", "peak_rss_mb": "MB", "solved_frac": "frac",
}
LAYER_NAMES = tuple(dict.fromkeys(layer for *_, layer in tracing.LAYERS))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SolveSpec:
    label: str
    mesh: tuple                 # nx, ny, lx, ly
    method: str
    config: dict                # SolveConfig keywords besides the method
    case: tuple | None          # (kind, bc kind) of a manufactured case
    bound: float | None         # mean-error bound of a manufactured case


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable              # random.Random -> load amplitude
    specs: tuple


SEG_CONFIG = dict(relaxation=0.9, outer_tolerance=1e-8, max_corrections=500)
WORKLOADS = {w.name: w for w in (
    # Krylov-dominated: 96^2 gives 9600 block rows, so auto picks BiCGStab.
    # Run by hand only: too noisy for BENCHMARK.json (README.md).
    Workload("nlbc-uniaxial-traction", lambda rng: rng.uniform(1.45, 1.55), (
        SolveSpec("nlbc 96x96", (96, 96, 1.0, 1.0), "nlbc", {},
                  ("uniaxial", "traction"), MMS_TRACTION_BOUND),)),
    # Residual kernels dominate: 56 cheap corrections, almost no linsolve.
    Workload("seg-uniaxial-tension", lambda rng: rng.uniform(1.9, 2.1), (
        SolveSpec("seg 64x64", (64, 64, 1.0, 1.0), "seg", SEG_CONFIG,
                  ("uniaxial", "displacement"), MMS_DISPLACEMENT_BOUND),)),
    # Many small systems: fixed cost per assembly and factorisation.
    Workload("nlbc-load-steps", lambda rng: rng.uniform(0.80, 0.85), (
        SolveSpec("nlbc 16x16 40 steps", (16, 16, 1.0, 1.0), "nlbc",
                  dict(n_load_steps=40), ("uniaxial", "traction"),
                  MMS_TRACTION_BOUND),)),
    # Acceptance criterion 1; the amplitude is the end load in Pa.  The
    # 300x15 BiCGStab attempt stagnates and where it gives up depends
    # chaotically on the rounding of the scaled right-hand side, so the
    # load moves by powers of two only (exact scaling), which keep the
    # wasted iteration count within 0.3 % (README.md).
    Workload("cantilever-sweep", lambda rng: 1e6 * 2.0 ** rng.randint(-1, 2), tuple(
        SolveSpec(f"{method} {nx}x{ny}", (nx, ny, 2.0, 0.1), method, {},
                  None, None)
        for nx, ny in ((60, 3), (100, 5), (300, 15))
        for method in ("nlbc", "bc"))),
)}


# ----------------------------------------------------------------------
# one operation
# ----------------------------------------------------------------------

@dataclass
class OpResult:
    setup_s: list               # one sample per set-up made, calibrated
    solve_s: float              # calibrated
    solve_wall_s: float
    corrections: int
    attempted: int
    failed: int
    accuracy: list              # per solve: label, converged, error value
    layers: object = None       # tracing.LayerTotals of a traced operation


class Case:
    """The generated inputs of one workload at one amplitude."""

    def __init__(self, workload: Workload, amplitude: float, out_dir: str):
        from fvsolid import (LinearElastic, NeoHookean, SolveConfig,
                             lame_from_E_nu)
        self.workload = workload
        self.amplitude = amplitude
        self.out_dir = out_dir
        soft = NeoHookean(lame_from_E_nu(SOFT_E, NU, "plane_strain"))
        steel = LinearElastic(lame_from_E_nu(STEEL_E, NU, "plane_strain"))
        self.material = {spec.label: (steel if spec.case is None else soft)
                         for spec in workload.specs}
        self.config = {spec.label: SolveConfig(method=spec.method, **spec.config)
                       for spec in workload.specs}

    def setup(self):
        """Meshes and boundary-condition maps, looked up through the
        modules so that a traced run sees the calls."""
        from fvsolid import mesh as fmesh
        from fvsolid import verification
        meshes = {}
        bcs = {}
        for spec in self.workload.specs:
            if spec.mesh not in meshes:
                meshes[spec.mesh] = fmesh.build_mesh(*spec.mesh)
            if spec.case is None:
                bcs[spec.label] = self._cantilever_bcs()
            else:
                bcs[spec.label] = verification.mms_bcs(
                    self.mms(spec), self.material[spec.label])
        return meshes, bcs

    def mms(self, spec: SolveSpec):
        from fvsolid import MMSCase
        return MMSCase(kind=spec.case[0], bc_kind=spec.case[1],
                       amplitude=self.amplitude)

    def _cantilever_bcs(self) -> dict:
        import numpy as np
        from fvsolid import BOTTOM, LEFT, RIGHT, TOP, BoundaryCondition
        return {
            LEFT: BoundaryCondition("displacement", np.zeros(3)),
            RIGHT: BoundaryCondition("traction",
                                     np.array([0.0, self.amplitude, 0.0])),
            BOTTOM: BoundaryCondition("traction", np.zeros(3)),
            TOP: BoundaryCondition("traction", np.zeros(3)),
        }

    def run_op(self, tracer=None) -> OpResult:
        """One pass of the pipeline.  Untraced, the short set-up is repeated
        so that its median has many samples spread over the whole run.
        calibrate() brackets the set-up and every solve; each is timed in
        seconds at the reference speed: wall time * REF_S / the mean of the
        two readings around it."""
        from fvsolid import solver
        if tracer is not None:
            tracer.clear()
            root = tracer.open("bench.op")
        reading = calibrate()
        setup_s = []
        while not setup_s or (tracer is None and len(setup_s) < SETUP_MAX and (
                len(setup_s) < SETUP_MIN or sum(setup_s) < SETUP_BUDGET_S)):
            start = time.perf_counter()
            meshes, bcs = self.setup()
            setup_s.append(time.perf_counter() - start)
        scale, reading = rescale(reading)
        setup_s = [sample * scale for sample in setup_s]
        reports = {}
        solve_s = solve_wall_s = 0.0
        traced_corrections = {}
        for spec in self.workload.specs:
            first = len(tracer.spans) if tracer is not None else 0
            start = time.perf_counter()
            try:
                reports[spec.label] = solver.run(meshes[spec.mesh],
                                                 self.material[spec.label],
                                                 bcs[spec.label],
                                                 self.config[spec.label])
            except Exception:   # one failed solve must not end the run
                traceback.print_exc(file=sys.stderr)
                reports[spec.label] = None
            wall = time.perf_counter() - start
            scale, reading = rescale(reading)
            solve_s += wall * scale
            solve_wall_s += wall
            if tracer is not None:
                traced_corrections[spec.label] = sum(
                    1 for s in tracer.spans[first:]
                    if s.name == "kinematics.advance_state")
        accuracy, failed = self.check(meshes, reports)
        written = self.write(meshes, reports, accuracy)
        layers = None
        if tracer is not None:
            tracer.close(root)
            layers = tracing.summarise(tracer.spans)
            for label, report in reports.items():
                if report is not None and traced_corrections[label] != report.total_corrections:
                    raise RuntimeError(
                        f"{label}: trace counted {traced_corrections[label]} "
                        f"corrections, report says {report.total_corrections}")
        if not verify_outputs(self.out_dir, written):
            failed = len(self.workload.specs)
        corrections = sum(r.total_corrections for r in reports.values() if r)
        return OpResult(setup_s=setup_s, solve_s=solve_s, solve_wall_s=solve_wall_s,
                        corrections=corrections,
                        attempted=len(self.workload.specs), failed=failed,
                        accuracy=accuracy, layers=layers)

    def check(self, meshes, reports):
        """Acceptance bound of every solve; returns (rows, failed count)."""
        from fvsolid import verification
        rows = []
        ok = {}
        for spec in self.workload.specs:
            report = reports[spec.label]
            converged = report is not None and report.converged
            row = {"label": spec.label, "converged": converged}
            ok[spec.label] = converged
            if converged and spec.case is not None:
                mesh = meshes[spec.mesh]
                errors = verification.compute_errors(
                    mesh, report.state.displacement, self.mms(spec))
                row.update(mean_error=errors.mean, max_error=errors.max,
                           min_error=errors.min)
                ok[spec.label] = errors.mean < spec.bound
            rows.append(row)
        if self.workload.specs[0].case is None and all(ok.values()):
            self._check_cantilever(meshes, reports, rows, ok)
        failed = sum(1 for value in ok.values() if not value)
        return rows, failed

    def _check_cantilever(self, meshes, reports, rows, ok) -> None:
        """Criterion 1: nlbc deflection error falls with refinement and ends
        below 5 %; bc matches nlbc to 1e-10 on every mesh."""
        import numpy as np
        from fvsolid import RIGHT, verification
        row_of = {row["label"]: row for row in rows}
        errors = []
        for spec in self.workload.specs:
            if spec.method != "nlbc":
                continue
            mesh = meshes[spec.mesh]
            nlbc = reports[spec.label].state.displacement
            bc_label = spec.label.replace("nlbc", "bc")
            gap = float(np.linalg.norm(reports[bc_label].state.displacement - nlbc)
                        / np.linalg.norm(nlbc))
            row_of[bc_label]["gap"] = gap
            ok[bc_label] = gap < CANTILEVER_GAP_BOUND
            faces = mesh.patch_faces(RIGHT)
            tip = float(nlbc[mesh.n_cells + mesh.face_boundary_index[faces], 1].mean())
            _, _, length, depth = spec.mesh
            analytic = verification.cantilever_deflection(
                STEEL_E, NU, length, self.amplitude * depth, depth ** 3 / 12.0)
            errors.append(abs(tip - analytic) / analytic)
            row_of[spec.label]["deflection_error"] = errors[-1]
        finest = [s for s in self.workload.specs if s.method == "nlbc"][-1]
        ok[finest.label] = (all(a > b for a, b in zip(errors, errors[1:]))
                            and errors[-1] < CANTILEVER_ERROR_BOUND)

    def write(self, meshes, reports, accuracy) -> dict:
        """The run_case artifacts; returns what verify_outputs expects."""
        from fvsolid import output
        vtk = {}
        convergence_rows = []
        error_rows = []
        runs = []
        for index, spec in enumerate(self.workload.specs):
            report = reports[spec.label]
            if report is None:
                continue
            mesh = meshes[spec.mesh]
            nx, ny = spec.mesh[:2]
            path = os.path.join(self.out_dir, f"deformed_{index}.vtk")
            output.write_vtk(path, mesh, report.state.displacement)
            vtk[path] = (mesh.n_vertices, mesh.n_cells)
            for step, history in enumerate(report.residual_history):
                for k, value in enumerate(history):
                    convergence_rows.append({"nx": nx, "ny": ny, "load_step": step,
                                             "correction": k, "residual": value})
            row = accuracy[index]
            if spec.case is not None and "mean_error" in row:
                error_rows.append({
                    "case": spec.case[0], "method": spec.method,
                    "bc": spec.case[1], "nx": nx, "ny": ny,
                    "n_cells": mesh.n_cells, "converged": report.converged,
                    "n_corr": report.total_corrections,
                    **{k: row[k] for k in ("mean_error", "max_error", "min_error")}})
            runs.append({"label": spec.label, "converged": report.converged,
                         "failure": report.failure, "n_corr": report.n_corr,
                         "wall_time": report.wall_time, **row})
        doc = {"workload": self.workload.name, "amplitude": self.amplitude,
               "runs": runs}
        output.write_report(os.path.join(self.out_dir, "report.json"), doc)
        output.write_csv(os.path.join(self.out_dir, "convergence.csv"),
                         output.CONVERGENCE_COLUMNS, convergence_rows)
        csv_rows = {"convergence.csv": len(convergence_rows)}
        if error_rows:
            output.write_csv(os.path.join(self.out_dir, "errors.csv"),
                             output.ERRORS_COLUMNS, error_rows)
            csv_rows["errors.csv"] = len(error_rows)
        return {"doc": doc, "vtk": vtk, "csv_rows": csv_rows}


def verify_outputs(out_dir: str, written: dict) -> bool:
    """Read the artifacts back: the report round-trips, every CSV has its
    header plus one line per row, every VTK file has the legacy layout."""
    with open(os.path.join(out_dir, "report.json")) as handle:
        if json.load(handle) != json.loads(json.dumps(written["doc"])):
            return False
    for name, rows in written["csv_rows"].items():
        with open(os.path.join(out_dir, name)) as handle:
            if sum(1 for _ in handle) != rows + 1:
                return False
    for path, (n_vertices, n_cells) in written["vtk"].items():
        with open(path) as handle:
            lines = handle.read().splitlines()
        if (lines[4] != f"POINTS {n_vertices} double"
                or len(lines) != 9 + 2 * n_vertices + 2 * n_cells):
            return False
    return True


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

def calibrate() -> float:
    """Wall seconds of a fixed mix of interpreter and numpy work, none of
    it fvsolid's: a reading of the host's speed right now."""
    import numpy as np
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    base = np.linspace(0.5, 1.5, 2048 * 9).reshape(2048, 3, 3)
    product = base
    for _ in range(40):
        product = np.einsum("nij,njk->nik", base, product / product.max())
    return time.perf_counter() - start


def rescale(before: float) -> tuple[float, float]:
    """Factor from wall seconds to reference seconds for the stretch since
    the reading ``before``, and the new reading."""
    after = calibrate()
    return REF_S / ((before + after) / 2), after


def measure(case: Case, seconds: float, tracer=None) -> list[OpResult]:
    """Closed loop: at least one operation, then more back to back while
    one more, as long as the median so far, still ends within ``seconds``.

    With a tracer, operations alternate untraced and traced, in pairs, so
    that both kinds sample the same stretches of the host's speed."""
    step = 1 if tracer is None else 2
    results = []
    durations = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if len(results) % step == 0:
            results.append(case.run_op())
        else:
            results.append(traced_op(case, tracer))
        durations.append(time.perf_counter() - began)
        if (len(results) % step == 0
                and time.perf_counter() - start + step * median(durations) > seconds):
            return results


def traced_op(case: Case, tracer) -> OpResult:
    """One operation with the wrappers bound only while it runs."""
    tracer.install()
    try:
        return case.run_op(tracer)
    finally:
        tracer.uninstall()
        tracing.assert_clean()


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(ops: list[OpResult], solved_frac: float) -> dict:
    """Times in seconds at the reference speed (see calibrate)."""
    values = {
        "setup_s": median(sample for op in ops for sample in op.setup_s),
        "solve_s": median(op.solve_s for op in ops),
        "s_per_correction": median(op.solve_s / max(op.corrections, 1) for op in ops),
        "corrections": median(op.corrections for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solved_frac": solved_frac,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(traced: list[OpResult], untraced: list[OpResult]) -> dict:
    """Median per operation of each layer's self time and calls, and the
    Krylov accounting pooled over the traced operations.  ``untraced[i]``
    ran just before ``traced[i]``."""
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.self_s"] = {
            "value": median(op.layers.self_s.get(name, 0.0) for op in traced),
            "unit": "s"}
        metrics[f"{name}.calls"] = {
            "value": median(op.layers.calls.get(name, 0) for op in traced),
            "unit": "count"}
    attempts = sum(op.layers.krylov_attempts for op in traced)
    successes = sum(op.layers.krylov_successes for op in traced)
    extra = {
        "linsolve.krylov_iterations": (
            median(op.layers.krylov_iterations for op in traced), "count"),
        "linsolve.krylov_monitor_s": (
            median(op.layers.self_s.get(tracing.MONITOR, 0.0) for op in traced), "s"),
        "linsolve.fallbacks": (median(op.layers.fallbacks for op in traced), "count"),
        # With no attempt nothing is wasted.
        "linsolve.krylov_useful_ratio": (
            successes / attempts if attempts else 1.0, "ratio"),
        "solver.corrections": (median(op.corrections for op in traced), "count"),
        "trace.overhead_frac": (
            median(t.solve_s / u.solve_s for u, t in zip(untraced, traced)) - 1.0,
            "frac"),
    }
    metrics.update({name: {"value": value, "unit": unit}
                    for name, (value, unit) in extra.items()})
    return metrics


# ----------------------------------------------------------------------
# fingerprint and result files
# ----------------------------------------------------------------------

def blas_info() -> dict:
    """BLAS library from numpy's build record, and its live thread count
    from the loaded OpenBLAS libraries."""
    import ctypes

    import numpy as np
    info = {"library": None, "version": None, "threads": {}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["threads"][os.path.basename(path)] = getter()
                break
    return info


def commit() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint() -> dict:
    import platform

    import numpy as np
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "blas": blas_info(),
            "commit": commit()}


def merge_record(path: str, workload: str, kind: str, record: dict) -> None:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        doc = {"workloads": {}}
    doc["workloads"].setdefault(workload, {})[kind] = record
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def compare(old_path: str, new_path: str) -> None:
    """One row per workload: each metric's new/old ratio."""
    with open(old_path) as handle:
        old = json.load(handle)["workloads"]
    with open(new_path) as handle:
        new = json.load(handle)["workloads"]
    for workload in sorted(set(old) & set(new)):
        cells = []
        for kind in ("end_to_end", "per_layer"):
            before = old[workload].get(kind, {}).get("metrics", {})
            after = new[workload].get(kind, {}).get("metrics", {})
            for name in sorted(set(before) & set(after)):
                base = before[name]["value"]
                ratio = after[name]["value"] / base if base else float("nan")
                cells.append(f"{name}={ratio:.3f}")
        print(f"{workload}: " + " ".join(cells))


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="merge the full record into this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)

    # One BLAS thread, set before numpy loads the library.  With one thread
    # per core, any other busy process stalls OpenBLAS's threaded vector
    # operations inside BiCGStab: beside a second run on 2 cores, a 4-s
    # solve took 80 to 200 s.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "fvsolid" / "__init__.py").is_file():
        print(f"error: no fvsolid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    amplitude = workload.draw(random.Random(args.seed))
    tracing.assert_clean()
    if args.trace:
        tracing.self_test()

    out_dir = tempfile.mkdtemp(prefix=".bench_out_", dir=ROOT)
    try:
        case = Case(workload, amplitude, out_dir)
        # The first operation pays first-touch costs; it counts against
        # the time and for correctness, but stays out of the medians.
        began = time.perf_counter()
        warm = case.run_op()
        seconds = args.seconds - (time.perf_counter() - began)
        ops = measure(case, seconds, tracing.Tracer() if args.trace else None)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(op.attempted for op in [warm] + ops)
    failed = sum(op.failed for op in [warm] + ops)
    if args.trace:
        metrics = per_layer(traced=ops[1::2], untraced=ops[0::2])
    else:
        metrics = end_to_end(ops, (attempted - failed) / attempted)
    kind = "per_layer" if args.trace else "end_to_end"
    for row in ops[-1].accuracy:
        print(json.dumps(row, sort_keys=True), file=sys.stderr)
    if args.out:
        merge_record(args.out, workload.name, kind, {
            "seed": args.seed, "amplitude": amplitude, "seconds": args.seconds,
            "operations": len(ops), "fingerprint": fingerprint(),
            "setup_samples": [x for op in ops for x in op.setup_s],
            "solve_samples": [op.solve_s for op in ops],
            "solve_wall_samples": [op.solve_wall_s for op in ops],
            "accuracy": ops[-1].accuracy, "metrics": metrics})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
