"""The benchmark's tracer and workloads against the package they use."""

from __future__ import annotations

import importlib
import importlib.util
import random
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_layer_resolves(monkeypatch):
    """Each ``LAYERS`` entry of ``bench/tracing.py`` names a callable:
    module, then owner class, then attribute, looked up in the owner's own
    namespace as the tracer's ``install`` does.  A rename in the package
    fails here, not only in the traced benchmark run."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while it loads.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module_name, owner_name, attr, layer in tracing.LAYERS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        where = ".".join(filter(None, (module_name, owner_name, attr)))
        assert callable(vars(owner).get(attr)), f"layer {layer}: {where} is not callable"


def test_benchmark_inputs_pass_the_library_checks(monkeypatch, tmp_path):
    """Every workload of ``bench/run.py`` builds its solve configs and its
    manufactured cases at a few seeds, so a check that the library adds
    cannot refuse an input that the benchmark passes.  ``run.py`` imports
    its tracer as ``tracing``; both files are registered under their names
    for this test only, and ``sys.path`` stays as it is."""
    # run.py switches bytecode caches off when it loads
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    modules = {}
    for name, path in (("tracing", TRACING), ("bench_run", TRACING.parent / "run.py")):
        spec = importlib.util.spec_from_file_location(name, path)
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    bench = modules["bench_run"]
    assert bench.WORKLOADS
    for workload in bench.WORKLOADS.values():
        for seed in range(5):
            case = bench.Case(workload, workload.draw(random.Random(seed)), str(tmp_path))
            for spec in workload.specs:
                if spec.case is not None:
                    case.mms(spec)
