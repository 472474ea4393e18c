"""The benchmark tracer's layer table against the package it wraps."""

from __future__ import annotations

import importlib
import importlib.util
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
