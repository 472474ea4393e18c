"""Outside-in layer trace for the benchmark.

The tracer wraps public functions of the fvsolid modules (and the scipy
solver entry points they call) and records one span per call: layer name,
start, end and the span that was open when it began.  Nothing inside the
package is edited; a wrapper is installed on every module or class
attribute that is bound to the original object, because the package
imports names with ``from .assembly import ...`` and looks them up in the
caller's namespace.  ``uninstall`` puts the originals back and
``assert_clean`` proves it.

A layer's self time is its span's duration minus the part of that interval
its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from dataclasses import dataclass, field

_MARK = "_bench_layer"

# (module, owner attribute or None, function name, layer name).  The owner
# is a class for material methods, which callers reach through the
# instance.  Every entry also tells where a layer's self time is reported.
LAYERS = (
    ("fvsolid.mesh", None, "build_mesh", "mesh.build_mesh"),
    ("fvsolid.assembly", None, "build_boundary_table", "assembly.build_boundary_table"),
    ("fvsolid.assembly", None, "assemble_system", "assembly.assemble_system"),
    ("fvsolid.assembly", None, "face_states", "assembly.face_states"),
    ("fvsolid.assembly", None, "newton_rhs", "assembly.newton_rhs"),
    ("fvsolid.assembly", None, "assemble_scalar_operator", "assembly.assemble_scalar_operator"),
    ("fvsolid.material", "NeoHookean", "stress_state", "material.stress_state"),
    ("fvsolid.material", "LinearElastic", "stress_state", "material.stress_state"),
    ("fvsolid.material", "NeoHookean", "face_linearisation", "material.face_linearisation"),
    ("fvsolid.material", "LinearElastic", "face_linearisation", "material.face_linearisation"),
    ("fvsolid.kinematics", None, "advance_state", "kinematics.advance_state"),
    ("fvsolid.kinematics", None, "vertex_values", "kinematics.vertex_values"),
    ("fvsolid.linsolve", None, "solve", "linsolve.solve"),
    ("fvsolid.linsolve", None, "equilibrate", "linsolve.equilibrate"),
    ("scipy.sparse.linalg", None, "splu", "linsolve.factor"),
    ("scipy.sparse.linalg", None, "bicgstab", "linsolve.krylov"),
    ("scipy.sparse.linalg", None, "gmres", "linsolve.krylov"),
    ("fvsolid.solver", None, "run", "solver.run"),
    ("fvsolid.output", None, "write_vtk", "output.write_vtk"),
    ("fvsolid.output", None, "write_csv", "output.write_csv"),
    ("fvsolid.output", None, "write_report", "output.write_report"),
)
KRYLOV = "linsolve.krylov"
MONITOR = "linsolve.krylov_monitor"


@dataclass
class Span:
    name: str
    start: int                  # perf_counter_ns
    end: int = -1
    parent: int = -1            # index into Tracer.spans, -1 at the root
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; single-threaded, like the solver."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter_ns(), parent=parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def clear(self) -> None:
        if self._open:
            raise RuntimeError("clearing a trace with open spans")
        self.spans.clear()

    # -- wrappers --------------------------------------------------------

    def _wrap(self, layer: str, fn):
        if layer == KRYLOV:
            return self._wrap_krylov(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        setattr(wrapper, _MARK, layer)
        return wrapper

    def _wrap_krylov(self, fn):
        """Krylov wrapper: counts iterations through the callback (the
        package reports 0 iterations after a fallback), times the callback
        as a child span, and keeps scipy's exit code."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(KRYLOV)
            attrs = self.spans[index].attrs
            attrs["iterations"] = 0
            inner = kwargs.get("callback")

            def callback(*cb_args):
                attrs["iterations"] += 1
                if inner is not None:
                    monitor = self.open(MONITOR)
                    try:
                        inner(*cb_args)
                    finally:
                        self.close(monitor)

            kwargs["callback"] = callback
            try:
                x, info = fn(*args, **kwargs)
            finally:
                self.close(index)
            attrs["info"] = int(info)
            return x, info

        setattr(wrapper, _MARK, KRYLOV)
        return wrapper

    def install(self) -> None:
        """Bind a wrapper wherever a traced function is looked up."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, owner_name, attr, layer in LAYERS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer, original)
            for namespace in _namespaces(owner):
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, name, wrapper)
                        self._patched.append((namespace, name, original))

    def uninstall(self) -> None:
        while self._patched:
            namespace, name, original = self._patched.pop()
            setattr(namespace, name, original)


def _namespaces(owner) -> list:
    """The owner itself, or for a module also every fvsolid module (callers
    bind names from it with ``from ... import``).  All of them are imported
    first, so none binds a wrapper after install and keeps it."""
    if isinstance(owner, type):
        return [owner]
    package = importlib.import_module("fvsolid")
    found = [owner, package]
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"fvsolid.{info.name}")
        if module is not owner:
            found.append(module)
    return found


def assert_clean() -> None:
    """Raise if any traced name is still bound to a wrapper."""
    for module_name, owner_name, attr, _ in LAYERS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        for namespace in _namespaces(owner):
            for name, value in vars(namespace).items():
                if hasattr(value, _MARK):
                    raise RuntimeError(
                        f"wrapper left on {getattr(namespace, '__name__', namespace)}.{name}")


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------

def children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            kids[span.parent].append(index)
    return kids


def self_times(spans: list[Span]) -> list[int]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span (nanoseconds)."""
    kids = children(spans)
    result = []
    for span, own in zip(spans, kids):
        covered = 0
        cursor = span.start
        for start, end in sorted((spans[k].start, spans[k].end) for k in own):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


@dataclass
class LayerTotals:
    self_s: dict[str, float]
    calls: dict[str, int]
    krylov_attempts: int
    krylov_successes: int
    krylov_iterations: int
    fallbacks: int


def summarise(spans: list[Span]) -> LayerTotals:
    """Self time and call count per layer, plus the Krylov accounting.

    A fallback is a ``linsolve.solve`` call in which a Krylov attempt
    failed and a factorisation then ran.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own in zip(spans, self_times(spans)):
        self_s[span.name] = self_s.get(span.name, 0.0) + own * 1e-9
        calls[span.name] = calls.get(span.name, 0) + 1
    krylov = [s for s in spans if s.name == KRYLOV]
    kids = children(spans)
    fallbacks = 0
    for index, span in enumerate(spans):
        if span.name != "linsolve.solve":
            continue
        names = [(spans[k].name, spans[k].attrs.get("info", 0)) for k in kids[index]]
        failed = any(n == KRYLOV and info != 0 for n, info in names)
        if failed and any(n == "linsolve.factor" for n, _ in names):
            fallbacks += 1
    return LayerTotals(
        self_s=self_s, calls=calls, krylov_attempts=len(krylov),
        krylov_successes=sum(1 for s in krylov if s.attrs.get("info") == 0),
        krylov_iterations=sum(s.attrs.get("iterations", 0) for s in krylov),
        fallbacks=fallbacks)


def self_test() -> None:
    """Check the span arithmetic on hand-made nested spans, and the
    install/uninstall round trip on a live wrapper."""
    spans = [
        Span("a", 0, 100),
        Span("b", 10, 40, parent=0),
        Span("c", 20, 30, parent=1),
        Span("b", 50, 70, parent=0),
        Span("d", 60, 65, parent=3),
        Span("d", 66, 69, parent=3),
    ]
    got = self_times(spans)
    want = [100 - 30 - 20, 30 - 10, 10, 20 - 5 - 3, 5, 3]
    if got != want:
        raise AssertionError(f"self times {got}, expected {want}")
    totals = summarise(spans)
    if totals.calls != {"a": 1, "b": 2, "c": 1, "d": 2}:
        raise AssertionError(f"call counts {totals.calls}")
    if abs(totals.self_s["b"] - 32e-9) > 1e-18:
        raise AssertionError(f"self time of b {totals.self_s['b']}")
    # Self times of a closed tree add up to the root's duration.
    if sum(got) != 100:
        raise AssertionError("self times do not partition the root span")

    # A failed Krylov attempt followed by a factorisation is a fallback.
    solves = [
        Span("linsolve.solve", 0, 100),
        Span(KRYLOV, 10, 50, parent=0, attrs={"iterations": 7, "info": -10}),
        Span(MONITOR, 20, 25, parent=1),
        Span("linsolve.factor", 60, 90, parent=0),
        Span("linsolve.solve", 100, 150),
        Span(KRYLOV, 105, 140, parent=4, attrs={"iterations": 3, "info": 0}),
    ]
    totals = summarise(solves)
    got = (totals.krylov_attempts, totals.krylov_successes,
           totals.krylov_iterations, totals.fallbacks)
    if got != (2, 1, 10, 1) or abs(totals.self_s[KRYLOV] - 70e-9) > 1e-18:
        raise AssertionError(f"Krylov accounting {got}, {totals.self_s[KRYLOV]}")

    tracer = Tracer()
    tracer.install()
    try:
        from fvsolid import mesh, solver
        if not hasattr(mesh.build_mesh, _MARK) or not hasattr(solver.assemble_system, _MARK):
            raise AssertionError("wrapper missing where the solver looks it up")
        outer = tracer.open("outer")
        mesh.build_mesh(2, 2, 1.0, 1.0)
        tracer.close(outer)
    finally:
        tracer.uninstall()
    assert_clean()
    names = [s.name for s in tracer.spans]
    if names != ["outer", "mesh.build_mesh"] or tracer.spans[1].parent != 0:
        raise AssertionError(f"live spans {names}")
