"""Manufactured solutions, the analytic beam benchmark, and the case table.

Two homogeneous deformation families drive the verification runs:

- uniaxial: F = diag(phi, 1, 1) with phi(t) = 1 + (stretch - 1) t
- shear:    F = I + phi e1 x e2 with phi(t) = shear_factor * t

Both give exact displacement U(X) = (F - I) X and exact tractions
P(F - I) N, so a run's cell-centroid error against the exact field
measures the discretisation directly.  Displacement-driven runs prescribe
U on all four patches; traction-driven runs pin the left patch (the exact
displacement there has zero normal component, so this removes rigid-body
motion without disturbing the manufactured state) and load the rest.

``CASES`` defines each command-line case once, as a ``Case`` record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import DISPLACEMENT, TRACTION, BoundaryCondition
from .mesh import BOTTOM, LEFT, RIGHT, TOP, CartesianMesh
from .tensors import IDENTITY

UNIAXIAL = "uniaxial"
SHEAR = "shear"


@dataclass(frozen=True)
class MMSCase:
    kind: str               # uniaxial | shear
    bc_kind: str            # displacement | traction
    amplitude: float        # stretch for uniaxial, shear factor for shear

    def __post_init__(self):
        if self.kind not in (UNIAXIAL, SHEAR):
            raise ValueError(f"unknown manufactured case {self.kind!r}")
        if self.bc_kind not in (DISPLACEMENT, TRACTION):
            raise ValueError(f"unknown bc kind {self.bc_kind!r}")
        key = "stretch" if self.kind == UNIAXIAL else "shear_factor"
        if isinstance(self.amplitude, (bool, np.bool_)):
            raise ValueError(f"{key!r} must be a number, got {self.amplitude}")
        if not np.isfinite(self.amplitude):
            raise ValueError(f"{key!r} must be finite, got {self.amplitude}")
        if self.kind == UNIAXIAL and self.amplitude <= 0.0:
            raise ValueError(f"'stretch' must be positive, got {self.amplitude}")


def mms_deformation_gradient(case: MMSCase, t: float) -> np.ndarray:
    f = np.array(IDENTITY)
    if case.kind == UNIAXIAL:
        f[0, 0] = 1.0 + (case.amplitude - 1.0) * t
    else:
        f[0, 1] = case.amplitude * t
    return f


def dirichlet_data(case: MMSCase, t: float, x: np.ndarray) -> np.ndarray:
    """Exact displacement U = (F(t) - I) X at one point (2,) or a stack of
    points (n, 2)."""
    return np.asarray(x) @ (mms_deformation_gradient(case, t) - IDENTITY).T


def mms_bcs(case: MMSCase, material) -> dict:
    """Boundary-condition map feeding the solver for a manufactured run.
    A traction patch prescribes the exact P(F(t) - I) N, and the three
    patches share one stress evaluation per load factor."""

    def dirichlet(x, t):
        return dirichlet_data(case, t, x)

    if case.bc_kind == DISPLACEMENT:
        return {p: BoundaryCondition(DISPLACEMENT, dirichlet)
                for p in (LEFT, RIGHT, BOTTOM, TOP)}

    # The patches are evaluated one after another at each load factor, so
    # one cached entry serves all three.
    normals = {RIGHT: np.array([1.0, 0.0]), BOTTOM: np.array([0.0, -1.0]),
               TOP: np.array([0.0, 1.0])}
    tractions = {}

    def traction_on(patch):
        def value(x, t):
            if t not in tractions:
                tractions.clear()
                grad = mms_deformation_gradient(case, t) - IDENTITY
                # A traction that overflows is left to the boundary table to refuse.
                with np.errstate(over="ignore", invalid="ignore"):
                    stress = material.stress_state(grad)[1]
                    tractions[t] = {p: stress @ normal for p, normal in normals.items()}
            return tractions[t][patch]
        return value

    return {LEFT: BoundaryCondition(DISPLACEMENT, dirichlet),
            **{p: BoundaryCondition(TRACTION, traction_on(p)) for p in normals}}


@dataclass(frozen=True)
class ErrorMetrics:
    mean: float
    max: float
    min: float


def compute_errors(mesh: CartesianMesh, displacement: np.ndarray,
                   case: MMSCase, t: float = 1.0) -> ErrorMetrics:
    """Cell-centroid error metrics against the exact manufactured field."""
    exact = dirichlet_data(case, t, mesh.cell_centroids)
    r = np.linalg.norm(displacement[:mesh.n_cells] - exact, axis=1)
    return ErrorMetrics(mean=float(r.mean()), max=float(r.max()), min=float(r.min()))


def cantilever_deflection(E: float, nu: float, length: float, load: float,
                          second_moment: float, regime: str = "plane_strain") -> float:
    """Euler-Bernoulli end deflection of a cantilever under an end load:
    P L^3 / (3 E' I) with E' = E / (1 - nu^2) in plane strain and E' = E in
    plane stress."""
    stiff = E / (1.0 - nu ** 2) if regime == "plane_strain" else E
    return load * length ** 3 / (3.0 * stiff * second_moment)


@dataclass(frozen=True)
class Case:
    """One command-line case.  ``cfg`` is the run's config: any object with
    the config keys as attributes."""
    domain: tuple           # (lx, ly)
    mesh: tuple             # default (nx, ny)
    E: float
    nu: float
    material: str           # default law: neo | linear
    keys: tuple             # the case-specific config keys it reads
    check: Callable         # check(cfg) raises ValueError on a value it cannot run
    bcs: Callable           # bcs(cfg, material) -> boundary-condition map
    reference: Callable     # (mesh, displacement, cfg) -> (report fields, errors.csv fields | None)


def _beam_analytic(cfg) -> float:
    """Thin-beam end deflection of the configured cantilever."""
    length, depth = CASES["cantilever"].domain
    return cantilever_deflection(cfg.E, cfg.nu, length, cfg.traction * depth,
                                 depth ** 3 / 12.0, cfg.regime)


def _beam_check(cfg) -> None:
    analytic = _beam_analytic(cfg)      # the error is relative to it
    if analytic == 0:
        raise ValueError("case 'cantilever' needs a nonzero 'traction' whose reference "
                         f"deflection does not underflow to 0, got {cfg.traction}")
    if not np.isfinite(analytic):
        raise ValueError("case 'cantilever' needs a reference deflection that does not "
                         f"overflow, got {analytic} from E = {cfg.E}, 'traction' = {cfg.traction}")


def _beam_bcs(cfg, material) -> dict:
    """Clamped left end, end traction on the right, free top and bottom."""
    return {
        LEFT: BoundaryCondition(DISPLACEMENT, np.zeros(2)),
        RIGHT: BoundaryCondition(TRACTION, np.array([0.0, cfg.traction])),
        BOTTOM: BoundaryCondition(TRACTION, np.zeros(2)),
        TOP: BoundaryCondition(TRACTION, np.zeros(2)),
    }


def _beam_reference(mesh: CartesianMesh, displacement: np.ndarray, cfg):
    """Mean end deflection against the thin-beam closed form of the regime."""
    rows = mesh.n_cells + mesh.face_boundary_index[mesh.patch_faces(RIGHT)]
    deflection = float(displacement[rows, 1].mean())
    analytic = _beam_analytic(cfg)
    return dict(deflection=deflection, deflection_analytic=analytic,
                deflection_rel_error=abs(deflection - analytic) / abs(analytic)), None


def _manufactured(kind: str, amplitude_key: str) -> Case:
    """A manufactured case on the unit square; ``MMSCase`` checks its values."""

    def mms_case(cfg) -> MMSCase:
        return MMSCase(kind, cfg.bc, getattr(cfg, amplitude_key))

    def reference(mesh, displacement, cfg):
        m = compute_errors(mesh, displacement, mms_case(cfg))
        return (dict(error_mean=m.mean, error_max=m.max, error_min=m.min),
                dict(mean_error=m.mean, max_error=m.max, min_error=m.min))

    return Case(domain=(1.0, 1.0), mesh=(16, 16), E=0.02e9, nu=0.3, material="neo",
                keys=("bc", amplitude_key, "sweep"), check=mms_case,
                bcs=lambda cfg, material: mms_bcs(mms_case(cfg), material),
                reference=reference)


CASES = {
    "cantilever": Case(domain=(2.0, 0.1), mesh=(100, 5), E=200e9, nu=0.3,
                       material="linear", keys=("traction",), check=_beam_check,
                       bcs=_beam_bcs, reference=_beam_reference),
    UNIAXIAL: _manufactured(UNIAXIAL, "stretch"),
    SHEAR: _manufactured(SHEAR, "shear_factor"),
}
