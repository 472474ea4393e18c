"""Manufactured solutions and the analytic beam benchmark.

Two homogeneous deformation families drive the verification runs:

- uniaxial: F = diag(phi, 1, 1) with phi(t) = 1 + (stretch - 1) t
- shear:    F = I + phi e1 x e2 with phi(t) = shear_factor * t

Both give exact displacement U(X) = (F - I) X and exact tractions
P(F - I) N, so a run's cell-centroid error against the exact field
measures the discretisation directly.  Displacement-driven runs prescribe
U on all four patches; traction-driven runs pin the left patch (the exact
displacement there has zero normal component, so this removes rigid-body
motion without disturbing the manufactured state) and load the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.kind == UNIAXIAL and self.amplitude <= 0.0:
            raise ValueError(f"stretch must be positive, got {self.amplitude}")
        if self.kind not in (UNIAXIAL, SHEAR):
            raise ValueError(f"unknown manufactured case {self.kind!r}")
        if self.bc_kind not in (DISPLACEMENT, TRACTION):
            raise ValueError(f"unknown bc kind {self.bc_kind!r}")


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


def traction_data(case: MMSCase, material, t: float, normal: np.ndarray) -> np.ndarray:
    """Exact boundary traction P(F(t) - I) N; constant over a patch."""
    grad = mms_deformation_gradient(case, t) - IDENTITY
    return material.first_piola(grad) @ np.asarray(normal)


def mms_bcs(case: MMSCase, material) -> dict:
    """Boundary-condition map feeding the solver for a manufactured run."""

    def dirichlet(x, t):
        return dirichlet_data(case, t, x)

    if case.bc_kind == DISPLACEMENT:
        return {p: BoundaryCondition(DISPLACEMENT, dirichlet)
                for p in (LEFT, RIGHT, BOTTOM, TOP)}

    def traction_for(normal):
        def value(x, t):
            return traction_data(case, material, t, normal)
        return value

    return {
        LEFT: BoundaryCondition(DISPLACEMENT, dirichlet),
        RIGHT: BoundaryCondition(TRACTION, traction_for(np.array([1.0, 0.0]))),
        BOTTOM: BoundaryCondition(TRACTION, traction_for(np.array([0.0, -1.0]))),
        TOP: BoundaryCondition(TRACTION, traction_for(np.array([0.0, 1.0]))),
    }


@dataclass(frozen=True)
class ErrorMetrics:
    mean: float
    max: float
    min: float


def compute_errors(mesh: CartesianMesh, displacement: np.ndarray,
                   case: MMSCase, t: float = 1.0) -> ErrorMetrics:
    """Cell-centroid error metrics against the exact manufactured field."""
    grad = mms_deformation_gradient(case, t) - IDENTITY
    exact = mesh.cell_centroids @ grad.T
    r = np.linalg.norm(displacement[:mesh.n_cells] - exact, axis=1)
    return ErrorMetrics(mean=float(r.mean()), max=float(r.max()), min=float(r.min()))


def cantilever_deflection(E: float, nu: float, length: float, load: float,
                          second_moment: float, regime: str = "plane_strain") -> float:
    """Euler-Bernoulli end deflection of a cantilever under an end load:
    P L^3 / (3 E' I) with E' = E / (1 - nu^2) in plane strain and E' = E in
    plane stress."""
    stiff = E / (1.0 - nu ** 2) if regime == "plane_strain" else E
    return load * length ** 3 / (3.0 * stiff * second_moment)
