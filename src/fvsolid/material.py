"""Constitutive models: compressible neo-Hookean and small-strain linear
elasticity, both exposing the same surface to the assembly code.

A material answers three questions about a state given by the displacement
gradient (or the deformation gradient reconstructed from it):

- ``stress_state``: deformation gradient and second Piola-Kirchhoff stress,
  so the face flux is ``(F @ S) @ N``
- ``face_linearisation``: one 2x2 block H(m) per face for each direction
  m asked for: a perturbation a x m of the displacement gradient changes
  the flux by ``H(m) @ a``, so H(N) and H(t) are the coefficients of the
  normal and tangential face derivatives
- ``first_piola``: the stress that the manufactured boundary tractions use

The linear model keeps the geometry frozen (F = I, no stress term in H)
so the coupled solver reduces to one exact small-strain solve.

Every tensor is the in-plane 2x2 block.  Plane strain fixes F_33 = 1, so
J is the 2x2 determinant, C^-1 is block diagonal, and the in-plane blocks
of S, P and H are exactly the 2-D formulas below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import IDENTITY, det2, dot2, inv2, matvec2, mul2, outer


@dataclass(frozen=True)
class Lame:
    mu: float
    lam: float


def lame_from_E_nu(E: float, nu: float, regime: str = "plane_strain") -> Lame:
    """Lame parameters from Young's modulus and Poisson ratio.

    ``regime`` selects the 2-D reduction: plane strain keeps the 3-D lambda,
    plane stress substitutes the usual reduced value.  E must be finite
    and positive and nu must lie in (-1, 0.5), the range where the shear
    and bulk moduli are finite and positive.
    """
    if not (np.isfinite(E) and E > 0.0):
        raise ValueError(f"Young's modulus E must be finite and positive, got {E}")
    if not -1.0 < nu < 0.5:
        raise ValueError(f"Poisson ratio nu must lie in (-1, 0.5), got {nu}")
    mu = E / (2.0 * (1.0 + nu))
    if regime == "plane_strain":
        lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    elif regime == "plane_stress":
        lam = E * nu / ((1.0 + nu) * (1.0 - nu))
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return Lame(mu=mu, lam=lam)


class InvertedElementError(RuntimeError):
    """Deformation gradient with non-positive determinant."""

    def __init__(self, index: int, det_f: float, label: str = "cell"):
        self.index = index
        self.det_f = det_f
        super().__init__(f"inverted element: det(F) = {det_f:.6e} at {label} {index}")


def check_positive_jacobian(det_f: np.ndarray, label: str) -> None:
    """Raise InvertedElementError at the smallest det(F) if it is not positive."""
    det_f = np.atleast_1d(det_f)
    if det_f.size == 0:
        return
    bad = int(np.argmin(det_f))     # the first NaN, if there is one
    if not det_f[bad] > 0.0:
        raise InvertedElementError(bad, float(det_f[bad]), label)


class NeoHookean:
    """Compressible neo-Hookean solid.

    S = mu (I - C^-1) + lam ln(J) C^-1, with C = F^T F and J = det F.
    """

    linear = False

    def __init__(self, lame: Lame):
        self.mu = lame.mu
        self.lam = lame.lam

    # -- tensor-level pieces -------------------------------------------

    def _stress(self, c_inv: np.ndarray, log_j: np.ndarray) -> np.ndarray:
        """S from C^-1 and ln J, so callers that hold det F reuse it."""
        return (self.mu * (IDENTITY - c_inv)
                + self.lam * log_j[..., None, None] * c_inv)

    def second_piola(self, c: np.ndarray) -> np.ndarray:
        c_inv, det_c = inv2(c)
        return self._stress(c_inv, 0.5 * np.log(det_c))

    def first_piola(self, grad_u: np.ndarray) -> np.ndarray:
        f = IDENTITY + grad_u
        return mul2(f, self.second_piola(mul2(np.swapaxes(f, -1, -2), f)))

    # -- solver surface ------------------------------------------------

    def stress_state(self, grad_u: np.ndarray, label: str = "cell"):
        f = IDENTITY + grad_u
        det_f = det2(f)
        check_positive_jacobian(det_f, label)
        c_inv, _ = inv2(mul2(np.swapaxes(f, -1, -2), f))
        return f, self._stress(c_inv, np.log(det_f))

    def face_linearisation(self, f: np.ndarray, s: np.ndarray, n: np.ndarray,
                           directions) -> list[np.ndarray]:
        """Flux coefficient H(m) of a face state for each direction m, in
        the closed form

            H(m) = lam (a x A m) + c (A m x a + (C^-1 N.m) I) + (S N.m) I

        with A = F^-T, a = A N and c = mu - lam ln J.  At F = I and S = 0
        each term rounds as in ``LinearElastic``, so the tangent at zero
        displacement is the Hookean one bit for bit.  The property tests
        hold H against the brute contraction of the transformed tangent.
        """
        f_inv, det_f = inv2(f)
        f_inv_t = np.swapaxes(f_inv, -1, -2)
        a = matvec2(f_inv_t, n)
        b = matvec2(f_inv, a)                   # F^-1 a = C^-1 N
        w = matvec2(s, n)
        c = (self.mu - self.lam * np.log(det_f))[..., None, None]
        blocks = []
        for m in directions:
            am = matvec2(f_inv_t, m)
            blocks.append(self.lam * outer(a, am)
                          + c * (outer(am, a) + dot2(b, m)[..., None, None] * IDENTITY)
                          + dot2(w, m)[..., None, None] * IDENTITY)
        return blocks


class LinearElastic:
    """Small-strain Hookean solid with frozen geometry.

    The stress is sigma = mu (g + g^T) + lam tr(g) I for the displacement
    gradient g; ``stress_state`` reports F = I so flux and linearisation
    carry no geometric terms and the coupled solve is exact in one go.
    """

    linear = True

    def __init__(self, lame: Lame):
        self.mu = lame.mu
        self.lam = lame.lam

    def stress(self, grad_u: np.ndarray) -> np.ndarray:
        tr = np.trace(grad_u, axis1=-2, axis2=-1)
        return (self.mu * (grad_u + np.swapaxes(grad_u, -1, -2))
                + self.lam * tr[..., None, None] * IDENTITY)

    def stress_state(self, grad_u: np.ndarray, label: str = "cell"):
        f = np.broadcast_to(IDENTITY, grad_u.shape)
        return f, self.stress(grad_u)

    def face_linearisation(self, f: np.ndarray, s: np.ndarray, n: np.ndarray,
                           directions) -> list[np.ndarray]:
        """H(m) = lam (N x m) + mu (m x N + (N.m) I) for each direction m."""
        return [self.lam * outer(n, m)
                + self.mu * (outer(m, n) + dot2(n, m)[..., None, None] * IDENTITY)
                for m in directions]

    def first_piola(self, grad_u: np.ndarray) -> np.ndarray:
        return self.stress(grad_u)
