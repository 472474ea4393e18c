"""Constitutive models: compressible neo-Hookean and small-strain linear
elasticity, both exposing the same surface to the assembly code.

A material answers three questions about a state given by the displacement
gradient (or the deformation gradient reconstructed from it):

- ``stress_state``: deformation gradient and second Piola-Kirchhoff stress,
  so the face flux is ``(F @ S) @ N``
- ``face_linearisation``: the geometric vector ``w`` and the stack of
  coupling tensors ``T`` that linearise the flux: a perturbation ``B`` of
  the displacement gradient changes the flux by ``B @ w + sum_d T[d] @ (B @ e_d)``
- ``first_piola``: the stress that the manufactured boundary tractions use

The linear model keeps the geometry frozen (F = I, w = 0) so the coupled
solver reduces to one exact small-strain solve.

Every tensor is the in-plane 2x2 block.  Plane strain fixes F_33 = 1, so
J is the 2x2 determinant, C^-1 is block diagonal, and the in-plane blocks
of S, P and T are exactly the 2-D formulas below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import IDENTITY, det2, inv2


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
        return f @ self.second_piola(np.swapaxes(f, -1, -2) @ f)

    # -- solver surface ------------------------------------------------

    def stress_state(self, grad_u: np.ndarray, label: str = "cell"):
        f = IDENTITY + grad_u
        det_f = det2(f)
        check_positive_jacobian(det_f, label)
        c_inv, _ = inv2(np.swapaxes(f, -1, -2) @ f)
        return f, self._stress(c_inv, np.log(det_f))

    def face_linearisation(self, f: np.ndarray, s: np.ndarray, n: np.ndarray):
        """Geometric vector and coupling-tensor stack for a face state.

        Returns ``w = S @ N`` and ``T`` with ``T[..., d, :, :]`` the 2x2
        tensor tied to in-plane direction d, in the closed form

            T_d = lam (a x A e_d) + (mu - lam ln J) (b_d I + A e_d x a)

        with A = F^-T, a = A N and b = C^-1 N.  The property tests hold it
        against the brute contraction of the transformed tangent with N.
        """
        w = np.einsum("...ij,...j->...i", s, n)
        f_inv, det_f = inv2(f)
        a_mat = np.swapaxes(f_inv, -1, -2)                   # F^-T
        a = np.einsum("...ij,...j->...i", a_mat, n)
        b = np.einsum("...ji,...j->...i", a_mat, a)          # F^-1 a = C^-1 N
        log_j = np.log(det_f)
        coef = (self.mu - self.lam * log_j)[..., None, None, None]
        t = (self.lam * np.einsum("...i,...jd->...dij", a, a_mat)
             + coef * (np.einsum("...d,ij->...dij", b, IDENTITY)
                       + np.einsum("...id,...j->...dij", a_mat, a)))
        return w, t


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

    def face_linearisation(self, f: np.ndarray, s: np.ndarray, n: np.ndarray):
        w = np.zeros(f.shape[:-2] + (2,))
        t = (self.lam * np.einsum("...i,jd->...dij", n, IDENTITY)
             + self.mu * (np.einsum("...d,ij->...dij", n, IDENTITY)
                          + np.einsum("id,...j->...dij", IDENTITY, n)))
        return w, np.broadcast_to(t, f.shape[:-2] + (2, 2, 2))

    def first_piola(self, grad_u: np.ndarray) -> np.ndarray:
        return self.stress(grad_u)
