"""Constitutive models: compressible neo-Hookean and small-strain linear
elasticity, both exposing the same surface to the assembly code.

A material answers two questions about a state given by the displacement
gradient (or the deformation gradient reconstructed from it):

- ``stress_state``: deformation gradient and first Piola-Kirchhoff stress
  P, so the face flux is ``P @ N``; it is the only place where a
  displacement gradient becomes a stress, boundary tractions included
- ``face_linearisation``: one 2x2 block H(m) per face for each direction
  m asked for, as one (n_directions, n_faces, 2, 2) array: a perturbation
  a x m of the displacement gradient changes the flux by ``H(m) @ a``, so
  H(N) and H(t) are the coefficients of the normal and tangential face
  derivatives

The linear model keeps the geometry frozen (F = I, P = sigma, no stress
term in H) so the coupled solver reduces to one exact small-strain solve.

``stress_state`` returns F and P in the layout of the gradient it is
given, component-major on the solver's path (see ``tensors``);
``face_linearisation`` returns a C-ordered stack for the Jacobian fill.
Given buffers (``buffers``, made once per run), ``stress_state``
allocates nothing: it forms its result in the gradient itself (F for
the neo-Hookean law, P for the linear one) and writes the rest into
them; without, it copies the gradient first and makes them.

Every tensor is the in-plane 2x2 block.  Plane strain fixes F_33 = 1, so
J is the 2x2 determinant, F^-T is block diagonal, and the in-plane blocks
of P and H are exactly the 2-D formulas below.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .tensors import IDENTITY, det2


# The largest 2 mu + lam accepted.  The solver's coefficients are it times
# face-area ratios, summed over a cell's faces, and its stresses it times
# strains: 1e-7 of the largest float leaves room for both, where E = 5e307
# (2 mu + lam = 6.7e307) overflowed the coupled matrix of a 3x3 mesh.
MAX_STIFFNESS = 1e-7 * sys.float_info.max


@dataclass(frozen=True)
class Lame:
    mu: float
    lam: float


def lame_from_E_nu(E: float, nu: float, regime: str = "plane_strain") -> Lame:
    """Lame parameters from Young's modulus and Poisson ratio.

    ``regime`` selects the 2-D reduction: plane strain keeps the 3-D lambda,
    plane stress substitutes the usual reduced value.  E must be finite
    and positive and nu must lie in (-1, 0.5), the range where the shear
    and bulk moduli are finite and positive.  A subnormal E is refused too:
    the force scale mu h that floors the residual norm can round to 0.  So
    are moduli whose P-wave modulus 2 mu + lam exceeds ``MAX_STIFFNESS``.
    """
    if not (np.isfinite(E) and E > 0.0):
        raise ValueError(f"Young's modulus E must be finite and positive, got {E}")
    if E < sys.float_info.min:
        raise ValueError(f"Young's modulus E must not be subnormal (below "
                         f"{sys.float_info.min}), got {E}")
    if not -1.0 < nu < 0.5:
        raise ValueError(f"Poisson ratio nu must lie in (-1, 0.5), got {nu}")
    mu = E / (2.0 * (1.0 + nu))
    if regime == "plane_strain":
        lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    elif regime == "plane_stress":
        lam = E * nu / ((1.0 + nu) * (1.0 - nu))
    else:
        raise ValueError(f"unknown regime {regime!r}")
    if not 2.0 * mu + lam <= MAX_STIFFNESS:
        raise ValueError(f"Young's modulus E = {E} with nu = {nu} gives 2 mu + lam = "
                         f"{2.0 * mu + lam:.6g}, which must not exceed {MAX_STIFFNESS:.6g}")
    return Lame(mu=mu, lam=lam)


class InvertedElementError(RuntimeError):
    """Deformation gradient whose determinant is not positive, or not
    finite: an overflow (a load that dwarfs the modulus) is no inversion
    and its message says so."""

    def __init__(self, index: int, det_f: float, label: str = "cell"):
        self.index = index
        self.det_f = det_f
        what = "inverted element" if np.isfinite(det_f) else "non-finite deformation"
        super().__init__(f"{what}: det(F) = {det_f:.6e} at {label} {index}")


def check_positive_jacobian(det_f: np.ndarray, label: str) -> None:
    """Raise InvertedElementError at the first non-finite det(F), or else
    at the smallest one if it is not positive.  One min and one max clear
    a stack that is all finite and positive (NaN fails both tests)."""
    det_f = np.atleast_1d(det_f)
    if det_f.size == 0 or (det_f.min() > 0.0 and det_f.max() < np.inf):
        return
    finite = np.isfinite(det_f)
    bad = int(np.argmin(det_f) if finite.all() else np.argmin(finite))
    if not (finite[bad] and det_f[bad] > 0.0):
        raise InvertedElementError(bad, float(det_f[bad]), label)


@dataclass
class StressBuffers:
    """What ``stress_state`` writes besides its input, for one stack of
    gradients (``material.buffers``): one scratch value per tensor, and
    the neo-Hookean P (in the gradient's layout), det F and k."""
    scratch: np.ndarray
    p: np.ndarray | None = None
    det: np.ndarray | None = None
    k: np.ndarray | None = None


class NeoHookean:
    """Compressible neo-Hookean solid.

    P = mu F + (lam ln J - mu) F^-T with J = det F, formed from cof(F) = J F^-T.
    """

    linear = False

    def __init__(self, lame: Lame):
        self.mu = lame.mu
        self.lam = lame.lam

    def buffers(self, grad_u: np.ndarray) -> StressBuffers:
        """``stress_state``'s buffers for gradients shaped like grad_u."""
        batch = grad_u.shape[:-2]
        return StressBuffers(np.empty(batch), p=np.empty_like(grad_u, dtype=float),
                             det=np.empty(batch), k=np.empty(batch))

    def stress_state(self, grad_u: np.ndarray, out: StressBuffers | None = None):
        # F is formed in place, in the input with ``out`` and otherwise in a
        # copy that keeps the input's layout, so a component-major face
        # gradient gives component-major F and P.  The identity goes in
        # through the two diagonal components, not as a (2, 2) broadcast.
        if out is None:
            grad_u = np.array(grad_u, dtype=float)
            out = self.buffers(grad_u)
        f, scratch = grad_u, out.scratch
        f[..., 0, 0] += 1.0
        f[..., 1, 1] += 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # reported as non-finite
            det_f = det2(f, out.det, scratch)
        check_positive_jacobian(det_f, "cell")
        k = np.log(det_f, out=out.k)        # (lam ln J - mu) / J
        k *= self.lam
        k -= self.mu
        k /= det_f
        p = np.multiply(self.mu, f, out=out.p)
        p[..., 0, 0] += np.multiply(k, f[..., 1, 1], out=scratch)
        p[..., 0, 1] -= np.multiply(k, f[..., 1, 0], out=scratch)
        p[..., 1, 0] -= np.multiply(k, f[..., 0, 1], out=scratch)
        p[..., 1, 1] += np.multiply(k, f[..., 0, 0], out=scratch)
        return f, p

    def face_linearisation(self, f: np.ndarray, n: np.ndarray, directions) -> np.ndarray:
        """Flux coefficient H(m) of a face state for each direction m, in
        the closed form

            H(m) = lam (a x A m) + c (A m x a) + mu (N.m) I

        with A = F^-T, a = A N, c = mu - lam ln J (the stress terms add up to
        mu (N.m) I, as S N = mu N - c C^-1 N).  Grouped by modulus, it rounds
        at F = I as ``LinearElastic`` does: the tangent at rest is Hookean bit
        for bit.  Returns one (n_directions, ..., 2, 2) array, written one
        component at a time (see ``_flux_blocks``).  The property tests hold
        H against the brute contraction, and the matrix form in the test
        oracles against this one bit for bit.
        """
        det_f = det2(f)
        r = 1.0 / det_f
        # A = F^-T, the transposed adjugate over J
        a00, a01 = f[..., 1, 1] * r, -f[..., 1, 0] * r
        a10, a11 = -f[..., 0, 1] * r, f[..., 0, 0] * r
        n0, n1 = n[..., 0], n[..., 1]
        a0, a1 = a00 * n0 + a01 * n1, a10 * n0 + a11 * n1
        log_j = np.log(det_f)
        lam, mu = self.lam, self.mu

        def block(m0, m1):
            am0, am1 = a00 * m0 + a01 * m1, a10 * m0 + a11 * m1
            nm = n0 * m0 + n1 * m1
            # (A m x a)_ij; a x A m is its transpose
            p00, p01, p10, p11 = am0 * a0, am0 * a1, am1 * a0, am1 * a1
            return (lam * (p00 - log_j * p00) + mu * (p00 + nm),
                    lam * (p10 - log_j * p01) + mu * p01,
                    lam * (p01 - log_j * p10) + mu * p10,
                    lam * (p11 - log_j * p11) + mu * (p11 + nm))

        return _flux_blocks(block, directions)


class LinearElastic:
    """Small-strain Hookean solid with frozen geometry.

    The stress is P = sigma = mu (g + g^T) + lam tr(g) I for the displacement
    gradient g; ``stress_state`` reports F = I so flux and linearisation
    carry no geometric terms and the coupled solve is exact in one go.
    """

    linear = True

    def __init__(self, lame: Lame):
        self.mu = lame.mu
        self.lam = lame.lam

    def buffers(self, grad_u: np.ndarray) -> StressBuffers:
        """``stress_state``'s buffers for gradients shaped like grad_u."""
        return StressBuffers(np.empty(grad_u.shape[:-2]))

    def stress_state(self, grad_u: np.ndarray, out: StressBuffers | None = None):
        # P is formed in place, in the input with ``out`` and otherwise in a
        # copy that keeps the input's layout.
        if out is None:
            grad_u = np.array(grad_u, dtype=float)
            out = self.buffers(grad_u)
        p = grad_u
        g00, g01, g10, g11 = p[..., 0, 0], p[..., 0, 1], p[..., 1, 0], p[..., 1, 1]
        lam_tr = np.add(g00, g11, out=out.scratch)
        lam_tr *= self.lam
        shear = np.add(g01, g10, out=g01)
        shear *= self.mu
        g10[...] = shear
        for g in (g00, g11):
            np.add(g, g, out=g)
            g *= self.mu
            g += lam_tr
        return np.broadcast_to(IDENTITY, grad_u.shape), p

    def face_linearisation(self, f: np.ndarray, n: np.ndarray, directions) -> np.ndarray:
        """H(m) = lam (N x m) + mu (m x N + (N.m) I) for each direction m,
        one (n_directions, ..., 2, 2) array written per component."""
        lam, mu = self.lam, self.mu
        n0, n1 = n[..., 0], n[..., 1]

        def block(m0, m1):
            # (N x m)_ij; m x N is its transpose, and N.m its trace
            q00, q01, q10, q11 = n0 * m0, n0 * m1, n1 * m0, n1 * m1
            nm = q00 + q11
            return (lam * q00 + mu * (q00 + nm), lam * q01 + mu * q10,
                    lam * q10 + mu * q01, lam * q11 + mu * (q11 + nm))

        return _flux_blocks(block, directions)


def _flux_blocks(block, directions) -> np.ndarray:
    """The four components (00, 01, 10, 11) that ``block(m0, m1)`` returns
    for the stacked directions' components, as one (n_directions, ..., 2, 2)
    array: every direction in one pass, each operand one (n_directions,
    ...) stack.

    Component by component, not as (n, 1, 1) x (2, 2) broadcasts, which
    numpy runs in inner loops of two to four elements: several times
    faster on face stacks, with the same grouping and so the same rounding.
    """
    m = np.stack(directions)
    components = block(m[..., 0], m[..., 1])
    out = np.empty(np.broadcast_shapes(*(np.shape(c) for c in components)) + (2, 2))
    for (i, j), c in zip(((0, 0), (0, 1), (1, 0), (1, 1)), components):
        out[..., i, j] = c
    return out
