"""Shared fixtures: meshes, materials, and deterministic random states."""

from __future__ import annotations

import numpy as np
import pytest

from fvsolid import LinearElastic, NeoHookean, build_mesh, lame_from_E_nu

SEED = 20260816


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def neo():
    """Soft neo-Hookean solid used by the benchmark cases."""
    return NeoHookean(lame_from_E_nu(0.02e9, 0.3, "plane_strain"))


@pytest.fixture(scope="session")
def linear_mat():
    return LinearElastic(lame_from_E_nu(0.02e9, 0.3, "plane_strain"))


@pytest.fixture(scope="session")
def mesh16():
    return build_mesh(16, 16, 1.0, 1.0)


@pytest.fixture(scope="session")
def mesh_small():
    """Non-square cell counts and aspect ratio to catch index mix-ups."""
    return build_mesh(3, 4, 1.5, 1.0)


def random_gradients(rng, n, scale=0.2):
    """Displacement gradients bounded away from inverted configurations.

    Random 2x2 entries of the given scale; det(I + G) stays positive for
    every draw the suite uses (checked here so a failure is loud).
    """
    g = scale * rng.uniform(-1.0, 1.0, (n, 2, 2))
    det = np.linalg.det(np.eye(2) + g)
    assert det.min() > 0.1, "random state generator produced a near-inverted F"
    return g
