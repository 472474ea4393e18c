"""Component-major fields: the layout the correction path keeps, and the
answers that do not depend on it.

Every per-unknown (N, 2) field and every per-face or per-cell (n, 2, 2)
stack of the correction path stores each component as one contiguous
vector.  A later change that fell back to interleaved arrays would still
give the right answers, only more slowly, so the layout is held here
directly; the answers are held against the interleaved route of the test
oracles bit for bit, from component-major and from C-ordered states.
"""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from fvsolid import MMSCase, SolveConfig, build_mesh, mms_bcs, solver
from fvsolid.assembly import build_boundary_table, face_states, newton_rhs
from fvsolid.kinematics import State, advance_state, apply, cell_gradient, zero_state
from fvsolid.material import Lame, LinearElastic, NeoHookean
from fvsolid.tensors import matvec2, mul2, outer
from tests import oracles
from tests.test_assembly import MIXED, SYMMETRY_PLANES

UNIT = NeoHookean(Lame(mu=0.8, lam=1.3))
HOOKE = LinearElastic(Lame(mu=0.8, lam=1.3))


def component_major(a: np.ndarray) -> bool:
    """Each component ``a[:, k]`` or ``a[:, i, j]`` is one contiguous vector."""
    return all(a[(slice(None),) + index].flags.c_contiguous
               for index in np.ndindex(a.shape[1:]))


def states(mesh, rng, scale=0.01):
    """The same random displacement as a component-major and as a
    C-ordered (interleaved) state."""
    u = scale * rng.standard_normal((mesh.n_unknowns, 2))
    return State(np.asfortranarray(u)), State(np.ascontiguousarray(u))


def test_states_and_gradients_are_component_major(mesh_small, rng):
    state = zero_state(mesh_small)
    assert component_major(state.displacement)
    for start in states(mesh_small, rng):
        advanced = advance_state(start, np.ones((mesh_small.n_unknowns, 2)))
        assert component_major(advanced.displacement)
        grad = cell_gradient(mesh_small, start.displacement)
        assert grad.shape == (mesh_small.n_cells, 2, 2)
        assert component_major(grad)


@pytest.mark.parametrize("bcs", [MIXED, SYMMETRY_PLANES], ids=["mixed", "symmetry"])
def test_residual_path_is_component_major(mesh_small, rng, bcs):
    """F and P N of ``face_states`` and the right-hand side of
    ``newton_rhs``, from either layout of the state.  The linear model's F
    is a read-only broadcast of the identity, so only its P N is held."""
    table = build_boundary_table(mesh_small, bcs)
    for state in states(mesh_small, rng):
        for material in (UNIT, HOOKE):
            f_face, flux = face_states(mesh_small, material, state)
            assert component_major(flux)
            if not material.linear:
                assert component_major(f_face)
            assert component_major(newton_rhs(mesh_small, state, table, flux))


@pytest.mark.parametrize("bcs", [MIXED, SYMMETRY_PLANES], ids=["mixed", "symmetry"])
def test_residual_does_not_depend_on_layout(mesh_small, rng, bcs):
    """Component-major and C-ordered states give the same F, P N and -r
    bit for bit, and both equal the interleaved one-product route."""
    table = build_boundary_table(mesh_small, bcs)
    fast, caller = states(mesh_small, rng)
    for material in (UNIT, HOOKE):
        ref_f, ref_flux = oracles.interleaved_face_states(mesh_small, material, caller)
        ref_rhs = oracles.interleaved_newton_rhs(mesh_small, caller, table, ref_flux)
        for state in (fast, caller):
            f_face, flux = face_states(mesh_small, material, state)
            npt.assert_array_equal(f_face, ref_f)
            npt.assert_array_equal(flux, ref_flux)
            npt.assert_array_equal(newton_rhs(mesh_small, state, table, flux), ref_rhs)


@pytest.mark.parametrize("method", ["nlbc", "bc", "seg"])
def test_increments_are_component_major(method, monkeypatch):
    """Each method's increment, and so the state it advances, keeps the
    component-major layout through every correction of a run."""
    mesh = build_mesh(6, 5, 1.0, 1.0)
    increments = []
    advance = solver.advance_state

    def recording(state, increment, *out):
        increments.append(increment)
        return advance(state, increment, *out)

    monkeypatch.setattr(solver, "advance_state", recording)
    case = MMSCase("uniaxial", "displacement", 1.1)
    report = solver.run(mesh, UNIT, mms_bcs(case, UNIT),
                        SolveConfig(method=method, n_load_steps=2))
    assert report.converged and increments
    assert all(component_major(increment) for increment in increments)
    assert component_major(report.state.displacement)


def test_apply_is_the_product_per_component(mesh_small, rng):
    """``apply`` equals the two-column product bit for bit, from either
    layout, for every operator it serves on meshes down to one cell, also
    into a used output buffer, and refuses an operator that is not CSR or
    whose columns do not match the field's rows, and an output of the
    wrong shape."""
    for mesh in (mesh_small, build_mesh(1, 1, 1.0, 1.0), build_mesh(3, 1, 3.0, 0.5)):
        for operator in (mesh.face_gradient, mesh.gauss_gradient, mesh.face_rows,
                         mesh.vertex_stencil):
            v = rng.standard_normal((operator.shape[1], 2))
            used = rng.standard_normal((2, operator.shape[0]))
            for values in (v, np.asfortranarray(v)):
                for out in (apply(operator, values), apply(operator, values, used)):
                    assert component_major(out)
                    npt.assert_array_equal(out, operator @ v)
    u = rng.standard_normal((mesh_small.n_unknowns, 2))
    operator = mesh_small.face_gradient
    with pytest.raises(ValueError, match="CSR"):
        apply(operator, u[1:])
    with pytest.raises(ValueError, match="CSR"):
        apply(operator.tocsc(), u)
    with pytest.raises(ValueError, match="output"):
        apply(operator, u, np.empty((2, operator.shape[0] - 1)))


def test_tensor_kernels_return_component_major(rng):
    a, b = rng.standard_normal((2, 7, 2, 2))
    v = rng.standard_normal((7, 2))
    for out in (mul2(a, b), matvec2(a, v), outer(v, v)):
        assert component_major(out)
