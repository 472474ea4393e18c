"""The run's workspace: residual evaluations and seg solves that allocate
no stack, and answers that do not depend on what the buffers held before.

``solver.run`` makes one ``assembly.Workspace`` per run, and seg's set-up
its own buffers; every face and unknown stack of a correction is written
into them.  A call without a workspace makes one, so both routes run the
same code and must agree bit for bit.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from fvsolid import MMSCase, SolveConfig, build_mesh, mms_bcs, solver
from fvsolid.assembly import (Workspace, build_boundary_table, face_states,
                              force_row_mask, newton_rhs)
from fvsolid.kinematics import State, advance_state, zero_state
from fvsolid.material import InvertedElementError, Lame, LinearElastic, NeoHookean
from tests.test_assembly import MIXED

UNIT = NeoHookean(Lame(mu=0.8, lam=1.3))
HOOKE = LinearElastic(Lame(mu=0.8, lam=1.3))


def peak_rise(call) -> int:
    """Bytes by which one call raises tracemalloc's peak, after a warm-up
    call outside the trace."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def random_state(mesh, rng, scale=0.01) -> State:
    """Random displacements of ``scale`` cell widths."""
    u = scale * min(mesh.dx, mesh.dy) * rng.standard_normal((mesh.n_unknowns, 2))
    return State(np.asfortranarray(u))


@pytest.mark.parametrize("material", [UNIT, HOOKE], ids=["neo", "linear"])
def test_residual_evaluation_allocates_no_stack(material, rng):
    """At 32x32 one ``face_states`` + ``newton_rhs`` + residual norm through
    the run's buffers raises the allocation peak by less than one face
    vector: every stack is written into the workspace."""
    mesh = build_mesh(32, 32, 1.0, 1.0)
    table = build_boundary_table(mesh, MIXED)
    state = random_state(mesh, rng)
    work = Workspace(mesh, material)
    weight = np.ones((mesh.n_unknowns, 2), order="F")
    weighted = np.empty_like(weight)

    def evaluate():
        _, flux = face_states(mesh, material, state, work)
        rhs = newton_rhs(mesh, state, table, flux, work)
        solver._residual(rhs, weight, weighted)

    assert peak_rise(evaluate) < mesh.n_faces * 8


def test_seg_solve_allocates_no_stack(rng):
    """At 32x32 one seg solve (fast diagonalisation) and the in-place
    ``advance_state`` raise the allocation peak by less than one face
    vector."""
    mesh = build_mesh(32, 32, 1.0, 1.0)
    bcs = mms_bcs(MMSCase("uniaxial", "displacement", 1.1), UNIT)
    table = build_boundary_table(mesh, bcs)
    solve = solver._segregated(mesh, UNIT, table, force_row_mask(mesh, table),
                               SolveConfig(method="seg"))
    rhs = np.asfortranarray(rng.standard_normal((mesh.n_unknowns, 2)))
    state = zero_state(mesh)

    def correct():
        advance_state(state, solve(None, rhs, None), state)

    assert peak_rise(correct) < mesh.n_faces * 8


FOLDS = [   # (row, shift, message) on mesh_small, see tests/test_assembly.py
    (13, (1.0, 0.0), "inverted element: det(F) = -1.000000e+00 at cell 3"),
    (4, (-0.75, 0.0), "inverted element: det(F) = -5.000000e-01 at face 1"),
    (15, (0.375, 0.0), "inverted element: det(F) = -5.000000e-01 at boundary face 3"),
]


def fold_message(mesh, row, shift, work=None) -> str:
    state = zero_state(mesh)
    state.displacement[row] = shift
    with pytest.raises(InvertedElementError) as err:
        face_states(mesh, UNIT, state, work)
    return str(err.value)


@pytest.mark.parametrize("material", [UNIT, HOOKE], ids=["neo", "linear"])
def test_reused_workspace_gives_the_same_bits(mesh_small, rng, material):
    """F, flux and -r of one state are the same bit for bit through a
    fresh workspace, a reused one, one that a fold left half-written, and
    without one; they are views of the workspace's buffers."""
    mesh, table = mesh_small, build_boundary_table(mesh_small, MIXED)
    state, other = random_state(mesh, rng), random_state(mesh, rng, 0.05)

    def evaluate(work=None):
        f_face, flux = face_states(mesh, material, state, work)
        rhs = newton_rhs(mesh, state, table, flux, work)
        if work is not None:
            assert np.shares_memory(flux, work.flux) and np.shares_memory(rhs, work.rhs)
            if not material.linear:
                assert np.shares_memory(f_face, work.grad)
        return f_face.copy(), flux.copy(), rhs.copy()

    expected = evaluate()
    reused = Workspace(mesh, material)
    face_states(mesh, material, other, reused)
    folded = Workspace(mesh, material)
    for row, shift, _ in FOLDS:
        if material.linear:     # frozen geometry cannot fold
            face_states(mesh, material, other, folded)
        else:
            fold_message(mesh, row, shift, folded)
    for work in (Workspace(mesh, material), reused, folded):
        for got, want in zip(evaluate(work), expected):
            npt.assert_array_equal(got, want)


@pytest.mark.parametrize("row,shift,message", FOLDS)
def test_fold_messages_do_not_depend_on_the_workspace(mesh_small, rng, row, shift,
                                                      message):
    """A fold reads the same, byte for byte, without a workspace, through
    a fresh one and through one that earlier evaluations filled."""
    used = Workspace(mesh_small, UNIT)
    face_states(mesh_small, UNIT, random_state(mesh_small, rng), used)
    for row_before, shift_before, _ in FOLDS:
        fold_message(mesh_small, row_before, shift_before, used)
    for work in (None, Workspace(mesh_small, UNIT), used):
        assert fold_message(mesh_small, row, shift, work) == message
