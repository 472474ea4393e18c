"""Cell-centred finite-volume solver for finite-strain solid mechanics.

Coupled Newton corrections on the total-Lagrangian momentum balance with a
neo-Hookean or small-strain material, a segregated baseline, and a
manufactured-solution verification harness.
"""

from .assembly import (BoundaryCondition, assemble_system,
                       build_boundary_table)
from .kinematics import State, advance_state, zero_state
from .linsolve import solve
from .material import (InvertedElementError, Lame, LinearElastic, NeoHookean,
                       lame_from_E_nu)
from .mesh import BOTTOM, LEFT, RIGHT, TOP, CartesianMesh, build_mesh
from .solver import RunReport, SolveConfig, run
from .verification import (ErrorMetrics, MMSCase, cantilever_deflection,
                           compute_errors, mms_bcs)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCondition", "assemble_system", "build_boundary_table",
    "State", "advance_state", "zero_state",
    "solve",
    "InvertedElementError", "Lame", "LinearElastic", "NeoHookean",
    "lame_from_E_nu",
    "BOTTOM", "LEFT", "RIGHT", "TOP", "CartesianMesh", "build_mesh",
    "RunReport", "SolveConfig", "run",
    "ErrorMetrics", "MMSCase", "cantilever_deflection", "compute_errors",
    "mms_bcs",
    "__version__",
]
