"""Ground states of weakly coupled cubic Schrodinger systems.

Radial finite-difference solver for the system

    -Laplace(u_i) + lambda_i u_i = mu_i u_i^3 + u_i sum_{j != i} b_ij u_j^2

on R^N (N = 1, 2, 3), with Nehari-constrained minimization, a semitrivial /
fully-nontrivial phase classifier, equal-lambda system reduction, and the
closed-form parameter thresholds as checkable predicates.
"""

from .functional import ActionBreakdown, action, simplex_qp_max
from .grid import MultiField, RadialGrid, default_radius
from .params import ParameterSet, alpha_threshold, small_b_bound, validate
from .phase import (
    FULLY_NONTRIVIAL,
    INCONCLUSIVE,
    SEMITRIVIAL,
    PhaseOptions,
    PhaseVerdict,
    classify,
    sweep,
)
from .reduction import ReducedSystem, lift_ground_state, reduce_system
from .solver import (
    GroundStateResult,
    ground_state,
    minimize_restricted,
    perturbation_certificate,
    semitrivial_level,
)

__version__ = "0.1.0"

__all__ = [
    "ActionBreakdown",
    "FULLY_NONTRIVIAL",
    "GroundStateResult",
    "INCONCLUSIVE",
    "MultiField",
    "ParameterSet",
    "PhaseOptions",
    "PhaseVerdict",
    "RadialGrid",
    "ReducedSystem",
    "SEMITRIVIAL",
    "action",
    "alpha_threshold",
    "classify",
    "default_radius",
    "ground_state",
    "lift_ground_state",
    "minimize_restricted",
    "perturbation_certificate",
    "reduce_system",
    "semitrivial_level",
    "simplex_qp_max",
    "small_b_bound",
    "sweep",
    "validate",
]
