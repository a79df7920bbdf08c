"""Barrier construction, verification, and simulation for a fast
diffusion equation with type-II extinction.

The package builds matched sub/supersolution pairs from an outer
expansion in self-similar variables and an inner profile obtained by
shooting, verifies their differential-inequality sign verdicts over
explicit regions, and sandwiches a simulated radial solution between
them to extract the amplitude decay rate.
"""

from . import errors
from .matching import (
    GluedBarrier,
    MatchingSolver,
    check_ordering,
    find_epsilon_bounds,
)
from .outer import OuterProfileSet, branch_variant
from .params import (
    DerivedConstants,
    ModelParams,
    ThresholdConfig,
    default_thresholds,
    load_config,
    theta,
    validate_params,
)
from .pde import (
    Trajectory,
    comparison_sandwich,
    extinction_rate,
    solve_radial_fde,
    weak_corner_term,
)
from .residuals import Region, find_thresholds, verify_sign_region
from .selfsim import (
    SelfSimilarProfile,
    save_profile,
    shoot_v0,
    verify_tail_asymptotics,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "DerivedConstants",
    "ModelParams",
    "ThresholdConfig",
    "default_thresholds",
    "load_config",
    "theta",
    "validate_params",
    "OuterProfileSet",
    "branch_variant",
    "SelfSimilarProfile",
    "shoot_v0",
    "save_profile",
    "verify_tail_asymptotics",
    "MatchingSolver",
    "GluedBarrier",
    "check_ordering",
    "find_epsilon_bounds",
    "Region",
    "verify_sign_region",
    "find_thresholds",
    "Trajectory",
    "comparison_sandwich",
    "extinction_rate",
    "solve_radial_fde",
    "weak_corner_term",
    "__version__",
]
