"""Minimum-time path planning for constant-speed, curvature-constrained
vehicles under uniform environmental currents.

Closed-form arc-line-arc planning in the drift frame, reachable-region
analysis, a six-path-type numeric baseline, and a replanning mission
simulator.
"""

from .baseline import LatencyModel, SolverConfig, solve_six
from .core import (
    CurrentSchedule,
    CurrentState,
    Pose,
    VehicleSpec,
    current_at,
    from_start_frame,
    normalize_angle,
    to_start_frame,
)
from .planner import ArcMode, PathSolution, PathType, extended_k_solutions, plan
from .reachability import (
    FullReachability,
    RegionDescriptor,
    full_reachability_2pi,
    reachability_map,
    region_span,
)
from .scenario import NoiseModel, Scenario
from .simulator import (
    RunResult,
    check_termination,
    drift_predict,
    estimate_heading_mle,
    run_scenario,
)
from .trajectory import ControlSchedule, SampledTrajectory, cf_path, controls_of, integrate_if

__version__ = "0.1.0"

__all__ = [
    "ArcMode",
    "ControlSchedule",
    "CurrentSchedule",
    "CurrentState",
    "FullReachability",
    "LatencyModel",
    "NoiseModel",
    "PathSolution",
    "PathType",
    "Pose",
    "RegionDescriptor",
    "RunResult",
    "SampledTrajectory",
    "Scenario",
    "SolverConfig",
    "VehicleSpec",
    "cf_path",
    "check_termination",
    "controls_of",
    "current_at",
    "drift_predict",
    "estimate_heading_mle",
    "extended_k_solutions",
    "from_start_frame",
    "full_reachability_2pi",
    "integrate_if",
    "normalize_angle",
    "plan",
    "reachability_map",
    "region_span",
    "run_scenario",
    "solve_six",
    "to_start_frame",
]
