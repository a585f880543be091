"""Minimum-time path planning for constant-speed, curvature-constrained
vehicles under uniform environmental currents.

Closed-form arc-line-arc planning in the drift frame, reachable-region
analysis, a six-path-type numeric baseline, and a replanning mission
simulator.

The package namespace is lazy (PEP 562): `import driftplan` imports no
submodule, and each public name imports its module on first use.  A
closed-form plan takes microseconds, and importing numpy and the array
modules takes a fresh process thousands of times as long, so a library user
who only plans should not pay for them; `driftplan.plan` reaches `core` and
`planner` alone, which import no numpy.  A name is looked up in its module
on every access and never cached here, so `driftplan.X is
driftplan.<module>.X` holds also while a caller has rebound the module's
attribute.
"""

from importlib import import_module

__version__ = "0.1.0"

# The module that defines each public name.
_MODULE_OF = {name: module for module, names in (
    ("baseline", ("LatencyModel", "SolverConfig", "solve_six")),
    ("core", ("CurrentSchedule", "CurrentState", "Pose", "VehicleSpec", "current_at",
              "from_start_frame", "normalize_angle", "to_start_frame")),
    ("planner", ("ArcMode", "PathSolution", "PathType", "extended_k_solutions", "plan")),
    ("reachability", ("FullReachability", "RegionDescriptor", "full_reachability_2pi",
                      "reachability_map", "region_span")),
    ("scenario", ("NoiseModel", "Scenario")),
    ("simulator", ("RunResult", "check_termination", "drift_predict", "estimate_heading_mle",
                   "run_scenario")),
    ("trajectory", ("ControlSchedule", "SampledTrajectory", "cf_path", "controls_of",
                    "integrate_if")),
) for name in names}

_SUBMODULES = ("baseline", "cli", "core", "experiments", "planner", "reachability", "scenario",
               "simulator", "trajectory")

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
