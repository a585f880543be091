"""Correctness checks applied to every benchmark operation.

Each check returns None when the result is accepted and a short reason
string when it is rejected.  Checks run outside the timed region and call
the library directly, so they never count towards a layer's trace.
"""

from __future__ import annotations

import math

from driftplan.core import (
    CurrentSchedule,
    CurrentState,
    Pose,
    VehicleSpec,
    angle_difference,
    to_start_frame,
)
from driftplan.planner import ArcMode, PathType, plan
from driftplan.reachability import contains, region_span
from driftplan.trajectory import controls_of, endpoint_residual, integrate_if

TWO_PI = 2.0 * math.pi

# Reachable (theta_f, theta_w) pairs per current speed on the fixed scan
# lattice (theta_f and theta_w in steps of pi/12), recorded from the
# library at the commit that introduced this benchmark.
SCAN_STEP = math.pi / 12
SCAN_VW = (0.25, 0.5, 0.75)
SCAN_REACHABLE = {0.25: 452, 0.5: 400, 0.75: 372}
SCAN_TRIPLES = 24 * 24 * len(SCAN_VW)

_SECTORS = ((PathType.LSL, 0), (PathType.LSL, 1), (PathType.RSR, -1), (PathType.RSR, -2))


def _scale(goal: Pose) -> float:
    return max(1.0, abs(goal.x), abs(goal.y))


def check_plan(start: Pose, goal: Pose, current: CurrentState, vehicle: VehicleSpec,
               sol) -> str | None:
    """A four_pi plan exists, meets its boundary conditions, and beats two_pi."""
    if sol is None:
        return "four_pi plan returned no solution"
    local_goal, local_current = to_start_frame(start, goal, current)
    pos, heading = endpoint_residual(sol, local_goal, local_current, vehicle)
    if not pos <= 1e-9 * _scale(local_goal) or not heading <= 1e-9:
        return f"endpoint residual {pos:.3g} m, {heading:.3g} rad"
    two = plan(start, goal, current, vehicle, ArcMode.TWO_PI)
    if two is not None and not sol.travel_time <= two.travel_time + 1e-9:
        return f"four_pi time {sol.travel_time!r} exceeds two_pi time {two.travel_time!r}"
    return None


def check_two_pi_map(grid, theta_f: float, current: CurrentState,
                     vehicle: VehicleSpec) -> str | None:
    """A cell is reachable exactly when it lies in one of the four sectors."""
    r = vehicle.turning_radius
    scaled = CurrentState(current.speed / vehicle.speed, current.heading)
    regions = [region_span(pt, k, theta_f, scaled, r, TWO_PI) for pt, k in _SECTORS]
    xs = [float(x) for x in grid.xs]
    mismatches = 0
    for j, y in enumerate(grid.ys.tolist()):
        row = grid.dominant[j].tolist()
        times = grid.travel_time[j].tolist()
        for i, x in enumerate(xs):
            member = any(contains(reg, (x, y)) for reg in regions)
            reachable = row[i] != "unreachable"
            if member != reachable or reachable != math.isfinite(times[i]):
                mismatches += 1
    if mismatches:
        return f"{mismatches} cells disagree with the reachable sectors"
    return None


def check_four_pi_map(grid) -> str | None:
    """Extended arcs reach every cell."""
    unreachable = grid.unreachable_count()
    if unreachable:
        return f"{unreachable} unreachable cells in a four_pi map"
    if not all(math.isfinite(t) for t in grid.travel_time.ravel().tolist()):
        return "non-finite travel time in a four_pi map"
    return None


def check_scan(rows) -> str | None:
    """Reachable counts on the fixed lattice equal the recorded ones."""
    if len(rows) != SCAN_TRIPLES:
        return f"scan produced {len(rows)} triples, expected {SCAN_TRIPLES}"
    counts = {vw: 0 for vw in SCAN_VW}
    for _, _, vw, ok in rows:
        counts[vw] += bool(ok)
    if counts != SCAN_REACHABLE:
        return f"scan reachable counts {counts} differ from {SCAN_REACHABLE}"
    return None


def check_six(start: Pose, goal: Pose, current: CurrentState, vehicle: VehicleSpec,
              result) -> str | None:
    """The six-type path flies to the goal and is no slower than two_pi."""
    if result is None:
        return "solve_six returned None"
    sol = result[0]
    local_goal, local_current = to_start_frame(start, goal, current)
    traj = integrate_if(
        Pose(0.0, 0.0, 0.0), controls_of(sol, vehicle),
        CurrentSchedule.constant(local_current), vehicle,
        h=vehicle.turning_radius / vehicle.speed, method="exact",
    )
    end = traj.end_pose()
    miss = math.hypot(end.x - local_goal.x, end.y - local_goal.y)
    heading = angle_difference(end.theta, local_goal.theta)
    if not miss <= 1e-6 * _scale(local_goal) or not heading <= 1e-6:
        return f"integrated endpoint misses the goal by {miss:.3g} m, {heading:.3g} rad"
    two = plan(start, goal, current, vehicle, ArcMode.TWO_PI)
    if two is not None and not sol.travel_time <= two.travel_time + 1e-9 * max(1.0, two.travel_time):
        return f"six-type time {sol.travel_time!r} exceeds two_pi time {two.travel_time!r}"
    return None


def check_mission(scenario, result) -> str | None:
    """The mission converged and its final pose passes the termination test."""
    if not result.converged:
        return "mission did not converge"
    traj = result.trajectory
    x, y, theta = float(traj.x[-1]), float(traj.y[-1]), float(traj.theta[-1])
    goal = scenario.goal
    dist = math.hypot(x - goal.x, y - goal.y)
    if not dist <= scenario.precision_radius:
        return f"final pose {dist:.3g} m from the goal"
    if not angle_difference(theta, goal.theta) <= scenario.heading_tolerance:
        return "final heading outside the tolerance"
    if not result.total_time <= scenario.t_max:
        return "mission ran past t_max"
    return None
