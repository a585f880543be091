"""Control schedules, kinematic integration, and sampled path rendering.

Integration doubles as the independent check on every closed-form solver:
running the planned controls through the vehicle kinematics must land on
the goal pose.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain

import numpy as np

from .core import (
    CurrentSchedule,
    CurrentState,
    Pose,
    VehicleSpec,
    angle_difference,
    current_at,
    normalize_angle,
)
from .planner import SEGMENT_SIGNS, PathSolution, first_turn_sign, interception_residual

_STILL = CurrentSchedule.constant(CurrentState(0.0, 0.0))


@dataclass(frozen=True)
class ControlSegment:
    turn_rate: float
    duration: float


@dataclass(frozen=True)
class ControlSchedule:
    """Turn-rate segments flown back to back; ends[i] is when segment i ends."""

    segments: tuple[ControlSegment, ...]
    ends: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ends", tuple(accumulate(s.duration for s in self.segments)))

    @property
    def total_duration(self) -> float:
        return self.ends[-1] if self.ends else 0.0

    def turn_rate_at(self, t: float) -> float | None:
        """Turn rate flown at plan time t; None once every segment has ended."""
        i = bisect_right(self.ends, t)
        return self.segments[i].turn_rate if i < len(self.segments) else None


@dataclass(frozen=True)
class SampledTrajectory:
    """Columnar (t, x, y, theta) samples in either frame.

    Times are strictly increasing from 0 and the first sample is the start
    pose; frame is "inertial" or "current".
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    frame: str

    def end_pose(self) -> Pose:
        return Pose(float(self.x[-1]), float(self.y[-1]), float(self.theta[-1]))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "y", "theta", "frame"])
            for i in range(len(self.t)):
                writer.writerow(
                    [repr(float(self.t[i])), repr(float(self.x[i])),
                     repr(float(self.y[i])), repr(float(self.theta[i])), self.frame]
                )


def controls_of(sol: PathSolution, vehicle: VehicleSpec) -> ControlSchedule:
    """Three-segment turn-rate schedule realizing a solution.

    Arc segments run at +/-max turn rate for r*angle/v seconds; the middle
    segment lasts beta/v seconds (straight for CSC, opposite-turn arc for
    CCC, for which beta already stores the arc length).
    """
    u = vehicle.max_turn_rate
    v = vehicle.speed
    r = vehicle.turning_radius
    s1, s2, s3 = SEGMENT_SIGNS[sol.path_type]
    return ControlSchedule((
        ControlSegment(s1 * u, r * sol.alpha / v),
        ControlSegment(s2 * u, sol.beta / v),
        ControlSegment(s3 * u, r * sol.gamma / v),
    ))


def _advance(x, y, theta, u, wx, wy, v, h):
    """Advance one step with the closed-form constant-turn-rate update."""
    if u == 0.0:
        return (x + (v * math.cos(theta) + wx) * h,
                y + (v * math.sin(theta) + wy) * h,
                theta)
    theta1 = theta + u * h
    return (x + (v / u) * (math.sin(theta1) - math.sin(theta)) + wx * h,
            y - (v / u) * (math.cos(theta1) - math.cos(theta)) + wy * h,
            theta1)


def _starts_inside(schedule: CurrentSchedule, t0: float, t1: float) -> tuple[float, ...]:
    """The schedule's start times strictly between t0 and t1, by bisection."""
    starts = schedule.starts
    return starts[bisect_right(starts, t0):bisect_left(starts, t1)]


def pieces(controls: ControlSchedule, schedule: CurrentSchedule, armed_at: float,
           t0: float, t1: float):
    """Split [t0, t1] where a segment of the plan armed at armed_at ends or
    the current changes; yield (start, end, turn rate, current) per piece.

    Both are looked up once, at the piece midpoint; the turn rate is None
    past the plan's last segment.
    """
    ends = (armed_at + e for e in controls.ends)
    cuts = sorted({t for t in chain(ends, _starts_inside(schedule, t0, t1)) if t0 < t < t1})
    bounds = [t0, *cuts, t1]
    for a, b in zip(bounds, bounds[1:]):
        if a < b:
            mid = 0.5 * (a + b)
            yield a, b, controls.turn_rate_at(mid - armed_at), current_at(schedule, mid)


def _segment_pieces(controls: ControlSchedule, schedule: CurrentSchedule):
    """Cut each control segment only at the current changes inside it; yield
    (start time, duration, turn rate, current) per piece.

    A segment with no change inside is one piece of exactly its own
    duration, so a long plan keeps its heading to rounding.  The current is
    looked up at the piece midpoint.
    """
    for seg, t0 in zip(controls.segments, (0.0, *controls.ends)):
        inside = (t - t0 for t in _starts_inside(schedule, t0, t0 + seg.duration))
        bounds = [0.0, *inside, seg.duration]
        for a, b in zip(bounds, bounds[1:]):
            if a < b:
                yield t0 + a, b - a, seg.turn_rate, current_at(schedule, t0 + 0.5 * (a + b))


def _sample(origin: Pose, u: float, cur: CurrentState, v: float, offsets) -> list[Pose]:
    """Poses flown from origin at turn rate u under one current, one per
    offset in seconds; each is one closed-form `_advance` from origin."""
    wx, wy = cur.wx, cur.wy
    return [Pose(*_advance(origin.x, origin.y, origin.theta, u, wx, wy, v, s)) for s in offsets]


def integrate_if(
    start: Pose,
    controls: ControlSchedule,
    schedule: CurrentSchedule,
    vehicle: VehicleSpec,
    h: float,
    method: str = "exact",
) -> SampledTrajectory:
    """Fly a control schedule through a current schedule in the inertial frame.

    Each control segment is flown for exactly its own duration, cut only at
    the current changes inside it.  A piece is sampled at most h apart, and
    every sample is one closed-form constant-turn `_advance` from the piece
    start, so neither long arcs nor small h accumulate error; h may be
    infinite, giving the piece ends only.  "exact" is the only method.
    """
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h!r}")
    if method != "exact":
        raise ValueError(f"unknown integration method {method!r}")
    ts = [0.0]
    poses = [start]
    for t0, span, u, cur in _segment_pieces(controls, schedule):
        n = max(1, math.ceil(span / h))
        offsets = [span * i / n for i in range(1, n)] + [span]
        poses += _sample(poses[-1], u, cur, vehicle.speed, offsets)
        ts += [t0 + s for s in offsets]
    return SampledTrajectory(
        np.asarray(ts), np.array([p.x for p in poses]), np.array([p.y for p in poses]),
        np.array([p.theta for p in poses]), "inertial",
    )


def cf_path(
    sol: PathSolution,
    vehicle: VehicleSpec,
    start: Pose = Pose(0.0, 0.0, 0.0),
    h: float | None = None,
) -> SampledTrajectory:
    """Arc-line-arc samples in the drift frame: `integrate_if` on a still
    current, labelled "current".

    The endpoint equals the goal displaced by -w*T when the solution is
    valid.  h defaults to 1e-3 r/v.
    """
    if h is None:
        h = 1e-3 * vehicle.turning_radius / vehicle.speed
    traj = integrate_if(start, controls_of(sol, vehicle), _STILL, vehicle, h)
    return replace(traj, frame="current")


def endpoint_residual(
    sol: PathSolution,
    goal: Pose,
    current: CurrentState,
    vehicle: VehicleSpec,
) -> tuple[float, float]:
    """Algebraic defect of a solution against its boundary conditions.

    Returns (position residual in meters, heading residual in radians) from
    substituting the parameters into the drift-frame interception equations;
    goal in the start frame.
    """
    heading = normalize_angle(first_turn_sign(sol.path_type) * (sol.alpha + sol.gamma))
    position = interception_residual(
        sol.path_type, sol.alpha, sol.beta, goal, current, vehicle.turning_radius,
        sol.travel_time,
    )
    return position, angle_difference(heading, goal.theta)
