"""Closed-form minimum-time LSL/RSR paths in a drift frame.

Planning happens in the frame that translates with the current: there the
vehicle flies ordinary arc-line-arc geometry while the goal drifts at the
opposite of the current velocity, so interception reduces to a small set of
closed-form candidates indexed by a winding index k.  Arc angles may be
capped at 2*pi (classical) or extended to 4*pi, which restores full
reachability and often shortens the interception time.  `plan_goals` is
`plan` over arrays of goals that share one heading and current, for grids.
Each closed form is written once for floats and arrays, calling math or
numpy by its argument's type, so both share every formula; solve_beta's
root does not cancel, which keeps 4*pi plans complete near unit current.

The closed forms run at unit speed.  `plan` scales the start-frame current
by 1/v once and hands `solve_one` a unit-speed vehicle, so its four
candidates find the problem already normalized; `plan_goals` normalizes
once per grid.  `coeffs`, `solve_beta` and `interception_residual` wrap
private forms that take the goal as plain x, y and the sine and cosine of
its heading, which `solve_one` computes once and `plan_goals` passes with
array x and y.  `plan_goals` is the whole grid kernel; `solve_one` stays
the scalar path, as numpy's per-call cost makes a one-goal array slower.

A plan builds about three PathSolutions and four ParamIntervals and keeps
at most one, so both set every field with one __dict__ update in their own
__init__, where a frozen dataclass's generated __init__ pays an
object.__setattr__ call per field.  dataclass keeps a class's own
__init__, so replace, ==, hash, repr, pickling and the refusal of
assignment stay as dataclass makes them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FOUR_PI,
    TWO_PI,
    CurrentState,
    Pose,
    VehicleSpec,
    normalize_angle,
    to_start_frame,
)

LSL_K_EXTENDED = (0, 1, 2, 3)
RSR_K_EXTENDED = (-1, -2, -3, -4)

# Absolute angular slack absorbing atan2 rounding at interval endpoints.
RANGE_SLACK = 1e-9


class PathType(str, enum.Enum):
    LSL = "LSL"
    RSR = "RSR"
    LSR = "LSR"
    RSL = "RSL"
    LRL = "LRL"
    RLR = "RLR"


# Turn-direction signs (first, middle, last segment) per path type.  Each
# type mirrors the one with every sign flipped (RSR is LSL reflected), so a
# closed form written in the first-turn sign s serves both.
SEGMENT_SIGNS = {
    PathType.LSL: (1, 0, 1),
    PathType.RSR: (-1, 0, -1),
    PathType.LSR: (1, 0, -1),
    PathType.RSL: (-1, 0, 1),
    PathType.LRL: (1, -1, 1),
    PathType.RLR: (-1, 1, -1),
}


# The closed-form path types in plan's tie-break order, each with the winding
# indices searched; larger |k| never improves the time.  plan_goals's winner
# codes index this order, and the 2*pi sectors of reachability are its rows.
WINDING_CANDIDATES = {PathType.LSL: (0, 1), PathType.RSR: (-1, -2)}

# Travel times in seconds this close tie, and a tie keeps the earlier candidate.
TIME_TIE = 1e-12


def _num(x):
    """The module a closed form calls on x: numpy for an array, else math."""
    return np if isinstance(x, np.ndarray) else math


class ArcMode(str, enum.Enum):
    """Arc-range cap selector: classical 2*pi arcs or extended 4*pi arcs."""

    TWO_PI = "two_pi"
    FOUR_PI = "four_pi"

    @property
    def kappa(self) -> float:
        return TWO_PI if self is ArcMode.TWO_PI else FOUR_PI


@dataclass(frozen=True)
class PathSolution:
    """One arc-line-arc solution.

    alpha and gamma are the first/last arc angles in radians, beta the
    middle-segment length in meters (straight length for CSC paths, middle
    arc length r*angle for CCC paths so the time formula is uniform), k the
    winding index of the heading-closure constraint, kappa the arc-range cap
    the solution was produced under, and travel_time the time in seconds.
    """

    path_type: PathType
    k: int
    alpha: float
    beta: float
    gamma: float
    kappa: float
    travel_time: float

    def __init__(self, path_type: PathType, k: int, alpha: float, beta: float, gamma: float,
                 kappa: float, travel_time: float):
        self.__dict__.update(path_type=path_type, k=k, alpha=alpha, beta=beta, gamma=gamma,
                             kappa=kappa, travel_time=travel_time)


@dataclass(frozen=True)
class ParamInterval:
    """Feasible interval for the arc angles at a given (path type, k, kappa)."""

    lower: float
    upper: float
    closed: bool  # both ends, or neither

    def __init__(self, lower: float, upper: float, closed: bool):
        self.__dict__.update(lower=lower, upper=upper, closed=closed)

    def contains(self, x):
        """Membership with RANGE_SLACK, widening a closed interval and
        narrowing an open one; elementwise for an array."""
        if self.closed:
            return (self.lower - RANGE_SLACK <= x) & (x <= self.upper + RANGE_SLACK)
        return (self.lower + RANGE_SLACK < x) & (x < self.upper - RANGE_SLACK)


def feasible_range(
    path_type: PathType, k: int, theta_f: float, kappa: float
) -> ParamInterval:
    """Feasible alpha/gamma interval for one (path type, k, kappa) row.

    Both arcs lie in [0, kappa) and sum to the total turn
    T = s(2*pi*k + theta_f), s the first-turn sign: the closed [0, T] while T
    holds fewer than kappa/2*pi whole turns, the open (T - kappa, kappa) after
    that, empty from 2*kappa on.  Each bound is 2*pi*j + s*theta_f, integer j.
    """
    if kappa != TWO_PI and kappa != FOUR_PI:
        raise ValueError(f"kappa must be 2*pi or 4*pi, got {kappa!r}")
    cap = 1 if kappa == TWO_PI else 2  # whole turns an arc may hold
    s = first_turn_sign(path_type)
    # Whole turns in T for theta_f in (0, 2*pi): k for LSL, -k - 1 for RSR.
    turns = k if s > 0 else -k - 1
    if not 0 <= turns < 2 * cap:
        raise ValueError(f"no feasible-range row for {path_type} k={k} kappa={kappa}")
    if turns < cap:
        return ParamInterval(0.0, TWO_PI * (s * k) + s * theta_f, True)
    return ParamInterval(TWO_PI * (s * k - cap) + s * theta_f, TWO_PI * cap, False)


def first_turn_sign(path_type: PathType) -> int:
    """First-turn sign s of a closed-form type: +1 for LSL, -1 for RSR, the
    types with no middle turn and both turns one way."""
    first, middle, last = SEGMENT_SIGNS[path_type]
    if middle or first != last:
        raise ValueError("closed forms exist only for LSL and RSR")
    return first


def _coeffs(s: int, turn, x, y, sin_t: float, cos_t: float, wx: float, wy: float, r: float):
    """(A, B) for first-turn sign s and total turn 2*pi*k + theta, from the
    start-frame goal x, y (floats or arrays of one shape) and the sine and
    cosine of its heading theta."""
    a = x - s * r * sin_t - s * wx * r * turn
    b = y - s * r * (1.0 - cos_t) - s * wy * r * turn
    return a, b


def coeffs(path_type: PathType, k: int, goal: Pose, current: CurrentState, r: float):
    """Constants (A, B) of the interception equations for winding index k."""
    theta = goal.theta
    return _coeffs(first_turn_sign(path_type), TWO_PI * k + theta, goal.x, goal.y,
                   math.sin(theta), math.cos(theta), current.wx, current.wy, r)


def _solve_beta(a, b, vw: float, wx: float, wy: float):
    """solve_beta for a current (vw, wx, wy) already checked below unit speed."""
    dot = a * wx + b * wy
    norm2 = a * a + b * b
    num = _num(dot)
    root = num.sqrt(dot * dot + norm2 * (1.0 - vw * vw))
    if num is np:
        beta = (root - dot) / (1.0 - vw * vw)
        return np.divide(norm2, root + dot, out=beta, where=dot > 0.0)
    return norm2 / (root + dot) if dot > 0.0 else (root - dot) / (1.0 - vw * vw)


def solve_beta(a, b, current: CurrentState):
    """Non-negative root of (1-vw^2) b^2 + 2(A wx + B wy) b - (A^2+B^2) = 0.

    The root product is -(A^2+B^2)/(1-vw^2) <= 0, so for current speed below
    the (normalized) vehicle speed the positive branch always exists.  A and
    B are floats or arrays of one shape.

    With dot = A wx + B wy the root is (sqrt(disc) - dot)/(1-vw^2), which
    cancels where dot > 0 (current towards the goal), with a relative error
    like eps/(1-vw): at vw = 1 - 1e-9 that rejects valid plans.  There the
    root is (A^2+B^2)/(sqrt(disc) + dot), the root product over the
    other root, whose sum does not cancel (Goldberg, 1991).
    """
    if current.speed >= 1.0:
        raise ValueError("current speed must be below the normalized vehicle speed")
    return _solve_beta(a, b, current.speed, current.wx, current.wy)


def _residual(s: int, alpha, beta, x, y, sin_t: float, cos_t: float, wx: float, wy: float,
              r: float, travel_time):
    """interception_residual for first-turn sign s, from the start-frame goal
    x, y and the sine and cosine of its heading; alpha, beta, travel_time, x
    and y are floats or arrays of one shape."""
    num = _num(alpha)
    xf = x - wx * travel_time
    yf = y - wy * travel_time
    ex = s * r * sin_t + beta * num.cos(alpha)
    ey = s * (r * (1.0 - cos_t) + beta * num.sin(alpha))
    return num.hypot(xf - ex, yf - ey)


def interception_residual(
    path_type: PathType, alpha, beta, goal: Pose, current: CurrentState, r: float, travel_time
):
    """Position defect of the LSL/RSR interception equations, in meters.

    Compares the goal displaced by the current drift over travel_time with
    the arc-line-arc endpoint; goal in the start frame.  alpha, beta and
    travel_time are floats or arrays of one shape.
    """
    theta = goal.theta
    return _residual(first_turn_sign(path_type), alpha, beta, goal.x, goal.y,
                     math.sin(theta), math.cos(theta), current.wx, current.wy, r, travel_time)


def _normalize_problem(
    current: CurrentState, vehicle: VehicleSpec
) -> tuple[CurrentState, float]:
    """Scale the current by 1/v so the closed forms run at unit speed.

    A unit-speed vehicle's current is returned as it is, which is exact:
    its heading is already normalized, and dividing by 1.0 changes nothing.
    """
    if current.speed >= vehicle.speed:
        raise ValueError("current speed must be less than vehicle speed")
    if vehicle.speed == 1.0:
        return current, 1.0
    return CurrentState(current.speed / vehicle.speed, current.heading), vehicle.speed


def _check_radius(x, y, r: float) -> None:
    """Refuse a turning radius whose closed-form terms overflow at start-frame
    goals x, y (floats or arrays of one shape): over plan's windings A and B
    lie within (2 + 4*pi) r of x and y, and solve_beta squares them."""
    reach = (2.0 + FOUR_PI) * r
    u, w = abs(x) + reach, abs(y) + reach
    if isinstance(x, np.ndarray):
        with np.errstate(over="ignore"):
            bad = np.flatnonzero(~np.isfinite(u * u + w * w))
        if not bad.size:
            return
        x, y = float(x.flat[bad[0]]), float(y.flat[bad[0]])
    elif math.isfinite(u * u + w * w):
        return
    raise ValueError(f"vehicle turning_radius {r!r} is too large for a goal at ({x!r}, {y!r}):"
                     " the closed-form terms overflow")


def solve_one(
    path_type: PathType,
    k: int,
    goal: Pose,
    current: CurrentState,
    vehicle: VehicleSpec,
    kappa: float,
) -> PathSolution | None:
    """Closed-form solution for one (path type, winding index) candidate.

    The goal must be expressed in the start frame.  Returns None when no
    (alpha, beta, gamma) satisfies the interception equations inside the
    feasible ranges.  The equations are solved at unit speed (current scaled
    by 1/v); only the returned travel time is in seconds.
    """
    s = first_turn_sign(path_type)
    current, v = _normalize_problem(current, vehicle)
    r = vehicle.turning_radius
    x, y, theta = goal.x, goal.y, goal.theta
    interval = feasible_range(path_type, k, theta, kappa)
    turn = TWO_PI * k + theta
    arc_sum = s * turn
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    vw, wx, wy = current.speed, current.wx, current.wy
    a, b = _coeffs(s, turn, x, y, sin_t, cos_t, wx, wy, r)
    beta = _solve_beta(a, b, vw, wx, wy)

    scale = max(1.0, abs(x), abs(y))
    if beta <= 1e-9 * scale:
        # Goal at the rotation center: the arc split is free, so take the
        # symmetric one, which is interior for every feasible-range row.
        alpha = 0.5 * arc_sum
        if not interval.contains(alpha):
            return None
        travel = r * arc_sum + beta
        return PathSolution(path_type, k, alpha, beta, arc_sum - alpha, kappa, travel / v)

    base = normalize_angle(math.atan2(s * (b - beta * wy), a - beta * wx))

    # atan2 pins alpha only modulo 2*pi; enumerate in-range representatives
    # (smallest first for determinism) and close gamma exactly against the
    # winding constraint.
    reps = int(kappa / TWO_PI) + 1
    for j in range(reps):
        alpha = base + TWO_PI * j
        if not interval.contains(alpha):
            continue
        gamma = arc_sum - alpha
        if -RANGE_SLACK < gamma < 0.0:
            gamma = 0.0
        if gamma < 0.0 or not interval.contains(gamma):
            continue
        travel = r * arc_sum + beta
        # The residual's rounding error is relative to its largest terms, and
        # the drift vw*T grows without bound as vw approaches 1.
        terms = abs(x) + abs(y) + vw * travel + r + beta
        defect = _residual(s, alpha, beta, x, y, sin_t, cos_t, wx, wy, r, travel)
        if defect > 1e-9 * max(1.0, terms):
            continue
        return PathSolution(path_type, k, alpha, beta, gamma, kappa, travel / v)
    return None


def plan(
    start: Pose,
    goal: Pose,
    current: CurrentState,
    vehicle: VehicleSpec,
    mode: ArcMode | str = ArcMode.FOUR_PI,
) -> PathSolution | None:
    """Minimum-time LSL/RSR path from start to goal under a steady current.

    Searches the WINDING_CANDIDATES, k in {0, 1} for LSL and {-1, -2} for
    RSR, which suffices for the minimum in both arc modes.  Times within
    TIME_TIE tie, and a tie keeps LSL before RSR, then smaller |k|.  four_pi
    mode always returns a solution for current slower than the vehicle;
    two_pi mode may return None.  A goal whose squared offset from the
    start overflows is refused, and so are a turning radius whose
    closed-form terms overflow and a vehicle speed under which the time in
    seconds does.  The candidates are solved at unit speed and tie-broken
    in seconds.
    """
    kappa = ArcMode(mode).kappa
    local_goal, local_current = to_start_frame(start, goal, current)
    _check_radius(local_goal.x, local_goal.y, vehicle.turning_radius)
    unit_current, v = _normalize_problem(local_current, vehicle)
    unit = vehicle if v == 1.0 else VehicleSpec(1.0, vehicle.turning_radius)
    best: PathSolution | None = None
    best_time = math.inf
    for path_type, ks in WINDING_CANDIDATES.items():
        for k in ks:
            sol = solve_one(path_type, k, local_goal, unit_current, unit, kappa)
            if sol is None:
                continue
            seconds = sol.travel_time / v
            if best is None or seconds < best_time - TIME_TIE:
                best, best_time = sol, seconds
    if best is not None and v != 1.0:
        _check_speed(best_time, local_goal.x, local_goal.y, vehicle.speed)
        best = PathSolution(best.path_type, best.k, best.alpha, best.beta, best.gamma,
                            best.kappa, best_time)
    return best


def _normalize_angles(a: np.ndarray) -> np.ndarray:
    """normalize_angle applied elementwise to a finite array."""
    return _wrap_angles(np.fmod(a, TWO_PI))


def _wrap_angles(a: np.ndarray) -> np.ndarray:
    """_normalize_angles for an array in (-2*pi, 2*pi), such as atan2's
    values in [-pi, pi], where fmod returns its argument."""
    r = np.where(a < 0.0, a + TWO_PI, a)
    return np.where(r >= TWO_PI, 0.0, r)


def _representatives(interval: ParamInterval, kappa: float) -> range:
    """The j of solve_one's representatives alpha = base + 2*pi*j, base in
    [0, 2*pi), that interval may contain: alpha >= 2*pi*j, so the first j
    at which 2*pi*j fails the interval's upper bound ends them."""
    reps = int(kappa / TWO_PI) + 1
    for j in range(reps):
        least = TWO_PI * j
        if (least > interval.upper + RANGE_SLACK if interval.closed
                else least >= interval.upper - RANGE_SLACK):
            return range(j)
    return range(reps)


def _check_speed(seconds, x, y, v: float) -> None:
    """Refuse a vehicle speed v under which a travel time in seconds (a
    float or an array, NaN where no path exists) overflows, naming the
    first such start-frame goal of x, y (floats or arrays of one shape)."""
    if isinstance(seconds, np.ndarray):
        bad = np.flatnonzero(np.isinf(seconds))
        if not bad.size:
            return
        x, y = float(x.flat[bad[0]]), float(y.flat[bad[0]])
    elif not math.isinf(seconds):
        return
    raise ValueError(f"vehicle speed {v!r} is too small for a goal at ({x!r}, {y!r}):"
                     " the travel time in seconds overflows")


def plan_goals(
    x: np.ndarray,
    y: np.ndarray,
    theta_f: float,
    current: CurrentState,
    vehicle: VehicleSpec,
    kappa: float,
) -> tuple[np.ndarray, np.ndarray]:
    """`plan` over arrays of goals that share one heading, current and vehicle.

    x and y are goal positions in the start frame, of one shape; theta_f is
    the goal heading and kappa the arc-range cap.  Follows solve_one and
    plan step for step, with plan's candidate order and TIME_TIE.
    Returns per goal the winner's index in WINDING_CANDIDATES (-1 where no
    path exists) and its travel time in seconds (NaN there).  Refuses the
    call if any goal's squared offset, or the turning radius's closed-form
    terms at any goal, overflow, as plan does, and so is a vehicle speed
    under which a winner's time in seconds overflows.

    Each candidate's travel time is computed for every goal, but
    solve_one's feasibility test runs only on the goals where that time
    would win, the only goals where plan's tie-break can take it.
    """
    theta = normalize_angle(theta_f)
    current, v = _normalize_problem(current, vehicle)
    with np.errstate(over="ignore", invalid="ignore"):
        far = ~np.isfinite(x * x + y * y)
    if far.any():
        i = np.flatnonzero(far)[0]
        raise ValueError(f"goal ({float(x.flat[i])!r}, {float(y.flat[i])!r}) is too far from "
                         "the start: the squared offset is not finite")
    r = vehicle.turning_radius
    _check_radius(x, y, r)
    ax, ay = np.abs(x), np.abs(y)
    size, scale = ax + ay, np.maximum(1.0, np.maximum(ax, ay))
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    vw, wx, wy = current.speed, current.wx, current.wy
    winner = np.full(x.shape, -1, dtype=np.int8)
    best = np.full(x.shape, np.nan)
    for code, (path_type, ks) in enumerate(WINDING_CANDIDATES.items()):
        s = first_turn_sign(path_type)
        for k in ks:
            # The travel r*arc_sum + beta does not depend on the arc split.
            turn = TWO_PI * k + theta
            a, b = _coeffs(s, turn, x, y, sin_t, cos_t, wx, wy, r)
            beta = _solve_beta(a, b, vw, wx, wy)
            arc_sum = s * turn
            travel = r * arc_sum + beta
            with np.errstate(over="ignore"):  # a winner's overflow is refused below
                time = travel / v
            # solve_one's feasibility test, on the goals where this time would win.
            i = np.flatnonzero((winner < 0) | (time < best - TIME_TIE))
            interval = feasible_range(path_type, k, theta, kappa)
            beta_i = beta[i]
            at_center = beta_i <= 1e-9 * scale[i]
            # At the rotation center the symmetric split decides alone.
            reached = at_center & interval.contains(0.5 * arc_sum)
            base = _wrap_angles(np.arctan2(s * (b[i] - beta_i * wy), a[i] - beta_i * wx))
            # Every representative gives the same travel, so a goal is reached
            # when any passes; taking them smallest first changes only the split.
            for j in _representatives(interval, kappa):
                alpha = base + TWO_PI * j
                gamma = arc_sum - alpha
                gamma = np.where((-RANGE_SLACK < gamma) & (gamma < 0.0), 0.0, gamma)
                # The residual is needed only where the split is feasible.
                m = np.flatnonzero(~at_center & ~reached & interval.contains(alpha)
                                   & (gamma >= 0.0) & interval.contains(gamma))
                if m.size:
                    c = i[m]
                    # The residual's rounding error is relative to its largest terms.
                    terms = size[c] + vw * travel[c] + r + beta[c]
                    defect = _residual(s, alpha[m], beta[c], x[c], y[c], sin_t, cos_t, wx, wy,
                                       r, travel[c])
                    reached[m] = ~(defect > 1e-9 * np.maximum(1.0, terms))
            take = i[reached]
            winner[take] = code
            best[take] = time[take]
    if v != 1.0:
        _check_speed(best, x, y, vehicle.speed)
    return winner, best


def extended_k_solutions(
    path_type: PathType,
    goal: Pose,
    current: CurrentState,
    vehicle: VehicleSpec,
) -> list[PathSolution]:
    """All existing 4*pi-arc solutions over the extended winding range.

    Covers k in {0..3} for LSL and {-1..-4} for RSR; exposed for checking
    that times increase with |k| and that the search never needs the larger
    indices.
    """
    ks = LSL_K_EXTENDED if path_type is PathType.LSL else RSR_K_EXTENDED
    out = []
    for k in ks:
        sol = solve_one(path_type, k, goal, current, vehicle, FOUR_PI)
        if sol is not None:
            out.append(sol)
    return out
