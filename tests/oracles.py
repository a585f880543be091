"""Independent oracles used by the test suite.

Everything here is deliberately separate from the library's solution path:
the planner's old table of feasible arc ranges, classical no-wind Dubins
closed forms, a brute-force bisection root finder, and RK4 integrators, one
batched for bulk solver validation.  The per-candidate, per-cell,
per-case, per-row and fixed-step references at the end, the per-sample
sensing mission and the lockstep multistart, are earlier, slower forms
of library functions, kept to pin the faster ones to the same output; so
are the per-artifact CSV writers and the mission loop that re-derives
its events.
"""

from __future__ import annotations

import bisect
import csv
import math
from unittest import mock

import numpy as np

from driftplan import baseline
from driftplan import reachability as rc
from driftplan import simulator as sim
from driftplan.baseline import SolverConfig
from driftplan.core import (FOUR_PI, TWO_PI, CurrentSchedule, CurrentState, Pose, current_at,
                            to_start_frame)
from driftplan.planner import WINDING_CANDIDATES, ArcMode, PathSolution, PathType, plan, solve_one
from driftplan.trajectory import SampledTrajectory, _advance, _segment_pieces, pieces

# The feasible alpha/gamma interval per (kappa, path type, k) as the planner
# once tabulated it: lower and upper endpoint as functions of theta_f, and
# whether both ends are closed.  feasible_range derives these rows from the
# arc rule; this is the reference it is pinned to.
FEASIBLE_ROWS = {
    (TWO_PI, PathType.LSL, 0): (lambda f: 0.0, lambda f: f, True),
    (TWO_PI, PathType.LSL, 1): (lambda f: f, lambda f: TWO_PI, False),
    (TWO_PI, PathType.RSR, -1): (lambda f: 0.0, lambda f: TWO_PI - f, True),
    (TWO_PI, PathType.RSR, -2): (lambda f: TWO_PI - f, lambda f: TWO_PI, False),
    (FOUR_PI, PathType.LSL, 0): (lambda f: 0.0, lambda f: f, True),
    (FOUR_PI, PathType.LSL, 1): (lambda f: 0.0, lambda f: TWO_PI + f, True),
    (FOUR_PI, PathType.LSL, 2): (lambda f: f, lambda f: FOUR_PI, False),
    (FOUR_PI, PathType.LSL, 3): (lambda f: TWO_PI + f, lambda f: FOUR_PI, False),
    (FOUR_PI, PathType.RSR, -1): (lambda f: 0.0, lambda f: TWO_PI - f, True),
    (FOUR_PI, PathType.RSR, -2): (lambda f: 0.0, lambda f: FOUR_PI - f, True),
    (FOUR_PI, PathType.RSR, -3): (lambda f: TWO_PI - f, lambda f: FOUR_PI, False),
    (FOUR_PI, PathType.RSR, -4): (lambda f: FOUR_PI - f, lambda f: FOUR_PI, False),
}

_SEGMENT_SIGNS = {
    PathType.LSL: (1, 0, 1),
    PathType.RSR: (-1, 0, -1),
    PathType.LSR: (1, 0, -1),
    PathType.RSL: (-1, 0, 1),
    PathType.LRL: (1, -1, 1),
    PathType.RLR: (-1, 1, -1),
}


def _mod2pi(a: float) -> float:
    r = math.fmod(a, TWO_PI)
    if r < 0:
        r += TWO_PI
    return 0.0 if r >= TWO_PI else r


def _polar(x: float, y: float) -> tuple[float, float]:
    return math.hypot(x, y), math.atan2(y, x)


def _lsl(x: float, y: float, phi: float):
    p, t1 = _polar(x - math.sin(phi), y - 1.0 + math.cos(phi))
    t = _mod2pi(t1)
    q = _mod2pi(phi - t)
    return [(t, p, q)]


def _lsr(x: float, y: float, phi: float):
    u1, t1 = _polar(x + math.sin(phi), y - 1.0 - math.cos(phi))
    if u1 * u1 < 4.0:
        return []
    p = math.sqrt(u1 * u1 - 4.0)
    t = _mod2pi(t1 + math.atan2(2.0, p))
    q = _mod2pi(t - phi)
    return [(t, p, q)]


def _lrl(x: float, y: float, phi: float):
    u1, t1 = _polar(x - math.sin(phi), y - 1.0 + math.cos(phi))
    if u1 > 4.0:
        return []
    s_small = 2.0 * math.asin(u1 / 4.0)
    out = []
    for s in (s_small, TWO_PI - s_small):
        if s <= 0.0 or s >= TWO_PI:
            continue
        t = _mod2pi(t1 + 0.5 * s)
        q = _mod2pi(phi - t + s)
        out.append((t, s, q))
    return out


def classical_dubins_candidates(x: float, y: float, phi: float, r: float = 1.0):
    """All classical no-wind Dubins candidates from (0,0,0) to (x,y,phi).

    Returns (path_type, first, middle, last, length) tuples; middle is a
    straight length for CSC words and a middle-arc angle for CCC words,
    with arc angles in radians and lengths in the input units.
    """
    xn, yn = x / r, y / r
    raw: list[tuple[PathType, float, float, float]] = []
    for t, p, q in _lsl(xn, yn, phi):
        raw.append((PathType.LSL, t, p, q))
    for t, p, q in _lsl(xn, -yn, _mod2pi(-phi)):
        raw.append((PathType.RSR, t, p, q))
    for t, p, q in _lsr(xn, yn, phi):
        raw.append((PathType.LSR, t, p, q))
    for t, p, q in _lsr(xn, -yn, _mod2pi(-phi)):
        raw.append((PathType.RSL, t, p, q))
    for t, s, q in _lrl(xn, yn, phi):
        raw.append((PathType.LRL, t, s, q))
    for t, s, q in _lrl(xn, -yn, _mod2pi(-phi)):
        raw.append((PathType.RLR, t, s, q))
    out = []
    for path_type, a, mid, c in raw:
        if path_type in (PathType.LRL, PathType.RLR):
            length = r * (a + mid + c)
        else:
            length = r * (a + c) + r * mid
        out.append((path_type, a, mid, c, length))
    return out


def classical_dubins_shortest(x: float, y: float, phi: float, r: float = 1.0):
    """Shortest classical Dubins word and its length."""
    cands = classical_dubins_candidates(x, y, phi, r)
    return min(cands, key=lambda c: c[-1])


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Plain bisection for a sign-changing scalar function."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("root not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def virtual_target_roots(
    x: float,
    y: float,
    theta_f: float,
    wx: float,
    wy: float,
    t_max: float,
    speed: float = 1.0,
    r: float = 1.0,
    n_grid: int = 2000,
):
    """Travel times at which an LSR/RSL/LRL/RLR word meets the drifting goal.

    The virtual-target method (McGee & Hedrick 2005; Techy & Woolsey 2009):
    at a fixed travel time T the goal drifted back by the current,
    (x - wx*T, y - wy*T, theta_f), is a classical no-current target, and a
    word aimed at it solves the drift problem exactly when its length is
    speed*T.  Each word (a CCC word has a short and a long middle arc) is
    scanned on a grid of T in (0, t_max] for sign changes of
    length - speed*T, which are bisected.  A bracket whose bisected gap stays
    large straddles an arc wrapping past 2*pi and is dropped.  Classical
    arcs lie in [0, 2*pi), so a root with a full-turn arc is not found.
    Returns (path_type, T, first, middle, last) tuples, sorted by type and T.
    """
    def words(t):
        out = {}
        for path_type, a, mid, c, length in classical_dubins_candidates(
                x - wx * t, y - wy * t, theta_f, r):
            if path_type not in (PathType.LSL, PathType.RSR):
                long_middle = _SEGMENT_SIGNS[path_type][1] != 0 and mid > math.pi
                out[(path_type, long_middle)] = (length - speed * t, a, mid, c)
        return out

    ts = [t_max * (i + 1) / n_grid for i in range(n_grid)]
    table = [words(t) for t in ts]
    roots = []
    for key in {key for row in table for key in row}:
        def gap(t, key=key):
            word = words(t).get(key)
            return math.nan if word is None else word[0]

        for i in range(n_grid - 1):
            a, b = ts[i], ts[i + 1]
            lo, hi = table[i].get(key), table[i + 1].get(key)
            if lo is None and hi is None:
                continue
            if lo is None or hi is None:
                # the word appears or vanishes inside the step: move the
                # empty end to that edge
                inside, outside = (b, a) if lo is None else (a, b)
                for _ in range(60):
                    middle = 0.5 * (inside + outside)
                    if key in words(middle):
                        inside = middle
                    else:
                        outside = middle
                a, b = (inside, b) if lo is None else (a, inside)
                lo, hi = words(a)[key], words(b)[key]
            if (lo[0] > 0.0) == (hi[0] > 0.0):
                continue
            t = bisect_root(gap, a, b)
            word = words(t).get(key)
            if word is not None and abs(word[0]) <= 1e-6 * max(1.0, speed * t):
                roots.append((key[0], t) + word[1:])
    return sorted(roots, key=lambda root: (root[0].value, root[1]))


def batch_endpoints_rk4(
    solutions: list[PathSolution],
    currents,
    speed: float = 1.0,
    turning_radius: float = 1.0,
    steps_per_segment: int = 1500,
) -> np.ndarray:
    """RK4 endpoints of many solutions integrated from the origin pose.

    currents is a list of (wx, wy) pairs, one per solution; all solutions
    run in lockstep, one segment at a time, each divided into the same
    number of steps with per-instance step sizes.  Returns (n, 3) poses.
    """
    n = len(solutions)
    wx = np.array([c[0] for c in currents])
    wy = np.array([c[1] for c in currents])
    r, v = turning_radius, speed
    u_max = v / r

    durations = np.zeros((n, 3))
    rates = np.zeros((n, 3))
    for i, sol in enumerate(solutions):
        s1, s2, s3 = _SEGMENT_SIGNS[sol.path_type]
        durations[i] = (r * sol.alpha / v, sol.beta / v, r * sol.gamma / v)
        rates[i] = (s1 * u_max, s2 * u_max, s3 * u_max)

    x = np.zeros(n)
    y = np.zeros(n)
    theta = np.zeros(n)
    for seg in range(3):
        h = durations[:, seg] / steps_per_segment
        u = rates[:, seg]
        for _ in range(steps_per_segment):
            th_mid = theta + 0.5 * h * u
            th_end = theta + h * u
            k1x = v * np.cos(theta) + wx
            k1y = v * np.sin(theta) + wy
            k2x = v * np.cos(th_mid) + wx
            k2y = v * np.sin(th_mid) + wy
            k4x = v * np.cos(th_end) + wx
            k4y = v * np.sin(th_end) + wy
            x = x + h / 6.0 * (k1x + 4.0 * k2x + k4x)
            y = y + h / 6.0 * (k1y + 4.0 * k2y + k4y)
            theta = th_end
    return np.stack([x, y, theta % TWO_PI], axis=1)


def _step_rk4(x, y, theta, u, wx, wy, v, h):
    """Classic fourth-order step; the heading component integrates exactly."""
    def deriv(th):
        return v * math.cos(th) + wx, v * math.sin(th) + wy

    k1x, k1y = deriv(theta)
    k2x, k2y = deriv(theta + 0.5 * h * u)
    k3x, k3y = k2x, k2y
    k4x, k4y = deriv(theta + h * u)
    return (x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x),
            y + h / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y),
            theta + u * h)


def integrate_rk4(start, controls, schedule, vehicle, h):
    """`trajectory.integrate_if` with RK4 steps in place of the closed form.

    The reference with O(h^4) position error; each segment is split as
    integrate_if splits it, at the current changes inside it, and each
    piece is stepped from its start in n equal steps of at most h.
    """
    v = vehicle.speed
    ts, xs, ys, thetas = [0.0], [start.x], [start.y], [start.theta]
    x, y, theta = start.x, start.y, start.theta
    for t0, span, u, cur in _segment_pieces(controls, schedule):
        n = max(1, math.ceil(span / h))
        dt = span / n
        for i in range(n):
            x, y, theta = _step_rk4(x, y, theta, u, cur.wx, cur.wy, v, dt)
            ts.append(t0 + (i + 1) * dt)
            xs.append(x)
            ys.append(y)
            thetas.append(_mod2pi(theta))
        theta = _mod2pi(theta)
    return SampledTrajectory(
        np.asarray(ts), np.asarray(xs), np.asarray(ys), np.asarray(thetas), "inertial"
    )


def plan_per_candidate(start, goal, current, vehicle, mode):
    """`plan` as the loop it is defined by: public `solve_one` on each of the
    WINDING_CANDIDATES with the given vehicle, each call normalizing the
    problem itself, ties broken by 1e-12 s in candidate order."""
    local_goal, local_current = to_start_frame(start, goal, current)
    best = None
    for path_type, ks in WINDING_CANDIDATES.items():
        for k in ks:
            sol = solve_one(path_type, k, local_goal, local_current, vehicle, ArcMode(mode).kappa)
            if sol is not None and (best is None or sol.travel_time < best.travel_time - 1e-12):
                best = sol
    return best


def reachability_map_per_cell(theta_f, current, bounds, step, mode, vehicle):
    """Dominant type and travel time per cell, one scalar `plan` per cell.

    The grid is laid out as `reachability.reachability_map` lays it out;
    returns (xs, ys, dominant, travel_time) arrays.
    """
    x_min, x_max, y_min, y_max = bounds
    xs = np.arange(x_min, x_max + 0.5 * step, step)
    ys = np.arange(y_min, y_max + 0.5 * step, step)
    dominant = np.full((len(ys), len(xs)), "unreachable", dtype=object)
    times = np.full((len(ys), len(xs)), np.nan)
    start = Pose(0.0, 0.0, 0.0)
    for j, gy in enumerate(ys):
        for i, gx in enumerate(xs):
            sol = plan(start, Pose(float(gx), float(gy), theta_f), current, vehicle, mode)
            if sol is not None:
                dominant[j, i] = sol.path_type.value
                times[j, i] = sol.travel_time
    return xs, ys, dominant, times


def full_reachability_2pi_per_case(theta_f, current, r):
    """The coverage predicates with each case building its own sectors.

    Returns the satisfied case ids; zero current gives none.
    """
    if current.speed == 0.0:
        return frozenset()
    majors = {
        PathType.LSL: rc.classify_major_minor(PathType.LSL, theta_f, current, r)[0],
        PathType.RSR: rc.classify_major_minor(PathType.RSR, theta_f, current, r)[0],
    }
    satisfied = set()
    for case in rc.FULL_REACH_CASES:
        path_type, k = rc._CASE_MAJOR[case]
        if majors[path_type] != k:
            continue
        region = rc.region_span(path_type, k, theta_f, current, r, TWO_PI)
        if rc.sweep_extent(region) >= TWO_PI - rc.ANGLE_TOL:
            satisfied.add(case)
            continue
        start, end = rc._shadow_interval(region)
        if rc._in_ccw_interval(start, end, rc.phi(case, theta_f, current, r)):
            satisfied.add(case)
    return frozenset(satisfied)


def full_reachability_2pi_scalar(theta_f, current, r):
    """`reachability.full_reachability_2pi` as a loop over the cases, each
    testing its major sector from `_major_sectors` with math's scalar calls."""
    if current.speed == 0.0:
        return rc.FullReachability(frozenset(), True, degenerate=True)
    majors = rc._major_sectors(theta_f, current, r)
    satisfied = set()
    for case in rc.FULL_REACH_CASES:
        path_type, k = rc._CASE_MAJOR[case]
        region, extent = majors[path_type]
        if region.k != k:
            continue
        if extent >= TWO_PI - rc.ANGLE_TOL:
            satisfied.add(case)
            continue
        start, end = rc._shadow_interval(region)
        if rc._in_ccw_interval(start, end, rc.phi(case, theta_f, current, r)):
            satisfied.add(case)
    return rc.FullReachability(frozenset(satisfied), bool(satisfied))


def parametric_scan_per_row(theta_f_step, theta_w_step, v_w_values, r=1.0):
    """`reachability.parametric_scan`'s rows, one `full_reachability_2pi_scalar`
    call per (theta_f, theta_w, v_w) triple."""
    rows = []
    n_f = max(1, math.ceil(TWO_PI / theta_f_step - rc.ANGLE_TOL))
    n_w = max(1, math.ceil(TWO_PI / theta_w_step - rc.ANGLE_TOL))
    for vw in v_w_values:
        for i in range(n_f):
            theta_f = i * theta_f_step
            for j in range(n_w):
                theta_w = j * theta_w_step
                res = full_reachability_2pi_scalar(theta_f, CurrentState(vw, theta_w), r)
                rows.append((theta_f, theta_w, vw, res.fully_reachable))
    return rows


# The CSV writers as each artifact type had its own, before they shared
# core.write_csv: byte references for it.

def write_grid_csv(grid, path) -> None:
    """ReachGrid.write_csv's own loop, with csv.writer."""
    xs = [repr(x) for x in grid.xs.tolist()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "dominant", "T"])
        for y, labels, times in zip(grid.ys.tolist(), grid.dominant.tolist(),
                                    grid.travel_time.tolist()):
            y_text = repr(y)
            writer.writerows(
                [x, y_text, str(label), "" if math.isnan(t) else repr(t)]
                for x, label, t in zip(xs, labels, times)
            )


class _Reprs(dict):
    """repr(float(x)) of each number key x, computed on its first lookup.

    Zeros are not kept, because 0.0 == -0.0 while their reprs differ.
    """

    def __missing__(self, x):
        text = repr(float(x))
        if x:
            self[x] = text
        return text


def write_scan_csv(rows, path) -> None:
    """Write scan rows as CSV, each number as its repr.

    A lattice repeats each axis value thousands of times, so each distinct
    value is converted once.
    """
    text = _Reprs()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta_f", "theta_w", "v_w", "reachable"])
        writer.writerows([text[theta_f], text[theta_w], text[vw], int(ok)]
                         for theta_f, theta_w, vw, ok in rows)


def write_trajectory_csv(traj, path) -> None:
    """SampledTrajectory.write_csv's own loop, with csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "theta", "frame"])
        for i in range(len(traj.t)):
            writer.writerow(
                [repr(float(traj.t[i])), repr(float(traj.x[i])),
                 repr(float(traj.y[i])), repr(float(traj.theta[i])), traj.frame]
            )


def _number(x: float) -> str:
    """A CSV field for a float or numpy float: its shortest round-trip repr."""
    return repr(float(x))


def write_static_csv(result, path) -> None:
    """StaticComparisonResult.write_csv's own loop, with csv.writer."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["goal_x", "goal_y", "goal_theta", "vw", "thetaw",
                    "t_fourpi", "t_baseline", "compute_fourpi", "compute_baseline"])
        for i in result.instances:
            w.writerow([_number(x) for x in (
                i.goal.x, i.goal.y, i.goal.theta, i.current.speed, i.current.heading,
                i.t_fourpi, i.t_baseline, i.compute_fourpi, i.compute_baseline)])


def write_savings_csv(stats, path) -> None:
    """SavingsStats.write_csv's own loop, with csv.writer."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["run", "goal_x", "goal_y", "goal_theta",
                    "fourpi_converged", "fourpi_total_time",
                    "baseline_converged", "baseline_total_time", "savings_percent"])
        for r in stats.runs:
            w.writerow([
                r.run_index, _number(r.goal.x), _number(r.goal.y), _number(r.goal.theta),
                int(r.fourpi.converged), _number(r.fourpi.total_time),
                int(r.baseline.converged), _number(r.baseline.total_time),
                "" if r.savings is None else _number(r.savings),
            ])


def write_grid_csv_per_cell(grid, path) -> None:
    """ReachGrid.write_csv's format, written one numpy cell at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "dominant", "T"])
        for j in range(len(grid.ys)):
            for i in range(len(grid.xs)):
                t = grid.travel_time[j, i]
                writer.writerow([
                    repr(float(grid.xs[i])), repr(float(grid.ys[j])),
                    str(grid.dominant[j, i]),
                    "" if math.isnan(t) else repr(float(t)),
                ])


class _SteppedMission(sim._Mission):
    """A mission flown in fixed steps of the recording spacing, checking
    arrival only at step ends, as the simulator flew plan pieces before its
    flight became event-driven; compute drifts are stepped the same way."""

    def _fly(self, controls, armed_at, t_stop):
        sc = self.sc
        v = sc.vehicle.speed
        spacing = self.recorder.spacing
        self._schedule_through(t_stop)
        for _, cut, u, cur in pieces(controls, self.schedule, armed_at, self.t, t_stop):
            if u is None:
                u = controls.segments[-1].turn_rate if controls.segments else 0.0
            while self.t < cut:
                left = cut - self.t
                dt = min(left, spacing)
                pose = self.pose
                self.pose = Pose(*_advance(pose.x, pose.y, pose.theta, u, cur.wx, cur.wy, v, dt))
                self.t = cut if dt == left else self.t + dt
                self.recorder.add(self.t, self.pose)
                if sim.check_termination(self.pose, sc.goal, sc.precision_radius,
                                         sc.heading_tolerance):
                    self.converged = True
                    return


def run_scenario_stepped(scenario, seed, run_index=0, record_trajectory=True,
                         solver_cfg=SolverConfig()):
    """`simulator.run_scenario` with the fixed-step flight loop."""
    return _SteppedMission(scenario, seed, run_index, record_trajectory, solver_cfg).run()


def realize_schedule_by_choice(process, horizon, rng):
    """`simulator.realize_schedule` drawn eagerly with `rng.choice`: two
    scalar draws per current epoch, all the way to the horizon."""
    if isinstance(process, CurrentSchedule):
        return process
    entries = [(0.0, process.initial)]
    t = 0.0
    while True:
        t += float(rng.choice(process.periods))
        if t > horizon:
            break
        heading = float(rng.choice(process.headings))
        entries.append((t, CurrentState(process.initial.speed, heading)))
    return CurrentSchedule(tuple(entries))


class _PerSampleMission(sim._Mission):
    """A mission whose current schedule is realised up to t_max before it
    flies, by `realize_schedule_by_choice`, and whose sensing reads the
    current one sample at a time with scalar noise draws, as the simulator
    did before it realised the schedule lazily and drew noise per call."""

    def _schedule_through(self, t):
        if self._future is not None:
            self._future = None
            self.schedule = realize_schedule_by_choice(
                self.sc.current_process, self.sc.t_max, self.rngs["process"])

    def _measure_current(self, t):
        self._schedule_through(t)
        true = current_at(self.schedule, t)
        n = self.sc.noise
        vw = true.speed
        if n.sigma_vw_relative:
            # + 0.0 turns a speed of -0.0 into a scale of 0.0, which numpy takes
            vw += self.rngs["vw"].normal(0.0, n.sigma_vw_relative * true.speed + 0.0)
        heading = true.heading
        if n.sigma_thetaw:
            heading += self.rngs["thetaw"].normal(0.0, n.sigma_thetaw)
        return self._clamped_current(vw, heading)

    def _measure_currents(self, times):
        readings = [self._measure_current(t) for t in times]
        return [m.speed for m in readings], [m.heading for m in readings]

    def _window_estimate(self, t_from, window):
        sc = self.sc
        heading_samples = []
        speed_samples = []
        n_samples = int(math.floor(window * sc.noise.sample_rate))
        for i in range(1, n_samples + 1):
            m = self._measure_current(min(t_from + i / sc.noise.sample_rate, sc.t_max))
            heading_samples.append(m.heading)
            speed_samples.append(m.speed)
        if not heading_samples:
            m = self._measure_current(min(t_from + window, sc.t_max))
            heading_samples.append(m.heading)
            speed_samples.append(m.speed)
        return self._clamped_current(
            sum(speed_samples) / len(speed_samples),
            sim.estimate_heading_mle(heading_samples),
        )


def run_scenario_per_sample(scenario, seed, run_index=0, record_trajectory=True,
                            solver_cfg=SolverConfig()):
    """`simulator.run_scenario` with the schedule realised up front and
    sensing taken one sample at a time."""
    return _PerSampleMission(scenario, seed, run_index, record_trajectory, solver_cfg).run()


class _ParentLoopMission(sim._Mission):
    """A mission run by the event loop the simulator had before it named
    its events: it stops at the earliest of the plan end, the next change,
    the estimate's due time and t_max, and then works out which of them
    fired through a need_plan flag, a refine_at pair and re-checks for a
    pending change.  The one change from that loop: the fast planner's
    estimate reads the whole estimation window, not its due time less its
    start."""

    def _next_unhandled_epoch(self):
        self._schedule_through(self.t + 1e-9)
        starts = self.schedule.starts
        return starts[self.unhandled] if self.unhandled < len(starts) else math.inf

    def _epoch_pending(self):
        return self._next_unhandled_epoch() <= self.t + 1e-9

    def _mark_epochs_handled(self):
        self._schedule_through(self.t + 1e-9)
        self.unhandled = bisect.bisect_right(self.schedule.starts, self.t + 1e-9)

    def _hold_and_estimate(self):
        sc = self.sc
        window = min(sc.estimation_window, sc.t_max - self.t)
        t0 = self.t
        self._fly(self.plan_controls, self.armed_at, t0 + window)
        if self.converged:
            return
        self.believed = self._window_estimate(t0, window)

    def _handle_change(self):
        sc = self.sc
        epoch = self._next_unhandled_epoch()
        if sc.planner == "analytic_4pi":
            self.believed = self._reading(min(self.t, sc.t_max))
            self._mark_epochs_handled()
            if sc.estimation_window > 0.0:
                self.refine_at = (epoch + sc.estimation_window, epoch)
        else:
            self._hold_and_estimate()
            self._mark_epochs_handled()

    def run(self):
        sc = self.sc
        self.refine_at = None
        need_plan = True
        while not self.converged and self.t < sc.t_max - 1e-9:
            if need_plan or self._epoch_pending():
                if self._epoch_pending():
                    self.refine_at = None
                    self._handle_change()
                    if self.converged or self.t >= sc.t_max - 1e-9:
                        break
                need_plan = self._replan_now() == -math.inf
                continue
            plan_end = max(self.armed_at + self.plan_controls.total_duration, self.t)
            refine_due = self.refine_at[0] if self.refine_at else math.inf
            t_stop = min(plan_end, self._next_unhandled_epoch(), refine_due, sc.t_max)
            self._fly(self.plan_controls, self.armed_at, t_stop)
            if self.converged:
                break
            if self.refine_at and self.t >= self.refine_at[0] - 1e-9:
                due, epoch = self.refine_at
                self.refine_at = None
                if not self._epoch_pending():
                    self.believed = self._window_estimate(epoch, sc.estimation_window)
                    need_plan = True
                continue
            if abs(self.t - plan_end) <= 1e-9:
                need_plan = True
        self.recorder.add(self.t, self.pose, force=True)
        return sim.RunResult(
            converged=self.converged,
            total_time=min(self.t, sc.t_max),
            replan_count=max(self.replans, 0),
            drift_segments=tuple(self.drift_segments),
            trajectory=self.recorder.trajectory(),
            compute_delays=tuple(self.compute_delays),
        )


def run_scenario_parent_loop(scenario, seed, run_index=0, record_trajectory=True,
                             solver_cfg=SolverConfig()):
    """`simulator.run_scenario` with the event loop that re-derives its events."""
    return _ParentLoopMission(scenario, seed, run_index, record_trajectory, solver_cfg).run()


def branch_jacobian_from_u(ccc, s, m, goal, current, r):
    """`baseline._branch_jacobian` recomputed from the unknowns, as (n, d, d)
    matrices: sin, cos and gamma are evaluated again at u rather than read
    from the residual's carried columns."""
    wx, wy = current.wx, current.wy
    theta_f = goal.theta

    def jac(u):
        alpha, t = u[:, 0], u[:, -1]
        sa, ca = np.sin(alpha), np.cos(alpha)
        if not ccc:
            c = t - r * (alpha + baseline._gamma(ccc, s, alpha, 0.0, theta_f, m))
            out = np.empty((len(u), 2, 2))
            out[:, 0, 0], out[:, 0, 1] = -c * sa, ca + wx
            out[:, 1, 0], out[:, 1, 1] = s * c * ca, s * sa + wy
            return out
        chord = alpha - u[:, 1]
        sc, cc = np.sin(chord), np.cos(chord)
        two_rs = 2 * r * s
        out = np.zeros((len(u), 3, 3))
        out[:, 0, 0], out[:, 0, 1], out[:, 0, 2] = 2 * r * (ca - cc), 2 * r * cc, wx
        out[:, 1, 0], out[:, 1, 1], out[:, 1, 2] = two_rs * (sa - sc), two_rs * sc, wy
        out[:, 2, 1], out[:, 2, 2] = -2 * r, 1.0  # the time closure
        return out
    return jac


def batched_solve_by_sum(jac, rhs):
    """`baseline._batched_solve` on (n, d, d) matrices, with each component
    of adj(J) rhs summed over a table of adjugate entries."""
    if jac.shape[1] == 2:
        (a, b), (c, e) = jac.transpose(1, 2, 0)
        det = a * e - b * c
        adj = ((e, -b), (-c, a))
    else:
        (a, b, c), (d, e, f), (g, h, i) = jac.transpose(1, 2, 0)
        cof = (e * i - f * h, f * g - d * i, d * h - e * g)
        det = a * cof[0] + b * cof[1] + c * cof[2]
        adj = ((cof[0], c * h - b * i, b * f - c * e),
               (cof[1], a * i - c * g, c * d - a * f),
               (cof[2], b * g - a * h, a * e - b * d))
    ok = np.abs(det) > 1e-14
    det = np.where(ok, det, 1.0)
    dx = np.empty_like(rhs)
    for k, row in enumerate(adj):
        dx[:, k] = sum(coef * rhs[:, j] for j, coef in enumerate(row)) / det
    dx[~ok] = 0.0
    return dx


def multi_start_solve_lockstep(residual_fn, bounds, cfg, branches=1, jacobian_fn=None):
    """`baseline.multi_start_solve` with every row in lockstep.

    residual_fn and jacobian_fn take the whole (n, d) array of rows;
    residual_fn's columns past d are ignored, and jacobian_fn returns
    (n, d, d) matrices, solved by `batched_solve_by_sum`.  Every Newton
    step, Jacobian and line-search trial covers all rows, and the dampings
    1, 1/2 ... 1/32 are tried one residual call at a time; a converged or
    stalled row stops moving but is still evaluated.
    """
    bounds = np.asarray(bounds, dtype=float)
    d = bounds.shape[0]
    x = np.tile(baseline._low_discrepancy_starts(cfg.n_initial_guesses, bounds, cfg.seed),
                (branches, 1))
    f = residual_fn(x)[:, :d]
    fnorm = baseline._max_abs(f)
    active = fnorm > baseline.RESIDUAL_TOLERANCE  # neither converged nor stalled
    for _ in range(baseline.MAX_ITERATIONS):
        if not active.any():
            break
        jac = jacobian_fn(x) if jacobian_fn else baseline._batched_jacobian(residual_fn, x)
        step = batched_solve_by_sum(jac, -f)
        step *= (10.0 / np.maximum(baseline._max_abs(step), 10.0))[:, None]
        todo = active.copy()
        lam = 1.0
        for _ in range(6):
            trial = x + lam * step
            ft = residual_fn(trial)[:, :d]
            fn = baseline._max_abs(ft)
            improve = todo & (fn < fnorm)
            x[improve], f[improve], fnorm[improve] = trial[improve], ft[improve], fn[improve]
            todo &= ~improve
            if not todo.any():
                break
            lam *= 0.5
        active &= ~todo & (fnorm > baseline.RESIDUAL_TOLERANCE)
    roots = []
    n = cfg.n_initial_guesses
    for b, (xs, norms) in enumerate(zip(x.reshape(branches, n, d), fnorm.reshape(branches, n))):
        roots.extend((b, row) for row in
                     baseline._distinct_rows(xs[norms <= baseline.RESIDUAL_TOLERANCE]))
    return roots


def solve_words_lockstep(words, goal, current, vehicle, cfg):
    """`baseline._solve_words` with its multistart run by
    `multi_start_solve_lockstep` on the same residual, and each Jacobian
    recomputed from the unknowns by `branch_jacobian_from_u`."""
    branches = [(word, m) for word in words for m in baseline._closure_offsets(word)]
    s = np.repeat([float(_SEGMENT_SIGNS[word][0]) for word, _ in branches], cfg.n_initial_guesses)
    m = np.repeat([m for _, m in branches], cfg.n_initial_guesses)
    scaled, _ = baseline._normalize_problem(current, vehicle)
    jac = branch_jacobian_from_u(baseline._is_ccc(words[0]), s, m, goal, scaled,
                                 vehicle.turning_radius)

    def lockstep(residual_fn, bounds, cfg, branches=1, jacobian_fn=None):
        rows = np.arange(len(s))
        return multi_start_solve_lockstep(lambda u: residual_fn(u, rows), bounds, cfg, branches,
                                          jac)

    with mock.patch.object(baseline, "multi_start_solve", lockstep):
        return baseline._solve_words(words, goal, current, vehicle, cfg)
