"""Mission execution under time-varying currents with noisy replanning.

A run executes the current plan open-loop and succeeds the moment it is
inside the goal's precision circle with an acceptable heading.  When the
current changes, the reaction depends on the planner's compute cost: the
closed-form planner replans at once from an instantaneous reading and
again when the windowed estimate is ready, while the slow six-type
baseline flies its stale controls through the estimation window and
replans once on the refined estimate.  While a replan computes, the
vehicle drifts along the net velocity; both planners therefore plan from
the predicted post-drift pose.

A plan is armed at an absolute time.  Flight is cut at every plan-segment
end, current change and stop time; each piece between two cuts flies one
turn rate and one current, both looked up at the piece midpoint; a compute
drift is flown as pieces at turn rate 0 with the heading frozen.  Within a
piece, flight is event-driven.  From each pose a safe step bounds how soon
an arrival could happen: the heading error shrinks at most |u| per second,
and the distance to the goal shrinks at most v + vw per second and bends
down at most v|u| per second squared.  The vehicle jumps there with one
closed-form step from the piece start, but never less than a floor of
1e-3 of the recording spacing; a floor jump that lands on an arrival is
bisected back to the entry, to 1e-9 of the spacing.  A mission thus ends
at its first entry into the precision circle with an acceptable heading,
also during a compute drift; only a pass shorter than the floor can be
missed.  Samples at the recording spacing are computed only when the
trajectory is recorded; each is kept, so recorded samples lie one spacing
apart except before a cut and at the end.

A random current process is realised lazily: the schedule is extended, in
chunks that double, only past the latest time flight, sensing or the event
loop reads.  Only the schedule draws from the process stream, so drawing
ahead changes nothing, and a mission's cost does not grow with t_max.
Sensing reads a batch of times at once, with one array draw per noise
channel; the draws, clamps and sums give the values per-sample scalar
draws give, bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .baseline import SolverConfig, solve_six
from .core import (
    CurrentSchedule,
    CurrentState,
    Pose,
    VehicleSpec,
    angle_difference,
    normalize_angle,
)
from .planner import ArcMode, plan
from .scenario import RandomCurrentProcess, Scenario
from .trajectory import ControlSchedule, SampledTrajectory, _advance, _sample, controls_of, pieces

# Fixed ids deriving one independent RNG stream per noise channel.
_CHANNELS = {"process": 0, "gps": 1, "compass": 2, "vw": 3, "thetaw": 4}


# No segments: flown at turn rate 0, holding the heading, before the first
# plan is armed and through every compute drift.
_NO_PLAN = ControlSchedule(())

# Flight jumps at least this share of the recording spacing at a time, and
# resolves an arrival's entry time to within the second share of it.
_FLOOR_SHARE = 1e-3
_RESOLUTION_SHARE = 1e-9


@dataclass(frozen=True)
class DriftSegment:
    t: float
    from_pose: Pose
    to_pose: Pose

    @property
    def length(self) -> float:
        return math.hypot(self.to_pose.x - self.from_pose.x,
                          self.to_pose.y - self.from_pose.y)


@dataclass(frozen=True)
class RunResult:
    converged: bool
    total_time: float
    replan_count: int
    drift_segments: tuple[DriftSegment, ...]
    trajectory: SampledTrajectory
    compute_delays: tuple[float, ...]

    def summary_dict(self) -> dict:
        return {
            "converged": self.converged,
            "total_time": self.total_time,
            "replan_count": self.replan_count,
            "compute_delays": list(self.compute_delays),
            "drift_segments": [
                {
                    "t": seg.t,
                    "from": [seg.from_pose.x, seg.from_pose.y, seg.from_pose.theta],
                    "to": [seg.to_pose.x, seg.to_pose.y, seg.to_pose.theta],
                    "length": seg.length,
                }
                for seg in self.drift_segments
            ],
            "final_pose": [
                float(self.trajectory.x[-1]),
                float(self.trajectory.y[-1]),
                float(self.trajectory.theta[-1]),
            ],
        }


def estimate_heading_mle(samples) -> float:
    """Mean direction of noisy heading readings (circular-mean estimator)."""
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one heading sample")
    s = sum(math.sin(a) for a in samples)
    c = sum(math.cos(a) for a in samples)
    return normalize_angle(math.atan2(s, c))


def drift_predict(
    pose: Pose, heading: float, current: CurrentState, dt: float, vehicle: VehicleSpec
) -> Pose:
    """Pose after drifting along the net velocity for dt, heading unchanged."""
    if dt < 0.0:
        raise ValueError("drift duration must be non-negative")
    x, y, _ = _advance(pose.x, pose.y, heading, 0.0, current.wx, current.wy, vehicle.speed, dt)
    return Pose(x, y, pose.theta)


def check_termination(
    pose: Pose, goal: Pose, precision_radius: float, heading_tolerance: float
) -> bool:
    """Inside the goal's precision circle (inclusive) with acceptable heading."""
    dist = math.hypot(pose.x - goal.x, pose.y - goal.y)
    return (dist <= precision_radius
            and angle_difference(pose.theta, goal.theta) <= heading_tolerance)


def _epochs(process: RandomCurrentProcess, horizon: float, rng: np.random.Generator):
    """Yield the (start, state) current changes of a random process up to
    horizon, in order, drawing each hold period and heading as it goes."""
    periods, headings = process.periods, process.headings
    t = 0.0
    while True:
        t += float(periods[rng.integers(0, len(periods))])
        if t > horizon:
            return
        heading = float(headings[rng.integers(0, len(headings))])
        yield t, CurrentState(process.initial.speed, heading)


def realize_schedule(
    process: CurrentSchedule | RandomCurrentProcess,
    horizon: float,
    rng: np.random.Generator,
) -> CurrentSchedule:
    """Materialize the current history over [0, horizon]."""
    if isinstance(process, CurrentSchedule):
        return process
    return CurrentSchedule(((0.0, process.initial), *_epochs(process, horizon, rng)))


class _Recorder:
    """Accumulates (t, pose) samples in time order; when disabled, only
    forced ones."""

    def __init__(self, start: Pose, spacing: float, enabled: bool):
        self.ts = [0.0]
        self.xs = [start.x]
        self.ys = [start.y]
        self.thetas = [start.theta]
        self.spacing = spacing
        self.enabled = enabled

    def add(self, t: float, pose: Pose, force: bool = False):
        if not (self.enabled or force) or t <= self.ts[-1]:
            return
        self.ts.append(t)
        self.xs.append(pose.x)
        self.ys.append(pose.y)
        self.thetas.append(pose.theta)

    def trajectory(self) -> SampledTrajectory:
        return SampledTrajectory(
            np.asarray(self.ts), np.asarray(self.xs),
            np.asarray(self.ys), np.asarray(self.thetas), "inertial",
        )


class _Mission:
    """Mutable state of one run; drives the replan/execute event loop."""

    def __init__(self, scenario: Scenario, seed: int, run_index: int,
                 record_trajectory: bool, solver_cfg: SolverConfig):
        self.sc = scenario
        self.seed = seed
        self.run_index = run_index
        self.rngs = {name: np.random.default_rng(np.random.SeedSequence((seed, run_index, cid)))
                     for name, cid in _CHANNELS.items()}
        process = scenario.current_process
        if isinstance(process, CurrentSchedule):
            self._future = None
            self.schedule = process
        else:
            # realised lazily: only the schedule reads the process stream
            self._future = _epochs(process, scenario.t_max, self.rngs["process"])
            self.schedule = CurrentSchedule(((0.0, process.initial),))
        self.solver_cfg = solver_cfg
        self.t = 0.0
        self.pose = scenario.start
        self.plan_controls = _NO_PLAN
        self.armed_at = 0.0
        # the deployment pose is surveyed, but the initial current is known
        # only through one instantaneous (noisy) reading
        self.believed = self._reading(0.0)
        self.drift_segments: list[DriftSegment] = []
        self.compute_delays: list[float] = []
        self.replans = -1  # first planner call is the initial plan
        # index into schedule.starts of the first change not yet reacted to
        self.unhandled = 1
        self.converged = False
        # pending estimate refinement for the fast planner: (due time, epoch)
        self.refine_at: tuple[float, float] | None = None
        spacing = 0.05 * scenario.vehicle.turning_radius / scenario.vehicle.speed
        self.recorder = _Recorder(scenario.start, spacing, record_trajectory)

    # --- sensing -----------------------------------------------------------

    def _noisy_pose(self) -> Pose:
        n, rngs = self.sc.noise, self.rngs
        return Pose(
            self.pose.x + (rngs["gps"].normal(0.0, n.sigma_position) if n.sigma_position else 0.0),
            self.pose.y + (rngs["gps"].normal(0.0, n.sigma_position) if n.sigma_position else 0.0),
            self.pose.theta + (rngs["compass"].normal(0.0, n.sigma_heading)
                               if n.sigma_heading else 0.0),
        )

    def _measure_currents(self, times) -> tuple[list[float], list[float]]:
        """Noisy (speeds, headings) readings of the true current at each of
        times, given in order; each noise channel draws once per call.

        The readings equal those of one scalar draw per channel and time:
        normal(0, s) draws 0 + s * z, and numpy takes a slow broadcasting
        path for an array of scales s, so the product is taken here.
        """
        self._schedule_through(times[-1])
        n = self.sc.noise
        entries, starts = self.schedule.entries, self.schedule.starts
        true = [entries[bisect_right(starts, t) - 1][1] for t in times]
        vw = [s.speed for s in true]
        heading = [s.heading for s in true]
        if n.sigma_vw_relative:
            z = self.rngs["vw"].standard_normal(len(true)).tolist()
            vw = [v + (0.0 + n.sigma_vw_relative * v * e) for v, e in zip(vw, z)]
        if n.sigma_thetaw:
            noise = self.rngs["thetaw"].normal(0.0, n.sigma_thetaw, size=len(true)).tolist()
            heading = [h + e for h, e in zip(heading, noise)]
        cap = 0.99 * self.sc.vehicle.speed
        return [min(max(v, 0.0), cap) for v in vw], [normalize_angle(h) for h in heading]

    def _reading(self, t: float) -> CurrentState:
        """One noisy instantaneous reading of the current at t."""
        (vw,), (heading,) = self._measure_currents((t,))
        return CurrentState(vw, heading)

    def _clamped_current(self, vw: float, heading: float) -> CurrentState:
        vw = min(max(vw, 0.0), 0.99 * self.sc.vehicle.speed)
        return CurrentState(vw, normalize_angle(heading))

    def _schedule_through(self, t: float) -> None:
        """Realise the schedule past t: every epoch starting by t, and the
        next one if there is one.  Epochs are drawn in chunks as large as the
        schedule so far, so rebuilding it costs linear time in all."""
        while self._future is not None and self.schedule.starts[-1] <= t:
            size = len(self.schedule.entries)
            chunk = tuple(islice(self._future, size))
            if len(chunk) < size:
                self._future = None
            self.schedule = CurrentSchedule(self.schedule.entries + chunk)

    # --- motion ------------------------------------------------------------

    def _next_unhandled_epoch(self) -> float:
        self._schedule_through(self.t + 1e-9)
        starts = self.schedule.starts
        return starts[self.unhandled] if self.unhandled < len(starts) else math.inf

    def _epoch_pending(self) -> bool:
        return self._next_unhandled_epoch() <= self.t + 1e-9

    def _mark_epochs_handled(self) -> None:
        self._schedule_through(self.t + 1e-9)
        self.unhandled = bisect_right(self.schedule.starts, self.t + 1e-9)

    def _fly(self, controls: ControlSchedule, armed_at: float, t_stop: float):
        """Fly controls armed at armed_at (or loiter) up to t_stop.

        Plan pieces and compute drifts both fly here; a drift flies
        _NO_PLAN, which holds the heading at turn rate 0.  Arrival is
        monitored continuously: the mission succeeds the moment the vehicle
        is inside the precision circle with an acceptable heading, whether
        or not the plan or the drift has finished.
        """
        self._schedule_through(t_stop)
        for start, cut, u, cur in pieces(controls, self.schedule, armed_at, self.t, t_stop):
            if u is None:
                # plan exhausted mid-window: loiter on the final arc rather
                # than fly off on a straight escape course
                u = controls.segments[-1].turn_rate if controls.segments else 0.0
            origin = self.pose
            flown, self.pose, self.converged = self._fly_piece(origin, cut - start, u, cur)
            self.t = start + flown if self.converged else cut
            if self.recorder.enabled:
                self._record_piece(origin, start, self.t, u, cur)
            self.recorder.add(self.t, self.pose)
            if self.converged:
                return

    def _fly_piece(self, origin: Pose, span: float, u: float, cur: CurrentState):
        """Fly one piece from origin for span seconds, stopping on arrival.

        Returns (seconds flown, pose, arrived).  Each jump is one closed-form
        `_advance` from origin.  A jump no longer than the safe step passes
        no arrival; a floor jump that lands on one is bisected back to the
        entry, at most 20 halvings.  So a piece takes at most
        ceil(span / floor) + 20 calls.
        """
        sc = self.sc
        v = sc.vehicle.speed
        wx, wy = cur.wx, cur.wy
        floor = _FLOOR_SHARE * self.recorder.spacing

        def at(s: float) -> Pose:
            return Pose(*_advance(origin.x, origin.y, origin.theta, u, wx, wy, v, s))

        def arrived(pose: Pose) -> bool:
            return check_termination(pose, sc.goal, sc.precision_radius, sc.heading_tolerance)

        lo, pose = 0.0, origin
        while True:
            safe = self._safe_step(pose, u, cur)
            hi = min(lo + max(safe, floor), span)
            pose = at(hi)
            if arrived(pose):
                break
            if hi == span:
                return span, pose, False
            lo = hi
        # the first entry lies in (lo + safe, hi]
        lo += safe
        while hi - lo > _RESOLUTION_SHARE * self.recorder.spacing:
            mid = 0.5 * (lo + hi)
            probe = at(mid)
            if arrived(probe):
                hi, pose = mid, probe
            else:
                lo = mid
        return hi, pose, True

    def _safe_step(self, pose: Pose, u: float, cur: CurrentState) -> float:
        """Time from pose before which no arrival can occur at turn rate u.

        The heading error shrinks at most |u| per second.  The distance d to
        the goal shrinks at most v + vw per second, and its second derivative
        is at least -v|u| while d > 0, so d >= d0 + d0' t - v|u| t^2 / 2.
        """
        sc = self.sc
        goal = sc.goal
        v = sc.vehicle.speed
        heading_gap = angle_difference(pose.theta, goal.theta) - sc.heading_tolerance
        if heading_gap <= 0.0:
            t_heading = 0.0
        elif u == 0.0:
            return math.inf
        else:
            t_heading = heading_gap / abs(u)
        dx = pose.x - goal.x
        dy = pose.y - goal.y
        d = math.hypot(dx, dy)
        gap = d - sc.precision_radius
        if gap <= 0.0:
            return t_heading
        rate = (dx * (v * math.cos(pose.theta) + cur.wx)
                + dy * (v * math.sin(pose.theta) + cur.wy)) / d
        accel = v * abs(u)
        root = math.sqrt(rate * rate + 2.0 * accel * gap)
        if rate < 0.0:
            t_curve = 2.0 * gap / (root - rate)
        elif accel > 0.0:
            t_curve = (rate + root) / accel
        else:
            t_curve = math.inf
        return max(t_heading, gap / (v + cur.speed), t_curve)

    def _record_piece(self, origin: Pose, start: float, end: float, u: float,
                      cur: CurrentState) -> None:
        """Sample a piece flown from start to end at the recording spacing.

        Sample times are summed one spacing at a time from the piece start,
        the times at which flight once stepped; each is recorded, so samples
        lie one spacing apart except before a cut and at the end.
        """
        spacing = self.recorder.spacing
        times = []
        t = start
        while spacing < end - t:
            t += spacing
            times.append(t)
        offsets = [t - start for t in times]
        for t, pose in zip(times, _sample(origin, u, cur, self.sc.vehicle.speed, offsets)):
            self.recorder.add(t, pose)

    # --- planning ----------------------------------------------------------

    def _invoke_planner(self, initial: bool):
        """Plan from where the plan will be flown; returns (solution, delay).

        The initial plan starts from the exact deployment pose, which the
        vehicle holds until the plan is armed.  A replan starts from the noisy
        measured pose drifted along the believed net velocity for the
        compute delay: the pose predicted for the moment the plan is armed.
        """
        sc = self.sc
        delay = sc.latency.delay_for(sc.planner)
        if initial:
            origin = self.pose
        else:
            measured = self._noisy_pose()
            origin = drift_predict(measured, measured.theta, self.believed, delay, sc.vehicle)
        if sc.planner == "dubins_six":
            entropy = (self.seed, self.run_index, self.replans + 1)
            cfg = replace(
                self.solver_cfg,
                seed=int(np.random.SeedSequence(entropy).generate_state(1)[0]),
            )
            solved = solve_six(origin, sc.goal, self.believed, sc.vehicle, cfg)
            sol = solved[0] if solved is not None else None
        else:
            sol = plan(origin, sc.goal, self.believed, sc.vehicle, ArcMode.FOUR_PI)
        return sol, delay

    def _drift_through(self, duration: float):
        """Drift along the net velocity (heading frozen) across epochs,
        stopping on arrival."""
        start_pose = self.pose
        start_t = self.t
        self._fly(_NO_PLAN, 0.0, min(self.t + duration, self.sc.t_max))
        # a plan left armed (the replan failed) resumes where it paused
        self.armed_at += self.t - start_t
        if duration > 0.0:
            self.drift_segments.append(DriftSegment(start_t, start_pose, self.pose))

    def _window_estimate(self, t_from: float, window: float) -> CurrentState:
        """Circular-mean MLE from samples over (t_from, t_from + window].

        Samples are sample_rate apart; a window too short for one takes a
        single sample at its end.  The sums run in order with math's sin and
        cos, as estimate_heading_mle takes them.
        """
        sc = self.sc
        rate = sc.noise.sample_rate
        n_samples = int(math.floor(window * rate))
        times = [min(t_from + i / rate, sc.t_max) for i in range(1, n_samples + 1)]
        if not times:
            times = [min(t_from + window, sc.t_max)]
        speeds, headings = self._measure_currents(times)
        return self._clamped_current(sum(speeds) / len(speeds), estimate_heading_mle(headings))

    def _hold_and_estimate(self):
        """Fly the stale plan for the estimation window, then adopt the MLE."""
        sc = self.sc
        window = min(sc.estimation_window, sc.t_max - self.t)
        t0 = self.t
        self._fly(self.plan_controls, self.armed_at, t0 + window)
        if self.converged:
            return
        self.believed = self._window_estimate(t0, window)

    # --- event loop ---------------------------------------------------------

    def _replan_now(self) -> bool:
        """One planner invocation with its latency; True if a plan is armed."""
        sc = self.sc
        initial = self.replans < 0
        sol, delay = self._invoke_planner(initial)
        self.replans += 1
        if initial:
            if sc.initial_compute_latency:
                # station-kept at deployment while the first plan runs
                self.compute_delays.append(delay)
                self.t = min(self.t + delay, sc.t_max)
                self.recorder.add(self.t, self.pose)
        else:
            self.compute_delays.append(delay)
            self._drift_through(delay)
        if sol is None:
            return False
        self.plan_controls = controls_of(sol, sc.vehicle)
        self.armed_at = self.t
        return True

    def _handle_change(self):
        """React to a current change, in a planner-appropriate way.

        The fast planner replans at once from an instantaneous reading and
        again when the windowed estimate is ready; the slow planner cannot
        afford two compute drifts, so it flies its stale plan through the
        estimation window and replans once on the refined estimate.
        """
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

    def run(self) -> RunResult:
        sc = self.sc
        need_plan = True
        while not self.converged and self.t < sc.t_max - 1e-9:
            if need_plan or self._epoch_pending():
                if self._epoch_pending():
                    self.refine_at = None
                    self._handle_change()
                    if self.converged or self.t >= sc.t_max - 1e-9:
                        break
                need_plan = not self._replan_now()
                continue  # re-check for epochs that arrived during the drift
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
                    self.believed = self._window_estimate(epoch, due - epoch)
                    need_plan = True
                continue
            if abs(self.t - plan_end) <= 1e-9:
                need_plan = True
        self.recorder.add(self.t, self.pose, force=True)
        total = min(self.t, sc.t_max)
        return RunResult(
            converged=self.converged,
            total_time=total,
            replan_count=max(self.replans, 0),
            drift_segments=tuple(self.drift_segments),
            trajectory=self.recorder.trajectory(),
            compute_delays=tuple(self.compute_delays),
        )


def run_scenario(
    scenario: Scenario,
    seed: int,
    run_index: int = 0,
    record_trajectory: bool = True,
    solver_cfg: SolverConfig = SolverConfig(),
) -> RunResult:
    """Simulate one mission; bit-reproducible for a fixed (scenario, seed)."""
    mission = _Mission(scenario, seed, run_index, record_trajectory, solver_cfg)
    return mission.run()
