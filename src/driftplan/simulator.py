"""Mission execution under time-varying currents with noisy replanning.

A run executes the current plan open-loop and succeeds the moment it is
inside the goal's precision circle with an acceptable heading; a start
already there succeeds at t = 0, before any plan.  When the
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
Sensing reads a batch of times at once, given in order: the schedule is
looked up once per current epoch the times span, each epoch filling its
run of samples, and each noise channel makes one array draw.  A reading
already in range is kept without a clamp or normalize_angle call.  The
draws, clamps and sums give the values per-sample scalar draws give, bit
for bit.  Each noise channel's generator is seeded from the uint32 words
of (seed, run index, channel id), the words numpy reads from that tuple,
so the streams are the tuple's without numpy coercing it each time.

The mission is one event loop: each turn finds the next event, flies the
plan to it, names it and dispatches it.  The events are a current change
not yet handled, a window estimate coming due, the plan's end and t_max;
an arrival ends the run inside any flight, drift or hold.  Events within
EVENT_TIE (1e-9 s) of the stop are due with it and taken in one order:
t_max; a change, which cancels a pending estimate; the earlier of an
estimate and a plan end, the estimate on a tie.  Each but t_max ends in a
replan; one that finds no plan is owed again at once.  On a change the
fast planner schedules an estimate over the window from the change; the
slow one holds its stale plan through the window, past the changes and
the plan end in it.  Both estimate with _window_estimate(start, length).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .baseline import SolverConfig, solve_six
from .core import (
    TWO_PI,
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

# Mission-loop events within this many seconds of the loop's stop are due
# with it; the events are named in the order due ones are taken.
EVENT_TIE = 1e-9
T_MAX, CHANGE, ESTIMATE, PLAN_END = "t_max", "change", "estimate", "plan end"


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
    s = sum(map(math.sin, samples))
    c = sum(map(math.cos, samples))
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


def _seed_sequence(*values) -> np.random.SeedSequence:
    """SeedSequence(values) for a tuple of non-negative ints, built from
    their uint32 words: each int little-endian, 0 as one word, which is how
    numpy coerces the tuple.  A negative int raises ValueError and a value
    that is not an int TypeError, as numpy does."""
    words = []
    for n in values:
        n = operator.index(n)
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & 0xFFFFFFFF)
        n >>= 32
        while n:
            words.append(n & 0xFFFFFFFF)
            n >>= 32
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


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
        self.rngs = {name: np.random.default_rng(_seed_sequence(seed, run_index, cid))
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
        # sensed and estimated current speeds are clamped to [0, speed_cap]
        self.speed_cap = 0.99 * scenario.vehicle.speed
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
        # the fast planner's pending window estimate: (start, length)
        self.estimate: tuple[float, float] | None = None
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

        The schedule is looked up once per epoch the times span: an epoch's
        run of samples ends at the first time not before the next start,
        since a change applies from its start on.  The readings equal those
        of one scalar draw per channel and time: normal(0, s) draws 0 + s * z,
        and numpy takes a slow broadcasting path for an array of scales s,
        so the product is taken here.  A speed in [0, cap] and a heading in
        [0, 2*pi) are kept as they are, as the clamp and normalize_angle
        would keep them, -0.0 included.
        """
        self._schedule_through(times[-1])
        n = self.sc.noise
        entries, starts = self.schedule.entries, self.schedule.starts
        first = bisect_right(starts, times[0]) - 1
        last = bisect_right(starts, times[-1]) - 1
        vw, heading, lo = [], [], 0
        for k in range(first, last + 1):
            hi = bisect_left(times, starts[k + 1], lo) if k < last else len(times)
            state = entries[k][1]
            vw += [state.speed] * (hi - lo)
            heading += [state.heading] * (hi - lo)
            lo = hi
        if n.sigma_vw_relative:
            z = self.rngs["vw"].standard_normal(len(times)).tolist()
            vw = [v + (0.0 + n.sigma_vw_relative * v * e) for v, e in zip(vw, z)]
        if n.sigma_thetaw:
            noise = self.rngs["thetaw"].normal(0.0, n.sigma_thetaw, size=len(times)).tolist()
            heading = [h + e for h, e in zip(heading, noise)]
        cap = self.speed_cap
        return ([v if 0.0 <= v <= cap else min(max(v, 0.0), cap) for v in vw],
                [h if 0.0 <= h < TWO_PI else normalize_angle(h) for h in heading])

    def _reading(self, t: float) -> CurrentState:
        """One noisy instantaneous reading of the current at t."""
        (vw,), (heading,) = self._measure_currents((t,))
        return CurrentState(vw, heading)

    def _clamped_current(self, vw: float, heading: float) -> CurrentState:
        vw = min(max(vw, 0.0), self.speed_cap)
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
            seed = _seed_sequence(self.seed, self.run_index, self.replans + 1).generate_state(1)[0]
            cfg = replace(self.solver_cfg, seed=int(seed))
            solved = solve_six(origin, sc.goal, self.believed, sc.vehicle, cfg)
            sol = solved[0] if solved is not None else None
        else:
            sol = plan(origin, sc.goal, self.believed, sc.vehicle, ArcMode.FOUR_PI)
        return sol, delay

    def _window_estimate(self, t_from: float, window: float) -> CurrentState:
        """Circular-mean MLE from samples over (t_from, t_from + window].

        Samples are sample_rate apart; a window too short for one takes a
        single sample at its end.  The sums run in order with math's sin and
        cos, as estimate_heading_mle takes them.
        """
        sc = self.sc
        rate = sc.noise.sample_rate
        n_samples = int(math.floor(window * rate))
        times = [t_from + i / rate for i in range(1, n_samples + 1)] or [t_from + window]
        if times[-1] > sc.t_max:
            times = [min(t, sc.t_max) for t in times]
        speeds, headings = self._measure_currents(times)
        return self._clamped_current(sum(speeds) / len(speeds), estimate_heading_mle(headings))

    # --- event loop ---------------------------------------------------------

    def _replan_now(self) -> float:
        """One planner invocation with its latency.  Returns when the next
        replan falls due: the armed plan's end, or -inf if none was found."""
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
            # drift with the heading frozen, stopping on arrival; a plan left
            # armed (this replan fails) resumes where it paused
            self.compute_delays.append(delay)
            t0, pose = self.t, self.pose
            self._fly(_NO_PLAN, 0.0, min(t0 + delay, sc.t_max))
            self.armed_at += self.t - t0
            if delay > 0.0:
                self.drift_segments.append(DriftSegment(t0, pose, self.pose))
        if sol is None:
            return -math.inf
        self.plan_controls = controls_of(sol, sc.vehicle)
        self.armed_at = self.t
        return self.t + self.plan_controls.total_duration

    def _next_event(self, plan_end: float) -> tuple[str, float]:
        """The next event and the time the loop stops for it, not before now:
        the earliest of the first change not yet handled, the pending
        estimate, plan_end and t_max, named in the module's tie order."""
        t_max = self.sc.t_max
        self._schedule_through(self.t + EVENT_TIE)
        starts = self.schedule.starts
        change = starts[self.unhandled] if self.unhandled < len(starts) else math.inf
        due = sum(self.estimate) if self.estimate else math.inf
        at = max(min(change, due, plan_end, t_max), self.t)
        if at >= t_max - EVENT_TIE:
            return T_MAX, at
        if change <= at + EVENT_TIE:
            return CHANGE, at
        if due <= min(at, plan_end) + EVENT_TIE:
            return ESTIMATE, at
        return PLAN_END, at

    def _on_change(self) -> bool:
        """React to the changes due by now; False if the run ended.  The
        fast planner takes one reading and schedules an estimate; the slow
        one cannot afford two compute drifts, so it holds its stale plan
        through the window and adopts the window's estimate."""
        sc = self.sc
        if sc.planner == "analytic_4pi":
            self.believed = self._reading(self.t)
            start, window = self.schedule.starts[self.unhandled], sc.estimation_window
            self.estimate = (start, window) if window > 0.0 else None
        else:
            t0, window = self.t, min(sc.estimation_window, sc.t_max - self.t)
            self._fly(self.plan_controls, self.armed_at, t0 + window)
            if self.converged or self.t >= sc.t_max - EVENT_TIE:
                return False
            self.believed = self._window_estimate(t0, window)
        self._schedule_through(self.t + EVENT_TIE)
        self.unhandled = bisect_right(self.schedule.starts, self.t + EVENT_TIE)
        return True

    def run(self) -> RunResult:
        sc = self.sc
        # a start that meets the goal ends the run at once, with no plan
        self.converged = check_termination(sc.start, sc.goal, sc.precision_radius,
                                           sc.heading_tolerance)
        plan_end = -math.inf  # the initial plan is owed
        while not self.converged:  # a compute drift may arrive
            event, at = self._next_event(plan_end)
            if at > self.t:
                self._fly(self.plan_controls, self.armed_at, at)
            if self.converged or event is T_MAX:
                break
            if event is CHANGE and not self._on_change():
                break
            if event is ESTIMATE:
                self.believed = self._window_estimate(*self.estimate)
                self.estimate = None
            plan_end = self._replan_now()  # every event but t_max ends in one
        self.recorder.add(self.t, self.pose, force=True)
        return RunResult(
            converged=self.converged,
            total_time=min(self.t, self.sc.t_max),
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
