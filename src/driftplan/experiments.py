"""Comparison studies: static savings, timing, and dynamic Monte Carlo.

All studies pair the four-arc closed-form planner against the six-type
baseline on identical instances and summarize travel-time savings
(T_baseline - T_fourpi as a percentage of T_baseline).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .baseline import SolverConfig, solve_six
from .core import CurrentState, Pose, VehicleSpec, write_csv
from .planner import ArcMode, plan
from .scenario import NoiseModel, RandomCurrentProcess, Scenario
from .simulator import RunResult, run_scenario


@dataclass(frozen=True)
class Profile:
    """Vehicle/current/sensing bundle for one application domain."""

    name: str
    vehicle: VehicleSpec
    current_speed: float
    noise: NoiseModel


# Turning radii are not part of the sensing tables; both profiles assume a
# 1 rad/s maximum turn rate, i.e. radius = speed.
NAVAL = Profile(
    name="naval",
    vehicle=VehicleSpec(speed=2.5, turning_radius=2.5),
    current_speed=2.0,
    noise=NoiseModel(
        sigma_position=0.3,
        sigma_heading=math.radians(0.5),
        sigma_vw_relative=0.0075,
        sigma_thetaw=math.radians(0.67),
        sample_rate=1.0,
    ),
)

AERIAL = Profile(
    name="aerial",
    vehicle=VehicleSpec(speed=10.0, turning_radius=10.0),
    current_speed=8.0,
    noise=NoiseModel(
        sigma_position=0.01,
        sigma_heading=math.radians(0.5),
        sigma_vw_relative=0.0125,
        sigma_thetaw=math.radians(4.0),
        sample_rate=10.0,
    ),
)

PROFILES = {"naval": NAVAL, "aerial": AERIAL}


def savings_percent(t_baseline: float, t_fourpi: float) -> float:
    """Percentage travel-time savings of the four-arc plan over the baseline."""
    return (t_baseline - t_fourpi) / t_baseline * 100.0


def _square_perimeter_points(half_side: float, n: int) -> list[tuple[float, float]]:
    """n points equally spaced along the boundary of [-R, R]^2."""
    perimeter = 8.0 * half_side
    pts = []
    for i in range(n):
        s = perimeter * i / n
        side, off = divmod(s, 2.0 * half_side)
        if side == 0:
            pts.append((half_side, -half_side + off))
        elif side == 1:
            pts.append((half_side - off, half_side))
        elif side == 2:
            pts.append((-half_side, half_side - off))
        else:
            pts.append((-half_side + off, -half_side))
    return pts


@dataclass(frozen=True)
class StaticInstance:
    goal: Pose
    current: CurrentState
    t_fourpi: float
    t_baseline: float
    compute_fourpi: float
    compute_baseline: float


@dataclass(frozen=True)
class StaticComparisonResult:
    instances: tuple[StaticInstance, ...]

    def travel_gaps(self) -> np.ndarray:
        return np.array([i.t_baseline - i.t_fourpi for i in self.instances])

    def fraction_equal(self, tol: float = 1e-6) -> float:
        gaps = self.travel_gaps()
        return float((np.abs(gaps) <= tol).mean())

    def fraction_total_time_favors_fourpi(self, baseline_delay: float | None = None) -> float:
        """Share of instances where travel + compute favors the four-arc plan.

        With baseline_delay None the measured wall-clock times are used;
        passing LatencyModel().dubins_six reproduces the reference-hardware
        comparison, which charges the four-arc plan no compute time.
        """
        wins = 0
        for inst in self.instances:
            cb = inst.compute_baseline if baseline_delay is None else baseline_delay
            cf = inst.compute_fourpi if baseline_delay is None else 0.0
            if inst.t_fourpi + cf < inst.t_baseline + cb:
                wins += 1
        return wins / len(self.instances)

    def write_csv(self, path) -> None:
        write_csv(path, ("goal_x", "goal_y", "goal_theta", "vw", "thetaw",
                         "t_fourpi", "t_baseline", "compute_fourpi", "compute_baseline"), (
            (i.goal.x, i.goal.y, i.goal.theta, i.current.speed, i.current.heading,
             i.t_fourpi, i.t_baseline, i.compute_fourpi, i.compute_baseline)
            for i in self.instances))


def static_comparison(
    seed: int = 0,
    radii: tuple[float, ...] = (5.0, 10.0, 50.0, 100.0, 200.0),
    points_per_square: int = 16,
    n_goal_headings: int = 6,
    n_current_headings: int = 6,
    vehicle: VehicleSpec = VehicleSpec(),
    current_speed_ratio: float = 0.5,
    cfg: SolverConfig | None = None,
) -> StaticComparisonResult:
    """Deterministic static-current study over concentric-square goal layouts.

    Goals sit on the boundaries of squares of half-side R with equally
    spaced headings; the current runs at half the vehicle speed from each
    of the sampled directions.  Defaults give 16 x len(radii) positions x
    6 x 6 headings.
    """
    if cfg is None:
        cfg = SolverConfig(seed=seed)
    start = Pose(0.0, 0.0, 0.0)
    vw = current_speed_ratio * vehicle.speed
    instances = []
    for radius in radii:
        for gx, gy in _square_perimeter_points(radius, points_per_square):
            for hm in range(n_goal_headings):
                goal = Pose(gx, gy, 2.0 * math.pi * hm / n_goal_headings)
                for wm in range(n_current_headings):
                    current = CurrentState(vw, 2.0 * math.pi * wm / n_current_headings)
                    t0 = time.perf_counter()
                    four = plan(start, goal, current, vehicle, ArcMode.FOUR_PI)
                    compute_four = time.perf_counter() - t0
                    solved = solve_six(start, goal, current, vehicle, cfg)
                    if four is None or solved is None:
                        raise RuntimeError("static comparison instance failed to solve")
                    best, compute_base = solved
                    instances.append(StaticInstance(
                        goal, current, four.travel_time, best.travel_time,
                        compute_four, compute_base,
                    ))
    return StaticComparisonResult(tuple(instances))


@dataclass(frozen=True)
class MonteCarloRun:
    run_index: int
    goal: Pose
    fourpi: RunResult
    baseline: RunResult

    @property
    def both_converged(self) -> bool:
        return self.fourpi.converged and self.baseline.converged

    @property
    def savings(self) -> float | None:
        if not self.both_converged:
            return None
        return savings_percent(self.baseline.total_time, self.fourpi.total_time)


@dataclass(frozen=True)
class SavingsStats:
    runs: tuple[MonteCarloRun, ...]

    @property
    def savings_values(self) -> list[float]:
        return [r.savings for r in self.runs if r.savings is not None]

    @property
    def mean_savings(self) -> float:
        vals = self.savings_values
        return sum(vals) / len(vals) if vals else math.nan

    @property
    def nonconvergence_rate_baseline(self) -> float:
        return 100.0 * sum(not r.baseline.converged for r in self.runs) / len(self.runs)

    @property
    def nonconvergence_rate_fourpi(self) -> float:
        return 100.0 * sum(not r.fourpi.converged for r in self.runs) / len(self.runs)

    @property
    def negative_savings_fraction(self) -> float:
        vals = self.savings_values
        if not vals:
            return 0.0
        return sum(v < 0.0 for v in vals) / len(vals)

    def summary_dict(self) -> dict:
        return {
            "n_runs": len(self.runs),
            "mean_savings_percent": self.mean_savings,
            "nonconvergence_baseline_percent": self.nonconvergence_rate_baseline,
            "nonconvergence_fourpi_percent": self.nonconvergence_rate_fourpi,
            "negative_savings_fraction": self.negative_savings_fraction,
        }

    def write_csv(self, path) -> None:
        write_csv(path, ("run", "goal_x", "goal_y", "goal_theta",
                         "fourpi_converged", "fourpi_total_time",
                         "baseline_converged", "baseline_total_time", "savings_percent"), (
            (r.run_index, r.goal.x, r.goal.y, r.goal.theta,
             r.fourpi.converged, r.fourpi.total_time,
             r.baseline.converged, r.baseline.total_time, r.savings)
            for r in self.runs))


def monte_carlo_goals(radius: float = 100.0, n_positions: int = 6,
                      n_headings: int = 6) -> list[Pose]:
    """Goal poses on a circle of the given radius, equally spaced."""
    goals = []
    for p in range(n_positions):
        ang = 2.0 * math.pi * p / n_positions
        for h in range(n_headings):
            goals.append(Pose(radius * math.cos(ang), radius * math.sin(ang),
                              2.0 * math.pi * h / n_headings))
    return goals


def dynamic_monte_carlo(
    profile: Profile,
    n_runs: int = 360,
    seed: int = 0,
    goal_radius: float = 100.0,
    precision_radius: float = 1.5,
    t_max: float = 1000.0,
    solver_cfg: SolverConfig | None = None,
) -> SavingsStats:
    """Paired Monte-Carlo study under randomly re-drawn current headings.

    Run i uses goal i mod 36 (6 positions x 6 headings at the given radius)
    and repetition i // 36; both planners see the identical current
    realization and noise streams, so savings compare like for like.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    if solver_cfg is None:
        solver_cfg = SolverConfig(seed=seed)
    goals = monte_carlo_goals(goal_radius)
    process = RandomCurrentProcess(CurrentState(profile.current_speed, 0.0))
    runs = []
    for i in range(n_runs):
        goal = goals[i % len(goals)]
        base_kwargs = dict(
            start=Pose(0.0, 0.0, 0.0),
            goal=goal,
            vehicle=profile.vehicle,
            current_process=process,
            noise=profile.noise,
            precision_radius=precision_radius,
            t_max=t_max,
            # in-water deployment: the first plan also costs compute time
            initial_compute_latency=True,
        )
        four = run_scenario(
            Scenario(planner="analytic_4pi", **base_kwargs),
            seed, run_index=i, record_trajectory=False, solver_cfg=solver_cfg,
        )
        base = run_scenario(
            Scenario(planner="dubins_six", **base_kwargs),
            seed, run_index=i, record_trajectory=False, solver_cfg=solver_cfg,
        )
        runs.append(MonteCarloRun(i, goal, four, base))
    return SavingsStats(tuple(runs))


@dataclass(frozen=True)
class TimingResult:
    mean_fourpi: float
    mean_baseline: float
    n_instances: int

    @property
    def ratio(self) -> float:
        return self.mean_baseline / self.mean_fourpi


def timing_bench(
    n_instances: int = 50,
    seed: int = 0,
    vehicle: VehicleSpec = VehicleSpec(),
    cfg: SolverConfig | None = None,
) -> TimingResult:
    """Mean wall-clock solve times over random instances, both planners."""
    if n_instances < 1:
        raise ValueError("need at least one instance")
    if cfg is None:
        cfg = SolverConfig(seed=seed)
    rng = np.random.default_rng(seed)
    start = Pose(0.0, 0.0, 0.0)
    instances = []
    for _ in range(n_instances):
        goal = Pose(rng.uniform(-10, 10) * vehicle.turning_radius,
                    rng.uniform(-10, 10) * vehicle.turning_radius,
                    rng.uniform(0.0, 2.0 * math.pi))
        current = CurrentState(rng.uniform(0.0, 0.9) * vehicle.speed,
                               rng.uniform(0.0, 2.0 * math.pi))
        instances.append((goal, current))
    t0 = time.perf_counter()
    for goal, current in instances:
        plan(start, goal, current, vehicle, ArcMode.FOUR_PI)
    mean_four = (time.perf_counter() - t0) / n_instances
    t0 = time.perf_counter()
    for goal, current in instances:
        solve_six(start, goal, current, vehicle, cfg)
    mean_base = (time.perf_counter() - t0) / n_instances
    return TimingResult(mean_four, mean_base, n_instances)
