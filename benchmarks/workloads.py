"""The four benchmark workloads: seeded input streams, operations, checks.

Every workload is a closed loop with one client: the next operation starts
only after the previous one returns.  An operation is one library call on
inputs from a stream that depends only on the workload seed; it is timed
with ``time.perf_counter`` around the call alone and checked afterwards.

Library functions are looked up on their modules at call time, so that the
traced run sees the wrappers it installs there.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

import driftplan.baseline as baseline
import driftplan.planner as planner
import driftplan.reachability as reachability
import driftplan.simulator as simulator
from driftplan.core import CurrentState, Pose, VehicleSpec
from driftplan.experiments import AERIAL, NAVAL, monte_carlo_goals
from driftplan.planner import ArcMode

import checks

ORIGIN = Pose(0.0, 0.0, 0.0)
UNIT = VehicleSpec()
RING = monte_carlo_goals()  # 36 goal poses on the 100 m circle
BLOCK = 1024  # inputs drawn per refill of a stream

# Map parameters follow the additive-recurrence (R3) sequence, which fills
# the (theta_f, v_w, theta_w) cube evenly from its first points on; the seed
# moves each point by up to +-MAP_JITTER/2 of each range.  Map cost depends
# strongly on these parameters, so every seed runs maps of nearly the same
# cost and the figures do not swing with the draw.
_R3 = 1.2207440846057594
_R3_STEP = np.array([1.0 / _R3, 1.0 / _R3**2, 1.0 / _R3**3])
MAP_JITTER = 0.05


@dataclass(frozen=True)
class OpTiming:
    """The timing of one library call and the work it did."""

    kind: str
    seconds: float
    units: int


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class Workload:
    """Base class: a seeded input stream plus the operation run on it."""

    name = ""
    op = ""  # what one operation is, for the report
    prefix = ""  # prefix of the workload's own latency figures, if any
    latency_unit = "ms"  # unit of those figures
    calls_per_op = 1  # consecutive calls that make one operation
    rates: dict[str, tuple[str, ...]] = {}  # work rate name -> kinds of call it sums
    warm_ops = 0  # operations of the warm-up
    trace_ops = 0  # inputs of the traced run

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed
        self.rng = np.random.default_rng(np.random.SeedSequence((seed, stream)))
        self.index = 0
        self._buffer: list = []

    def prefill(self) -> None:
        """Draw the next block of inputs if none is buffered."""
        if not self._buffer:
            self._buffer = self._draw_block()
            self._buffer.reverse()

    def next_input(self):
        self.prefill()
        self.index += 1
        return self._buffer.pop()

    def _draw_block(self) -> list:
        raise NotImplementedError

    def ops_for(self, seconds: float) -> int | None:
        """Calls per run, or None to run until the timed budget is spent."""
        return None

    def warm_up(self) -> None:
        for _ in range(self.warm_ops):
            self.run(self.next_input())

    def run(self, inp) -> tuple[object, OpTiming]:
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        raise NotImplementedError

    def report(self, per_kind: dict[str, tuple[float, float]]) -> dict[str, float]:
        """Work rates from per-kind (seconds, units) sums."""
        return {name: sum(per_kind[k][1] for k in kinds) / sum(per_kind[k][0] for k in kinds)
                for name, kinds in self.rates.items()}


class PlanQueries(Workload):
    """Single four_pi plan calls: random goals in +-10r, v_w in [0, 0.9]."""

    name = "plan-queries"
    op = "plan call"
    prefix = "plan"
    latency_unit = "us"
    rates = {"plans_per_s": ("plan",)}
    warm_ops = 200
    trace_ops = 20000

    def _draw_block(self):
        u = self.rng.random((BLOCK, 5))
        r, v = UNIT.turning_radius, UNIT.speed
        return [
            (Pose((20.0 * a - 10.0) * r, (20.0 * b - 10.0) * r, 2.0 * math.pi * c),
             CurrentState(0.9 * v * d, 2.0 * math.pi * e))
            for a, b, c, d, e in u.tolist()
        ]

    def run(self, inp):
        goal, current = inp
        sol, secs = _timed(planner.plan, ORIGIN, goal, current, UNIT, ArcMode.FOUR_PI)
        return sol, OpTiming("plan", secs, 1)

    def check(self, inp, out):
        goal, current = inp
        return checks.check_plan(ORIGIN, goal, current, UNIT, out)


@dataclass(frozen=True)
class MapDraw:
    theta_f: float
    current: CurrentState


class GridMaps(Workload):
    """Cycles of a two_pi map, a four_pi map and a fixed-lattice scan.

    Each map is the default 201x201 grid with its own theta_f and current.
    An operation is one cycle, whose latency is the sum of its three calls;
    the host-speed probe runs between the calls.  A call takes seconds, so
    a run is a fixed number of whole cycles instead of a time budget.
    """

    name = "grid-maps"
    op = "cycle of two maps and a scan"
    calls_per_op = 3
    rates = {"map_cells_per_s": ("map_two_pi", "map_four_pi"), "scan_triples_per_s": ("scan",)}
    trace_ops = 3
    cycle_s = 7.0  # one cycle on a 2-CPU Xeon; sets the cycles per run

    def ops_for(self, seconds):
        return 3 * max(1, round(seconds / self.cycle_s))

    def _draw(self, j: int) -> MapDraw:
        jitter = MAP_JITTER * (self.rng.random(3) - 0.5)
        a, b, c = ((0.5 + j * _R3_STEP + jitter) % 1.0).tolist()
        return MapDraw(2.0 * math.pi * a, CurrentState(0.9 * UNIT.speed * b, 2.0 * math.pi * c))

    def _draw_block(self):
        out = []
        for i in range(self.index, self.index + BLOCK):
            kind = ("map_two_pi", "map_four_pi", "scan")[i % 3]
            out.append((kind, None if kind == "scan" else self._draw(2 * (i // 3) + i % 3)))
        return out

    def warm_up(self):
        """Coarse maps and a coarse scan: the full calls would take seconds."""
        for _ in range(2):
            kind, draw = self.next_input()
            mode = ArcMode.TWO_PI if kind == "map_two_pi" else ArcMode.FOUR_PI
            reachability.reachability_map(draw.theta_f, draw.current, step=1.0, mode=mode)
        reachability.parametric_scan(4 * checks.SCAN_STEP, 4 * checks.SCAN_STEP, checks.SCAN_VW)

    def run(self, inp):
        kind, draw = inp
        if kind == "scan":
            rows, secs = _timed(reachability.parametric_scan, checks.SCAN_STEP,
                                checks.SCAN_STEP, checks.SCAN_VW)
            return rows, OpTiming(kind, secs, len(rows))
        mode = ArcMode.TWO_PI if kind == "map_two_pi" else ArcMode.FOUR_PI
        grid, secs = _timed(reachability.reachability_map, draw.theta_f, draw.current,
                            mode=mode)
        return grid, OpTiming(kind, secs, grid.travel_time.size)

    def check(self, inp, out):
        kind, draw = inp
        if kind == "scan":
            return checks.check_scan(out)
        if kind == "map_two_pi":
            return checks.check_two_pi_map(out, draw.theta_f, draw.current, UNIT)
        return checks.check_four_pi_map(out)


class SixType(Workload):
    """solve_six with the default 100-start config and a seed per instance.

    Even operations use the timing_bench distribution (unit vehicle, goals
    in +-10r); odd ones put a Monte-Carlo ring goal in front of the naval
    and the aerial vehicle in turn.
    """

    name = "six-type"
    op = "solve_six call"
    prefix = "six"
    rates = {"six_solves_per_s": ("solve",)}
    warm_ops = 1
    trace_ops = 24

    def _draw_block(self):
        out = []
        for i in range(self.index, self.index + BLOCK):
            solver_seed = int(self.rng.integers(2**31))
            if i % 2 == 0:
                a, b, c, d, e = self.rng.random(5).tolist()
                vehicle = UNIT
                goal = Pose((20.0 * a - 10.0) * vehicle.turning_radius,
                            (20.0 * b - 10.0) * vehicle.turning_radius, 2.0 * math.pi * c)
                current = CurrentState(0.9 * vehicle.speed * d, 2.0 * math.pi * e)
            else:
                profile = NAVAL if (i // 2) % 2 == 0 else AERIAL
                vehicle = profile.vehicle
                goal = RING[int(self.rng.integers(len(RING)))]
                current = CurrentState(profile.current_speed, 2.0 * math.pi * self.rng.random())
            out.append((goal, current, vehicle, baseline.SolverConfig(seed=solver_seed)))
        return out

    def run(self, inp):
        goal, current, vehicle, cfg = inp
        result, secs = _timed(baseline.solve_six, ORIGIN, goal, current, vehicle, cfg)
        return result, OpTiming("solve", secs, 1)

    def check(self, inp, out):
        goal, current, vehicle, _ = inp
        return checks.check_six(ORIGIN, goal, current, vehicle, out)


class Missions(Workload):
    """analytic_4pi missions to the 100 m ring under a random current process.

    Naval and aerial profiles alternate; the first plan is charged its
    compute latency and no trajectory is recorded.
    """

    name = "missions"
    op = "run_scenario call"
    prefix = "mission"
    rates = {"missions_per_s": ("mission",)}
    warm_ops = 4
    trace_ops = 200

    def _draw_block(self):
        out = []
        for i in range(self.index, self.index + BLOCK):
            profile = NAVAL if i % 2 == 0 else AERIAL
            goal = RING[int(self.rng.integers(len(RING)))]
            heading = 2.0 * math.pi * self.rng.random()
            mission_seed = int(self.rng.integers(2**31))
            scenario = simulator.Scenario(
                start=ORIGIN,
                goal=goal,
                vehicle=profile.vehicle,
                current_process=simulator.RandomCurrentProcess(
                    CurrentState(profile.current_speed, heading)),
                noise=profile.noise,
                precision_radius=1.5,
                t_max=1000.0,
                planner="analytic_4pi",
                initial_compute_latency=True,
            )
            out.append((scenario, mission_seed, i))
        return out

    def run(self, inp):
        scenario, mission_seed, run_index = inp
        result, secs = _timed(simulator.run_scenario, scenario, mission_seed,
                              run_index=run_index, record_trajectory=False)
        return result, OpTiming("mission", secs, 1)

    def check(self, inp, out):
        return checks.check_mission(inp[0], out)


WORKLOADS = {cls.name: cls for cls in (PlanQueries, GridMaps, SixType, Missions)}
