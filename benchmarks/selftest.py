"""Self-test of the benchmark: deterministic inputs, and checks that bite.

Run from the repository root:

    python3 benchmarks/selftest.py

It confirms that each input stream repeats for a seed and changes with it,
that each correctness check accepts a true result and rejects a corrupted
copy of it, and that the tracer counts calls and restores what it wraps.
Exits 1 on the first failure.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import run

run.import_library()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from driftplan import planner, reachability  # noqa: E402
from driftplan.baseline import SolverConfig, solve_six  # noqa: E402
from driftplan.core import CurrentState, Pose  # noqa: E402
from driftplan.planner import ArcMode  # noqa: E402
from driftplan.simulator import run_scenario  # noqa: E402
from driftplan.trajectory import SampledTrajectory  # noqa: E402

ORIGIN = workloads.ORIGIN
UNIT = workloads.UNIT
PASSED = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    PASSED.append(what)


def test_streams_deterministic():
    for name, cls in workloads.WORKLOADS.items():
        a, b, c = cls(7), cls(7), cls(8)
        first = [a.next_input() for _ in range(5)]
        expect(first == [b.next_input() for _ in range(5)], f"{name}: same seed, same inputs")
        expect(first != [c.next_input() for _ in range(5)], f"{name}: other seed, other inputs")
        warm = cls(7, stream=1)
        expect(first != [warm.next_input() for _ in range(5)],
               f"{name}: warm-up stream differs from the measured one")


def test_plan_check():
    wl = workloads.PlanQueries(3)
    while True:
        goal, current = wl.next_input()
        sol = planner.plan(ORIGIN, goal, current, UNIT, ArcMode.FOUR_PI)
        if sol.beta > 1.0:
            break
    expect(checks.check_plan(ORIGIN, goal, current, UNIT, sol) is None, "true plan accepted")
    bent = dataclasses.replace(sol, alpha=sol.alpha + 1e-3)
    expect(checks.check_plan(ORIGIN, goal, current, UNIT, bent) is not None,
           "plan with alpha + 1e-3 rejected by the endpoint check")
    expect(checks.check_plan(ORIGIN, goal, current, UNIT, None) is not None,
           "missing four_pi plan rejected")


def test_map_checks():
    theta_f, current = 7 * math.pi / 4, CurrentState(0.5, math.pi / 3)
    grid = reachability.reachability_map(theta_f, current, step=0.5, mode=ArcMode.TWO_PI)
    expect(0 < grid.unreachable_count() < grid.dominant.size, "test map has both kinds of cell")
    expect(checks.check_two_pi_map(grid, theta_f, current, UNIT) is None, "true two_pi map accepted")
    j, i = np.argwhere(grid.dominant != "unreachable")[0]
    flipped = grid.dominant.copy()
    flipped[j, i] = "unreachable"
    bad = dataclasses.replace(grid, dominant=flipped)
    expect(checks.check_two_pi_map(bad, theta_f, current, UNIT) is not None,
           "two_pi map with one flipped cell rejected by the sector check")

    four = reachability.reachability_map(theta_f, current, step=0.5, mode=ArcMode.FOUR_PI)
    expect(checks.check_four_pi_map(four) is None, "true four_pi map accepted")
    flipped = four.dominant.copy()
    flipped[0, 0] = "unreachable"
    expect(checks.check_four_pi_map(dataclasses.replace(four, dominant=flipped)) is not None,
           "four_pi map with an unreachable cell rejected")


def test_scan_check():
    rows = reachability.parametric_scan(checks.SCAN_STEP, checks.SCAN_STEP, checks.SCAN_VW)
    expect(checks.check_scan(rows) is None, "recorded scan counts match")
    theta_f, theta_w, vw, ok = rows[0]
    expect(checks.check_scan([(theta_f, theta_w, vw, not ok)] + rows[1:]) is not None,
           "scan with one flipped triple rejected")


def test_six_check():
    goal, current = Pose(4.0, -3.0, 1.0), CurrentState(0.4, 2.0)
    result = solve_six(ORIGIN, goal, current, UNIT, SolverConfig(n_initial_guesses=24, seed=1))
    expect(checks.check_six(ORIGIN, goal, current, UNIT, result) is None, "true six-type path accepted")
    sol, elapsed = result
    bent = (dataclasses.replace(sol, alpha=sol.alpha + 1e-3), elapsed)
    expect(checks.check_six(ORIGIN, goal, current, UNIT, bent) is not None,
           "six-type path with alpha + 1e-3 rejected by the integration check")
    expect(checks.check_six(ORIGIN, goal, current, UNIT, None) is not None,
           "missing six-type result rejected")


def test_mission_check():
    scenario, seed, index = workloads.Missions(5).next_input()
    result = run_scenario(scenario, seed, run_index=index, record_trajectory=False)
    expect(checks.check_mission(scenario, result) is None, "converged mission accepted")
    traj = result.trajectory
    x = traj.x.copy()
    x[-1] += 2.0 * scenario.precision_radius
    moved = dataclasses.replace(result, trajectory=SampledTrajectory(
        traj.t, x, traj.y, traj.theta, traj.frame))
    expect(checks.check_mission(scenario, moved) is not None,
           "mission whose final pose lies outside the circle rejected")
    expect(checks.check_mission(scenario, dataclasses.replace(result, converged=False)) is not None,
           "non-converged mission rejected")


def test_tail():
    value, p, beyond = run.tail([float(i) for i in range(1, 10001)])
    expect(p == 99.0 and beyond == 100, "tail of 10000 samples is p99 with 100 beyond")
    value, p, beyond = run.tail([float(i) for i in range(1, 1001)])
    expect(p == 90.0 and beyond == 100, "tail of 1000 samples is p90")


def test_tracer():
    original = planner.solve_one
    tracer = tracing.Tracer()
    wl = workloads.PlanQueries(1)
    tracer.install()
    try:
        expect(planner.solve_one is not original and reachability.solve_one is planner.solve_one,
               "tracer replaces solve_one in every module that imports it")
        wl.run(wl.next_input())
    finally:
        tracer.uninstall()
    expect(planner.solve_one is original and reachability.solve_one is original,
           "tracer restores the originals")
    wl.run(wl.next_input())  # not traced
    m = tracer.metrics()
    expect(m["planner.plan.calls"] == 1 and m["planner.solve_one.calls"] == 4,
           "traced plan records one plan and four solve_one spans")
    expect(0.0 < m["planner.solve_one.self_s"], "self time is positive")


def main() -> int:
    for test in (test_streams_deterministic, test_plan_check, test_map_checks, test_scan_check,
                 test_six_check, test_mission_check, test_tail, test_tracer):
        test()
    print(f"selftest: {len(PASSED)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
