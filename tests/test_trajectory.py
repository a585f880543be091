"""Control schedules, integration accuracy, and frame equivalence."""

import math

import numpy as np
import pytest

from driftplan import core
from driftplan.core import (
    TWO_PI,
    CurrentSchedule,
    CurrentState,
    Pose,
    VehicleSpec,
    angle_difference,
)
from driftplan.planner import ArcMode, PathSolution, PathType, plan
from driftplan.trajectory import (
    ControlSchedule,
    ControlSegment,
    SampledTrajectory,
    cf_path,
    controls_of,
    endpoint_residual,
    integrate_if,
)
from oracles import integrate_rk4, write_trajectory_csv

ORIGIN = Pose(0.0, 0.0, 0.0)
UNIT = VehicleSpec(1.0, 1.0)
STILL = CurrentSchedule.constant(CurrentState(0.0, 0.0))


def _constant(cur: CurrentState) -> CurrentSchedule:
    return CurrentSchedule.constant(cur)


def test_controls_of_straight():
    sol = PathSolution(PathType.LSL, 0, 0.0, 5.0, 0.0, TWO_PI, 5.0)
    controls = controls_of(sol, UNIT)
    durations = [s.duration for s in controls.segments]
    rates = [s.turn_rate for s in controls.segments]
    assert durations == pytest.approx([0.0, 5.0, 0.0])
    assert rates == [1.0, 0.0, 1.0]
    assert controls.total_duration == pytest.approx(sol.travel_time)


def test_controls_of_signs_and_durations():
    sol = plan(ORIGIN, Pose(6, 3, 7 * math.pi / 4), CurrentState(0.5, math.pi / 3), UNIT,
               ArcMode.FOUR_PI)
    controls = controls_of(sol, UNIT)
    rates = [s.turn_rate for s in controls.segments]
    assert rates == [-1.0, 0.0, -1.0]  # this optimum is an RSR word
    durations = [s.duration for s in controls.segments]
    assert durations == pytest.approx([sol.alpha, sol.beta, sol.gamma])
    assert controls.total_duration == pytest.approx(sol.travel_time)


def test_integrate_straight_zero_current():
    controls = ControlSchedule((ControlSegment(0.0, 4.0),))
    traj = integrate_if(ORIGIN, controls, STILL, UNIT, h=0.01)
    end = traj.end_pose()
    assert (end.x, end.y, end.theta) == pytest.approx((4.0, 0.0, 0.0))


def test_integrate_pure_drift():
    controls = ControlSchedule((ControlSegment(0.0, 3.0),))
    cur = CurrentState(0.5, math.pi / 2)
    still_vehicle = VehicleSpec(1e-12, 1.0)  # negligible own motion
    traj = integrate_if(ORIGIN, controls, _constant(cur), still_vehicle, h=0.01)
    end = traj.end_pose()
    assert end.x == pytest.approx(0.0, abs=1e-9)
    assert end.y == pytest.approx(1.5, abs=1e-9)


def test_samples_start_at_origin_and_increase():
    sol = plan(ORIGIN, Pose(3, 2, 1.0), CurrentState(0.3, 1.0), UNIT, ArcMode.FOUR_PI)
    traj = integrate_if(ORIGIN, controls_of(sol, UNIT), _constant(CurrentState(0.3, 1.0)),
                        UNIT, h=0.01)
    assert traj.t[0] == 0.0
    assert (traj.x[0], traj.y[0]) == (0.0, 0.0)
    assert (np.diff(traj.t) > 0).all()


INTEGRATORS = {"exact": integrate_if, "rk4": integrate_rk4}


@pytest.mark.parametrize("method", INTEGRATORS)
def test_planned_solutions_integrate_to_goal(method):
    integrate = INTEGRATORS[method]
    rng = np.random.default_rng(5)
    for _ in range(40):
        goal = Pose(rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(0, TWO_PI))
        cur = CurrentState(rng.uniform(0, 0.9), rng.uniform(0, TWO_PI))
        sol = plan(ORIGIN, goal, cur, UNIT, ArcMode.FOUR_PI)
        traj = integrate(ORIGIN, controls_of(sol, UNIT), _constant(cur), UNIT, h=1e-3)
        end = traj.end_pose()
        assert math.hypot(end.x - goal.x, end.y - goal.y) <= 1e-4
        assert angle_difference(end.theta, goal.theta) <= 1e-6


def test_rk4_fourth_order_convergence():
    # a single smooth arc; halving h should shrink the endpoint error ~16x
    controls = ControlSchedule((ControlSegment(1.0, 2.0),))
    cur = CurrentState(0.4, 0.7)
    ref = integrate_if(ORIGIN, controls, _constant(cur), UNIT, h=1e-5).end_pose()

    def err(h):
        end = integrate_rk4(ORIGIN, controls, _constant(cur), UNIT, h=h).end_pose()
        return math.hypot(end.x - ref.x, end.y - ref.y)

    e1, e2 = err(0.2), err(0.1)
    assert e1 / e2 >= 8.0


def test_exact_method_is_stepsize_independent():
    controls = ControlSchedule((ControlSegment(1.0, 2.0), ControlSegment(0.0, 3.0)))
    cur = CurrentState(0.4, 0.7)
    a = integrate_if(ORIGIN, controls, _constant(cur), UNIT, h=0.5).end_pose()
    b = integrate_if(ORIGIN, controls, _constant(cur), UNIT, h=0.001).end_pose()
    assert (a.x, a.y) == pytest.approx((b.x, b.y), abs=1e-10)


def test_integrate_if_refuses_rk4():
    # the RK4 reference lives in the test oracles, not in the library
    controls = ControlSchedule((ControlSegment(0.0, 1.0),))
    with pytest.raises(ValueError, match="^unknown integration method 'rk4'$"):
        integrate_if(ORIGIN, controls, STILL, UNIT, h=0.1, method="rk4")


@pytest.mark.parametrize("h", [math.nan, 0.0, -1.0, -math.inf])
def test_integrate_if_refuses_a_bad_step(h):
    controls = ControlSchedule((ControlSegment(0.0, 1.0),))
    with pytest.raises(ValueError, match=f"^h must be positive, got {h!r}$"):
        integrate_if(ORIGIN, controls, STILL, UNIT, h=h)


@pytest.mark.parametrize("h", [math.nan, 0.0, -1.0, -math.inf])
def test_cf_path_refuses_a_bad_step(h):
    sol = plan(ORIGIN, Pose(3, 2, 1.0), CurrentState(0.3, 1.0), UNIT, ArcMode.FOUR_PI)
    with pytest.raises(ValueError, match=f"^h must be positive, got {h!r}$"):
        cf_path(sol, UNIT, h=h)


@pytest.mark.parametrize("h", [math.inf, 1e6])
def test_long_plan_keeps_its_heading(h):
    # An LSL k = 1 plan with T = 2.34e7 s.  Each segment flies its own
    # duration; cut at absolute end times near T, the last arc carried
    # ulp(T) and the heading missed the goal's by 1e-9 rad.
    goal = Pose(0.0, 1047498.0, 0.0)
    cur = CurrentState(0.999, 0.0)
    sol = plan(ORIGIN, goal, cur, UNIT, ArcMode.TWO_PI)
    assert (sol.path_type, sol.k) == (PathType.LSL, 1)
    assert sol.travel_time == pytest.approx(2.34e7, rel=0.01)
    end = integrate_if(ORIGIN, controls_of(sol, UNIT), _constant(cur), UNIT, h=h).end_pose()
    assert angle_difference(end.theta, goal.theta) < 1e-12


def test_piecewise_current_split_at_epoch():
    # one straight segment under a current that flips halfway
    controls = ControlSchedule((ControlSegment(0.0, 2.0),))
    sched = CurrentSchedule((
        (0.0, CurrentState(0.5, math.pi / 2)),
        (1.0, CurrentState(0.5, 3 * math.pi / 2)),
    ))
    end = integrate_if(ORIGIN, controls, sched, UNIT, h=0.25).end_pose()
    assert end.x == pytest.approx(2.0)
    assert end.y == pytest.approx(0.0, abs=1e-12)  # drifts cancel exactly


def test_cf_endpoint_identity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        goal = Pose(rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(0, TWO_PI))
        cur = CurrentState(rng.uniform(0, 0.9), rng.uniform(0, TWO_PI))
        sol = plan(ORIGIN, goal, cur, UNIT, ArcMode.FOUR_PI)
        end = cf_path(sol, UNIT, h=0.01).end_pose()
        t = sol.travel_time
        assert end.x == pytest.approx(goal.x - cur.wx * t, abs=1e-9)
        assert end.y == pytest.approx(goal.y - cur.wy * t, abs=1e-9)
        assert angle_difference(end.theta, goal.theta) <= 1e-9


def test_cf_plus_drift_matches_if():
    goal = Pose(-1, 4, math.pi / 4)
    cur = CurrentState(0.5, math.pi)
    sol = plan(ORIGIN, goal, cur, UNIT, ArcMode.FOUR_PI)
    h = 1e-3
    cf = cf_path(sol, UNIT, h=h)
    iframe = integrate_if(ORIGIN, controls_of(sol, UNIT), _constant(cur), UNIT, h=h)
    # compare on the shared time grid
    xs = np.interp(cf.t, iframe.t, iframe.x)
    ys = np.interp(cf.t, iframe.t, iframe.y)
    assert np.max(np.abs(cf.x + cur.wx * cf.t - xs)) <= 1e-4
    assert np.max(np.abs(cf.y + cur.wy * cf.t - ys)) <= 1e-4


def test_zero_current_cf_equals_if():
    goal = Pose(4, 2, 0.5)
    sol = plan(ORIGIN, goal, CurrentState(0, 0), UNIT, ArcMode.FOUR_PI)
    cf = cf_path(sol, UNIT, h=0.01)
    iframe = integrate_if(ORIGIN, controls_of(sol, UNIT), STILL, UNIT, h=0.01)
    xs = np.interp(cf.t, iframe.t, iframe.x)
    assert np.max(np.abs(cf.x - xs)) <= 1e-9


def test_water_relative_speed_is_constant():
    goal = Pose(5, -3, 2.0)
    cur = CurrentState(0.6, 2.5)
    sol = plan(ORIGIN, goal, cur, UNIT, ArcMode.FOUR_PI)
    cf = cf_path(sol, UNIT, h=1e-3)
    dx = np.diff(cf.x)
    dy = np.diff(cf.y)
    dt = np.diff(cf.t)
    keep = dt > 1e-12
    speeds = np.hypot(dx[keep], dy[keep]) / dt[keep]
    # chord speed underestimates arc speed by O(dt^2) only
    assert np.max(np.abs(speeds - UNIT.speed)) <= 1e-6


def test_endpoint_residual_detects_perturbation():
    goal = Pose(6, 3, 7 * math.pi / 4)
    cur = CurrentState(0.5, math.pi / 3)
    sol = plan(ORIGIN, goal, cur, UNIT, ArcMode.FOUR_PI)
    pos, head = endpoint_residual(sol, goal, cur, UNIT)
    assert pos <= 1e-9 and head <= 1e-9
    bumped = PathSolution(sol.path_type, sol.k, sol.alpha, sol.beta + 0.01,
                          sol.gamma, sol.kappa, sol.travel_time)
    pos_b, _ = endpoint_residual(bumped, goal, cur, UNIT)
    assert pos_b > 1e-4
    nudged = PathSolution(sol.path_type, sol.k, sol.alpha + 1e-3, sol.beta,
                          sol.gamma, sol.kappa, sol.travel_time)
    pos_n, _ = endpoint_residual(nudged, goal, cur, UNIT)
    assert 1e-5 < pos_n < 1e-1


def test_csv_round_trip(tmp_path):
    sol = plan(ORIGIN, Pose(3, 1, 0.3), CurrentState(0.2, 1.0), UNIT, ArcMode.FOUR_PI)
    traj = integrate_if(ORIGIN, controls_of(sol, UNIT), _constant(CurrentState(0.2, 1.0)),
                        UNIT, h=0.05)
    out = tmp_path / "traj.csv"
    traj.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x,y,theta,frame"
    assert len(lines) == len(traj.t) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[4] == "inertial"


def test_trajectory_csv_bytes_match_the_own_loop_writer(tmp_path):
    sol = plan(ORIGIN, Pose(3, 1, 0.3), CurrentState(0.2, 1.0), UNIT, ArcMode.FOUR_PI)
    flown = integrate_if(ORIGIN, controls_of(sol, UNIT), _constant(CurrentState(0.2, 1.0)),
                         UNIT, h=0.05)
    edges = SampledTrajectory(np.array([0.0, 0.5, 1.0, 2.0]), np.array([-0.0, 0.0, 1.0, np.inf]),
                              np.array([1.0, -0.0, 1e-300, -np.inf]),
                              np.array([0.0, 1.0, 6.25, 3.0]), "current")
    for traj in (flown, edges):
        traj.write_csv(tmp_path / "traj.csv")
        write_trajectory_csv(traj, tmp_path / "reference.csv")
        assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_integrate_if_counts_its_samples_against_the_cap(monkeypatch):
    sol = plan(ORIGIN, Pose(3, 1, 0.3), CurrentState(0.2, 1.0), UNIT, ArcMode.FOUR_PI)
    controls, schedule = controls_of(sol, UNIT), _constant(CurrentState(0.2, 1.0))
    n = len(integrate_if(ORIGIN, controls, schedule, UNIT, h=0.05).t)
    monkeypatch.setattr(core, "MAX_CELLS", n)
    assert len(integrate_if(ORIGIN, controls, schedule, UNIT, h=0.05).t) == n
    monkeypatch.setattr(core, "MAX_CELLS", n - 1)
    with pytest.raises(ValueError, match=rf"h 0\.05 asks for {n} samples, above the cap"):
        integrate_if(ORIGIN, controls, schedule, UNIT, h=0.05)


def test_integrate_if_refuses_a_step_whose_sample_count_overflows():
    # span / h is inf here, which math.ceil used to refuse with an OverflowError
    sol = plan(ORIGIN, Pose(3, 1, 0.3), CurrentState(0.2, 1.0), UNIT, ArcMode.FOUR_PI)
    with pytest.raises(ValueError, match=r"h 5e-324 asks for inf samples"):
        integrate_if(ORIGIN, controls_of(sol, UNIT), STILL, UNIT, h=5e-324)
