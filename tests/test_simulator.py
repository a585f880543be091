"""Mission simulation: estimation, drift, termination, and replanning."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftplan import simulator
from driftplan.baseline import LatencyModel, SolverConfig
from driftplan.core import (
    TWO_PI,
    CurrentSchedule,
    CurrentState,
    Pose,
    VehicleSpec,
    angle_difference,
    current_at,
)
from driftplan.experiments import AERIAL, NAVAL
from driftplan.planner import ArcMode, plan
from driftplan.scenario import NoiseModel, RandomCurrentProcess, Scenario, scenario_from_dict
from driftplan.simulator import (
    check_termination,
    drift_predict,
    estimate_heading_mle,
    realize_schedule,
    run_scenario,
)
from driftplan.trajectory import ControlSchedule, ControlSegment, controls_of, integrate_if, pieces
from oracles import realize_schedule_by_choice, run_scenario_per_sample, run_scenario_stepped

UNIT = VehicleSpec(1.0, 1.0)


def _steady(vw, heading):
    return CurrentSchedule.constant(CurrentState(vw, heading))


FIG_SCHEDULE = CurrentSchedule((
    (0.0, CurrentState(0.5, math.pi)),
    (3.2, CurrentState(0.75, 3 * math.pi / 2)),
))


def _fig_scenario(planner, dubins_delay=8.0):
    return Scenario(
        start=Pose(0, 0, 0),
        goal=Pose(5, 8.5, 3 * math.pi / 4),
        vehicle=UNIT,
        current_process=FIG_SCHEDULE,
        precision_radius=1.0,
        estimation_window=0.0,
        latency=LatencyModel(dubins_six=dubins_delay, analytic_4pi=6.4e-4),
        planner=planner,
    )


def test_estimate_heading_mle_basics():
    assert estimate_heading_mle([1.3]) == pytest.approx(1.3)
    assert estimate_heading_mle([math.pi - 0.1, math.pi + 0.1]) == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        estimate_heading_mle([])


def test_estimate_heading_mle_statistics():
    # 120 samples at sigma = 4 degrees: the mean-direction error should be
    # within 3 sigma / sqrt(n) almost always
    sigma = math.radians(4.0)
    true = math.pi / 3
    bound = 3 * sigma / math.sqrt(120)
    bad = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        estimate = estimate_heading_mle(true + rng.normal(0, sigma, 120))
        err = abs((estimate - true + math.pi) % (2 * math.pi) - math.pi)
        if err > bound:
            bad += 1
    assert bad <= 10  # 99% of trials inside the bound


def test_drift_predict_spot_values():
    vehicle = VehicleSpec(2.5, 2.5)
    cur = CurrentState(2.0, 0.0)
    pose = Pose(0, 0, 0)  # heading aligned with the current
    moved = drift_predict(pose, 0.0, cur, 8.72, vehicle)
    assert math.hypot(moved.x, moved.y) == pytest.approx(8.72 * 4.5)
    assert moved.x == pytest.approx(39.24)
    quick = drift_predict(pose, 0.0, cur, 6.4e-4, vehicle)
    assert math.hypot(quick.x, quick.y) == pytest.approx(6.4e-4 * 4.5)
    assert round(quick.x, 4) == pytest.approx(0.0029)
    assert drift_predict(pose, 1.0, cur, 0.0, vehicle) == pose


def test_check_termination():
    goal = Pose(0, 0, 0)
    assert check_termination(goal, goal, 1.0, 0.1)
    edge = Pose(1.0, 0, 0)
    assert check_termination(edge, goal, 1.0, 0.1)  # boundary inclusive
    off_heading = Pose(0, 0, math.radians(6))
    assert not check_termination(off_heading, goal, 1.0, math.radians(5))
    far = Pose(1.5, 0, 0)
    assert not check_termination(far, goal, 1.0, 0.1)


def test_realize_schedule_explicit_passthrough():
    rng = np.random.default_rng(0)
    assert realize_schedule(FIG_SCHEDULE, 100.0, rng) is FIG_SCHEDULE


def test_realize_schedule_random_process():
    proc = RandomCurrentProcess(CurrentState(2.0, 0.0))
    rng = np.random.default_rng(42)
    sched = realize_schedule(proc, 300.0, rng)
    times = sched.starts[1:]
    assert times
    assert all(t2 - t1 in (30.0, 45.0, 60.0) for t1, t2 in
               zip((0.0,) + times, times))
    assert all(s.speed == 2.0 for _, s in sched.entries)
    headings = {s.heading for _, s in sched.entries[1:]}
    allowed = {m * math.pi / 6 for m in range(12)}
    assert headings <= allowed


@pytest.mark.parametrize("periods, headings", [
    ((0.5,), (1.0,)), ((30.0, 45.0, 60.0), (-1.0, 7.0)), ((2.0, 3.5), tuple(range(12))),
])
def test_realize_schedule_draws_as_choice_does(periods, headings):
    # indexing the tuples with integers(0, n) takes the element rng.choice
    # takes, from the same stream, for 1-element tuples too
    proc = RandomCurrentProcess(CurrentState(0.7, 0.0), headings=headings, periods=periods)
    for seed in range(50):
        rng, by_choice = np.random.default_rng(seed), np.random.default_rng(seed)
        assert realize_schedule(proc, 200.0, rng) == realize_schedule_by_choice(proc, 200.0,
                                                                                by_choice)
        assert rng.random() == by_choice.random()


def test_steady_noise_free_run_matches_plan():
    goal = Pose(6, -4, 1.0)
    cur = CurrentState(0.4, 2.0)
    planned = plan(Pose(0, 0, 0), goal, cur, UNIT, ArcMode.FOUR_PI)
    scenario = Scenario(
        start=Pose(0, 0, 0), goal=goal, vehicle=UNIT,
        current_process=_steady(0.4, 2.0), planner="analytic_4pi",
    )
    result = run_scenario(scenario, seed=0)
    assert result.converged
    assert result.replan_count == 0
    # arrival is detected on entering the precision circle with the heading
    # in tolerance, at most (radius + tol*r)/v before the plan's very end
    slack = (scenario.precision_radius + scenario.heading_tolerance) / UNIT.speed + 0.06
    assert planned.travel_time - slack <= result.total_time <= planned.travel_time + 1e-9


def _truncated(controls: ControlSchedule, duration: float) -> ControlSchedule:
    """The first `duration` seconds of a control schedule."""
    kept = []
    for seg, start in zip(controls.segments, (0.0, *controls.ends)):
        kept.append(ControlSegment(seg.turn_rate, min(seg.duration, max(duration - start, 0.0))))
    return ControlSchedule(tuple(kept))


def test_replanned_flight_ends_on_the_integrated_plan():
    # Noise-free, one current change: the vehicle replans once, at the
    # change, and flies the new plan until its heading enters the 1e-6 rad
    # tolerance, 1e-6 s before the plan ends.  The fast planner plans from
    # the predicted post-drift pose and flies from the actual one, so the
    # final pose is that plan integrated from the actual post-drift pose.
    # A step flown with the straight segment's turn rate at the start of
    # the final arc, 80 s after arming, used to miss it by about 1e-3.
    goal = Pose(86.7, 77.3, 3.92)
    after = CurrentState(0.5, 5.76)
    scenario = Scenario(
        start=Pose(0, 0, 0), goal=goal, vehicle=UNIT,
        current_process=CurrentSchedule(((0.0, CurrentState(0.5, 3.85)), (66.601, after))),
        precision_radius=0.01, heading_tolerance=1e-6, estimation_window=0.0,
    )
    result = run_scenario(scenario, seed=0)
    drift = result.drift_segments[0]
    origin = drift_predict(drift.from_pose, drift.from_pose.theta, after,
                           result.compute_delays[0], UNIT)
    replanned = plan(origin, goal, after, UNIT, ArcMode.FOUR_PI)
    flown = replanned.travel_time - scenario.heading_tolerance / UNIT.max_turn_rate
    expected = integrate_if(drift.to_pose, _truncated(controls_of(replanned, UNIT), flown),
                            CurrentSchedule.constant(after), UNIT, 0.05).end_pose()
    final = result.trajectory.end_pose()
    assert result.converged
    assert abs(final.x - expected.x) <= 1e-9
    assert abs(final.y - expected.y) <= 1e-9
    assert angle_difference(final.theta, expected.theta) <= 1e-9
    armed_at = drift.t + result.compute_delays[0]
    assert result.total_time == pytest.approx(armed_at + flown, abs=1e-9)
    assert result.replan_count == 1


# Noise-free plans whose paths pass through the precision circle seconds
# before they end.  The first dips 6 mm into it for 9 ms and enters by
# distance; the second enters by heading and stays inside for 31 ms.
# Fixed 0.05 s steps straddle both passes.
GRAZES = {
    "distance": (Pose(2.4533, 0.1463, 5.7549), CurrentState(0.1573, 6.0815), 0.1198, math.pi / 4),
    "heading": (Pose(-0.14197045098503214, 1.4596132721937156, 2.6405748155240323),
                CurrentState(0.8530970496445611, 2.997211413680598), 0.5060911141822468,
                math.pi / 4),
}


def _graze_scenario(name):
    goal, current, radius, tolerance = GRAZES[name]
    return Scenario(
        start=Pose(0, 0, 0), goal=goal, vehicle=UNIT,
        current_process=CurrentSchedule.constant(current), precision_radius=radius,
        heading_tolerance=tolerance, estimation_window=0.0,
    )


def _first_entry_by_scan(scenario, h):
    """First arrival on the scenario's first plan: each piece scanned in
    steps of h from its start pose, then the entry bisected to 1e-13 s."""
    sc = scenario
    v = sc.vehicle.speed
    controls = controls_of(plan(sc.start, sc.goal, sc.current_process.entries[0][1],
                                sc.vehicle, ArcMode.FOUR_PI), sc.vehicle)
    pose = sc.start
    for t0, t1, u, cur in pieces(controls, sc.current_process, 0.0, 0.0,
                                 controls.total_duration):
        def arrived(s, origin=pose, u=u, cur=cur):
            at = Pose(*simulator._advance(origin.x, origin.y, origin.theta, u,
                                          cur.wx, cur.wy, v, s))
            return check_termination(at, sc.goal, sc.precision_radius, sc.heading_tolerance)

        lo = 0.0
        for i in range(1, math.ceil((t1 - t0) / h) + 1):
            hi = min(i * h, t1 - t0)
            if arrived(hi):
                while hi - lo > 1e-13:
                    mid = 0.5 * (lo + hi)
                    lo, hi = (lo, mid) if arrived(mid) else (mid, hi)
                return t0 + hi
            lo = hi
        pose = Pose(*simulator._advance(pose.x, pose.y, pose.theta, u, cur.wx, cur.wy, v,
                                        t1 - t0))
    return None


@pytest.mark.parametrize("name", GRAZES)
def test_grazing_pass_is_an_arrival(name):
    scenario = _graze_scenario(name)
    result = run_scenario(scenario, seed=0, record_trajectory=False)
    stepped = run_scenario_stepped(scenario, seed=0, record_trajectory=False)
    assert result.converged and stepped.converged
    assert result.total_time < 3.0
    assert stepped.total_time > result.total_time + 5.0  # the fixed steps flew through it
    assert check_termination(result.trajectory.end_pose(), scenario.goal,
                             scenario.precision_radius, scenario.heading_tolerance)


@pytest.mark.parametrize("name", GRAZES)
def test_entry_time_matches_a_fine_scan(name):
    scenario = _graze_scenario(name)
    result = run_scenario(scenario, seed=0, record_trajectory=False)
    assert abs(result.total_time - _first_entry_by_scan(scenario, 1e-5)) <= 1e-9


def test_arrival_during_a_compute_drift():
    # Benchmark missions input 125 at seed 1: the last compute drift passes
    # into the precision circle, and the mission ends at the entry instead
    # of at the drift's end, 1.7e-4 s later.
    scenario = Scenario(
        start=Pose(0, 0, 0), goal=Pose(100.0, 0.0, 2 * math.pi / 3), vehicle=AERIAL.vehicle,
        current_process=RandomCurrentProcess(CurrentState(8.0, 0.2139147023420923)),
        noise=AERIAL.noise, precision_radius=1.5, planner="analytic_4pi",
        initial_compute_latency=True,
    )
    seed, run_index = 1302466207, 125
    result = run_scenario(scenario, seed, run_index=run_index, record_trajectory=False)
    drift, delay = result.drift_segments[-1], result.compute_delays[-1]
    process_rng = np.random.default_rng(np.random.SeedSequence((seed, run_index, 0)))
    schedule = realize_schedule(scenario.current_process, scenario.t_max, process_rng)
    cur = current_at(schedule, drift.t)
    assert current_at(schedule, drift.t + delay) == cur

    def arrived(s):
        pose = drift_predict(drift.from_pose, drift.from_pose.theta, cur, s, scenario.vehicle)
        return check_termination(pose, scenario.goal, scenario.precision_radius,
                                 scenario.heading_tolerance)

    lo, hi = 0.0, delay
    assert not arrived(lo) and arrived(hi)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if arrived(mid) else (mid, hi)
    assert result.converged
    assert abs(result.total_time - (drift.t + hi)) <= 1e-9
    assert drift.to_pose == result.trajectory.end_pose()


@pytest.mark.parametrize("turn_rate", [0.0, 0.1], ids=["straight", "arc"])
def test_skimming_pass_stays_within_the_advance_bound(monkeypatch, turn_rate):
    # The path passes 1e-9 outside the precision circle with the heading
    # always acceptable; conservative steps slow down near the circle.
    radius, span = 1.0, 20.0
    miss = radius + 1e-9
    if turn_rate == 0.0:
        goal = Pose(10.0, miss, 0.0)
    else:  # outside the turning circle, centred (0, 10), nearest at t = 10
        rho = UNIT.speed / turn_rate
        goal = Pose((rho + miss) * math.sin(1.0), rho - (rho + miss) * math.cos(1.0), 0.0)
    scenario = Scenario(start=Pose(0, 0, 0), goal=goal, vehicle=UNIT,
                        current_process=_steady(0.0, 0.0), precision_radius=radius,
                        heading_tolerance=math.pi)
    mission = simulator._Mission(scenario, 0, 0, False, SolverConfig())
    advance = simulator._advance
    calls = []

    def counting(*args):
        calls.append(args)
        return advance(*args)

    monkeypatch.setattr(simulator, "_advance", counting)
    flown, pose, arrived = mission._fly_piece(scenario.start, span, turn_rate,
                                              CurrentState(0.0, 0.0))
    assert (flown, arrived) == (span, False)
    end = Pose(*advance(0.0, 0.0, 0.0, turn_rate, 0.0, 0.0, UNIT.speed, span))
    assert pose == end
    floor = simulator._FLOOR_SHARE * mission.recorder.spacing
    assert len(calls) <= math.ceil(span / floor) + 20  # the bound _fly_piece states
    assert len(calls) <= 60  # fixed 0.05 s steps took 400


@settings(max_examples=200)
@given(x=st.floats(-20.0, 20.0), y=st.floats(-20.0, 20.0), theta=st.floats(0.0, TWO_PI),
       speed=st.floats(0.5, 3.0), turning_radius=st.floats(0.5, 3.0),
       vw=st.floats(0.0, 0.9), psi=st.floats(0.0, TWO_PI),
       radius=st.floats(0.01, 2.0), tolerance=st.floats(1e-3, math.pi))
def test_event_driven_arrival_never_later_than_stepped(x, y, theta, speed, turning_radius,
                                                       vw, psi, radius, tolerance):
    vehicle = VehicleSpec(speed, turning_radius)
    scenario = Scenario(
        start=Pose(0, 0, 0), goal=Pose(x, y, theta), vehicle=vehicle,
        current_process=_steady(vw * speed, psi), precision_radius=radius,
        heading_tolerance=tolerance, estimation_window=0.0,
    )
    result = run_scenario(scenario, seed=0, record_trajectory=False)
    stepped = run_scenario_stepped(scenario, seed=0, record_trajectory=False)
    assert result.converged and stepped.converged
    # the entry is bisected to 1e-9 of the recording spacing
    resolution = 1e-9 * 0.05 * turning_radius / speed
    assert result.total_time <= stepped.total_time + resolution
    assert check_termination(result.trajectory.end_pose(), scenario.goal, radius, tolerance)


@pytest.mark.parametrize("goal, before, after, t_change", [
    (Pose(86.7, 77.3, 3.92), CurrentState(0.5, 3.85), CurrentState(0.5, 5.76), 66.601),
    (Pose(-40.0, 25.0, 1.0), CurrentState(0.8, 0.3), CurrentState(0.2, 4.0), 12.5),
    (Pose(10.0, -60.0, 5.5), CurrentState(0.1, 2.0), CurrentState(0.9, 1.1), 30.0),
], ids=["northeast", "northwest", "south"])
def test_replan_lands_within_a_micrometre(goal, before, after, t_change):
    # The replan starts where the vehicle will be once the compute drift
    # ends, so without noise the one replan at the change arrives even
    # inside a 1e-6 precision circle.  Planning from the pre-drift pose
    # missed by the drift (about 1e-3) and replanned until t_max.
    scenario = Scenario(
        start=Pose(0, 0, 0), goal=goal, vehicle=UNIT,
        current_process=CurrentSchedule(((0.0, before), (t_change, after))),
        precision_radius=1e-6, estimation_window=0.0,
    )
    result = run_scenario(scenario, seed=0, record_trajectory=False)
    assert result.converged
    assert result.replan_count == 1


def test_fig_replanning_analytic():
    result = run_scenario(_fig_scenario("analytic_4pi"), seed=0)
    assert result.converged
    assert result.replan_count == 1
    assert result.total_time == pytest.approx(33.57, rel=0.05)
    vmax = UNIT.speed + 0.75
    assert all(seg.length <= 6.4e-4 * vmax + 1e-9 for seg in result.drift_segments)


def test_fig_replanning_dubins():
    result = run_scenario(_fig_scenario("dubins_six"), seed=0,
                          solver_cfg=SolverConfig(seed=0))
    assert result.converged
    assert result.replan_count >= 1
    assert result.total_time == pytest.approx(51.28, rel=0.15)
    assert result.compute_delays[0] == 8.0
    assert result.drift_segments[0].length > 5.0


def test_shrinking_precision_radius_analytic_invariant():
    counts = []
    for radius in (1.5, 1.0, 0.5, 0.1):
        scenario = Scenario(
            start=Pose(0, 0, 0), goal=Pose(5, 8.5, 3 * math.pi / 4), vehicle=UNIT,
            current_process=FIG_SCHEDULE, precision_radius=radius,
            estimation_window=0.0, planner="analytic_4pi",
        )
        result = run_scenario(scenario, seed=0)
        assert result.converged
        counts.append(result.replan_count)
    assert len(set(counts)) == 1


def test_shrinking_precision_radius_dubins_trend():
    # replan count never decreases as the precision circle shrinks
    sched = CurrentSchedule((
        (0.0, CurrentState(0.75, 0.0)),
        (3.72, CurrentState(0.65, math.pi)),
    ))
    noise = NoiseModel(sigma_position=0.05, sigma_heading=math.radians(0.5),
                       sigma_vw_relative=0.0075, sigma_thetaw=math.radians(0.67))
    counts = []
    for radius in (1.5, 1.0, 0.5):
        scenario = Scenario(
            start=Pose(0, 0, 0), goal=Pose(2, 8, math.pi / 2), vehicle=UNIT,
            current_process=sched, precision_radius=radius, noise=noise,
            estimation_window=0.0, latency=LatencyModel(dubins_six=8.0),
            planner="dubins_six",
        )
        result = run_scenario(scenario, seed=5, solver_cfg=SolverConfig(seed=5))
        counts.append(result.replan_count)
    assert counts == sorted(counts)


def test_run_reproducibility():
    proc = RandomCurrentProcess(CurrentState(2.0, 0.0))
    scenario = Scenario(
        start=Pose(0, 0, 0), goal=Pose(80, 60, 1.0), vehicle=VehicleSpec(2.5, 2.5),
        current_process=proc, precision_radius=1.5,
        noise=NoiseModel(0.3, math.radians(0.5), 0.0075, math.radians(0.67), 1.0),
        planner="analytic_4pi",
    )
    a = run_scenario(scenario, seed=3, record_trajectory=False)
    b = run_scenario(scenario, seed=3, record_trajectory=False)
    assert a.total_time == b.total_time
    assert a.replan_count == b.replan_count
    assert a.converged == b.converged
    c = run_scenario(scenario, seed=4, record_trajectory=False)
    assert (a.total_time, a.replan_count) != (c.total_time, c.replan_count) or \
        a.trajectory.t.shape == c.trajectory.t.shape  # different seed may still converge alike


def test_noisy_analytic_run_converges():
    proc = RandomCurrentProcess(CurrentState(2.0, 0.0))
    scenario = Scenario(
        start=Pose(0, 0, 0), goal=Pose(100, 0, 0), vehicle=VehicleSpec(2.5, 2.5),
        current_process=proc, precision_radius=1.5,
        noise=NoiseModel(0.3, math.radians(0.5), 0.0075, math.radians(0.67), 1.0),
        planner="analytic_4pi",
    )
    result = run_scenario(scenario, seed=1, record_trajectory=False)
    assert result.converged
    assert result.total_time <= 1000.0


def test_trajectory_recording():
    result = run_scenario(_fig_scenario("analytic_4pi"), seed=0)
    traj = result.trajectory
    assert traj.t[0] == 0.0
    assert (np.diff(traj.t) > 0).all()
    assert traj.frame == "inertial"
    # final sample is inside the precision circle
    assert math.hypot(traj.x[-1] - 5, traj.y[-1] - 8.5) <= 1.0 + 1e-9


NOISY = NoiseModel(0.3, math.radians(0.5), 0.0075, math.radians(0.67), 1.0)


@pytest.mark.parametrize("process, noise", [
    (FIG_SCHEDULE, NoiseModel()),
    (RandomCurrentProcess(CurrentState(0.6, 0.0), periods=(3.0, 5.0)), NOISY),
], ids=["figure", "noisy"])
def test_recorded_samples_lie_one_spacing_apart(monkeypatch, process, noise):
    # Within a piece the recorded samples are one spacing apart; a gap is
    # shorter only before a cut and at the end.  The recorder used to drop
    # each sample whose summed time rounded to just under one spacing after
    # the last, leaving about a third of the gaps two spacings wide.
    scenario = Scenario(start=Pose(0, 0, 0), goal=Pose(5, 8.5, 3 * math.pi / 4), vehicle=UNIT,
                        current_process=process, noise=noise, estimation_window=2.0)
    fly_piece = simulator._Mission._fly_piece
    flown = []

    def counting(self, *args):
        flown.append(args)
        return fly_piece(self, *args)

    monkeypatch.setattr(simulator._Mission, "_fly_piece", counting)
    result = run_scenario(scenario, seed=3)
    spacing = 0.05 * UNIT.turning_radius / UNIT.speed
    gaps = np.diff(result.trajectory.t)
    assert len(gaps) > 200
    assert (gaps <= spacing * (1 + 1e-9)).all()
    short = gaps < spacing * (1 - 1e-9)
    assert short.sum() <= len(flown)


def _exactly(result):
    """A RunResult's repr with its trajectory's every float."""
    traj = result.trajectory
    return repr(result), [a.tolist() for a in (traj.t, traj.x, traj.y, traj.theta)]


def _schedules(draw, speed):
    """An explicit schedule whose speed and heading change at up to three
    times, or a random process with one to three hold periods."""
    fraction = st.floats(0.0, 0.9)
    if draw(st.booleans()):
        starts = [0.0]
        for _ in range(draw(st.integers(0, 3))):
            starts.append(starts[-1] + draw(st.floats(0.05, 25.0)))
        return CurrentSchedule(tuple(
            (t, CurrentState(draw(fraction) * speed, draw(st.floats(0.0, TWO_PI))))
            for t in starts))
    periods = draw(st.lists(st.floats(0.3, 40.0), min_size=1, max_size=3))
    headings = draw(st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=4))
    return RandomCurrentProcess(CurrentState(draw(fraction) * speed, draw(st.floats(0.0, TWO_PI))),
                                tuple(headings), tuple(periods))


@st.composite
def missions(draw):
    vehicle = VehicleSpec(draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 3.0)))
    sigma = st.floats(0.0, 0.2).map(lambda s: 0.0 if s < 0.05 else s)  # zero and non-zero
    planner = draw(st.sampled_from(["analytic_4pi", "analytic_4pi", "dubins_six"]))
    scenario = Scenario(
        start=Pose(0, 0, 0),
        goal=Pose(draw(st.floats(-30.0, 30.0)), draw(st.floats(-30.0, 30.0)),
                  draw(st.floats(0.0, TWO_PI))),
        vehicle=vehicle,
        current_process=_schedules(draw, vehicle.speed),
        # some rates give a window no sample; a zero rate is refused
        noise=NoiseModel(draw(sigma), draw(sigma), draw(sigma), draw(sigma),
                         draw(st.sampled_from([0.05, 0.4, 1.0, 2.5]))),
        precision_radius=draw(st.floats(0.3, 3.0)),
        # t_max can cut an estimation window short
        t_max=draw(st.floats(1.0, 120.0)),
        estimation_window=draw(st.floats(0.0, 15.0)),
        latency=LatencyModel(dubins_six=draw(st.floats(0.0, 10.0))),
        planner=planner,
        initial_compute_latency=draw(st.booleans()),
    )
    return scenario, draw(st.integers(0, 2**31)), draw(st.integers(0, 400)), draw(st.booleans())


# solve_six on few starts: dubins_six is the only planner that holds its
# plan through the window and reads the window's estimate at its end
_SMALL_SOLVER = SolverConfig(n_initial_guesses=8)


def _held_window(sample_rate, t_max):
    """dubins_six holds its plan through a 10 s window opening at the change
    at 3 s, with a speed change inside it at 5 s."""
    return Scenario(
        start=Pose(0, 0, 0), goal=Pose(12.0, 9.0, 1.0), vehicle=UNIT,
        current_process=CurrentSchedule(((0.0, CurrentState(0.2, 1.0)),
                                         (3.0, CurrentState(0.3, 2.0)),
                                         (5.0, CurrentState(0.6, 2.5)))),
        noise=NoiseModel(0.1, 0.01, 0.05, 0.1, sample_rate), t_max=t_max,
        estimation_window=10.0, latency=LatencyModel(dubins_six=1.0), planner="dubins_six",
    )


@settings(max_examples=200)
@given(mission=missions())
@example(mission=(_held_window(0.05, 100.0), 7, 0, True))  # no sample: one at the window end
@example(mission=(_held_window(2.5, 100.0), 7, 0, False))  # 25 samples
@example(mission=(_held_window(1.0, 9.5), 7, 0, False))  # t_max cuts the window to 6.5 s
def test_batched_sensing_and_lazy_schedule_match_per_sample_oracle(mission):
    scenario, seed, run_index, record = mission
    result = run_scenario(scenario, seed, run_index, record, _SMALL_SOLVER)
    oracle = run_scenario_per_sample(scenario, seed, run_index, record, _SMALL_SOLVER)
    assert _exactly(result) == _exactly(oracle)


def test_mission_cost_does_not_grow_with_t_max():
    # The schedule is realised only as far as the mission reads it; realised
    # up to t_max, this mission drew 2e5 epochs at t_max 1e5 and ended at
    # 135.8 s.  Realising in doubling chunks at most doubles what it needs.
    period = 0.5
    results, epochs = [], []
    for t_max in (1e3, 1e5):
        scenario = Scenario(
            start=Pose(0, 0, 0), goal=Pose(100, 0, 1), vehicle=NAVAL.vehicle, noise=NAVAL.noise,
            current_process=RandomCurrentProcess(CurrentState(1.0, 0.3), periods=(period,)),
            t_max=t_max,
        )
        mission = simulator._Mission(scenario, 1, 0, False, SolverConfig())
        results.append(mission.run())
        epochs.append(len(mission.schedule.entries))
    assert repr(results[0]) == repr(results[1])
    assert results[0].converged
    assert epochs[0] == epochs[1] <= 2 * (results[0].total_time / period + 2)


def test_noise_channels_are_seeded_from_seed_run_and_channel():
    # Each channel's stream gives the draws of seeding it from (seed, run
    # index, channel id).
    quiet = simulator._Mission(_fig_scenario("analytic_4pi"), 5, 2, False, SolverConfig())
    assert quiet.run().converged
    streams = simulator._Mission(_fig_scenario("analytic_4pi"), 5, 2, False, SolverConfig()).rngs
    for name, cid in simulator._CHANNELS.items():
        up_front = np.random.default_rng(np.random.SeedSequence((5, 2, cid)))
        assert streams[name].random(3).tolist() == up_front.random(3).tolist()


@pytest.mark.parametrize("planner", ["analytic_4pi", "dubins_six"])
def test_mission_refuses_a_turning_radius_whose_terms_overflow(planner):
    # Used to fly 1000 s without a plan and report no error.
    scenario = dataclasses.replace(_fig_scenario(planner), vehicle=VehicleSpec(1.0, 1e308))
    with pytest.raises(ValueError, match=r"^vehicle turning_radius 1e\+308 is too large"):
        run_scenario(scenario, 0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(start=Pose(0, 0, 0), goal=Pose(1, 1, 0), vehicle=UNIT,
                 current_process=FIG_SCHEDULE, precision_radius=0.0)
    with pytest.raises(ValueError):
        Scenario(start=Pose(0, 0, 0), goal=Pose(1, 1, 0), vehicle=UNIT,
                 current_process=FIG_SCHEDULE, planner="other")


@pytest.mark.parametrize("field, value, sign", [
    ("precision_radius", math.nan, "positive"),
    ("precision_radius", math.inf, "positive"),
    ("heading_tolerance", math.nan, "non-negative"),
    ("heading_tolerance", -0.1, "non-negative"),
    ("t_max", math.nan, "positive"),
    ("t_max", math.inf, "positive"),
    ("estimation_window", math.nan, "non-negative"),
])
def test_scenario_refuses_non_finite_fields(field, value, sign):
    with pytest.raises(ValueError, match=f"^{field} must be finite and {sign}, got {value!r}$"):
        Scenario(start=Pose(0, 0, 0), goal=Pose(1, 1, 0), vehicle=UNIT,
                 current_process=FIG_SCHEDULE, **{field: value})


@pytest.mark.parametrize("field", [
    "sigma_position", "sigma_heading", "sigma_vw_relative", "sigma_thetaw", "sample_rate",
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_noise_model_refuses_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        NoiseModel(**{field: value})


@pytest.mark.parametrize("field", ["dubins_six", "analytic_4pi"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_latency_model_refuses_bad_delays(field, value):
    with pytest.raises(ValueError, match=f"^latency {field} must be finite and non-negative"):
        LatencyModel(**{field: value})


@pytest.mark.parametrize("periods", [(), (0.0,), (30.0, math.nan), (math.inf,), (-5.0,)])
def test_random_process_refuses_bad_periods(periods):
    # a zero, negative or NaN period would keep realize_schedule from ever
    # reaching its horizon
    with pytest.raises(ValueError, match="^periods must"):
        RandomCurrentProcess(CurrentState(0.5, 0.0), periods=periods)


@pytest.mark.parametrize("headings", [(), (math.nan,), (1.0, math.inf), (-math.inf,)])
def test_random_process_refuses_bad_headings(headings):
    # NaN used to fail inside realize_schedule as "angle must be finite",
    # and () as numpy's "a cannot be empty"; neither named the field
    with pytest.raises(ValueError, match="^headings must"):
        RandomCurrentProcess(CurrentState(0.5, 0.0), headings=headings)


def test_random_process_accepts_negative_headings():
    process = RandomCurrentProcess(CurrentState(0.5, 0.0), headings=(-1.0, -7.0))
    assert process.headings == (-1.0, -7.0)


def test_scenario_from_dict_with_degrees(tmp_path):
    doc = {
        "start": {"x": 0, "y": 0, "theta": 0},
        "goal": {"x": 5, "y": 8.5, "theta_deg": 135.0},
        "vehicle": {"speed": 1.0, "turning_radius": 1.0},
        "current_schedule": [
            {"t_start": 0, "speed": 0.5, "heading_deg": 180.0},
            {"t_start": 3.2, "speed": 0.75, "heading_deg": 270.0},
        ],
        "precision_radius": 1.0,
        "heading_tolerance_deg": 5.0,
        "estimation_window": 0.0,
        "planner": "analytic_4pi",
    }
    scenario = scenario_from_dict(doc)
    assert scenario.goal.theta == pytest.approx(3 * math.pi / 4)
    assert scenario.heading_tolerance == pytest.approx(math.radians(5.0))
    entries = scenario.current_process.entries
    assert entries[1][1].heading == pytest.approx(3 * math.pi / 2)
    result = run_scenario(scenario, seed=0)
    assert result.converged
    assert result.total_time == pytest.approx(33.57, rel=0.05)


def test_scenario_dict_rejects_double_angle():
    doc = {"x": 0, "y": 0, "theta": 1.0, "theta_deg": 57.0}
    with pytest.raises(ValueError):
        scenario_from_dict({
            "start": doc, "goal": {"x": 1, "y": 1, "theta": 0},
            "vehicle": {"speed": 1, "turning_radius": 1},
            "current_schedule": [{"t_start": 0, "speed": 0.1, "heading": 0}],
        })


def _number(draw, low, high):
    """A JSON number: an int or a float."""
    return draw(st.one_of(st.integers(math.ceil(low), math.floor(high)), st.floats(low, high)))


def _angle(draw, doc, name, low=-720.0, high=720.0):
    """Put an angle into doc as name (radians) or name_deg; return it in radians."""
    if draw(st.booleans()):
        doc[name] = _number(draw, math.radians(low), math.radians(high))
        return float(doc[name])
    doc[f"{name}_deg"] = _number(draw, low, high)
    return math.radians(doc[f"{name}_deg"])


def _optional(draw, doc, kwargs, name, low, high, angle=False):
    """Leave name out (its default) or put it into doc and kwargs."""
    if not draw(st.booleans()):
        return
    if angle:
        kwargs[name] = _angle(draw, doc, name, low, high)
    else:
        doc[name] = _number(draw, low, high)
        kwargs[name] = float(doc[name])


def _pose(draw):
    doc = {"x": _number(draw, -50, 50), "y": _number(draw, -50, 50)}
    return doc, Pose(float(doc["x"]), float(doc["y"]), _angle(draw, doc, "theta"))


@st.composite
def scenario_documents(draw):
    """A scenario document with each angle in radians or degrees and optional
    fields left out, and the Scenario built from the same values."""
    doc, kwargs = {}, {}
    (doc["start"], kwargs["start"]), (doc["goal"], kwargs["goal"]) = _pose(draw), _pose(draw)
    doc["vehicle"], vehicle = {}, {}
    _optional(draw, doc["vehicle"], vehicle, "speed", 0.5, 5.0)
    _optional(draw, doc["vehicle"], vehicle, "turning_radius", 0.1, 10.0)
    kwargs["vehicle"] = VehicleSpec(**vehicle)
    if draw(st.booleans()):
        entries, t = [], 0.0
        for _ in range(draw(st.integers(1, 3))):
            entry = {"t_start": t, "speed": _number(draw, 0, 3)}
            heading = _angle(draw, entry, "heading")
            entries.append((entry, (t, CurrentState(float(entry["speed"]), heading))))
            t += draw(st.floats(0.5, 50.0))
        doc["current_schedule"] = [e for e, _ in entries]
        kwargs["current_process"] = CurrentSchedule(tuple(s for _, s in entries))
    else:
        p = doc["current_process"] = {"speed": _number(draw, 0, 3)}
        heading = _angle(draw, p, "heading") if draw(st.booleans()) else 0.0
        process = {}
        if draw(st.booleans()):
            key = draw(st.sampled_from(["headings", "headings_deg"]))
            p[key] = draw(st.lists(st.floats(-360.0, 360.0), min_size=1, max_size=4))
            process["headings"] = tuple(map(math.radians, p[key]) if key == "headings_deg"
                                        else p[key])
        if draw(st.booleans()):
            p["periods"] = draw(st.lists(st.floats(0.5, 60.0), min_size=1, max_size=3))
            process["periods"] = tuple(p["periods"])
        kwargs["current_process"] = RandomCurrentProcess(
            CurrentState(float(p["speed"]), heading), **process)
    if draw(st.booleans()):
        doc["noise"], noise = {}, {}
        for name in ("sigma_position", "sigma_vw_relative"):
            _optional(draw, doc["noise"], noise, name, 0.0, 2.0)
        for name in ("sigma_heading", "sigma_thetaw"):
            _optional(draw, doc["noise"], noise, name, 0.0, 30.0, angle=True)
        _optional(draw, doc["noise"], noise, "sample_rate", 0.1, 10.0)
        kwargs["noise"] = NoiseModel(**noise)
    if draw(st.booleans()):
        doc["latency"], latency = {}, {}
        _optional(draw, doc["latency"], latency, "dubins_six", 0.0, 20.0)
        _optional(draw, doc["latency"], latency, "analytic_4pi", 0.0, 1.0)
        kwargs["latency"] = LatencyModel(**latency)
    _optional(draw, doc, kwargs, "precision_radius", 0.1, 10.0)
    _optional(draw, doc, kwargs, "heading_tolerance", 0.0, 90.0, angle=True)
    _optional(draw, doc, kwargs, "t_max", 1.0, 5000.0)
    _optional(draw, doc, kwargs, "estimation_window", 0.0, 30.0)
    for name, values in (("planner", ["analytic_4pi", "dubins_six"]),
                         ("initial_compute_latency", [False, True])):
        if draw(st.booleans()):
            doc[name] = kwargs[name] = draw(st.sampled_from(values))
    return json.loads(json.dumps(doc)), Scenario(**kwargs)


@settings(max_examples=300)
@given(case=scenario_documents())
def test_scenario_document_loads_back_to_its_scenario(case):
    doc, scenario = case
    loaded = scenario_from_dict(doc)
    assert loaded == scenario
    assert repr(loaded) == repr(scenario)  # every number a float, as a JSON 0 reads 0.0


def test_scenario_document_charges_the_first_plan_when_asked():
    # initial_compute_latency used to be dropped, so a file could not ask for it
    doc = {
        "start": {"x": 0, "y": 0, "theta": 0},
        "goal": {"x": 5, "y": 8.5, "theta_deg": 135.0},
        "vehicle": {},
        "current_schedule": [{"t_start": 0, "speed": 0.5, "heading_deg": 180.0}],
        "latency": {"analytic_4pi": 0.25},
        "initial_compute_latency": True,
    }
    result = run_scenario(scenario_from_dict(doc), seed=0)
    assert result.converged
    assert result.compute_delays == (0.25,)  # the first plan; a steady current needs no replan
