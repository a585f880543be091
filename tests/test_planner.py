"""Closed-form solver: published spot values, invariants, and degeneracies."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftplan.core import (
    FOUR_PI, TWO_PI, CurrentState, Pose, VehicleSpec, angle_difference, from_start_frame,
    to_start_frame,
)
from driftplan.experiments import AERIAL, NAVAL
from driftplan.planner import (
    LSL_K_EXTENDED,
    WINDING_CANDIDATES,
    ArcMode,
    PathType,
    coeffs,
    extended_k_solutions,
    feasible_range,
    plan,
    plan_goals,
    solve_beta,
    solve_one,
)
from driftplan.trajectory import _advance, controls_of, endpoint_residual

from oracles import FEASIBLE_ROWS, bisect_root, plan_per_candidate

ORIGIN = Pose(0.0, 0.0, 0.0)
UNIT = VehicleSpec(1.0, 1.0)


def test_coeffs_lsl_simple():
    still = CurrentState(0, 0)
    assert coeffs(PathType.LSL, 0, Pose(5, 0, 0), still, 1.0) == pytest.approx((5.0, 0.0))
    assert coeffs(PathType.LSL, 0, Pose(0, 0, math.pi / 2), still, 1.0) == pytest.approx((-1.0, -1.0))


def test_coeffs_rsr_simple():
    still = CurrentState(0, 0)
    assert coeffs(PathType.RSR, -1, Pose(5, 0, 0), still, 1.0) == pytest.approx((5.0, 0.0))
    assert coeffs(PathType.RSR, -1, Pose(0, 0, math.pi / 2), still, 1.0) == pytest.approx((1.0, 1.0))


def test_solve_beta_no_current_is_norm():
    assert solve_beta(5.0, 0.0, CurrentState(0, 0)) == pytest.approx(5.0)
    assert solve_beta(3.0, 4.0, CurrentState(0, 0)) == pytest.approx(5.0)
    assert solve_beta(0.0, 0.0, CurrentState(0.5, 1.0)) == pytest.approx(0.0)


def test_solve_beta_against_bisection():
    cur = CurrentState(0.5, 0.0)
    a, b = 3.0, 4.0
    beta = solve_beta(a, b, cur)

    def residual(bb):
        return (1 - cur.speed**2) * bb * bb + 2 * (a * cur.wx + b * cur.wy) * bb - (a * a + b * b)

    ref = bisect_root(residual, 0.0, 100.0)
    assert beta == pytest.approx(ref, abs=1e-9)
    # and the quadratic is the stated one: 0.75 b^2 + 3 b - 25 = 0
    assert residual(beta) == pytest.approx(0.75 * beta**2 + 3 * beta - 25, abs=1e-9)


def test_solve_beta_rejected_root_nonpositive():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a, b = rng.uniform(-10, 10, 2)
        vw = rng.uniform(0, 0.95)
        cur = CurrentState(vw, rng.uniform(0, TWO_PI))
        dot = a * cur.wx + b * cur.wy
        disc = dot * dot + (a * a + b * b) * (1 - vw * vw)
        other = (-math.sqrt(disc) - dot) / (1 - vw * vw)
        assert other <= 1e-12
        assert solve_beta(a, b, cur) >= 0.0


def test_solve_beta_rejects_fast_current():
    with pytest.raises(ValueError):
        solve_beta(1.0, 1.0, CurrentState(1.0, 0.0))


def test_feasible_range_rows():
    theta_f = 1.1
    r0 = feasible_range(PathType.LSL, 0, theta_f, TWO_PI)
    assert (r0.lower, r0.upper, r0.closed) == (0.0, theta_f, True)
    r1 = feasible_range(PathType.LSL, 1, theta_f, FOUR_PI)
    assert (r1.lower, r1.upper) == (0.0, TWO_PI + theta_f)
    assert r1.closed
    r3 = feasible_range(PathType.RSR, -3, theta_f, FOUR_PI)
    assert (r3.lower, r3.upper) == (TWO_PI - theta_f, FOUR_PI)
    assert not r3.closed


def test_feasible_range_rejects_bad_pairs():
    with pytest.raises(ValueError):
        feasible_range(PathType.LSL, 2, 1.0, TWO_PI)
    with pytest.raises(ValueError):
        feasible_range(PathType.RSR, 1, 1.0, FOUR_PI)


# Goal headings where a bound could round differently: the ends of
# [0, 2*pi) and every multiple of pi/12.
_EDGE_HEADINGS = (0.0, 5e-324, math.nextafter(TWO_PI, 0.0),
                  *(m * math.pi / 12 for m in range(24)))


def _with_edge_headings(test):
    for theta_f in _EDGE_HEADINGS:
        test = example(theta_f=theta_f, more=[theta_f])(test)
    return test


@settings(derandomize=True, max_examples=300)
@given(theta_f=st.floats(0.0, TWO_PI, exclude_max=True),
       more=st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=8))
@_with_edge_headings
def test_feasible_range_gives_the_table_rows(theta_f, more):
    # The arc rule reproduces every row of the old table exactly, for a
    # float heading and for an array of headings.
    thetas = np.array(more)
    for (kappa, path_type, k), (lower, upper, closed) in FEASIBLE_ROWS.items():
        got = feasible_range(path_type, k, theta_f, kappa)
        assert (got.lower, got.upper, got.closed) == (lower(theta_f), upper(theta_f), closed)
        got = feasible_range(path_type, k, thetas, kappa)
        assert got.closed == closed
        assert np.array_equal(got.lower, lower(thetas))
        assert np.array_equal(got.upper, upper(thetas))


@pytest.mark.parametrize("kappa", [TWO_PI, FOUR_PI])
@pytest.mark.parametrize("path_type", [PathType.LSL, PathType.RSR])
def test_feasible_range_refuses_every_row_outside_the_table(path_type, kappa):
    for k in range(-6, 7):
        if (kappa, path_type, k) not in FEASIBLE_ROWS:
            with pytest.raises(ValueError, match="no feasible-range row"):
                feasible_range(path_type, k, 1.0, kappa)
    for other in (0.0, math.pi, 3.0 * math.pi, 8.0 * math.pi, math.nextafter(TWO_PI, 0.0),
                  math.nan):
        with pytest.raises(ValueError, match=r"kappa must be 2\*pi or 4\*pi"):
            feasible_range(path_type, 0 if path_type is PathType.LSL else -1, 1.0, other)


def test_range_endpoints_sum_to_arc_total():
    # alpha and gamma share each interval and their sum is fixed, so the
    # interval endpoints must sum to the total turn for every row
    theta_f = 2.2
    for k in (0, 1):
        rng = feasible_range(PathType.LSL, k, theta_f, TWO_PI)
        assert rng.lower + rng.upper == pytest.approx(TWO_PI * k + theta_f)
    for k in (0, 1, 2, 3):
        rng = feasible_range(PathType.LSL, k, theta_f, FOUR_PI)
        assert rng.lower + rng.upper == pytest.approx(TWO_PI * k + theta_f)
    for k in (-1, -2, -3, -4):
        rng = feasible_range(PathType.RSR, k, theta_f, FOUR_PI)
        assert rng.lower + rng.upper == pytest.approx(-(TWO_PI * k + theta_f))


def test_straight_line_solution():
    sol = solve_one(PathType.LSL, 0, Pose(5, 0, 0), CurrentState(0, 0), UNIT, TWO_PI)
    assert sol is not None
    assert (sol.alpha, sol.beta, sol.gamma) == pytest.approx((0.0, 5.0, 0.0))
    assert sol.travel_time == pytest.approx(5.0)


def test_goal_equals_start():
    sol = plan(ORIGIN, ORIGIN, CurrentState(0.3, 1.0), UNIT, ArcMode.FOUR_PI)
    assert sol.travel_time == pytest.approx(0.0, abs=1e-12)
    # nonzero goal heading still solves normally (a loop back to the start)
    sol = plan(ORIGIN, Pose(0, 0, math.pi / 2), CurrentState(0, 0), UNIT, ArcMode.FOUR_PI)
    assert sol is not None
    assert sol.travel_time > 0.0
    pos, head = endpoint_residual(sol, Pose(0, 0, math.pi / 2), CurrentState(0, 0), UNIT)
    assert pos <= 1e-9 and head <= 1e-9


# --- published example instances ------------------------------------------


def test_two_pi_optimum_upstream_goal():
    # start (0,0,0), goal (-2.3, 2.8, pi/2), current vector (-0.5, 0)
    sol = plan(ORIGIN, Pose(-2.3, 2.8, math.pi / 2), CurrentState(0.5, math.pi), UNIT,
               ArcMode.TWO_PI)
    assert sol.path_type is PathType.RSR
    assert sol.travel_time == pytest.approx(20.91, rel=0.01)


def test_four_pi_optimum_upstream_goal():
    sol = plan(ORIGIN, Pose(-2.3, 2.8, math.pi / 2), CurrentState(0.5, math.pi), UNIT,
               ArcMode.FOUR_PI)
    assert sol.path_type is PathType.LSL
    assert sol.gamma == pytest.approx(2.263 * math.pi, rel=0.005)
    assert sol.gamma > TWO_PI
    assert sol.travel_time == pytest.approx(10.51, rel=0.01)


def test_two_pi_gap_instance_unreachable():
    sol = plan(ORIGIN, Pose(6, 3, 7 * math.pi / 4), CurrentState(0.5, math.pi / 3), UNIT,
               ArcMode.TWO_PI)
    assert sol is None


def test_four_pi_gap_instance_parameters():
    sol = plan(ORIGIN, Pose(6, 3, 7 * math.pi / 4), CurrentState(0.5, math.pi / 3), UNIT,
               ArcMode.FOUR_PI)
    assert sol is not None
    assert sol.alpha == pytest.approx(0.116 * math.pi, rel=0.005)
    assert sol.beta == pytest.approx(2.976, rel=0.005)
    assert sol.gamma == pytest.approx(2.135 * math.pi, rel=0.005)
    # arc closure pins the winding: alpha + gamma = 2.25*pi = 4*pi - theta_f,
    # so this optimum is the RSR k=-2 candidate
    assert sol.path_type is PathType.RSR
    assert sol.k == -2
    assert sol.alpha + sol.gamma == pytest.approx(2.25 * math.pi)
    assert sol.travel_time == pytest.approx(2.25 * math.pi + sol.beta)


def test_cost_map_example_instance():
    goal = Pose(-1, 4, math.pi / 4)
    cur = CurrentState(0.5, math.pi)
    two = plan(ORIGIN, goal, cur, UNIT, ArcMode.TWO_PI)
    assert two.path_type is PathType.RSR
    assert two.alpha == pytest.approx(1.890 * math.pi, rel=0.005)
    assert two.beta == pytest.approx(12.691, rel=0.005)
    assert two.gamma == pytest.approx(1.860 * math.pi, rel=0.005)
    assert two.travel_time == pytest.approx(24.47, rel=0.01)
    four = plan(ORIGIN, goal, cur, UNIT, ArcMode.FOUR_PI)
    assert four.path_type is PathType.LSL
    assert four.alpha == pytest.approx(0.206 * math.pi, rel=0.005)
    assert four.beta == pytest.approx(6.143, rel=0.005)
    assert four.gamma == pytest.approx(2.044 * math.pi, rel=0.005)
    assert four.travel_time == pytest.approx(13.21, rel=0.01)


def test_travel_time_formula():
    sol = plan(ORIGIN, Pose(6, 3, 7 * math.pi / 4), CurrentState(0.5, math.pi / 3), UNIT,
               ArcMode.FOUR_PI)
    # identity T = (r*(alpha+gamma) + beta)/v, here about 10.045
    r, v = UNIT.turning_radius, UNIT.speed
    assert (r * (sol.alpha + sol.gamma) + sol.beta) / v == pytest.approx(sol.travel_time)
    assert sol.travel_time == pytest.approx(2.25 * math.pi + 2.976, abs=0.01)


# --- randomized invariants ---------------------------------------------------


def _random_instances(n, seed, span=10.0, vw_hi=0.95):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        goal = Pose(rng.uniform(-span, span), rng.uniform(-span, span),
                    rng.uniform(0, TWO_PI))
        cur = CurrentState(rng.uniform(0, vw_hi), rng.uniform(0, TWO_PI))
        yield goal, cur


def test_solution_parameters_within_ranges():
    for goal, cur in _random_instances(300, seed=13):
        sol = plan(ORIGIN, goal, cur, UNIT, ArcMode.FOUR_PI)
        rng = feasible_range(sol.path_type, sol.k, goal.theta, FOUR_PI)
        assert rng.contains(sol.alpha)
        assert rng.contains(sol.gamma)
        assert sol.beta >= 0.0
        assert sol.alpha + sol.gamma < FOUR_PI


def test_extended_k_times_increase():
    for goal, cur in _random_instances(200, seed=19):
        for path_type in (PathType.LSL, PathType.RSR):
            sols = extended_k_solutions(path_type, goal, cur, UNIT)
            sols.sort(key=lambda s: abs(s.k))
            times = [s.travel_time for s in sols]
            assert all(t0 < t1 for t0, t1 in zip(times, times[1:]))


def test_zero_current_gap_is_exactly_one_turn():
    for goal, _ in _random_instances(100, seed=29):
        cur = CurrentState(0.0, 0.0)
        sols = {s.k: s for s in extended_k_solutions(PathType.LSL, goal, cur, UNIT)}
        for k, sol in sols.items():
            nxt = sols.get(k + 1)
            if nxt is not None:
                assert nxt.travel_time - sol.travel_time == pytest.approx(TWO_PI, abs=1e-9)


def test_zero_current_matches_classical_two_type_optimum():
    from oracles import classical_dubins_candidates

    cur = CurrentState(0.0, 0.0)
    for goal, _ in _random_instances(300, seed=31):
        got = plan(ORIGIN, goal, cur, UNIT, ArcMode.TWO_PI)
        cands = [
            c for c in classical_dubins_candidates(goal.x, goal.y, goal.theta)
            if c[0] in (PathType.LSL, PathType.RSR)
        ]
        best = min(c[-1] for c in cands)
        assert got is not None
        assert got.travel_time == pytest.approx(best, abs=1e-9)


def test_frame_equivariance():
    rng = np.random.default_rng(37)
    for _ in range(200):
        start = Pose(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, TWO_PI))
        goal = Pose(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(0, TWO_PI))
        cur = CurrentState(rng.uniform(0, 0.9), rng.uniform(0, TWO_PI))
        direct = plan(start, goal, cur, UNIT, ArcMode.FOUR_PI)
        local_goal, local_cur = to_start_frame(start, goal, cur)
        canonical = plan(ORIGIN, local_goal, local_cur, UNIT, ArcMode.FOUR_PI)
        assert direct.path_type == canonical.path_type
        assert direct.k == canonical.k
        assert direct.travel_time == pytest.approx(canonical.travel_time, rel=1e-12, abs=1e-12)


def test_speed_scaling():
    # doubling speed and radius scales time by half at the same geometry ratio
    goal = Pose(6, 3, 7 * math.pi / 4)
    cur1 = CurrentState(0.5, math.pi / 3)
    base = plan(ORIGIN, goal, cur1, VehicleSpec(1, 1), ArcMode.FOUR_PI)
    fast = plan(ORIGIN, goal, CurrentState(1.0, math.pi / 3), VehicleSpec(2, 1), ArcMode.FOUR_PI)
    assert fast.alpha == pytest.approx(base.alpha)
    assert fast.beta == pytest.approx(base.beta)
    assert fast.gamma == pytest.approx(base.gamma)
    assert fast.travel_time == pytest.approx(base.travel_time / 2)


def test_plan_rejects_fast_current():
    with pytest.raises(ValueError):
        plan(ORIGIN, Pose(1, 1, 0), CurrentState(1.5, 0.0), UNIT, ArcMode.FOUR_PI)


@pytest.mark.parametrize("start, goal, vw", [
    (ORIGIN, Pose(1e200, 0.0, 1.0), 0.5),  # used to plan an infinite travel time
    (ORIGIN, Pose(1e200, 0.0, 1.0), 0.0),  # used to fail as "angle must be finite"
    (Pose(-1e308, 0.0, 0.0), Pose(1e308, 0.0, 1.0), 0.5),
], ids=["current", "still", "offset-overflows"])
def test_plan_refuses_a_goal_whose_squared_offset_overflows(start, goal, vw):
    with pytest.raises(ValueError, match=r"^goal Pose\(x=1e\+(200|308), .* is too far"):
        plan(start, goal, CurrentState(vw, 1.0), UNIT, ArcMode.FOUR_PI)


def test_plan_goals_refuses_a_goal_whose_squared_offset_overflows():
    x = np.array([1.0, 2.0, 1e200])
    y = np.zeros(3)
    with pytest.raises(ValueError, match=r"^goal \(1e\+200, 0\.0\) is too far"):
        plan_goals(x, y, 1.0, CurrentState(0.5, 1.0), UNIT, FOUR_PI)


@pytest.mark.parametrize("vw", [0.0, 0.5, 0.9])
def test_plan_holds_just_below_the_overflow(vw):
    goal = Pose(1.3e154, 0.0, 1.0)
    sol = plan(ORIGIN, goal, CurrentState(vw, 1.0), UNIT, ArcMode.FOUR_PI)
    assert math.isfinite(sol.travel_time)
    _, times = plan_goals(np.array([goal.x]), np.array([goal.y]), goal.theta,
                          CurrentState(vw, 1.0), UNIT, FOUR_PI)
    assert times[0] == sol.travel_time


@pytest.mark.parametrize("mode", list(ArcMode))
def test_plan_refuses_a_turning_radius_whose_terms_overflow(mode):
    # Used to return an infinite beta and travel time.
    with pytest.raises(ValueError, match=r"^vehicle turning_radius 1e\+308 is too large for a "
                                         r"goal at \(4\.0, 2\.0\)"):
        plan(ORIGIN, Pose(4.0, 2.0, 1.0), CurrentState(0.3, 1.0), VehicleSpec(1.0, 1e308), mode)


def test_plan_goals_refuses_a_turning_radius_whose_terms_overflow():
    # Only the far goal overflows at this radius, and the message names it.
    x = np.array([0.0, 4.0, 1e154])
    with pytest.raises(ValueError, match=r"^vehicle turning_radius 5e\+152 is too large for a "
                                         r"goal at \(1e\+154, 0\.0\)"):
        plan_goals(x, np.zeros(3), 1.0, CurrentState(0.3, 1.0), VehicleSpec(1.0, 5e152), FOUR_PI)


@pytest.mark.parametrize("vw", [0.0, 0.5, 0.999999999])
def test_plan_holds_just_below_the_radius_overflow(vw):
    vehicle = VehicleSpec(1.0, 1e152)
    goal = Pose(4.0, 2.0, 1.0)
    sol = plan(ORIGIN, goal, CurrentState(vw, 1.0), vehicle, ArcMode.FOUR_PI)
    assert math.isfinite(sol.travel_time)
    _, times = plan_goals(np.array([goal.x]), np.array([goal.y]), goal.theta,
                          CurrentState(vw, 1.0), vehicle, FOUR_PI)
    assert times[0] == sol.travel_time


@settings(max_examples=300)
@given(
    row=st.sampled_from([(k, TWO_PI) for k in WINDING_CANDIDATES[PathType.LSL]]
                        + [(k, FOUR_PI) for k in LSL_K_EXTENDED]),
    x=st.floats(-20.0, 20.0), y=st.floats(-20.0, 20.0), theta_f=st.floats(1e-6, TWO_PI - 1e-6),
    vw=st.floats(0.0, 0.95), psi=st.floats(0.0, TWO_PI),
    speed=st.floats(0.5, 3.0), radius=st.floats(0.3, 3.0),
)
def test_rsr_is_lsl_mirrored(row, x, y, theta_f, vw, psi, speed, radius):
    # Reflecting goal and current across the start heading turns an LSL
    # solution of winding index k into an RSR one of index -k-1 with the
    # same arcs, straight and time.  theta_f stays clear of 0, where the
    # mirrored heading is 0 rather than 2*pi and the index shifts by one.
    k, kappa = row
    vehicle = VehicleSpec(speed, radius)
    lsl = solve_one(PathType.LSL, k, Pose(x, y, theta_f), CurrentState(vw * speed, psi),
                    vehicle, kappa)
    rsr = solve_one(PathType.RSR, -k - 1, Pose(x, -y, -theta_f), CurrentState(vw * speed, -psi),
                    vehicle, kappa)
    assert (lsl is None) == (rsr is None)
    if lsl is not None:
        tol = 1e-9 * max(1.0, abs(x), abs(y))
        for field in ("alpha", "beta", "gamma", "travel_time"):
            assert getattr(rsr, field) == pytest.approx(getattr(lsl, field), rel=1e-9, abs=tol)


def _terms(goal, vehicle, travel_time):
    """Size of the largest terms of the interception equations, in meters.

    Their rounding scales with it: the drift vw*T grows without bound as vw
    approaches v, so a plan at vw/v = 1 - 1e-9 may travel 1e10 r.
    """
    return (1.0 + abs(goal.x) + abs(goal.y) + vehicle.turning_radius
            + 2.0 * vehicle.speed * travel_time)


@settings(max_examples=200)
@given(x=st.floats(-10.0, 10.0), y=st.floats(-10.0, 10.0), theta_f=st.floats(0.0, TWO_PI),
       psi=st.floats(0.0, TWO_PI), vw=st.sampled_from([1.0 - 1e-7, 1.0 - 1e-8, 1.0 - 1e-9]))
# The CLI plan example, where the textbook root for beta cancels enough to
# reject every candidate.
@example(x=7.835019561209485, y=8.236577218416308, theta_f=1.3087976796265908,
         psi=0.7858888904132798, vw=1.0 - 1e-9)
def test_four_pi_complete_at_near_unit_current(x, y, theta_f, psi, vw):
    goal, current = Pose(x, y, theta_f), CurrentState(vw, psi)
    sol = plan(ORIGIN, goal, current, UNIT, ArcMode.FOUR_PI)
    assert sol is not None
    position, heading = endpoint_residual(sol, goal, current, UNIT)
    assert position <= 1e-9 * _terms(goal, UNIT, sol.travel_time)
    assert heading <= 1e-9


# Current speed as a share of the vehicle's, up to 1 - 1e-7.
SPEED_SHARE = st.one_of(st.floats(0.0, 0.95), st.floats(0.999, 1.0 - 1e-7))
# Goal heading relative to the start's: anywhere, and within 1e-12 of 0 and of 2*pi.
REL_HEADING = st.one_of(st.floats(0.0, TWO_PI), st.floats(0.0, 1e-12),
                        st.floats(TWO_PI - 1e-12, TWO_PI))
# Start coordinates near the origin and near +-1e9.
START_XY = st.one_of(st.floats(-10.0, 10.0), st.floats(1e9 - 10.0, 1e9 + 10.0),
                     st.floats(-1e9 - 10.0, -1e9 + 10.0))
# Goal offsets from the start, in turning radii: within 10, or up to 1e9.
OFFSET = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e9, 1e9))


@st.composite
def instances(draw):
    """(start, goal, current, vehicle) with the goal placed in the start frame."""
    vehicle = VehicleSpec(draw(st.floats(0.5, 3.0)), draw(st.floats(0.3, 3.0)))
    start = Pose(draw(START_XY), draw(START_XY), draw(st.floats(0.0, TWO_PI)))
    r = vehicle.turning_radius
    goal = from_start_frame(start, Pose(draw(OFFSET) * r, draw(OFFSET) * r, draw(REL_HEADING)))
    current = CurrentState(draw(SPEED_SHARE) * vehicle.speed, draw(st.floats(0.0, TWO_PI)))
    return start, goal, current, vehicle


@settings(max_examples=400)
@given(vehicle=st.one_of(st.builds(VehicleSpec, st.floats(0.5, 3.0), st.floats(0.3, 3.0)),
                         st.sampled_from([NAVAL.vehicle, AERIAL.vehicle])),
       share=st.one_of(st.floats(0.0, 1.0 - 1e-9),
                       st.sampled_from([0.0, 1.0 - 1e-7, 1.0 - 1e-9])),
       start_xy=st.tuples(st.floats(-1e9, 1e9), st.floats(-1e9, 1e9)),
       offset=st.tuples(OFFSET, OFFSET),
       headings=st.tuples(st.floats(-10.0, 10.0), REL_HEADING, st.floats(-10.0, 10.0)),
       mode=st.sampled_from(list(ArcMode)))
def test_plan_normalizes_once_as_the_per_candidate_loop_does(
        vehicle, share, start_xy, offset, headings, mode):
    # plan scales the current once and solves at unit speed; the loop over
    # public solve_one scales it in every call.  Every float must agree.
    start_theta, rel_heading, current_heading = headings
    start = Pose(*start_xy, start_theta)
    r = vehicle.turning_radius
    goal = from_start_frame(start, Pose(offset[0] * r, offset[1] * r, rel_heading))
    current = CurrentState(share * vehicle.speed, current_heading)
    expected = plan_per_candidate(start, goal, current, vehicle, mode)
    assert repr(plan(start, goal, current, vehicle, mode)) == repr(expected)


@settings(max_examples=300)
@given(instance=instances(), mode=st.sampled_from(list(ArcMode)))
def test_residuals_of_returned_solutions(instance, mode):
    start, goal, current, vehicle = instance
    sol = plan(start, goal, current, vehicle, mode)
    if sol is None:
        assert mode is ArcMode.TWO_PI
        return
    local_goal, local_current = to_start_frame(start, goal, current)
    # A straight shorter than 1e-9 of the goal's scale counts as none, and
    # then the symmetric arc split may miss the goal by twice its length.
    tol = 2e-9 * _terms(local_goal, vehicle, sol.travel_time)
    position, heading = endpoint_residual(sol, local_goal, local_current, vehicle)
    assert position <= tol
    assert heading <= 1e-9
    assert heading <= 1e-9
    # Flown from the start in the world frame, one closed-form step per
    # segment, the controls land on the goal.
    x, y, theta = start.x, start.y, start.theta
    for seg in controls_of(sol, vehicle).segments:
        x, y, theta = _advance(x, y, theta, seg.turn_rate, current.wx, current.wy,
                               vehicle.speed, seg.duration)
    assert math.hypot(x - goal.x, y - goal.y) <= tol + 1e-9 * (abs(start.x) + abs(start.y))
    assert angle_difference(theta, goal.theta) <= 1e-9


@settings(max_examples=300)
@given(instance=instances())
def test_four_pi_never_slower_than_two_pi(instance):
    start, goal, current, vehicle = instance
    four = plan(start, goal, current, vehicle, ArcMode.FOUR_PI)
    assert four is not None
    two = plan(start, goal, current, vehicle, ArcMode.TWO_PI)
    if two is not None:
        local_goal, _ = to_start_frame(start, goal, current)
        tol = 1e-9 * _terms(local_goal, vehicle, two.travel_time) / vehicle.speed
        assert four.travel_time <= two.travel_time + tol


@settings(max_examples=300)
@given(instance=instances())
def test_consecutive_k_time_gap_bounds(instance):
    # Consecutive winding indices differ in time by 2*pi*r/(v + vw) to
    # 2*pi*r/(v - vw).
    start, goal, current, vehicle = instance
    local_goal, local_current = to_start_frame(start, goal, current)
    r, v, vw = vehicle.turning_radius, vehicle.speed, current.speed
    for path_type, step in ((PathType.LSL, 1), (PathType.RSR, -1)):
        sols = {s.k: s for s in extended_k_solutions(path_type, local_goal, local_current,
                                                      vehicle)}
        for k, sol in sols.items():
            nxt = sols.get(k + step)
            if nxt is None:
                continue
            tol = 1e-9 * _terms(local_goal, vehicle, nxt.travel_time) / v
            gap = nxt.travel_time - sol.travel_time
            assert TWO_PI * r / (v + vw) - tol <= gap <= TWO_PI * r / (v - vw) + tol
