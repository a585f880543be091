"""Sector geometry, coverage predicates, and their agreement with the solver."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftplan.core import (
    FOUR_PI, TWO_PI, CurrentState, Pose, VehicleSpec, angle_difference, normalize_angle,
    write_csv,
)
from driftplan import reachability
from driftplan.planner import (
    RANGE_SLACK, ArcMode, PathType, _representatives, coeffs, feasible_range, plan, solve_beta,
    solve_one,
)
from driftplan.reachability import (
    FULL_REACH_CASES,
    ReachGrid,
    _coverage_rows,
    center,
    classify_major_minor,
    contains,
    full_reachability_2pi,
    major_region_containment,
    omega,
    opposite,
    parametric_scan,
    phi,
    reachability_map,
    region_span,
    sweep_extent,
)
from oracles import (
    full_reachability_2pi_per_case,
    full_reachability_2pi_scalar,
    parametric_scan_per_row,
    reachability_map_per_cell,
    write_grid_csv,
    write_grid_csv_per_cell,
    write_scan_csv,
)

ORIGIN = Pose(0.0, 0.0, 0.0)
UNIT = VehicleSpec(1.0, 1.0)
EXAMPLE_THETA_F = 7 * math.pi / 4
EXAMPLE_CURRENT = CurrentState(0.5, math.pi / 3)


def test_rotation_centers_example():
    assert center(PathType.LSL, 0, EXAMPLE_THETA_F, EXAMPLE_CURRENT, 1.0) == pytest.approx(
        (0.67, 2.67), abs=0.01)
    assert center(PathType.LSL, 1, EXAMPLE_THETA_F, EXAMPLE_CURRENT, 1.0) == pytest.approx(
        (2.24, 5.39), abs=0.01)
    assert center(PathType.RSR, -1, EXAMPLE_THETA_F, EXAMPLE_CURRENT, 1.0) == pytest.approx(
        (0.90, 0.05), abs=0.01)
    assert center(PathType.RSR, -2, EXAMPLE_THETA_F, EXAMPLE_CURRENT, 1.0) == pytest.approx(
        (2.47, 2.77), abs=0.01)


def test_omega_at_zero_alpha():
    cur = CurrentState(0.4, 1.2)
    expect = math.atan2(cur.wy, 1 + cur.wx) % TWO_PI
    assert omega(PathType.LSL, 0.0, cur) == pytest.approx(expect)
    assert omega(PathType.RSR, 0.0, cur) == pytest.approx(expect)
    still = CurrentState(0.0, 0.0)
    assert omega(PathType.LSL, 0.0, still) == 0.0
    assert omega(PathType.RSR, 0.0, still) == 0.0


def test_omega_wind_free_is_alpha():
    still = CurrentState(0.0, 0.0)
    for a in (0.3, 1.0, 2.0):
        assert omega(PathType.LSL, a, still) == pytest.approx(a)
        assert omega(PathType.RSR, a, still) == pytest.approx(TWO_PI - a)


def test_opposite():
    assert opposite(0.0) == pytest.approx(math.pi)
    assert opposite(3 * math.pi / 2) == pytest.approx(math.pi / 2)
    assert opposite(math.pi) == pytest.approx(0.0)


def test_ray_rotation_monotonicity():
    # slope derivative sign: positive for LSL, negative for RSR, away from
    # the cos(alpha) + wx = 0 singularities
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 1000:
        alpha = rng.uniform(0, TWO_PI)
        vw = rng.uniform(0.01, 0.95)
        thw = rng.uniform(0, TWO_PI)
        cur = CurrentState(vw, thw)
        c = math.cos(alpha) + cur.wx
        if abs(c) < 1e-3:
            continue
        lsl_slope_deriv = (1 + vw * math.cos(alpha - thw)) / c**2
        rsr_slope_deriv = -(1 + vw * math.cos(alpha + thw)) / c**2
        assert lsl_slope_deriv > 0.0
        assert rsr_slope_deriv < 0.0
        # omega moves the same way locally
        eps = 1e-6
        dl = (omega(PathType.LSL, alpha + eps, cur) - omega(PathType.LSL, alpha, cur)) % TWO_PI
        dr = (omega(PathType.RSR, alpha, cur) - omega(PathType.RSR, alpha + eps, cur)) % TWO_PI
        assert dl < math.pi  # small positive ccw step
        assert dr < math.pi
        checked += 1


def test_boundary_rotation_equalities():
    # the four sector boundaries pair up exactly, to 1e-12
    rng = np.random.default_rng(4)
    for _ in range(1000):
        theta_f = rng.uniform(0, TWO_PI)
        cur = CurrentState(rng.uniform(0.01, 0.95), rng.uniform(0, TWO_PI))

        def circ_eq(a, b):
            return min((a - b) % TWO_PI, (b - a) % TWO_PI) <= 1e-12

        lsl0 = feasible_range(PathType.LSL, 0, theta_f, TWO_PI)
        lsl1 = feasible_range(PathType.LSL, 1, theta_f, TWO_PI)
        rsr1 = feasible_range(PathType.RSR, -1, theta_f, TWO_PI)
        rsr2 = feasible_range(PathType.RSR, -2, theta_f, TWO_PI)
        chain1 = [
            omega(PathType.LSL, lsl0.lower, cur),
            omega(PathType.LSL, lsl1.upper, cur),
            omega(PathType.RSR, rsr1.lower, cur),
            omega(PathType.RSR, rsr2.upper, cur),
        ]
        chain2 = [
            omega(PathType.LSL, lsl0.upper, cur),
            omega(PathType.LSL, lsl1.lower, cur),
            omega(PathType.RSR, rsr1.upper, cur),
            omega(PathType.RSR, rsr2.lower, cur),
        ]
        for val in chain1[1:]:
            assert circ_eq(chain1[0], val)
        for val in chain2[1:]:
            assert circ_eq(chain2[0], val)


def test_region_span_full_circle_flags():
    cur = EXAMPLE_CURRENT
    r11 = region_span(PathType.LSL, 1, EXAMPLE_THETA_F, cur, 1.0, FOUR_PI)
    assert r11.covers_full_circle
    assert r11.sweep == "ccw"
    r22 = region_span(PathType.RSR, -2, EXAMPLE_THETA_F, cur, 1.0, FOUR_PI)
    assert r22.covers_full_circle
    assert r22.sweep == "cw"
    r0 = region_span(PathType.LSL, 0, EXAMPLE_THETA_F, cur, 1.0, TWO_PI)
    assert not r0.covers_full_circle


def test_region_span_zero_current_sweep():
    still = CurrentState(0.0, 0.0)
    reg = region_span(PathType.LSL, 0, math.pi / 2, still, 1.0, TWO_PI)
    assert reg.omega_start == pytest.approx(0.0)
    assert reg.omega_end == pytest.approx(math.pi / 2)


def test_contains_center_and_full_circle():
    reg = region_span(PathType.LSL, 0, EXAMPLE_THETA_F, EXAMPLE_CURRENT, 1.0, TWO_PI)
    assert contains(reg, reg.center)
    full = region_span(PathType.LSL, 1, EXAMPLE_THETA_F, EXAMPLE_CURRENT, 1.0, FOUR_PI)
    rng = np.random.default_rng(6)
    for _ in range(20):
        assert contains(full, tuple(rng.uniform(-20, 20, 2)))


def test_classify_major_minor_example():
    assert classify_major_minor(PathType.LSL, EXAMPLE_THETA_F, EXAMPLE_CURRENT, 1.0) == (0, 1)
    assert classify_major_minor(PathType.RSR, EXAMPLE_THETA_F, EXAMPLE_CURRENT, 1.0) == (-2, -1)


def test_major_minor_pairing_across_types():
    # if k=0 is the LSL major then k=-1 is the RSR minor, and vice versa
    rng = np.random.default_rng(8)
    for _ in range(400):
        theta_f = rng.uniform(0, TWO_PI)
        cur = CurrentState(rng.uniform(0.01, 0.95), rng.uniform(0, TWO_PI))
        lsl_major, _ = classify_major_minor(PathType.LSL, theta_f, cur, 1.0)
        rsr_major, rsr_minor = classify_major_minor(PathType.RSR, theta_f, cur, 1.0)
        if lsl_major == 0:
            assert rsr_minor == -1
        else:
            assert rsr_major == -1


def test_phi_simple_cases():
    assert phi("1.1", EXAMPLE_THETA_F, EXAMPLE_CURRENT, 1.0) == pytest.approx(math.pi / 3)
    assert phi("1.2", EXAMPLE_THETA_F, EXAMPLE_CURRENT, 1.0) == pytest.approx(4 * math.pi / 3)
    with pytest.raises(ValueError):
        phi("1.1", 1.0, CurrentState(0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        phi("9.9", 1.0, EXAMPLE_CURRENT, 1.0)


def test_phi_matches_center_differences():
    # every tabulated phi must equal the direct center-to-center direction
    pairs = {
        "1.1": ((PathType.LSL, 0), (PathType.LSL, 1)),
        "1.2": ((PathType.LSL, 1), (PathType.LSL, 0)),
        "2.1": ((PathType.RSR, -1), (PathType.RSR, -2)),
        "2.2": ((PathType.RSR, -2), (PathType.RSR, -1)),
        "3.1": ((PathType.LSL, 0), (PathType.RSR, -1)),
        "3.2": ((PathType.LSL, 1), (PathType.RSR, -2)),
        "4.1": ((PathType.RSR, -1), (PathType.LSL, 0)),
        "4.2": ((PathType.RSR, -2), (PathType.LSL, 1)),
    }
    rng = np.random.default_rng(10)
    for _ in range(300):
        theta_f = rng.uniform(0, TWO_PI)
        cur = CurrentState(rng.uniform(0.05, 0.95), rng.uniform(0, TWO_PI))
        for case, (frm, to) in pairs.items():
            p0 = center(*frm, theta_f, cur, 1.0)
            p1 = center(*to, theta_f, cur, 1.0)
            direct = math.atan2(p1[1] - p0[1], p1[0] - p0[0]) % TWO_PI
            tabulated = phi(case, theta_f, cur, 1.0)
            diff = min((direct - tabulated) % TWO_PI, (tabulated - direct) % TWO_PI)
            assert diff <= 1e-9, (case, theta_f, cur)


def test_full_reachability_spot_values():
    res = full_reachability_2pi(7 * math.pi / 4, CurrentState(0.5, math.pi / 3), 1.0)
    assert not res.fully_reachable
    assert res.satisfied_cases == frozenset()
    res = full_reachability_2pi(5 * math.pi / 4, CurrentState(0.5, math.pi / 3), 1.0)
    assert res.fully_reachable
    assert res.satisfied_cases


def test_full_reachability_near_zero_current():
    for theta_f in np.linspace(0.1, TWO_PI - 0.1, 17):
        res = full_reachability_2pi(float(theta_f), CurrentState(1e-4, 2.0), 1.0)
        assert res.fully_reachable


def test_full_reachability_zero_current_degenerate():
    res = full_reachability_2pi(1.0, CurrentState(0.0, 0.0), 1.0)
    assert res.degenerate and res.fully_reachable


@pytest.mark.parametrize("theta_f", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("speed", [0.0, 0.5])
def test_full_reachability_refuses_a_non_finite_goal_heading(theta_f, speed):
    with pytest.raises(ValueError, match="theta_f must be finite"):
        full_reachability_2pi(theta_f, CurrentState(speed, 1.0), 1.0)


def test_satisfied_cases_subset_of_known_ids():
    rng = np.random.default_rng(12)
    for _ in range(100):
        res = full_reachability_2pi(rng.uniform(0, TWO_PI),
                                    CurrentState(rng.uniform(0.05, 0.9),
                                                 rng.uniform(0, TWO_PI)), 1.0)
        assert res.satisfied_cases <= set(FULL_REACH_CASES)


def test_predicate_true_implies_solver_feasible():
    rng = np.random.default_rng(14)
    tried = 0
    while tried < 12:
        theta_f = rng.uniform(0, TWO_PI)
        cur = CurrentState(rng.uniform(0.05, 0.9), rng.uniform(0, TWO_PI))
        res = full_reachability_2pi(theta_f, cur, 1.0)
        if not res.fully_reachable:
            continue
        tried += 1
        for _ in range(100):
            goal = Pose(rng.uniform(-10, 10), rng.uniform(-10, 10), theta_f)
            assert plan(ORIGIN, goal, cur, UNIT, ArcMode.TWO_PI) is not None


def test_predicate_false_implies_gap_exists():
    # search guided along the sector boundary rays, where the gaps are thin
    rng = np.random.default_rng(16)
    tried = 0
    while tried < 8:
        theta_f = rng.uniform(0, TWO_PI)
        cur = CurrentState(rng.uniform(0.2, 0.9), rng.uniform(0, TWO_PI))
        res = full_reachability_2pi(theta_f, cur, 1.0)
        if res.fully_reachable:
            continue
        tried += 1
        assert _find_unreachable_goal(theta_f, cur) is not None


def _find_unreachable_goal(theta_f, cur):
    for path_type, k in ((PathType.LSL, 0), (PathType.LSL, 1),
                         (PathType.RSR, -1), (PathType.RSR, -2)):
        reg = region_span(path_type, k, theta_f, cur, 1.0, TWO_PI)
        for boundary in (reg.omega_start, reg.omega_end):
            dx, dy = math.cos(boundary), math.sin(boundary)
            nx, ny = -dy, dx
            for t in np.linspace(0.5, 40, 45):
                for s in np.linspace(-2, 2, 41):
                    gx = reg.center[0] + t * dx + s * nx
                    gy = reg.center[1] + t * dy + s * ny
                    if plan(ORIGIN, Pose(gx, gy, theta_f), cur, UNIT, ArcMode.TWO_PI) is None:
                        return gx, gy
    return None


def test_region_membership_equals_solver_feasibility():
    # the sector union and the closed-form solver must agree cell by cell
    rng = np.random.default_rng(18)
    for _ in range(6):
        theta_f = rng.uniform(0, TWO_PI)
        cur = CurrentState(rng.uniform(0.1, 0.9), rng.uniform(0, TWO_PI))
        regions = [
            region_span(pt, k, theta_f, cur, 1.0, TWO_PI)
            for pt, k in ((PathType.LSL, 0), (PathType.LSL, 1),
                          (PathType.RSR, -1), (PathType.RSR, -2))
        ]
        for _ in range(500):
            point = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            in_union = any(contains(reg, point) for reg in regions)
            feasible = plan(ORIGIN, Pose(point[0], point[1], theta_f), cur, UNIT,
                            ArcMode.TWO_PI) is not None
            assert in_union == feasible, (theta_f, cur, point)


def test_theorem_full_circle_rows_always_cover():
    rng = np.random.default_rng(20)
    for _ in range(200):
        theta_f = rng.uniform(0, TWO_PI)
        cur = CurrentState(rng.uniform(0.0, 0.95), rng.uniform(0, TWO_PI))
        assert region_span(PathType.LSL, 1, theta_f, cur, 1.0, FOUR_PI).covers_full_circle
        assert region_span(PathType.RSR, -2, theta_f, cur, 1.0, FOUR_PI).covers_full_circle


def test_major_containment_exactly_one():
    step = math.pi / 10
    n = int(TWO_PI / step)
    for i in range(n):
        for j in range(n):
            lsl, rsr = major_region_containment(i * step, CurrentState(0.5, j * step), 1.0)
            assert lsl != rsr


def test_parametric_scan_monotone_in_current_speed():
    rows = parametric_scan(math.pi / 20, math.pi / 20, (0.25, 0.75))
    lo = sum(1 for r in rows if r[2] == 0.25 and r[3])
    hi = sum(1 for r in rows if r[2] == 0.75 and r[3])
    assert hi < lo


BENCHMARK_SCAN_STEP = math.pi / 12
BENCHMARK_SCAN_VW = (0.25, 0.5, 0.75)


def test_scan_matches_per_row_on_the_benchmark_lattice():
    rows = parametric_scan(BENCHMARK_SCAN_STEP, BENCHMARK_SCAN_STEP, BENCHMARK_SCAN_VW)
    assert rows == parametric_scan_per_row(BENCHMARK_SCAN_STEP, BENCHMARK_SCAN_STEP,
                                           BENCHMARK_SCAN_VW)
    assert [type(ok) for *_, ok in rows] == [bool] * len(rows)
    counts = {vw: sum(ok for _, _, v, ok in rows if v == vw) for vw in BENCHMARK_SCAN_VW}
    assert counts == {0.25: 452, 0.5: 400, 0.75: 372}


def test_scan_matches_per_row_on_the_criterion_11_lattice():
    step, speeds = math.pi / 100, (0.25, 0.75)
    assert parametric_scan(step, step, speeds) == parametric_scan_per_row(step, step, speeds)


# Steps pi/n, whose lattices land on theta = pi exactly and hold the exact
# extent and boundary ties, and any steps.
SCAN_STEP = st.one_of(st.integers(1, 12).map(lambda n: math.pi / n), st.floats(0.25, 7.0))
# Current speeds: zero (degenerate), nearly zero, up to 1 - 1e-7.
SCAN_SPEED = st.one_of(st.sampled_from([0.0, 1e-4, 1.0 - 1e-7]), st.floats(0.0, 1.0 - 1e-7))


@settings(max_examples=100)
@given(theta_f_step=SCAN_STEP, theta_w_step=SCAN_STEP,
       speeds=st.lists(SCAN_SPEED, min_size=1, max_size=3), r=st.floats(0.3, 3.0))
@example(theta_f_step=math.pi / 12, theta_w_step=math.pi / 12, speeds=[0.0, 1e-4, 1.0 - 1e-7],
         r=1.0)
@example(theta_f_step=math.pi / 6, theta_w_step=math.pi / 4, speeds=[0.5, 0.999], r=2.0)
# A step far above 2*pi: the theta_f axis holds only the angle 0.
@example(theta_f_step=1e308, theta_w_step=0.5, speeds=[0.25, 0.5], r=1.0)
def test_scan_matches_per_row_anywhere(theta_f_step, theta_w_step, speeds, r):
    # the per-row oracle runs at radius r, so the scan holds for any radius
    speeds = tuple(speeds)
    assert parametric_scan(theta_f_step, theta_w_step, speeds) == parametric_scan_per_row(
        theta_f_step, theta_w_step, speeds, r)


def test_scan_keeps_the_two_thirds_pi_row_reachable():
    # (2pi/3, 4pi/3, 0.5) sits on exact extent ties in both path types: the
    # RSR extents differ by one ulp, and the last bit of atan2 picks the
    # major sector.  Full coverage holds there.
    step = BENCHMARK_SCAN_STEP
    assert full_reachability_2pi(8 * step, CurrentState(0.5, 16 * step), 1.0).fully_reachable
    rows = parametric_scan(step, step, (0.5,))
    assert rows[8 * 24 + 16] == (8 * step, 16 * step, 0.5, True)


def _nudged_arctan2(scale):
    """np.arctan2 moved by -scale, 0 or +scale, keyed on the inputs' bits
    so that the nudge differs from angle to angle."""
    exact = np.arctan2

    def nudged(y, x):
        y, x = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(x, dtype=float))
        key = (y.view(np.int64) ^ (x.view(np.int64) >> 7)) % 3 - 1
        return exact(y, x) + scale * key
    return nudged


@pytest.mark.parametrize("scale", [1e-12, 1e-10])
def test_scan_rows_hold_when_array_atan2_is_off(monkeypatch, scale):
    # The array atan2 off by far more than its last-bit difference from
    # math.atan2, yet below the fragile margin: the rows it moves across a
    # threshold are the fragile ones, and the scalar predicates decide them.
    reference = parametric_scan_per_row(BENCHMARK_SCAN_STEP, BENCHMARK_SCAN_STEP,
                                        BENCHMARK_SCAN_VW)
    monkeypatch.setattr(np, "arctan2", _nudged_arctan2(scale))
    assert parametric_scan(BENCHMARK_SCAN_STEP, BENCHMARK_SCAN_STEP,
                           BENCHMARK_SCAN_VW) == reference


def test_scan_decides_its_fragile_rows_in_the_kernel(monkeypatch):
    # With np.arctan2 nudged, the fragile rows are decided by _coverage_rows
    # with math.atan2 a block at a time, never one full_reachability_2pi
    # call per row, and the rows still equal the scalar loop's.
    reference = parametric_scan_per_row(BENCHMARK_SCAN_STEP, BENCHMARK_SCAN_STEP,
                                        BENCHMARK_SCAN_VW)
    monkeypatch.setattr(np, "arctan2", _nudged_arctan2(1e-10))
    scalar, kernel = [], []
    monkeypatch.setattr(reachability, "full_reachability_2pi", lambda *args: scalar.append(args))
    math_atan2 = reachability._math_atan2
    monkeypatch.setattr(reachability, "_math_atan2",
                        lambda y, x: kernel.append(y.size) or math_atan2(y, x))
    assert parametric_scan(BENCHMARK_SCAN_STEP, BENCHMARK_SCAN_STEP,
                           BENCHMARK_SCAN_VW) == reference
    assert not scalar
    assert kernel and kernel[0] > 0


def test_one_row_is_decided_with_math_atan2(monkeypatch):
    # The benchmark lattice holds exact ties, where numpy's atan2 off by
    # 1e-10 would tip a comparison; full_reachability_2pi never calls it.
    monkeypatch.setattr(np, "arctan2", _nudged_arctan2(1e-10))
    for vw in BENCHMARK_SCAN_VW:
        for i in range(24):
            for j in range(24):
                args = (i * BENCHMARK_SCAN_STEP, CurrentState(vw, j * BENCHMARK_SCAN_STEP), 1.0)
                assert full_reachability_2pi(*args) == full_reachability_2pi_scalar(*args), args


@pytest.mark.parametrize("scale", [0.0, 1e-12, 1e-10])
def test_coverage_rows_flag_every_row_they_may_decide_wrongly(monkeypatch, scale):
    # Goal headings within 1e-12 of 0 and of 2pi, where a 2pi sector is
    # within the 1e-12 tolerance of a full circle, so the width test and the
    # gap test sit on their thresholds.  With np.arctan2 nudged, every row
    # that _coverage_rows does not flag still carries the scalar decision.
    rng = np.random.default_rng(30)
    edge = 1e-12 + 2e-13 * np.arange(-5, 6)
    theta_f = np.repeat(np.concatenate([edge, TWO_PI - edge]), 100)
    heading = np.tile(rng.uniform(0.0, TWO_PI, 100), 22)
    vw = np.tile(rng.uniform(0.05, 0.99, 100), 22)
    truth = [full_reachability_2pi_scalar(f, CurrentState(v, h), 1.0).fully_reachable
             for f, h, v in zip(theta_f.tolist(), heading.tolist(), vw.tolist())]
    if scale:
        monkeypatch.setattr(np, "arctan2", _nudged_arctan2(scale))
    cases, fragile = _coverage_rows(theta_f, vw * np.cos(heading), vw * np.sin(heading),
                                    np.arctan2)
    assert not (~fragile & (cases.any(axis=-1) != np.array(truth))).any()
    assert 0 < fragile.sum() < fragile.size


@pytest.mark.parametrize("theta_f, current", [
    (EXAMPLE_THETA_F, EXAMPLE_CURRENT),
    # Cells where the textbook root for beta cancels enough to reject every
    # candidate.
    (1.3087976796265908, CurrentState(1.0 - 1e-9, 0.7858888904132798)),
], ids=["example", "near-unit-current"])
def test_reachability_map_four_pi_complete(theta_f, current):
    grid = reachability_map(theta_f, current, bounds=(-10, 10, -10, 10), step=1.0,
                            mode=ArcMode.FOUR_PI)
    assert grid.unreachable_count() == 0


def test_reachability_map_two_pi_has_gap():
    grid = reachability_map(EXAMPLE_THETA_F, EXAMPLE_CURRENT,
                            bounds=(-10, 10, -10, 10), step=0.5, mode=ArcMode.TWO_PI)
    assert grid.unreachable_count() > 0


def test_cost_map_spot_values():
    cur = CurrentState(0.5, math.pi)
    two = reachability_map(math.pi / 4, cur, bounds=(-1, -1, 4, 4), step=1.0, mode=ArcMode.TWO_PI)
    # single-cell grid at the published example goal
    assert two.travel_time[0, 0] == pytest.approx(24.47, rel=0.01)
    four = reachability_map(math.pi / 4, cur, bounds=(-1, -1, 4, 4), step=1.0, mode=ArcMode.FOUR_PI)
    assert four.travel_time[0, 0] == pytest.approx(13.21, rel=0.01)


def test_cost_map_four_pi_everywhere_no_slower():
    cur = CurrentState(0.4, 2.0)
    theta_f = 1.0
    two = reachability_map(theta_f, cur, bounds=(-5, 5, -5, 5), step=1.0, mode=ArcMode.TWO_PI)
    four = reachability_map(theta_f, cur, bounds=(-5, 5, -5, 5), step=1.0, mode=ArcMode.FOUR_PI)
    both = ~np.isnan(two.travel_time)
    assert (four.travel_time[both] <= two.travel_time[both] + 1e-9).all()


def test_grid_csv(tmp_path):
    grid = reachability_map(1.0, CurrentState(0.3, 0.5), bounds=(-2, 2, -2, 2),
                            step=1.0, mode=ArcMode.TWO_PI)
    out = tmp_path / "grid.csv"
    grid.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,dominant,T"
    assert len(lines) == grid.dominant.size + 1


def test_scan_csv_writes_numpy_speeds_as_plain_numbers(tmp_path):
    # Speeds handed over as numpy floats used to be written as np.float64(0.25).
    # On the step-0.5 lattice theta_f = 1.0 sits beside the reachable flags,
    # and the last rows put 0.0 and -0.0 in one column.
    rows = parametric_scan(0.5, 0.5, tuple(np.array([0.25, 0.5])))
    assert {ok for *_, ok in rows} == {True, False}
    rows += [(-0.0, 0.0, np.float64(0.5), True), (0.0, -0.0, 0.25, False)]
    written, reference = tmp_path / "scan.csv", tmp_path / "reference.csv"
    write_csv(written, ("theta_f", "theta_w", "v_w", "reachable"), rows)
    write_scan_csv(rows, reference)
    assert written.read_bytes() == reference.read_bytes()
    assert "np." not in written.read_text()


@pytest.mark.parametrize("call, name", [
    (lambda: parametric_scan(math.inf, 1.0), "theta_f_step"),
    (lambda: parametric_scan(1.0, math.nan), "theta_w_step"),
    (lambda: reachability_map(1.0, EXAMPLE_CURRENT, step=math.nan), "step"),
    (lambda: reachability_map(1.0, EXAMPLE_CURRENT, bounds=(-1.0, math.inf, -1.0, 1.0),
                              step=1.0), "bounds"),
], ids=["scan-inf-theta_f_step", "scan-nan-theta_w_step", "map-nan-step", "map-inf-bound"])
def test_library_rejects_non_finite_step_or_bounds(call, name):
    # refused before the cell cap, which would misreport a nan step as nan cells
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call()


@pytest.mark.parametrize("bounds", [(1.0, -1.0, -1.0, 1.0), (-1.0, 1.0, 1.0, -1.0)],
                         ids=["x-reversed", "y-reversed"])
def test_library_rejects_reversed_bounds(bounds):
    # an empty grid used to come back without error
    with pytest.raises(ValueError, match="^bounds must not be empty"):
        reachability_map(1.0, CurrentState(0.3, 0.0), bounds=bounds, step=1.0)


@pytest.mark.parametrize("bounds", [(1e17, 1e17, 0.0, 0.0), (0.0, 0.0, 1e17, 1e17)],
                         ids=["x", "y"])
def test_library_rejects_a_step_lost_in_rounding(bounds):
    # half a step added to 1e17 rounds away, so np.arange gave no cells and
    # an empty grid came back without error
    with pytest.raises(ValueError, match=r"^step 1\.0 is below the resolution of bounds "):
        reachability_map(1.0, CurrentState(0.5, 1.0), bounds=bounds, step=1.0)


def test_scan_rejects_non_finite_current_speed():
    # refused where the current is built, not deep inside as a non-finite angle
    with pytest.raises(ValueError, match="^current speed must be finite"):
        parametric_scan(1.0, 1.0, v_w_values=(math.nan,))


@settings(max_examples=300)
@given(k=st.sampled_from((0, 1)), theta_f=st.floats(1e-6, TWO_PI - 1e-6),
       vw=st.floats(0.0, 0.95), psi=st.floats(0.0, TWO_PI), r=st.floats(0.3, 3.0),
       alpha=st.floats(0.0, FOUR_PI))
def test_rsr_rays_are_lsl_rays_mirrored(k, theta_f, vw, psi, r, alpha):
    # Reflecting theta_f and the current heading mirrors the LSL center of
    # index k to the RSR center of index -k-1 and negates the ray rotation.
    lsl = center(PathType.LSL, k, theta_f, CurrentState(vw, psi), r)
    rsr = center(PathType.RSR, -k - 1, normalize_angle(-theta_f), CurrentState(vw, -psi), r)
    tol = 1e-9 * max(1.0, abs(lsl[0]), abs(lsl[1]))
    assert rsr == pytest.approx((lsl[0], -lsl[1]), rel=1e-9, abs=tol)
    turned = omega(PathType.LSL, alpha, CurrentState(vw, psi))
    assert angle_difference(omega(PathType.RSR, alpha, CurrentState(vw, -psi)), -turned) <= 1e-9


def test_reachability_map_refuses_non_finite_theta_f():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^theta_f must be finite"):
            reachability_map(bad, EXAMPLE_CURRENT, step=1.0)


@pytest.mark.parametrize("current, vehicle", [
    (CurrentState(1.0, 0.0), UNIT),
    (CurrentState(2.5, 1.0), VehicleSpec(2.0, 1.0)),
], ids=["equal", "faster"])
def test_reachability_map_refuses_fast_current_before_building(current, vehicle):
    # a step far too fine for the cell cap: the current is refused first
    with pytest.raises(ValueError, match="^current speed must be less than vehicle speed"):
        reachability_map(1.0, current, step=1e-9, vehicle=vehicle)


def test_reachability_map_refuses_a_turning_radius_whose_terms_overflow():
    # Used to fill the grid with infinite times.
    with pytest.raises(ValueError, match=r"^vehicle turning_radius 1e\+308 is too large"):
        reachability_map(1.0, EXAMPLE_CURRENT, (-2.0, 2.0, -2.0, 2.0), 0.2,
                         vehicle=VehicleSpec(1.0, 1e308))


@pytest.mark.parametrize("kwargs, name", [
    ({"v_w_values": (1.5,)}, "v_w_values"),
    ({"v_w_values": (0.5, 1.0)}, "v_w_values"),
    ({"v_w_values": (-0.1,)}, "v_w_values"),
], ids=["vw-above-one", "vw-one", "vw-negative"])
def test_scan_refuses_bad_speed_or_radius(kwargs, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        parametric_scan(1.0, 1.0, **kwargs)


def _assert_same_grid(grid, reference):
    xs, ys, dominant, times = reference
    assert repr(grid.xs.tolist()) == repr(xs.tolist())
    assert repr(grid.ys.tolist()) == repr(ys.tolist())
    assert repr(grid.dominant.tolist()) == repr(dominant.tolist())
    assert repr(grid.travel_time.tolist()) == repr(times.tolist())


# Goal headings anywhere, and within 1e-15 of 0 and of 2*pi, where the LSL
# and RSR sectors nearly coincide and the 1e-12 tie-break decides.
THETA_F = st.one_of(st.floats(0.0, TWO_PI), st.floats(-1e-15, 1e-15),
                    st.floats(TWO_PI - 1e-15, TWO_PI + 1e-15))
# Current speed as a share of the vehicle's, up to 1 - 1e-9.
SPEED_SHARE = st.one_of(st.floats(0.0, 0.95), st.floats(0.999, 1.0 - 1e-9))
# Rotation centers keep the range up to 1 - 1e-7.  A center is rounded to
# about eps of its coordinates, and a goal that far upstream needs a
# straight of about twice that over 1 - vw^2, so near vw = 1 it is no
# longer "at the center" by the planner's 1e-9 test.
CENTER_SPEED_SHARE = st.one_of(st.floats(0.0, 0.95), st.floats(0.999, 1.0 - 1e-7))
VEHICLE = st.builds(VehicleSpec, st.floats(0.5, 3.0), st.floats(0.3, 3.0))
MODE = st.sampled_from([ArcMode.TWO_PI, ArcMode.FOUR_PI])


@settings(max_examples=300)
@given(theta_f=THETA_F, share=SPEED_SHARE, heading=st.floats(0.0, TWO_PI), vehicle=VEHICLE,
       mode=MODE, x0=st.one_of(st.floats(-12.0, 12.0), st.floats(-1.1e6, 1.1e6)),
       y0=st.one_of(st.floats(-12.0, 12.0), st.floats(-1.1e6, 1.1e6)),
       nx=st.integers(1, 6), ny=st.integers(1, 6), step=st.floats(0.05, 3.0))
@example(theta_f=1e-15, share=0.5, heading=1.0, vehicle=UNIT, mode=ArcMode.TWO_PI,
         x0=-3.0, y0=-3.0, nx=6, ny=6, step=1.0)
@example(theta_f=TWO_PI - 1e-15, share=0.9, heading=4.0, vehicle=VehicleSpec(2.0, 0.5),
         mode=ArcMode.FOUR_PI, x0=-2.5, y0=-2.5, nx=6, ny=6, step=1.0)
def test_reachability_map_matches_per_cell_plan(theta_f, share, heading, vehicle, mode,
                                                x0, y0, nx, ny, step):
    # The block kernel reproduces one scalar plan per cell: types, times and
    # unreachable cells, to the last bit.
    current = CurrentState(share * vehicle.speed, heading)
    step *= vehicle.turning_radius
    bounds = (x0, x0 + (nx - 1) * step, y0, y0 + (ny - 1) * step)
    grid = reachability_map(theta_f, current, bounds, step, mode, vehicle)
    _assert_same_grid(grid, reachability_map_per_cell(theta_f, current, bounds, step, mode,
                                                      vehicle))


def _tied_cells(xs, theta_f, kappa):
    """How many still-current goals (x, 0, theta_f) have mirror-image
    solutions, LSL k and RSR -k-1, within plan's 1e-12 tie-break of each
    other."""
    ties = 0
    for x in xs:
        goal, still = Pose(x, 0.0, theta_f), CurrentState(0.0, 0.0)
        for k in (0, 1):
            lsl = solve_one(PathType.LSL, k, goal, still, UNIT, kappa)
            rsr = solve_one(PathType.RSR, -k - 1, goal, still, UNIT, kappa)
            ties += bool(lsl and rsr and abs(lsl.travel_time - rsr.travel_time) <= 1e-12)
    return ties


@pytest.mark.parametrize("theta_f, current, bounds, step, mode", [
    # Goals on the x-axis with no current, where LSL k and RSR -k-1 are
    # mirror images: their times tie, and the 1e-12 tie-break decides.
    (math.pi, CurrentState(0.0, 0.0), (-6.0, 6.0, 0.0, 0.0), 0.125, ArcMode.TWO_PI),
    (math.pi, CurrentState(0.0, 0.0), (-6.0, 6.0, 0.0, 0.0), 0.125, ArcMode.FOUR_PI),
    # A goal heading within RANGE_SLACK of 2*pi, where LSL k = 0 still
    # tries its j = 1 representative in 2*pi mode.
    (TWO_PI - RANGE_SLACK / 2, CurrentState(0.5, 1.0), (-5.0, 5.0, -5.0, 5.0), 0.5,
     ArcMode.TWO_PI),
    # A 4*pi grid at a current of 1 - 1e-9 of the vehicle's speed.
    (1.3087976796265908, CurrentState(1.0 - 1e-9, 0.7858888904132798), (-10.0, 10.0, -10.0, 10.0),
     0.5, ArcMode.FOUR_PI),
], ids=["tie-2pi", "tie-4pi", "j1-near-2pi", "near-unit-current-4pi"])
def test_reachability_map_prunes_match_per_cell_plan(theta_f, current, bounds, step, mode):
    # The map kernel tests a candidate's feasibility only where its time
    # can still win, and skips representatives that cannot pass: each
    # prune is pinned to one scalar plan per cell, to the last bit.
    grid = reachability_map(theta_f, current, bounds, step, mode, UNIT)
    _assert_same_grid(grid, reachability_map_per_cell(theta_f, current, bounds, step, mode,
                                                      UNIT))
    if theta_f == math.pi:
        assert _tied_cells(grid.xs.tolist(), theta_f, mode.kappa) > 0
    if theta_f == TWO_PI - RANGE_SLACK / 2:
        assert 1 in _representatives(feasible_range(PathType.LSL, 0, theta_f, TWO_PI), TWO_PI)


@settings(max_examples=100)
@given(theta_f=THETA_F, share=CENTER_SPEED_SHARE, heading=st.floats(0.0, TWO_PI),
       vehicle=VEHICLE)
def test_reachability_map_at_rotation_centers(theta_f, share, heading, vehicle):
    # A one-cell grid on each sector's rotation center, where beta is ~0 and
    # the symmetric arc split decides.
    current = CurrentState(share * vehicle.speed, heading)
    unit_current = CurrentState(share, heading)
    r = vehicle.turning_radius
    theta = normalize_angle(theta_f)
    for path_type, k in ((PathType.LSL, 0), (PathType.LSL, 1),
                         (PathType.RSR, -1), (PathType.RSR, -2)):
        cx, cy = center(path_type, k, theta, unit_current, r)
        a, b = coeffs(path_type, k, Pose(cx, cy, theta), unit_current, r)
        assert solve_beta(a, b, unit_current) <= 1e-9 * max(1.0, abs(cx), abs(cy))
        bounds = (cx, cx, cy, cy)
        for mode in (ArcMode.TWO_PI, ArcMode.FOUR_PI):
            grid = reachability_map(theta_f, current, bounds, 1.0, mode, vehicle)
            assert grid.travel_time.shape == (1, 1)
            _assert_same_grid(grid, reachability_map_per_cell(theta_f, current, bounds, 1.0,
                                                              mode, vehicle))


def test_full_reachability_matches_per_case_sectors():
    # Each sector built once gives the cases of building it per case, on the
    # benchmark's scan lattice, which holds exact extent ties.
    step = math.pi / 12
    ties = 0
    for vw in (0.0, 0.25, 0.5, 0.75, 0.99):
        for i in range(24):
            for j in range(24):
                theta_f, current = i * step, CurrentState(vw, j * step)
                for ks in ((0, 1), (-1, -2)):
                    path_type = PathType.LSL if ks[0] == 0 else PathType.RSR
                    extents = [sweep_extent(region_span(path_type, k, theta_f, current, 1.0,
                                                        TWO_PI)) for k in ks]
                    ties += extents[0] == extents[1]
                res = full_reachability_2pi(theta_f, current, 1.0)
                assert res.satisfied_cases == full_reachability_2pi_per_case(
                    theta_f, current, 1.0)
                assert res.fully_reachable == (bool(res.satisfied_cases) or vw == 0.0)
    assert ties > 0


@settings(max_examples=300)
@given(theta_f=THETA_F, vw=st.floats(0.0, 1.0 - 1e-7), heading=st.floats(0.0, TWO_PI),
       r=st.floats(0.3, 3.0))
def test_full_reachability_matches_per_case_sectors_anywhere(theta_f, vw, heading, r):
    current = CurrentState(vw, heading)
    theta = normalize_angle(theta_f)
    assert full_reachability_2pi(theta, current, r).satisfied_cases == (
        full_reachability_2pi_per_case(theta, current, r))


# Raw goal headings, as full_reachability_2pi takes them without normalizing;
# within 1e-12 of 0 and of 2*pi, where a 2*pi sector is a full circle to the
# 1e-12 tolerance; and speeds at the ends of the range.
RAW_THETA_F = st.one_of(st.floats(-40.0, 40.0), st.floats(-1e-12, 1e-12),
                        st.floats(TWO_PI - 1e-12, TWO_PI + 1e-12),
                        st.floats(-TWO_PI - 1e-12, -TWO_PI + 1e-12))
EDGE_SPEED = st.one_of(st.sampled_from([5e-324, 1e-4, 1.0 - 1e-7]), st.floats(0.0, 1.0 - 1e-7))


@settings(max_examples=400)
@given(theta_f=RAW_THETA_F, vw=EDGE_SPEED, heading=st.floats(0.0, TWO_PI),
       r=st.floats(0.1, 10.0))
@example(theta_f=13.0, vw=5e-324, heading=0.75, r=1.0)
@example(theta_f=-1e-13, vw=1.0 - 1e-7, heading=2.0, r=1.0)
@example(theta_f=TWO_PI + 1e-13, vw=1e-4, heading=4.0, r=1.0)
def test_full_reachability_matches_the_scalar_loop_on_raw_headings(theta_f, vw, heading, r):
    # The one-row kernel call against the case loop, with theta_f as given.
    current = CurrentState(vw, heading)
    assert full_reachability_2pi(theta_f, current, r) == full_reachability_2pi_scalar(
        theta_f, current, r)


def test_grid_csv_bytes_match_cellwise_writer(tmp_path):
    grid = reachability_map(EXAMPLE_THETA_F, EXAMPLE_CURRENT, bounds=(-6, 6, -6, 6.5),
                            step=0.5, mode=ArcMode.TWO_PI)
    assert 0 < grid.unreachable_count() < grid.dominant.size
    signed_zero = ReachGrid(np.array([-0.0, 1e-300, 0.0, 1e6 / 3]), np.array([-0.0, 0.1]),
                            np.array([["LSL", "unreachable", "RSR", "LSL"]] * 2, dtype=object),
                            np.array([[1.0 / 3, np.nan, 0.0, 2.5e-17],
                                      [np.inf, np.nan, -0.0, 7.0]]))
    for g in (grid, signed_zero):
        fast = tmp_path / "fast.csv"
        g.write_csv(fast)
        for reference in (write_grid_csv, write_grid_csv_per_cell):
            reference(g, tmp_path / "slow.csv")
            assert fast.read_bytes() == (tmp_path / "slow.csv").read_bytes()
