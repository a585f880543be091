"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criteria follow the stated tolerances; statistical criteria use
fixed seeds.
"""

import math
import time

import numpy as np
import pytest

from driftplan.baseline import SolverConfig, solve_six
from driftplan.core import FOUR_PI, TWO_PI, CurrentSchedule, CurrentState, Pose, VehicleSpec
from driftplan.experiments import (
    AERIAL,
    NAVAL,
    dynamic_monte_carlo,
    static_comparison,
    timing_bench,
)
from driftplan.planner import (
    ArcMode,
    PathType,
    extended_k_solutions,
    feasible_range,
    plan,
    solve_one,
)
from driftplan.reachability import (
    center,
    contains,
    full_reachability_2pi,
    major_region_containment,
    omega,
    parametric_scan,
    region_span,
)
from driftplan.simulator import drift_predict
from driftplan.cli import main as cli_main

from oracles import batch_endpoints_rk4, classical_dubins_shortest

ORIGIN = Pose(0.0, 0.0, 0.0)
UNIT = VehicleSpec(1.0, 1.0)

ACCEPTANCE_SEED = 2026


def _report(criterion: str, detail: str):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def _instances(n, seed, vw_hi=0.95):
    rng = np.random.default_rng(seed)
    goals = np.column_stack([
        rng.uniform(-10, 10, n), rng.uniform(-10, 10, n), rng.uniform(0, TWO_PI, n),
    ])
    currents = np.column_stack([rng.uniform(0, vw_hi, n), rng.uniform(0, TWO_PI, n)])
    return goals, currents


def test_criterion_01_front_page_instance():
    t0 = time.perf_counter()
    goal = Pose(-2.3, 2.8, math.pi / 2)
    cur = CurrentState(0.5, math.pi)
    two = plan(ORIGIN, goal, cur, UNIT, ArcMode.TWO_PI)
    four = plan(ORIGIN, goal, cur, UNIT, ArcMode.FOUR_PI)
    elapsed = time.perf_counter() - t0
    assert two.path_type is PathType.RSR
    assert two.travel_time == pytest.approx(20.91, rel=0.01)
    assert four.path_type is PathType.LSL
    assert four.gamma == pytest.approx(2.263 * math.pi, rel=0.005)
    assert four.travel_time == pytest.approx(10.51, rel=0.01)
    assert elapsed < 1.0
    _report("1", f"RSR T={two.travel_time:.4f}, LSL gamma={four.gamma/math.pi:.4f}pi "
                 f"T={four.travel_time:.4f}, runtime {elapsed*1e3:.1f} ms")


def test_criterion_02_gap_instance():
    goal = Pose(6, 3, 7 * math.pi / 4)
    cur = CurrentState(0.5, math.pi / 3)
    assert plan(ORIGIN, goal, cur, UNIT, ArcMode.TWO_PI) is None
    four = plan(ORIGIN, goal, cur, UNIT, ArcMode.FOUR_PI)
    assert four.alpha == pytest.approx(0.116 * math.pi, rel=0.005)
    assert four.beta == pytest.approx(2.976, rel=0.005)
    assert four.gamma == pytest.approx(2.135 * math.pi, rel=0.005)
    _report("2", f"two_pi empty; alpha={four.alpha/math.pi:.4f}pi "
                 f"beta={four.beta:.4f} gamma={four.gamma/math.pi:.4f}pi")


def test_criterion_03_cost_map_instance():
    goal = Pose(-1, 4, math.pi / 4)
    cur = CurrentState(0.5, math.pi)
    two = plan(ORIGIN, goal, cur, UNIT, ArcMode.TWO_PI)
    four = plan(ORIGIN, goal, cur, UNIT, ArcMode.FOUR_PI)
    assert two.path_type is PathType.RSR
    assert two.alpha == pytest.approx(1.890 * math.pi, rel=0.005)
    assert two.beta == pytest.approx(12.691, rel=0.005)
    assert two.gamma == pytest.approx(1.860 * math.pi, rel=0.005)
    assert two.travel_time == pytest.approx(24.47, rel=0.01)
    assert four.path_type is PathType.LSL
    assert four.alpha == pytest.approx(0.206 * math.pi, rel=0.005)
    assert four.beta == pytest.approx(6.143, rel=0.005)
    assert four.gamma == pytest.approx(2.044 * math.pi, rel=0.005)
    assert four.travel_time == pytest.approx(13.21, rel=0.01)
    _report("3", f"two_pi T={two.travel_time:.4f}, four_pi T={four.travel_time:.4f}")


def test_criterion_04_rotation_centers():
    theta_f = 7 * math.pi / 4
    cur = CurrentState(0.5, math.pi / 3)
    expected = {
        (PathType.LSL, 0): (0.67, 2.67),
        (PathType.LSL, 1): (2.24, 5.39),
        (PathType.RSR, -1): (0.90, 0.05),
        (PathType.RSR, -2): (2.47, 2.77),
    }
    for (pt, k), (px, qx) in expected.items():
        got = center(pt, k, theta_f, cur, 1.0)
        assert got[0] == pytest.approx(px, abs=0.01)
        assert got[1] == pytest.approx(qx, abs=0.01)
    _report("4", "all four centers within 0.01")


def test_criterion_05_full_reachability_with_oracle():
    t0 = time.perf_counter()
    n = 10_000
    goals, currents = _instances(n, ACCEPTANCE_SEED)
    sols = {PathType.LSL: [], PathType.RSR: []}
    curs = []
    for i in range(n):
        goal = Pose(*goals[i])
        cur = CurrentState(*currents[i])
        curs.append((cur.wx, cur.wy))
        for pt, ks in ((PathType.LSL, (0, 1)), (PathType.RSR, (-1, -2))):
            best = None
            for k in ks:
                sol = solve_one(pt, k, goal, cur, UNIT, FOUR_PI)
                if sol is not None and (best is None or sol.travel_time < best.travel_time):
                    best = sol
            assert best is not None, (pt, goal, cur)
            sols[pt].append(best)
    # endpoint oracle: integrate every solution and compare with its goal
    worst = 0.0
    for pt in (PathType.LSL, PathType.RSR):
        ends = batch_endpoints_rk4(sols[pt], curs)
        err = np.hypot(ends[:, 0] - goals[:, 0], ends[:, 1] - goals[:, 1])
        worst = max(worst, float(err.max()))
        assert (err <= 1e-4).all()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("5", f"{n} instances, both types always feasible, "
                 f"worst endpoint error {worst:.2e}, runtime {elapsed:.1f} s")


def _extended_solutions_cache():
    n = 10_000
    goals, currents = _instances(n, ACCEPTANCE_SEED)
    cache = []
    for i in range(n):
        goal = Pose(*goals[i])
        cur = CurrentState(*currents[i])
        per_type = {
            pt: {s.k: s for s in extended_k_solutions(pt, goal, cur, UNIT)}
            for pt in (PathType.LSL, PathType.RSR)
        }
        cache.append((goal, cur, per_type))
    return cache


@pytest.fixture(scope="module")
def extended_cache():
    return _extended_solutions_cache()


def test_criterion_06_consecutive_time_gaps(extended_cache):
    checked = 0
    for _, cur, per_type in extended_cache:
        lo = TWO_PI / (1 + cur.speed) - 1e-9
        hi = TWO_PI / (1 - cur.speed) + 1e-9
        for pt, step in ((PathType.LSL, 1), (PathType.RSR, -1)):
            sols = per_type[pt]
            for k, sol in sols.items():
                nxt = sols.get(k + step)
                if nxt is not None:
                    gap = nxt.travel_time - sol.travel_time
                    assert lo <= gap <= hi, (pt, k, gap, lo, hi)
                    checked += 1
    assert checked > 10_000
    _report("6", f"{checked} consecutive-k gaps inside the stated bounds")


def test_criterion_07_four_pi_never_slower(extended_cache):
    n_two = 0
    for goal, cur, _ in extended_cache:
        two = plan(ORIGIN, goal, cur, UNIT, ArcMode.TWO_PI)
        if two is None:
            continue
        four = plan(ORIGIN, goal, cur, UNIT, ArcMode.FOUR_PI)
        assert four.travel_time <= two.travel_time + 1e-9
        n_two += 1
    assert n_two > 1000
    _report("7", f"{n_two} feasible classical instances, four_pi never slower")


def test_criterion_08_extended_k_never_better(extended_cache):
    for _, _, per_type in extended_cache:
        lsl = per_type[PathType.LSL]
        near = min(s.travel_time for k, s in lsl.items() if k in (0, 1))
        far = [s.travel_time for k, s in lsl.items() if k in (2, 3)]
        if far:
            assert near <= min(far) + 1e-9
        rsr = per_type[PathType.RSR]
        near = min(s.travel_time for k, s in rsr.items() if k in (-1, -2))
        far = [s.travel_time for k, s in rsr.items() if k in (-3, -4)]
        if far:
            assert near <= min(far) + 1e-9
    _report("8", "k in {0,1}/{-1,-2} minima never beaten by extended windings")


def test_criterion_09_boundary_rotation_equalities():
    rng = np.random.default_rng(ACCEPTANCE_SEED + 1)

    def circ_eq(a, b):
        return min((a - b) % TWO_PI, (b - a) % TWO_PI) <= 1e-12

    for _ in range(1000):
        theta_f = rng.uniform(0, TWO_PI)
        cur = CurrentState(rng.uniform(0.01, 0.95), rng.uniform(0, TWO_PI))
        rows = {
            (PathType.LSL, 0): feasible_range(PathType.LSL, 0, theta_f, TWO_PI),
            (PathType.LSL, 1): feasible_range(PathType.LSL, 1, theta_f, TWO_PI),
            (PathType.RSR, -1): feasible_range(PathType.RSR, -1, theta_f, TWO_PI),
            (PathType.RSR, -2): feasible_range(PathType.RSR, -2, theta_f, TWO_PI),
        }
        chain1 = [
            omega(PathType.LSL, rows[(PathType.LSL, 0)].lower, cur),
            omega(PathType.LSL, rows[(PathType.LSL, 1)].upper, cur),
            omega(PathType.RSR, rows[(PathType.RSR, -1)].lower, cur),
            omega(PathType.RSR, rows[(PathType.RSR, -2)].upper, cur),
        ]
        chain2 = [
            omega(PathType.LSL, rows[(PathType.LSL, 0)].upper, cur),
            omega(PathType.LSL, rows[(PathType.LSL, 1)].lower, cur),
            omega(PathType.RSR, rows[(PathType.RSR, -1)].upper, cur),
            omega(PathType.RSR, rows[(PathType.RSR, -2)].lower, cur),
        ]
        assert all(circ_eq(chain1[0], v) for v in chain1[1:])
        assert all(circ_eq(chain2[0], v) for v in chain2[1:])
    _report("9", "boundary-rotation chains equal to 1e-12 on 1000 draws")


def test_criterion_10_region_solver_agreement():
    theta_f = 7 * math.pi / 4
    cur = CurrentState(0.5, math.pi / 3)
    regions = [
        region_span(pt, k, theta_f, cur, 1.0, TWO_PI)
        for pt, k in ((PathType.LSL, 0), (PathType.LSL, 1),
                      (PathType.RSR, -1), (PathType.RSR, -2))
    ]
    xs = np.linspace(-10, 10, 201)
    ys = np.linspace(-10, 10, 201)
    mismatches = 0
    unreachable = 0
    for gy in ys:
        for gx in xs:
            member = any(contains(reg, (gx, gy)) for reg in regions)
            feasible = plan(ORIGIN, Pose(gx, gy, theta_f), cur, UNIT,
                            ArcMode.TWO_PI) is not None
            mismatches += member != feasible
            unreachable += not feasible
    assert mismatches == 0
    assert unreachable > 0
    res_a = full_reachability_2pi(theta_f, cur, 1.0)
    assert not res_a.fully_reachable
    res_b = full_reachability_2pi(5 * math.pi / 4, cur, 1.0)
    assert res_b.fully_reachable
    _report("10", f"201x201 cells agree 100% ({unreachable} unreachable cells); "
                  "predicate false at 7pi/4, true at 5pi/4")


def test_criterion_11_parametric_scan_monotonicity():
    rows = parametric_scan(math.pi / 100, math.pi / 100, (0.25, 0.75))
    lo = sum(1 for r in rows if r[2] == 0.25 and r[3])
    hi = sum(1 for r in rows if r[2] == 0.75 and r[3])
    assert hi < lo
    _report("11", f"reachable triples: {lo} at vw=0.25 vs {hi} at vw=0.75")


def test_criterion_12_major_sector_containment():
    step = math.pi / 50
    n = int(round(TWO_PI / step))
    for i in range(n):
        for j in range(n):
            lsl, rsr = major_region_containment(i * step, CurrentState(0.5, j * step), 1.0)
            assert lsl != rsr, (i, j)
    _report("12", f"exactly one containment flag on the {n}x{n} grid")


@pytest.mark.slow
def test_criterion_13_zero_current_classical_oracle():
    rng = np.random.default_rng(ACCEPTANCE_SEED + 2)
    cfg = SolverConfig(n_initial_guesses=24, seed=int(rng.integers(2**16)))
    worst = 0.0
    for _ in range(1000):
        goal = Pose(rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(0, TWO_PI))
        solved = solve_six(ORIGIN, goal, CurrentState(0, 0), UNIT, cfg)
        assert solved is not None
        _, _, _, _, ref = classical_dubins_shortest(goal.x, goal.y, goal.theta)
        gap = abs(solved[0].travel_time - ref)
        worst = max(worst, gap)
        assert gap <= 1e-6
    _report("13", f"1000 pose pairs, worst length gap {worst:.2e}")


@pytest.mark.slow
def test_criterion_14_static_comparison():
    result = static_comparison(
        seed=ACCEPTANCE_SEED, radii=(5.0, 10.0), points_per_square=8,
        n_goal_headings=6, n_current_headings=6,
    )
    assert len(result.instances) == 576
    gaps = result.travel_gaps()  # T_six - T_fourpi
    assert (gaps <= 1e-9).all()  # the four-arc planner never beats the superset
    frac_equal = result.fraction_equal(1e-6)
    assert frac_equal >= 0.5
    frac_sim = result.fraction_total_time_favors_fourpi(baseline_delay=8.72)
    frac_measured = result.fraction_total_time_favors_fourpi()
    assert frac_sim >= 0.9
    _report("14", f"576 instances, equal travel time in {frac_equal:.1%}, "
                  f"total-time wins {frac_sim:.1%} at 8.72 s simulated latency "
                  f"({frac_measured:.1%} at measured latency, reported only)")


def test_criterion_15_timing():
    result = timing_bench(n_instances=30, seed=ACCEPTANCE_SEED,
                          cfg=SolverConfig(n_initial_guesses=100, seed=1))
    assert result.mean_fourpi < 1e-3
    assert result.ratio >= 100.0
    _report("15", f"analytic {result.mean_fourpi*1e6:.0f} us/solve, "
                  f"baseline {result.mean_baseline*1e3:.1f} ms, ratio {result.ratio:.0f}x")


@pytest.mark.slow
def test_criterion_16_monte_carlo():
    t0 = time.perf_counter()
    naval = dynamic_monte_carlo(NAVAL, n_runs=60, seed=ACCEPTANCE_SEED)
    aerial = dynamic_monte_carlo(AERIAL, n_runs=60, seed=ACCEPTANCE_SEED)
    elapsed = time.perf_counter() - t0
    assert naval.nonconvergence_rate_fourpi == 0.0
    assert naval.mean_savings > 0.0
    assert naval.negative_savings_fraction < 0.10
    assert aerial.nonconvergence_rate_baseline > naval.nonconvergence_rate_baseline
    assert elapsed < 600.0
    _report("16", f"naval: fourpi nonconv 0%, mean savings {naval.mean_savings:.1f}%, "
                  f"negatives {naval.negative_savings_fraction:.1%}; baseline nonconv "
                  f"naval {naval.nonconvergence_rate_baseline:.1f}% < aerial "
                  f"{aerial.nonconvergence_rate_baseline:.1f}%; runtime {elapsed:.0f} s")


def test_criterion_17_drift_arithmetic():
    vehicle = VehicleSpec(2.5, 2.5)
    cur = CurrentState(2.0, 0.0)
    slow = drift_predict(Pose(0, 0, 0), 0.0, cur, 8.72, vehicle)
    fast = drift_predict(Pose(0, 0, 0), 0.0, cur, 6.4e-4, vehicle)
    assert math.hypot(slow.x, slow.y) == pytest.approx(39.24, abs=1e-12)
    assert math.hypot(fast.x, fast.y) == pytest.approx(6.4e-4 * 4.5, abs=1e-15)
    assert round(math.hypot(fast.x, fast.y), 4) == 0.0029
    _report("17", "39.24 m and 0.0029 m reproduced")


def test_criterion_18_cli_determinism(capsys, tmp_path):
    commands = [
        ["plan", "--start", "0,0,0", "--goal", "5,3,1.0", "--current", "0.4,2.0",
         "--mode", "dubins", "--seed", "11"],
        ["montecarlo", "--profile", "naval", "--runs", "2", "--seed", "11"],
        ["paramscan", "--theta-f-step", "0.7", "--theta-w-step", "0.7",
         "--vw", "0.5", "--out", str(tmp_path / "scan.csv")],
    ]
    import json as _json
    for argv in commands:
        outs = []
        for _ in range(2):
            assert cli_main(argv) == 0
            doc = _json.loads(capsys.readouterr().out)
            doc["results"].pop("compute_time_seconds", None)  # wall-clock field
            outs.append(_json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1], argv[0]
    _report("18", "plan/montecarlo/paramscan byte-identical across reruns")
