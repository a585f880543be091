"""Comparison studies: layout, savings accounting, and determinism."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from driftplan.baseline import SolverConfig
from driftplan.core import CurrentState, Pose, VehicleSpec
from driftplan.experiments import (
    AERIAL,
    NAVAL,
    PROFILES,
    MonteCarloRun,
    SavingsStats,
    StaticComparisonResult,
    StaticInstance,
    _square_perimeter_points,
    dynamic_monte_carlo,
    monte_carlo_goals,
    savings_percent,
    static_comparison,
    timing_bench,
)
from driftplan.simulator import RunResult
from oracles import write_savings_csv, write_static_csv

SMALL_CFG = SolverConfig(n_initial_guesses=16, seed=3)


def test_profiles_match_specified_sensing():
    naval = PROFILES["naval"]
    assert naval.vehicle.speed == 2.5
    assert naval.current_speed == 2.0
    assert naval.noise.sigma_position == 0.3
    assert naval.noise.sigma_heading == pytest.approx(math.radians(0.5))
    assert naval.noise.sigma_vw_relative == pytest.approx(0.0075)
    assert naval.noise.sigma_thetaw == pytest.approx(math.radians(0.67))
    assert naval.noise.sample_rate == 1.0
    aerial = PROFILES["aerial"]
    assert aerial.vehicle.speed == 10.0
    assert aerial.current_speed == 8.0
    assert aerial.noise.sigma_position == 0.01
    assert aerial.noise.sigma_vw_relative == pytest.approx(0.0125)
    assert aerial.noise.sigma_thetaw == pytest.approx(math.radians(4.0))
    assert aerial.noise.sample_rate == 10.0


def test_savings_formula():
    assert savings_percent(100.0, 50.0) == pytest.approx(50.0)
    assert savings_percent(50.0, 100.0) == pytest.approx(-100.0)


def test_square_perimeter_points():
    pts = _square_perimeter_points(5.0, 16)
    assert len(pts) == 16
    assert len(set(pts)) == 16
    for x, y in pts:
        assert max(abs(x), abs(y)) == pytest.approx(5.0)


def test_monte_carlo_goal_layout():
    goals = monte_carlo_goals(100.0)
    assert len(goals) == 36
    for g in goals:
        assert math.hypot(g.x, g.y) == pytest.approx(100.0)
    headings = {round(g.theta, 9) for g in goals}
    assert len(headings) == 6


def test_static_comparison_small():
    # full multistart coverage so the six-type side never loses to four-arc
    result = static_comparison(
        seed=0, radii=(5.0,), points_per_square=4,
        n_goal_headings=2, n_current_headings=1, cfg=SolverConfig(seed=0),
    )
    assert len(result.instances) == 4 * 2 * 1
    gaps = result.travel_gaps()
    assert (gaps <= 1e-9).all()  # the six-type baseline is never slower
    assert 0.0 <= result.fraction_equal() <= 1.0
    # simulated reference latency makes the four-arc side win nearly always
    frac = result.fraction_total_time_favors_fourpi(baseline_delay=8.72)
    assert frac >= 0.9


def test_static_comparison_csv(tmp_path):
    result = static_comparison(
        seed=0, radii=(5.0,), points_per_square=2,
        n_goal_headings=1, n_current_headings=2, cfg=SMALL_CFG,
    )
    out = tmp_path / "static.csv"
    result.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == len(result.instances) + 1


def _assert_numeric_fields_parse(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows
    for row in rows:
        for field in row:
            if field:  # an empty savings field means no savings
                float(field)


def test_csv_numeric_fields_parse_as_floats(tmp_path):
    # Six-type travel times come from numpy roots and are read out as plain
    # floats.  A numpy float in a study must still be written as a number:
    # np.float64(...), as its repr once put it, no CSV reader parses.
    static = static_comparison(
        seed=0, radii=(5.0,), points_per_square=2,
        n_goal_headings=1, n_current_headings=2, cfg=SMALL_CFG,
    )
    assert all(type(i.t_baseline) is float for i in static.instances)
    numpy_static = StaticComparisonResult(tuple(
        dataclasses.replace(i, t_baseline=np.float64(i.t_baseline)) for i in static.instances))
    for result in (static, numpy_static):
        result.write_csv(tmp_path / "static.csv")
        _assert_numeric_fields_parse(tmp_path / "static.csv")
    stats = dynamic_monte_carlo(NAVAL, n_runs=2, seed=11, solver_cfg=SMALL_CFG)
    assert all(type(r.baseline.total_time) is float for r in stats.runs)
    numpy_stats = SavingsStats(tuple(
        dataclasses.replace(r, baseline=dataclasses.replace(
            r.baseline, total_time=np.float64(r.baseline.total_time)))
        for r in stats.runs))
    for result in (stats, numpy_stats):
        result.write_csv(tmp_path / "mc.csv")
        _assert_numeric_fields_parse(tmp_path / "mc.csv")


def test_study_csv_bytes_match_the_own_loop_writers(tmp_path):
    # Whole floats share a column with run indices and flags, and 0.0 with
    # -0.0; a run where only one planner converged has no savings.
    static = static_comparison(
        seed=0, radii=(5.0,), points_per_square=2,
        n_goal_headings=1, n_current_headings=2, cfg=SMALL_CFG,
    )
    edges = StaticComparisonResult((
        StaticInstance(Pose(1.0, -0.0, 0.0), CurrentState(0.0, 1.0), np.float64(1.0),
                       math.inf, 0.0, -0.0),
        StaticInstance(Pose(0.0, 1.0, 1.0), CurrentState(1.0, 0.0), 2.5, np.float64(-0.0),
                       1e-300, 1.0),
    ))
    for result in (static, edges):
        result.write_csv(tmp_path / "static.csv")
        write_static_csv(result, tmp_path / "reference.csv")
        assert (tmp_path / "static.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def run(converged, total_time):
        return RunResult(converged, total_time, 0, (), None, ())

    studied = dynamic_monte_carlo(NAVAL, n_runs=2, seed=11, solver_cfg=SMALL_CFG)
    edges = SavingsStats((
        MonteCarloRun(0, Pose(0.0, -0.0, 1.0), run(True, 1.0), run(False, 0.0)),
        MonteCarloRun(1, Pose(1.0, 0.0, -0.0), run(True, np.float64(2.0)), run(True, 3.0)),
    ))
    assert edges.runs[0].savings is None
    for stats in (studied, edges):
        stats.write_csv(tmp_path / "mc.csv")
        write_savings_csv(stats, tmp_path / "reference.csv")
        assert (tmp_path / "mc.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_dynamic_monte_carlo_paired_and_deterministic():
    stats_a = dynamic_monte_carlo(NAVAL, n_runs=2, seed=11, solver_cfg=SMALL_CFG)
    stats_b = dynamic_monte_carlo(NAVAL, n_runs=2, seed=11, solver_cfg=SMALL_CFG)
    assert len(stats_a.runs) == 2
    for ra, rb in zip(stats_a.runs, stats_b.runs):
        assert ra.fourpi.total_time == rb.fourpi.total_time
        assert ra.baseline.total_time == rb.baseline.total_time
    summary = stats_a.summary_dict()
    assert summary["n_runs"] == 2
    # savings recomputable from the stored totals
    for run in stats_a.runs:
        if run.savings is not None:
            expect = savings_percent(run.baseline.total_time, run.fourpi.total_time)
            assert run.savings == pytest.approx(expect)


def test_monte_carlo_csv(tmp_path):
    stats = dynamic_monte_carlo(NAVAL, n_runs=2, seed=11, solver_cfg=SMALL_CFG)
    out = tmp_path / "mc.csv"
    stats.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("run,")


def test_timing_bench_sanity():
    result = timing_bench(n_instances=5, seed=1, cfg=SMALL_CFG)
    assert result.mean_fourpi > 0.0
    assert result.mean_baseline > result.mean_fourpi
    assert result.ratio > 1.0
    with pytest.raises(ValueError):
        timing_bench(n_instances=0)


@pytest.mark.parametrize("n_runs", [0, -1])
def test_dynamic_monte_carlo_rejects_no_runs(n_runs):
    with pytest.raises(ValueError):
        dynamic_monte_carlo(NAVAL, n_runs=n_runs)
