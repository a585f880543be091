"""Command-line interface: envelopes, exit codes, artifacts, determinism."""

import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftplan import cli, core
from driftplan.cli import main
from oracles import parametric_scan_per_row, write_scan_csv


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _envelope(out):
    doc = json.loads(out)
    assert set(doc) == {"schema_version", "command", "inputs", "results"}
    return doc


def test_plan_four_pi_golden(capsys):
    code, out, _ = _run(capsys, [
        "plan", "--start", "0,0,0", "--goal=-2.3,2.8,1.5707963267948966",
        "--current", "0.5,3.141592653589793", "--mode", "4pi",
    ])
    assert code == 0
    doc = _envelope(out)
    sol = doc["results"]["solution"]
    assert sol["path_type"] == "LSL"
    assert sol["travel_time"] == pytest.approx(10.51, rel=0.01)


def test_plan_two_pi_unreachable(capsys):
    code, out, _ = _run(capsys, [
        "plan", "--start", "0,0,0", "--goal", "6,3,5.497787143782138",
        "--current", "0.5,1.0471975511965976", "--mode", "2pi",
    ])
    assert code == 0
    doc = _envelope(out)
    assert doc["results"]["solution"] == "unreachable"


def test_plan_four_pi_near_unit_current(capsys):
    # A goal where the textbook root for beta cancels enough to reject every
    # candidate.
    code, out, _ = _run(capsys, [
        "plan", "--start", "0,0,0",
        "--goal", "7.835019561209485,8.236577218416308,1.3087976796265908",
        "--current", "0.999999999,0.7858888904132798", "--mode", "4pi",
    ])
    assert code == 0
    sol = _envelope(out)["results"]["solution"]
    assert sol != "unreachable"
    assert sol["path_type"] in ("LSL", "RSR")
    assert math.isfinite(sol["travel_time"])


def test_plan_malformed_start_exits_2(capsys):
    code, _, err = _run(capsys, [
        "plan", "--start", "0,0", "--goal", "1,1,0", "--current", "0.1,0",
    ])
    assert code == 2
    assert "start" in err


def test_plan_fast_current_exits_2(capsys):
    code, _, err = _run(capsys, [
        "plan", "--start", "0,0,0", "--goal", "1,1,0", "--current", "1.5,0",
    ])
    assert code == 2
    assert "current speed" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["4pi", "2pi", "dubins"])
def test_plan_far_goal_exits_2(capsys, mode):
    code, out, err = _run(capsys, [
        "plan", "--start", "0,0,0", "--goal", "1e200,0,1.0", "--current", "0.5,1.0",
        "--mode", mode,
    ])
    assert code == 2
    assert out == ""
    assert "goal Pose(x=1e+200" in err


def test_plan_current_degrees(capsys):
    code_rad, out_rad, _ = _run(capsys, [
        "plan", "--start", "0,0,0", "--goal", "4,2,1", "--current",
        f"0.4,{math.pi / 2}",
    ])
    code_deg, out_deg, _ = _run(capsys, [
        "plan", "--start", "0,0,0", "--goal", "4,2,1", "--current", "0.4,90",
        "--current-deg",
    ])
    assert code_rad == code_deg == 0
    assert json.loads(out_rad)["results"] == json.loads(out_deg)["results"]


def test_plan_round_trip_inputs(capsys):
    argv = ["plan", "--start", "1,2,0.3", "--goal", "4,5,0.6",
            "--current", "0.2,1.0", "--speed", "2.0", "--radius", "1.5"]
    code, out1, _ = _run(capsys, argv)
    assert code == 0
    echoed = json.loads(out1)["inputs"]
    argv2 = ["plan",
             "--start", ",".join(str(v) for v in echoed["start"]),
             "--goal", ",".join(str(v) for v in echoed["goal"]),
             "--current", ",".join(str(v) for v in echoed["current"]),
             "--speed", str(echoed["speed"]), "--radius", str(echoed["radius"])]
    code, out2, _ = _run(capsys, argv2)
    assert code == 0
    assert json.loads(out1)["results"] == json.loads(out2)["results"]


def test_plan_writes_trajectories(capsys, tmp_path):
    traj = tmp_path / "path.csv"
    code, out, _ = _run(capsys, [
        "plan", "--start", "0,0,0", "--goal", "4,2,1", "--current", "0.3,1.0",
        "--traj", str(traj),
    ])
    assert code == 0
    assert traj.exists()
    assert (tmp_path / "path_cf.csv").exists()
    header = traj.read_text().splitlines()[0]
    assert header == "t,x,y,theta,frame"


def test_plan_cf_name_strips_only_trailing_csv(capsys, tmp_path):
    traj_dir = tmp_path / "a.csv.d"
    traj_dir.mkdir()
    traj = traj_dir / "t.csv"
    code, out, err = _run(capsys, [
        "plan", "--start", "0,0,0", "--goal", "4,2,1", "--current", "0.3,1.0",
        "--traj", str(traj),
    ])
    assert code == 0, err
    results = _envelope(out)["results"]
    assert results["trajectory_csv"] == str(traj)
    assert results["cf_trajectory_csv"] == str(traj_dir / "t_cf.csv")
    assert (traj_dir / "t_cf.csv").exists()


@pytest.mark.parametrize("flag, value", [
    ("--start", "0,nan,0"),
    ("--goal", "nan,5,1"),
    ("--goal", "1,inf,1"),
    ("--current", "nan,0"),
    ("--current", "0.3,inf"),
])
def test_plan_rejects_non_finite_input(capsys, flag, value):
    argv = {"--start": "0,0,0", "--goal": "4,2,1", "--current": "0.3,1.0"}
    argv[flag] = value
    code, out, err = _run(capsys, ["plan"] + [a for kv in argv.items() for a in kv])
    assert code == 2
    assert out == ""
    assert flag in err


def test_plan_rejects_non_finite_speed(capsys):
    code, _, err = _run(capsys, [
        "plan", "--start", "0,0,0", "--goal", "4,2,1", "--current", "0.3,1.0",
        "--speed", "nan",
    ])
    assert code == 2
    assert "speed" in err


def test_plan_rejects_negative_current(capsys):
    # refused by CurrentState itself, which names the value
    code, out, err = _run(capsys, [
        "plan", "--start", "0,0,0", "--goal", "4,2,1", "--current=-0.3,1.0",
    ])
    assert code == 2
    assert out == ""
    assert "current speed must be finite and non-negative, got -0.3" in err


def test_reachmap_grid(capsys, tmp_path):
    out_csv = tmp_path / "grid.csv"
    code, out, _ = _run(capsys, [
        "reachmap", "--theta-f-deg", "315", "--current", "0.5,1.0471975511965976",
        "--bounds=-10,10,-10,10", "--step", "2.0", "--mode", "2pi",
        "--out", str(out_csv),
    ])
    assert code == 0
    doc = _envelope(out)
    assert doc["results"]["unreachable_cells"] > 0
    assert out_csv.exists()


def test_costmap_requires_out(capsys):
    code, _, _ = _run(capsys, [
        "costmap", "--theta-f", "1.0", "--current", "0.3,0",
    ])
    assert code == 2


@pytest.mark.parametrize("command", ["reachmap", "costmap"])
@pytest.mark.parametrize("bounds", [
    "1,0,1,0", "0,1,1,0", "nan,1,0,1", "0,inf,0,1", "0,1,0", "0,a,0,1",
])
def test_grid_rejects_bad_bounds(capsys, tmp_path, command, bounds):
    out_csv = tmp_path / "grid.csv"
    code, out, err = _run(capsys, [
        command, "--theta-f", "1.0", "--current", "0.3,0", f"--bounds={bounds}",
        "--out", str(out_csv),
    ])
    assert code == 2
    assert out == ""
    assert "--bounds" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("argv, flag", [
    (["reachmap", "--theta-f", "nan"], "--theta-f"),
    (["costmap", "--theta-f-deg", "inf"], "--theta-f-deg"),
    (["reachmap", "--theta-f", "1", "--step", "nan"], "--step"),
    (["costmap", "--theta-f", "1", "--step", "0"], "--step"),
    (["reachmap", "--theta-f", "1", "--step", "-0.5"], "--step"),
    (["reachmap", "--theta-f", "1", "--theta-f-deg", "5"], "--theta-f-deg"),
    (["costmap"], "missing --theta-f"),
])
def test_grid_rejects_bad_angle_or_step(capsys, tmp_path, argv, flag):
    out_csv = tmp_path / "grid.csv"
    code, out, err = _run(capsys, argv + ["--current", "0.3,0", "--out", str(out_csv)])
    assert code == 2
    assert out == ""
    assert flag in err
    assert not out_csv.exists()


@pytest.mark.parametrize("argv", [
    ["reachmap", "--theta-f", "1", "--current", "0.3,0", "--step", "1e-6"],
    ["costmap", "--theta-f", "1", "--current", "0.3,0", "--bounds=-1e300,1e300,0,1"],
    ["paramscan", "--theta-f-step", "1e-4", "--theta-w-step", "1e-4"],
])
def test_oversized_request_refused_before_building(capsys, tmp_path, argv):
    out_csv = tmp_path / "out.csv"
    code, out, err = _run(capsys, argv + ["--out", str(out_csv)])
    assert code == 2
    assert out == ""
    assert "cap" in err
    assert not out_csv.exists()


def test_costmap_and_reachmap_write_the_same_grid(capsys, tmp_path):
    docs = {}
    for command in ("reachmap", "costmap"):
        code, out, _ = _run(capsys, [
            command, "--theta-f", "0.7854", "--current", "0.5,3.14159", "--mode", "4pi",
            "--bounds=-3,3,-2,2", "--step", "1.0", "--out", str(tmp_path / f"{command}.csv"),
        ])
        assert code == 0
        docs[command] = _envelope(out)
    assert docs["costmap"]["command"] == "costmap"
    assert docs["reachmap"]["inputs"] == docs["costmap"]["inputs"]
    assert (tmp_path / "reachmap.csv").read_text() == (tmp_path / "costmap.csv").read_text()


def test_paramscan(capsys, tmp_path):
    out_csv = tmp_path / "scan.csv"
    code, out, _ = _run(capsys, [
        "paramscan", "--theta-f-step", "0.6283185307179586",
        "--theta-w-step", "0.6283185307179586", "--vw", "0.25,0.75",
        "--out", str(out_csv),
    ])
    assert code == 0
    doc = _envelope(out)
    assert doc["results"]["triples"] == 10 * 10 * 2
    assert 0 < doc["results"]["reachable_triples"] < doc["results"]["triples"]
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "theta_f,theta_w,v_w,reachable"


def test_paramscan_csv_bytes_match_the_per_row_scan(capsys, tmp_path):
    step, speeds = math.pi / 10, (0.25, 0.75)
    out_csv, reference = tmp_path / "scan.csv", tmp_path / "reference.csv"
    code, out, _ = _run(capsys, [
        "paramscan", "--theta-f-step", repr(step), "--theta-w-step", repr(step),
        "--vw", ",".join(map(repr, speeds)), "--out", str(out_csv),
    ])
    assert code == 0
    rows = parametric_scan_per_row(step, step, speeds)
    write_scan_csv(rows, reference)
    assert out_csv.read_bytes() == reference.read_bytes()
    assert _envelope(out)["results"]["reachable_triples"] == sum(ok for *_, ok in rows)


def test_paramscan_rejects_bad_speed(capsys):
    code, _, _ = _run(capsys, [
        "paramscan", "--vw", "1.5", "--out", "x.csv",
    ])
    assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (["--theta-f-step", "nan"], "--theta-f-step"),
    (["--theta-f-step", "-1"], "--theta-f-step"),
    (["--theta-w-step", "inf"], "--theta-w-step"),
    (["--theta-w-step", "0"], "--theta-w-step"),
    (["--vw", "0.5,abc"], "--vw"),
])
def test_paramscan_rejects_bad_flag(capsys, tmp_path, argv, flag):
    out_csv = tmp_path / "scan.csv"
    code, out, err = _run(capsys, ["paramscan", *argv, "--out", str(out_csv)])
    assert code == 2
    assert out == ""
    assert flag in err
    assert not out_csv.exists()


def test_simulate_scenario_file(capsys, tmp_path):
    doc = {
        "start": {"x": 0, "y": 0, "theta": 0},
        "goal": {"x": 5, "y": 8.5, "theta_deg": 135.0},
        "vehicle": {"speed": 1.0, "turning_radius": 1.0},
        "current_schedule": [
            {"t_start": 0, "speed": 0.5, "heading_deg": 180.0},
            {"t_start": 3.2, "speed": 0.75, "heading_deg": 270.0},
        ],
        "precision_radius": 1.0,
        "estimation_window": 0.0,
        "planner": "analytic_4pi",
    }
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    traj = tmp_path / "flight.csv"
    code, out, _ = _run(capsys, [
        "simulate", "--scenario", str(scen), "--seed", "3", "--traj", str(traj),
    ])
    assert code == 0
    env = _envelope(out)
    assert env["results"]["converged"] is True
    assert env["results"]["total_time"] == pytest.approx(33.57, rel=0.05)
    assert traj.exists()


@pytest.mark.parametrize("field, patch", [
    ("precision_radius", {"precision_radius": math.nan}),
    ("t_max", {"t_max": math.nan}),
    ("sample_rate", {"noise": {"sample_rate": math.nan}}),
    ("latency dubins_six", {"latency": {"dubins_six": math.nan}}),
    # used to read "angle must be finite, got nan", which named no field
    ("goal theta", {"goal": {"x": 5, "y": 8.5, "theta": math.nan}}),
    ("current_schedule[0] heading_deg", {
        "current_schedule": [{"t_start": 0, "speed": 0.5, "heading_deg": math.inf}]}),
    # used to be refused by plan as a goal Pose too far from the start
    ("goal x", {"goal": {"x": math.nan, "y": 8.5, "theta": 2.0}}),
    # used to run with the change never applied
    ("current_schedule[1] t_start", {"current_schedule": [
        {"t_start": 0, "speed": 0.5, "heading": 3.0},
        {"t_start": math.nan, "speed": 0.5, "heading": 1.0}]}),
    # used to exit 3 with "int too large to convert to float"
    ("goal x", {"goal": {"x": 10 ** 400, "y": 8.5, "theta": 2.0}}),
])
def test_simulate_rejects_non_finite_scenario_field(capsys, tmp_path, field, patch):
    doc = {
        "start": {"x": 0, "y": 0, "theta": 0},
        "goal": {"x": 5, "y": 8.5, "theta": 2.0},
        "vehicle": {"speed": 1.0, "turning_radius": 1.0},
        "current_schedule": [{"t_start": 0, "speed": 0.5, "heading": 3.0}],
        **patch,
    }
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))  # writes the bare NaN token json accepts
    code, _, err = _run(capsys, ["simulate", "--scenario", str(scen)])
    assert code == 2
    assert f"{field} must be finite" in err


_HUGE_RADIUS = [
    ["plan", "--start", "0,0,0", "--goal", "4,2,1", "--current", "0.3,1.0", "--mode", mode]
    for mode in ("2pi", "4pi", "dubins")
] + [
    [name, "--theta-f", "1", "--current", "0.3,1.0", "--out", "{out}"] + bounds
    for name in ("reachmap", "costmap") for bounds in ([], ["--bounds=-2,2,-2,2", "--step=0.2"])
]


@pytest.mark.parametrize("argv", _HUGE_RADIUS, ids=["plan-2pi", "plan-4pi", "plan-dubins", "reachmap",
                                                  "reachmap-bounds", "costmap", "costmap-bounds"])
def test_a_turning_radius_whose_terms_overflow_exits_2(capsys, tmp_path, argv):
    # Used to exit 0 with "beta": Infinity in the envelope, or a grid of
    # infinite times.
    out = tmp_path / "g.csv"
    code, stdout, err = _run(capsys, [a.format(out=out) for a in argv] + ["--radius", "1e308"])
    assert code == 2
    assert stdout == ""
    assert "--radius" in err
    assert not out.exists()


def test_simulate_refuses_a_turning_radius_whose_terms_overflow(capsys, tmp_path):
    doc = {
        "start": {"x": 0, "y": 0, "theta": 0},
        "goal": {"x": 5, "y": 8.5, "theta": 2.0},
        "vehicle": {"speed": 1.0, "turning_radius": 1e308},
        "current_schedule": [{"t_start": 0, "speed": 0.5, "heading": 3.0}],
    }
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["simulate", "--scenario", str(scen)])
    assert code == 2
    assert out == ""
    assert "vehicle turning_radius 1e+308 is too large" in err


@pytest.mark.parametrize("headings, message", [
    ([math.nan], "headings must be finite, got nan"),
    ([], "headings must not be empty"),
])
def test_simulate_rejects_bad_process_headings(capsys, tmp_path, headings, message):
    doc = {
        "start": {"x": 0, "y": 0, "theta": 0},
        "goal": {"x": 5, "y": 8.5, "theta": 2.0},
        "vehicle": {"speed": 1.0, "turning_radius": 1.0},
        "current_process": {"speed": 0.5, "heading": 0.0, "headings": headings},
    }
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["simulate", "--scenario", str(scen)])
    assert code == 2
    assert message in err


@pytest.mark.parametrize("patch, message", [
    # a misspelt key used to run at the default precision radius
    ({"precison_radius": 3.0}, "scenario has no field 'precison_radius'"),
    ({"noise": {"sample_rate": 2.0, "sigma_headng": 0.1}}, "noise has no field 'sigma_headng'"),
    # used to exit 3 as a runtime error
    ({"vehicle": 5}, "vehicle must be an object, got 5"),
    ({"t_max": "100"}, "scenario t_max must be a number, got '100'"),
    ({"initial_compute_latency": 1}, "scenario initial_compute_latency must be true or false"),
    ({"goal": {"x": 5, "y": 8.5, "theta": 2.0, "theta_deg": 90.0}},
     "give either goal theta or goal theta_deg, not both"),
    ({"goal": {"x": 5, "y": 8.5}}, "missing goal theta"),
    ({"current_process": {"speed": 0.5}}, "one of current_schedule and current_process"),
], ids=["misspelt-key", "misspelt-noise-key", "vehicle-number", "string-number",
        "number-flag", "both-angles", "no-angle", "two-currents"])
def test_simulate_refuses_malformed_document(capsys, tmp_path, patch, message):
    doc = {
        "start": {"x": 0, "y": 0, "theta": 0},
        "goal": {"x": 5, "y": 8.5, "theta": 2.0},
        "vehicle": {"speed": 1.0, "turning_radius": 1.0},
        "current_schedule": [{"t_start": 0, "speed": 0.5, "heading": 3.0}],
        **patch,
    }
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["simulate", "--scenario", str(scen)])
    assert code == 2
    assert out == ""
    assert message in err


def test_simulate_missing_file_exits_2(capsys, tmp_path):
    code, _, _ = _run(capsys, [
        "simulate", "--scenario", str(tmp_path / "nope.json"),
    ])
    assert code == 2


def test_montecarlo_deterministic(capsys):
    argv = ["montecarlo", "--profile", "naval", "--runs", "2", "--seed", "7"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_montecarlo_unknown_profile(capsys):
    code, _, _ = _run(capsys, ["montecarlo", "--profile", "space", "--runs", "1"])
    assert code == 2


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_montecarlo_rejects_no_runs(capsys, runs):
    code, out, err = _run(capsys, ["montecarlo", "--profile", "naval", "--runs", runs])
    assert code == 2
    assert out == ""
    assert "--runs" in err


@pytest.mark.parametrize("argv", [
    ["plan", "--start", "0,0,0", "--goal", "4,-3,1", "--current", "0.4,2", "--mode", "dubins"],
    ["simulate", "--scenario", "SCENARIO"],
    ["montecarlo", "--profile", "naval", "--runs", "1"],
    ["bench", "--instances", "1"],
], ids=lambda argv: argv[0])
def test_negative_seed_is_refused_by_flag(capsys, tmp_path, argv):
    # numpy used to refuse it with "expected non-negative integer", naming no flag.
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps({
        "start": {"x": 0, "y": 0, "theta": 0},
        "goal": {"x": 5, "y": 8.5, "theta": 2.0},
        "current_schedule": [{"t_start": 0, "speed": 0.5, "heading": 3.0}],
    }))
    argv = [str(scen) if a == "SCENARIO" else a for a in argv]
    code, out, err = _run(capsys, argv + ["--seed", "-1"])
    assert code == 2
    assert out == ""
    assert "argument --seed: must be a non-negative integer, got '-1'" in err


def test_bench_envelope(capsys):
    code, out, _ = _run(capsys, ["bench", "--instances", "3", "--seed", "1"])
    assert code == 0
    doc = _envelope(out)
    assert doc["results"]["mean_fourpi_seconds"] > 0
    assert doc["results"]["ratio"] > 1.0


def test_out_dir_environment_variable(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DRIFTPLAN_OUT_DIR", str(tmp_path))
    code, out, _ = _run(capsys, [
        "paramscan", "--theta-f-step", "1.0", "--theta-w-step", "1.0",
        "--vw", "0.5", "--out", "rel_scan.csv",
    ])
    assert code == 0
    assert (tmp_path / "rel_scan.csv").exists()
    doc = _envelope(out)
    assert doc["results"]["out"] == str(tmp_path / "rel_scan.csv")


@pytest.mark.parametrize("argv, flag, work", [
    (["reachmap", "--theta-f", "1", "--current", "0.3,0", "--out", "{missing}/g.csv"],
     "--out", "reachability_map"),
    (["paramscan", "--out", "{dir}"], "--out", "parametric_scan"),
    (["plan", "--start", "0,0,0", "--goal", "4,2,1", "--current", "0.3,1.0",
      "--traj", "{missing}/t.csv"], "--traj", "plan"),
    (["montecarlo", "--profile", "naval", "--out", "{missing}/m.csv"],
     "--out", "dynamic_monte_carlo"),
    (["simulate", "--scenario", "{scenario}", "--traj", "{dir}"], "--traj", "run_scenario"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_bad_output_path_exits_2_before_any_work(capsys, tmp_path, monkeypatch, argv, flag,
                                                 work):
    # These used to run the whole command and then exit 3 with a bare
    # "[Errno 2] No such file or directory" or "[Errno 21] Is a directory".
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(cli, work, refuse)
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps({
        "start": {"x": 0, "y": 0, "theta": 0},
        "goal": {"x": 5, "y": 8.5, "theta": 2.0},
        "vehicle": {},
        "current_schedule": [{"t_start": 0, "speed": 0.5, "heading": 3.0}],
    }))
    paths = {"missing": tmp_path / "missing", "dir": tmp_path, "scenario": scen}
    code, out, err = _run(capsys, [a.format(**paths) for a in argv])
    assert code == 2
    assert out == ""
    assert f"{flag} must name a file in an existing directory" in err


def test_plan_trajectory_above_the_sample_cap_exits_2(capsys, tmp_path, monkeypatch):
    # A goal at 1e150 asked integrate_if for about 1e153 samples and ran out
    # of memory; the cap is lowered here so that no test allocates much.
    monkeypatch.setattr(core, "MAX_CELLS", 100)
    traj = tmp_path / "t.csv"
    code, out, err = _run(capsys, [
        "plan", "--start", "0,0,0", "--goal", "4,2,1", "--current", "0.3,1.0",
        "--traj", str(traj),
    ])
    assert code == 2
    assert out == ""
    assert "--traj at h = 1e-3 --radius / --speed: h 0.001 asks for" in err
    assert "samples, above the cap of 1e+02" in err
    assert list(tmp_path.iterdir()) == []


# Small valid arguments for each artifact command, giving grids of 21 x 21
# cells and a scan of 3 speeds at steps of 0.5 rad; output paths are
# relative, resolved under DRIFTPLAN_OUT_DIR.
_ARTIFACT_ARGS = {
    "plan": {"--start": "0,0,0", "--goal": "4,2,1", "--current": "0.3,1.0", "--speed": "1.0",
             "--radius": "1.0", "--mode": "4pi", "--traj": "t.csv", "--seed": "0"},
    "reachmap": {"--theta-f": "1.0", "--current": "0.3,1.0", "--speed": "1.0", "--radius": "1.0",
                 "--mode": "2pi", "--bounds": "-2,2,-2,2", "--step": "0.2", "--out": "g.csv"},
    "costmap": {"--theta-f-deg": "60", "--current": "0.3,1.0", "--speed": "1.0",
                "--radius": "1.0", "--mode": "4pi", "--bounds": "-2,2,-2,2", "--step": "0.2",
                "--out": "c.csv"},
    "paramscan": {"--theta-f-step": "0.5", "--theta-w-step": "0.5", "--vw": "0.25,0.5,0.75",
                  "--out": "s.csv"},
}

# What a flag, or one comma-separated part of it, is changed to; {} is the
# value it had.
_BOUNDARY_VALUES = ("nan", "inf", "-inf", "1e308", "-1", "", "{},", "missing/x.csv")


@st.composite
def _one_flag_changed(draw):
    command = draw(st.sampled_from(sorted(_ARTIFACT_ARGS)))
    flags = _ARTIFACT_ARGS[command]
    flag = draw(st.sampled_from(sorted(flags)))
    parts = flags[flag].split(",")
    part = draw(st.sampled_from([None, *range(len(parts))] if len(parts) > 1 else [None]))
    change = draw(st.sampled_from(_BOUNDARY_VALUES))
    value = ",".join(change.format(p) if part in (None, i) else p
                     for i, p in enumerate([flags[flag]] if part is None else parts))
    argv = [command] + [f"{f}={value if f == flag else v}" for f, v in flags.items()]
    return flag, argv


@settings(max_examples=300)
@given(case=_one_flag_changed())
def test_artifact_commands_refuse_a_bad_flag_by_name(case):
    flag, argv = case
    with tempfile.TemporaryDirectory() as out_dir, \
            mock.patch.dict(os.environ, {"DRIFTPLAN_OUT_DIR": out_dir}), \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert flag in err.getvalue()
