"""Command-line front end: planning, maps, scans, simulation, experiments.

Every command prints exactly one JSON envelope on stdout; grid and
trajectory artifacts go to files named by --out flags.  Exit codes: 0
success, 2 input validation failure, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from .baseline import SolverConfig, solve_six
from .core import (CurrentSchedule, CurrentState, Pose, VehicleSpec, angle_input, check_finite,
                   to_start_frame, write_csv)
from .experiments import PROFILES, dynamic_monte_carlo, timing_bench
from .planner import ArcMode, plan
from .reachability import parametric_scan, reachability_map
from .scenario import load_scenario
from .simulator import run_scenario
from .trajectory import cf_path, controls_of, integrate_if

SCHEMA_VERSION = "1"

EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _resolve_out(path: str | None, flag: str) -> str | None:
    """Resolve a relative artifact path against DRIFTPLAN_OUT_DIR if set;
    refuse, before any work, one that is no file in an existing directory."""
    if path is None:
        return None
    base = os.environ.get("DRIFTPLAN_OUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    if not path or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"{flag} must name a file in an existing directory, got {path!r}")
    return path


def _emit(command: str, inputs: dict, results: dict) -> None:
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
    }
    json.dump(envelope, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _parse_floats(text: str, name: str, fields: str | None = None) -> tuple[float, ...]:
    """Finite numbers from a comma-separated flag value shaped like fields
    (any count when fields is None)."""
    parts = text.split(",")
    if fields is not None and len(parts) != len(fields.split(",")):
        raise ValueError(f"{name} must be {fields}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"{name} must be numeric: got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{name} must be finite: got {text!r}")
    return values


def _flag_type(convert, holds, what: str):
    """An argparse type: the value convert reads from the text, refused as
    not what unless holds is true of it."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not holds(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_seed = _flag_type(int, lambda v: v >= 0, "a non-negative integer")  # as numpy takes it
_count = _flag_type(int, lambda v: v >= 1, "at least 1")
_positive = _flag_type(float, lambda v: math.isfinite(v) and v > 0.0, "finite and positive")


def _parse_current(text: str, degrees: bool, vehicle: VehicleSpec) -> CurrentState:
    """The --current flag: a speed, non-negative and below the vehicle's, and
    a heading."""
    vw, thetaw = _parse_floats(text, "--current", "vw,thetaw")
    check_finite("--current speed", vw)
    if not vw < vehicle.speed:
        raise ValueError(f"--current speed {vw!r} must be below --speed {vehicle.speed!r}")
    return CurrentState(vw, math.radians(thetaw) if degrees else thetaw)


def cmd_plan(args) -> None:
    traj_path = _resolve_out(args.traj, "--traj")
    start = Pose(*_parse_floats(args.start, "--start", "x,y,theta"))
    goal = Pose(*_parse_floats(args.goal, "--goal", "x,y,theta"))
    vehicle = VehicleSpec(args.speed, args.radius)
    current = _parse_current(args.current, args.current_deg, vehicle)
    try:
        to_start_frame(start, goal, current)
    except ValueError as exc:  # the goal is too far from the start
        raise ValueError(f"--start, --goal: {exc}")
    inputs = {
        "start": [start.x, start.y, start.theta],
        "goal": [goal.x, goal.y, goal.theta],
        "current": [current.speed, current.heading],
        "speed": vehicle.speed,
        "radius": vehicle.turning_radius,
        "mode": args.mode,
    }
    try:
        if args.mode == "dubins":
            solved = solve_six(start, goal, current, vehicle, SolverConfig(seed=args.seed))
            if solved is None:
                print("no six-type solution converged", file=sys.stderr)
                sys.exit(EXIT_RUNTIME)
            sol, elapsed = solved
            results = {"solution": asdict(sol), "compute_time_seconds": elapsed}
        else:
            mode = ArcMode.TWO_PI if args.mode == "2pi" else ArcMode.FOUR_PI
            sol = plan(start, goal, current, vehicle, mode)
            if sol is None:
                results = {"solution": "unreachable"}
            else:
                results = {"solution": asdict(sol)}
    except ValueError as exc:  # the other inputs are checked above
        raise ValueError(f"--radius: {exc}")
    if traj_path and sol is not None:
        controls = controls_of(sol, vehicle)
        h = 1e-3 * vehicle.turning_radius / vehicle.speed
        try:
            traj = integrate_if(start, controls, CurrentSchedule.constant(current), vehicle, h)
        except ValueError as exc:  # too many samples
            raise ValueError(f"--traj at h = 1e-3 --radius / --speed: {exc}")
        traj.write_csv(traj_path)
        results["trajectory_csv"] = traj_path
        cf = cf_path(sol, vehicle, start)
        cf_name = traj_path.removesuffix(".csv") + "_cf.csv"
        cf.write_csv(cf_name)
        results["cf_trajectory_csv"] = cf_name
    _emit("plan", inputs, results)


def cmd_grid(args) -> None:
    """reachmap and costmap: both write the same dominant-type/travel-time grid."""
    theta_f = angle_input(args.theta_f, args.theta_f_deg, "--theta-f", "--theta-f-deg")
    vehicle = VehicleSpec(args.speed, args.radius)
    current = _parse_current(args.current, args.current_deg, vehicle)
    mode = ArcMode.TWO_PI if args.mode == "2pi" else ArcMode.FOUR_PI
    bounds = (None if args.bounds is None
              else _parse_floats(args.bounds, "--bounds", "xmin,xmax,ymin,ymax"))
    out_path = _resolve_out(args.out, "--out")
    try:
        grid = reachability_map(theta_f, current, bounds, args.step, mode, vehicle)
    except ValueError as exc:  # the other inputs are checked above; --radius scales the grid
        raise ValueError(f"--radius, --bounds, --step: {exc}")
    grid.write_csv(out_path)
    _emit(args.command, {
        "theta_f": theta_f,
        "current": [current.speed, current.heading],
        "mode": args.mode,
        "step": args.step,
    }, {
        "out": out_path,
        "cells": int(grid.dominant.size),
        "unreachable_cells": grid.unreachable_count(),
    })


def cmd_paramscan(args) -> None:
    vws = _parse_floats(args.vw, "--vw")
    if any(not (0.0 < v < 1.0) for v in vws):
        raise ValueError("--vw speeds must lie in (0, 1)")
    out_path = _resolve_out(args.out, "--out")
    rows = parametric_scan(args.theta_f_step, args.theta_w_step, vws)
    write_csv(out_path, ("theta_f", "theta_w", "v_w", "reachable"), rows)
    reachable = sum(1 for r in rows if r[3])
    _emit("paramscan", {
        "theta_f_step": args.theta_f_step,
        "theta_w_step": args.theta_w_step,
        "vw": list(vws),
    }, {"out": out_path, "triples": len(rows), "reachable_triples": reachable})


def cmd_simulate(args) -> None:
    try:
        scenario = load_scenario(args.scenario)
    except (OSError, ValueError) as exc:
        raise ValueError(f"bad scenario file: {exc}")
    traj_path = _resolve_out(args.traj, "--traj")
    result = run_scenario(scenario, args.seed)
    if traj_path:
        result.trajectory.write_csv(traj_path)
    _emit("simulate", {"scenario": args.scenario, "seed": args.seed},
          result.summary_dict())


def cmd_montecarlo(args) -> None:
    out_path = _resolve_out(args.out, "--out")
    stats = dynamic_monte_carlo(PROFILES[args.profile], n_runs=args.runs, seed=args.seed)
    if out_path:
        stats.write_csv(out_path)
    _emit("montecarlo", {
        "profile": args.profile, "runs": args.runs, "seed": args.seed,
    }, stats.summary_dict())


def cmd_bench(args) -> None:
    result = timing_bench(args.instances, args.seed)
    _emit("bench", {"instances": args.instances, "seed": args.seed}, {
        "mean_fourpi_seconds": result.mean_fourpi,
        "mean_baseline_seconds": result.mean_baseline,
        "ratio": result.ratio,
    })


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftplan",
        description="Minimum-time path planning for Dubins-type vehicles under currents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="solve one start/goal instance")
    p.add_argument("--start", required=True, help="x,y,theta")
    p.add_argument("--goal", required=True, help="x,y,theta")
    p.add_argument("--current", required=True, help="vw,thetaw")
    p.add_argument("--current-deg", action="store_true",
                   help="interpret the current heading in degrees")
    p.add_argument("--speed", type=_positive, default=1.0)
    p.add_argument("--radius", type=_positive, default=1.0)
    p.add_argument("--mode", choices=("2pi", "4pi", "dubins"), default="4pi")
    p.add_argument("--traj", default=None, help="write sampled trajectories to CSV")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_plan)

    for name in ("reachmap", "costmap"):
        p = sub.add_parser(name, help=f"rasterize a {name} CSV grid")
        p.add_argument("--theta-f", type=float, help="goal heading (radians)")
        p.add_argument("--theta-f-deg", type=float, help="goal heading (degrees)")
        p.add_argument("--current", required=True, help="vw,thetaw")
        p.add_argument("--current-deg", action="store_true")
        p.add_argument("--speed", type=_positive, default=1.0)
        p.add_argument("--radius", type=_positive, default=1.0)
        p.add_argument("--mode", choices=("2pi", "4pi"), default="2pi")
        p.add_argument("--bounds", default=None, help="xmin,xmax,ymin,ymax")
        p.add_argument("--step", type=_positive, default=None)
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_grid)

    p = sub.add_parser("paramscan", help="full-reachability parameter scan")
    p.add_argument("--theta-f-step", type=_positive, default=math.pi / 100)
    p.add_argument("--theta-w-step", type=_positive, default=math.pi / 100)
    p.add_argument("--vw", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
                   help="comma-separated current speeds in (0, 1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_paramscan)

    p = sub.add_parser("simulate", help="run one mission from a scenario JSON file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--traj", default=None, help="write the flown trajectory to CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("montecarlo", help="paired dynamic-current study")
    p.add_argument("--profile", required=True, choices=sorted(PROFILES))
    p.add_argument("--runs", type=_count, default=360)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="per-run CSV")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("bench", help="mean solve-time comparison")
    p.add_argument("--instances", type=_count, default=50)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the validation code
        return int(exc.code or 0)
    try:
        args.func(args)
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:  # runtime failures map to exit 3
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return 0


if __name__ == "__main__":
    sys.exit(main())
