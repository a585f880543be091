"""Angle arithmetic, domain types, schedules, and frame transforms."""

import csv
import dataclasses
import math

import numpy as np
import pytest

import driftplan.core
from driftplan.core import (
    TWO_PI,
    CurrentSchedule,
    CurrentState,
    Pose,
    VehicleSpec,
    current_at,
    from_start_frame,
    normalize_angle,
    to_start_frame,
    write_csv,
)

import value_types


def test_normalize_angle_examples():
    assert normalize_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2)
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(5 * math.pi) == pytest.approx(math.pi)


def test_normalize_angle_range_and_idempotence():
    rng = np.random.default_rng(0)
    for a in rng.uniform(-50, 50, size=500):
        n = normalize_angle(float(a))
        assert 0.0 <= n < TWO_PI
        assert normalize_angle(n) == n


def test_normalize_angle_tiny_negative_stays_in_range():
    assert 0.0 <= normalize_angle(-1e-20) < TWO_PI


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_normalize_angle_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        normalize_angle(bad)


def test_pose_normalizes_theta():
    assert Pose(0, 0, -math.pi).theta == pytest.approx(math.pi)
    assert Pose(0, 0, 7 * math.pi).theta == pytest.approx(math.pi)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pose_rejects_non_finite_position(bad):
    with pytest.raises(ValueError, match=f"^pose x must be finite, got {bad!r}$"):
        Pose(bad, 0.0, 0.0)
    with pytest.raises(ValueError, match=f"^pose y must be finite, got {bad!r}$"):
        Pose(0.0, bad, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pose_names_a_non_finite_theta(bad):
    # used to read "angle must be finite, got nan", which named no field
    with pytest.raises(ValueError, match=f"^pose theta must be finite, got {bad!r}$"):
        Pose(0.0, 0.0, bad)
    with pytest.raises(ValueError, match=f"^pose x must be finite, got {bad!r}$"):
        Pose(bad, 0.0, bad)  # the first bad field is named


def test_vehicle_spec_validation():
    spec = VehicleSpec(2.0, 4.0)
    assert spec.max_turn_rate == pytest.approx(0.5)
    with pytest.raises(ValueError):
        VehicleSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        VehicleSpec(1.0, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vehicle_spec_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="speed"):
        VehicleSpec(speed=bad)
    with pytest.raises(ValueError, match="turning_radius"):
        VehicleSpec(turning_radius=bad)


def test_current_state_components():
    c = CurrentState(0.5, math.pi / 3)
    assert c.wx == pytest.approx(0.25)
    assert c.wy == pytest.approx(0.5 * math.sin(math.pi / 3))
    with pytest.raises(ValueError):
        CurrentState(-0.1, 0.0)


def test_current_state_components_are_derived():
    c = CurrentState(0.5, 7.0)
    assert repr(c) == f"CurrentState(speed=0.5, heading={7.0 - TWO_PI!r})"
    twin = CurrentState(0.5, 7.0)
    object.__setattr__(twin, "wx", 9.0)  # components take no part in == or hash
    object.__setattr__(twin, "wy", -9.0)
    assert twin == c and hash(twin) == hash(c)
    assert [f.name for f in dataclasses.fields(c) if f.init] == ["speed", "heading"]
    turned = dataclasses.replace(c, heading=math.pi / 2)
    assert (turned.wx, turned.wy) == (0.5 * math.cos(math.pi / 2), 0.5)
    slower = dataclasses.replace(c, speed=0.25)
    assert (slower.wx, slower.wy) == (0.25 * math.cos(c.heading), 0.25 * math.sin(c.heading))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
def test_current_state_rejects_bad_speed(bad):
    with pytest.raises(ValueError, match=f"^current speed must be finite and non-negative, got {bad!r}$"):
        CurrentState(bad, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_current_state_names_a_non_finite_heading(bad):
    with pytest.raises(ValueError, match=f"^current heading must be finite, got {bad!r}$"):
        CurrentState(0.5, bad)
    with pytest.raises(ValueError, match="^current speed must be finite and non-negative"):
        CurrentState(bad, bad)  # the speed is checked first


def test_pose_and_current_state_keep_the_value_type_contract():
    # replace, frozen fields, ==/hash/repr against field-by-field builds,
    # pickle and deepcopy, and wx/wy float for float.
    value_types.check_core(driftplan.core)


def test_contract_check_runs_on_core_loaded_alone():
    # The form the CI step runs on Pythons without numpy.
    alone = value_types.load_core()
    assert alone is not driftplan.core
    value_types.check_core(alone)


def test_schedule_validation():
    with pytest.raises(ValueError):
        CurrentSchedule(())
    with pytest.raises(ValueError):
        CurrentSchedule(((1.0, CurrentState(0.1, 0)),))  # must start at 0
    with pytest.raises(ValueError):
        CurrentSchedule(((0.0, CurrentState(0.1, 0)), (0.0, CurrentState(0.2, 0))))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_schedule_refuses_non_finite_start_time(bad):
    # A NaN start passed the ordering check, since t1 <= t0 is False for it.
    with pytest.raises(ValueError, match=f"^schedule t_start must be finite, got {bad!r}$"):
        CurrentSchedule(((0.0, CurrentState(0.1, 0)), (bad, CurrentState(0.2, 0))))


def test_current_at_change_epoch():
    sched = CurrentSchedule((
        (0.0, CurrentState(0.5, math.pi)),
        (3.2, CurrentState(0.75, 3 * math.pi / 2)),
    ))
    before = current_at(sched, 3.19)
    assert (before.speed, before.heading) == (0.5, math.pi)
    at = current_at(sched, 3.2)
    assert (at.speed, at.heading) == (0.75, 3 * math.pi / 2)
    after = current_at(sched, 1000.0)
    assert after.speed == 0.75


def test_current_at_constant_schedule():
    sched = CurrentSchedule.constant(CurrentState(0.3, 1.0))
    for t in (0.0, 5.0, 1e6):
        assert current_at(sched, t).speed == 0.3
    with pytest.raises(ValueError):
        current_at(sched, -1.0)


def test_to_start_frame_identity():
    goal = Pose(3.0, -2.0, 1.0)
    cur = CurrentState(0.4, 2.0)
    out_goal, out_cur = to_start_frame(Pose(0, 0, 0), goal, cur)
    assert (out_goal.x, out_goal.y, out_goal.theta) == (goal.x, goal.y, goal.theta)
    assert out_cur == cur


def test_to_start_frame_pure_translation():
    goal, cur = to_start_frame(
        Pose(1, 1, 0), Pose(3, 1, 0), CurrentState(0.5, math.pi / 2)
    )
    assert (goal.x, goal.y, goal.theta) == pytest.approx((2.0, 0.0, 0.0))
    assert cur.heading == pytest.approx(math.pi / 2)


def test_to_start_frame_rotation():
    goal, cur = to_start_frame(
        Pose(0, 0, math.pi / 2), Pose(0, 5, math.pi / 2), CurrentState(0.5, math.pi / 2)
    )
    assert goal.x == pytest.approx(5.0)
    assert goal.y == pytest.approx(0.0, abs=1e-12)
    assert goal.theta == pytest.approx(0.0, abs=1e-12)
    assert cur.heading == pytest.approx(0.0, abs=1e-12)


def test_frame_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(300):
        start = Pose(*rng.uniform(-10, 10, 2), rng.uniform(0, TWO_PI))
        pose = Pose(*rng.uniform(-10, 10, 2), rng.uniform(0, TWO_PI))
        local, _ = to_start_frame(start, pose, CurrentState(0, 0))
        back = from_start_frame(start, local)
        assert back.x == pytest.approx(pose.x, rel=1e-12, abs=1e-12)
        assert back.y == pytest.approx(pose.y, rel=1e-12, abs=1e-12)
        assert math.isclose(
            math.cos(back.theta - pose.theta), 1.0, abs_tol=1e-12
        )


def test_write_csv_fields_and_quoting_match_csv_writer(tmp_path):
    # Each column repeats its values, so a kept text is read back as well.
    rows = [
        ("plain", True, 1, 1.0, np.float64(0.1), None, -0.0),
        ('a,"b"', False, 0, 0.0, math.nan, np.float64(math.nan), 0.0),
        ("two\nlines", True, 1, 1.0, np.float64(0.1), math.inf, -math.inf),
        ("cr\r", False, -7, -0.0, 1e-300, 2.5, 0.0),
    ] * 2
    header = ("s", "flag", "int", "whole", "np", "missing", "zero")
    write_csv(tmp_path / "out.csv", header, rows)

    def field(x):
        if isinstance(x, (str, bool, int)):
            return str(int(x)) if isinstance(x, bool) else str(x)
        return "" if x is None or math.isnan(x) else repr(float(x))

    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([field(x) for x in row] for row in rows)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
