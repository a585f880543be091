"""Shared domain types, angle arithmetic, current-schedule evaluation, and
the CSV format of every artifact.

Pose and CurrentState are built several times per plan, so each has its own
__init__: it checks and normalizes its arguments and sets each field once,
with no __post_init__ pass over fields already set.  It sets them with
object.__setattr__, as a frozen dataclass's generated __init__ does, and
not with one __dict__ update as planner's PathSolution does: an update
gives every instance a dict of its own (about 140 bytes more per instance
on CPython 3.11), and callers hold many poses and currents.  dataclass
keeps a class's own __init__, so replace, ==, hash, repr, pickling and the
refusal of assignment stay as dataclass makes them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import getitem

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

# Largest grid, scan or sampled trajectory built; a tiny step would
# otherwise ask for ~10^10 cells or samples.
MAX_CELLS = 10**7


def normalize_angle(a: float) -> float:
    """Reduce an angle to the canonical range [0, 2*pi)."""
    if not math.isfinite(a):
        raise ValueError(f"angle must be finite, got {a!r}")
    r = math.fmod(a, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r >= TWO_PI:  # fmod rounding can land exactly on 2*pi
        r = 0.0
    return r


def check_finite(name: str, value: float, positive: bool = False) -> None:
    """Refuse a value that is not finite and non-negative (positive, if
    asked), with a message that names it."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {sign}, got {value!r}")


def check_count(count: float, request: str, unit: str) -> None:
    """Refuse a request for more than MAX_CELLS units, counted before any is built."""
    if not count <= MAX_CELLS:
        raise ValueError(f"{request} asks for {count:.3g} {unit},"
                         f" above the cap of {MAX_CELLS:.0e}")


def angle_input(radians, degrees, name: str, degrees_name: str):
    """An angle given either in radians or in degrees (the other None), in
    radians.  The one given, a float or a tuple of floats, must be finite;
    messages name it as given, say --theta-f-deg or goal theta.
    """
    if radians is not None and degrees is not None:
        raise ValueError(f"give either {name} or {degrees_name}, not both")
    if radians is None and degrees is None:
        raise ValueError(f"missing {name}")
    value, given = (radians, name) if degrees is None else (degrees, degrees_name)
    for v in value if isinstance(value, tuple) else (value,):
        if not math.isfinite(v):
            raise ValueError(f"{given} must be finite, got {v!r}")
    if degrees is None:
        return radians
    return tuple(map(math.radians, degrees)) if isinstance(degrees, tuple) else math.radians(degrees)


def angle_difference(a: float, b: float) -> float:
    """Minimal circular distance between two angles, in [0, pi]."""
    d = math.fmod(a - b, TWO_PI)
    if d < 0.0:
        d += TWO_PI
    return min(d, TWO_PI - d)


@dataclass(frozen=True)
class Pose:
    """Planar position plus heading; x and y finite, theta normalized to
    [0, 2*pi)."""

    x: float
    y: float
    theta: float

    def __init__(self, x: float, y: float, theta: float):
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(theta)):
            for name, value in (("x", x), ("y", y), ("theta", theta)):
                if not math.isfinite(value):
                    raise ValueError(f"pose {name} must be finite, got {value!r}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "theta", normalize_angle(theta))


@dataclass(frozen=True)
class VehicleSpec:
    """Constant-speed vehicle with a minimum turning radius."""

    speed: float = 1.0
    turning_radius: float = 1.0

    def __post_init__(self):
        for name in ("speed", "turning_radius"):
            check_finite(f"vehicle {name}", getattr(self, name), positive=True)

    @property
    def max_turn_rate(self) -> float:
        return self.speed / self.turning_radius


@dataclass(frozen=True)
class CurrentState:
    """Uniform current given by speed and heading; heading normalized.

    wx and wy, the velocity components, are computed once from the two;
    they take no part in repr, == or hash.
    """

    speed: float
    heading: float
    wx: float = field(init=False, repr=False, compare=False)
    wy: float = field(init=False, repr=False, compare=False)

    def __init__(self, speed: float, heading: float):
        check_finite("current speed", speed)
        if not math.isfinite(heading):
            raise ValueError(f"current heading must be finite, got {heading!r}")
        heading = normalize_angle(heading)
        object.__setattr__(self, "speed", speed)
        object.__setattr__(self, "heading", heading)
        object.__setattr__(self, "wx", speed * math.cos(heading))
        object.__setattr__(self, "wy", speed * math.sin(heading))


@dataclass(frozen=True)
class CurrentSchedule:
    """Piecewise-constant-in-time current: ordered (t_start, state) entries.

    The first entry must start at t = 0 and start times must be finite and
    strictly increasing.  Evaluation is right-continuous: the state
    beginning exactly at t applies at t.  starts holds the start times, in
    order.
    """

    entries: tuple[tuple[float, CurrentState], ...]
    starts: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("schedule must contain at least one entry")
        entries = tuple((float(t), s) for t, s in self.entries)
        for t, _ in entries:
            if not math.isfinite(t):
                raise ValueError(f"schedule t_start must be finite, got {t!r}")
        if entries[0][0] != 0.0:
            raise ValueError(f"schedule entry 0 t_start must be 0, got {entries[0][0]!r}")
        for i, ((t0, _), (t1, _)) in enumerate(zip(entries, entries[1:]), 1):
            if t1 <= t0:
                raise ValueError(f"schedule entry {i} t_start {t1!r} must be later than"
                                 f" entry {i - 1}'s {t0!r}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "starts", tuple(t for t, _ in entries))

    @staticmethod
    def constant(state: CurrentState) -> "CurrentSchedule":
        return CurrentSchedule(((0.0, state),))


def current_at(schedule: CurrentSchedule, t: float) -> CurrentState:
    """Current state in effect at time t (right-continuous lookup)."""
    if t < 0.0:
        raise ValueError("time must be non-negative")
    return schedule.entries[bisect_right(schedule.starts, t) - 1][1]


def to_start_frame(
    start: Pose, goal: Pose, current: CurrentState
) -> tuple[Pose, CurrentState]:
    """Express goal and current in the frame where start is (0, 0, 0).

    Translates by -(start.x, start.y) and rotates by -start.theta; the
    current heading rotates with the frame while its speed is unchanged.
    A goal whose squared offset from the start overflows is refused.
    """
    dx = goal.x - start.x
    dy = goal.y - start.y
    c = math.cos(start.theta)
    s = math.sin(start.theta)
    x, y = c * dx + s * dy, -s * dx + c * dy
    if not math.isfinite(x * x + y * y):
        raise ValueError(f"goal {goal!r} is too far from start {start!r}: "
                         "the squared offset is not finite")
    local = Pose(x, y, goal.theta - start.theta)
    local_current = CurrentState(current.speed, current.heading - start.theta)
    return local, local_current


def from_start_frame(start: Pose, pose: Pose) -> Pose:
    """Inverse of to_start_frame for poses: map a start-frame pose to the world."""
    c = math.cos(start.theta)
    s = math.sin(start.theta)
    return Pose(
        start.x + c * pose.x - s * pose.y,
        start.y + s * pose.x + c * pose.y,
        pose.theta + start.theta,
    )


class _Column(dict):
    """The CSV field of each value written in one column, made on its first
    lookup: a string as it is, quoted as csv does when it holds a comma, a
    quote or a line end; a bool as 0 or 1; an int with str; None and NaN
    empty; any other number, numpy floats included, as repr(float(x)).
    Only strings and floats that are not whole are kept, since equal values
    share a key while their texts can differ: 1.0 == 1 == True, 0.0 == -0.0.
    """

    def __missing__(self, x):
        if isinstance(x, float):  # numpy's float64 included
            if x != x:
                return ""
            text = repr(float(x))
            if x.is_integer():
                return text
        elif isinstance(x, str):
            text = '"' + x.replace('"', '""') + '"' if any(c in x for c in ',"\r\n') else x
        elif isinstance(x, int):  # bools included
            return str(int(x))
        else:  # None, or a number of another type
            return "" if x is None else self[float(x)]
        if len(self) < 4096:  # a lattice axis's few hundred values, not a time per row
            self[x] = text
        return text


def write_csv(path, header, rows) -> None:
    """Write a header row and then each row of values to path as CSV with
    CRLF line ends, each field by the rule of `_Column`."""
    columns = [_Column() for _ in header]
    with open(path, "w", newline="") as fh:
        for row in chain((header,), rows):
            fh.write(",".join(map(getitem, columns, row)) + "\r\n")
