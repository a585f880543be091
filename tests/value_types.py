"""The contract of driftplan's frozen value types, checked with the standard
library alone.

Pose, CurrentState, PathSolution and ParamInterval are frozen dataclasses
with their own __init__: the planner's two set every field in one __dict__
update, core's two with object.__setattr__.  `check_value_type` pins what
dataclass still gives them: replace, ==, hash and repr against an instance
built field by field through object.__setattr__, the refusal of
assignment, and pickle and deepcopy round trips.
`check_current_components` pins CurrentState's wx and wy.

Run as a script, it loads src/driftplan/core.py on its own, since core
imports only the standard library, and checks Pose and CurrentState; so a
Python without numpy can check them:

    python tests/value_types.py
"""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import math
import pickle
import sys
from pathlib import Path


def built_field_by_field(cls, values: dict):
    """An instance of cls whose fields are set one at a time, as a frozen
    dataclass's generated __init__ sets them, bypassing cls.__init__."""
    obj = object.__new__(cls)
    for f in dataclasses.fields(cls):
        object.__setattr__(obj, f.name, values[f.name])
    return obj


def _same(a, b) -> None:
    assert type(a) is type(b), (type(a), type(b))
    assert a == b and hash(a) == hash(b), (a, b)
    assert repr(a) == repr(b), (repr(a), repr(b))
    # Every field, the ones outside ==, hash and repr included, float for float.
    assert list(map(repr, vars(a).items())) == list(map(repr, vars(b).items())), (vars(a), vars(b))


def check_value_type(cls, args: tuple, values: dict, changes: dict, changed_values: dict) -> None:
    """Check cls(*args) against the field values it should hold.

    values maps every field, init or not, to its expected value;
    dataclasses.replace(obj, **changes) should hold changed_values.
    """
    obj = cls(*args)
    _same(obj, built_field_by_field(cls, values))
    init = [f.name for f in dataclasses.fields(cls) if f.init]
    _same(cls(**{name: getattr(obj, name) for name in init}), obj)
    _same(dataclasses.replace(obj), obj)
    _same(dataclasses.replace(obj, **changes), built_field_by_field(cls, changed_values))
    for f in dataclasses.fields(cls):
        try:
            setattr(obj, f.name, values[f.name])
        except dataclasses.FrozenInstanceError:
            pass
        else:
            raise AssertionError(f"{cls.__name__}.{f.name} accepted an assignment")
    _same(obj, built_field_by_field(cls, values))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        _same(pickle.loads(pickle.dumps(obj, protocol)), obj)
    _same(copy.deepcopy(obj), obj)
    _same(copy.copy(obj), obj)


# Headings at the edges of normalize_angle: negative, a whole turn and more,
# tiny on either side of 0, and just below 2*pi.
HEADINGS = (0.0, -0.0, 1.0, -1.0, math.pi, -math.pi, 2.0 * math.pi, 7.0, -7.0, 1e-300,
            -1e-20, 2.0 * math.pi - 1e-15, 1e9, -1e9)


def check_current_components(core) -> None:
    """wx and wy are speed * cos and sin of the normalized heading, float
    for float, for every pair of HEADINGS and a few speeds."""
    for speed in (0.0, 0.25, 0.5, 0.9, 1.0 - 1e-9, 3.0):
        for heading in HEADINGS:
            c = core.CurrentState(speed, heading)
            h = core.normalize_angle(heading)
            assert repr((c.speed, c.heading, c.wx, c.wy)) == repr(
                (speed, h, speed * math.cos(h), speed * math.sin(h))), (speed, heading)


def check_core(core) -> None:
    """The contract for core's Pose and CurrentState."""
    norm = core.normalize_angle
    check_value_type(core.Pose, (1.5, -2.0, -math.pi / 2),
                     {"x": 1.5, "y": -2.0, "theta": norm(-math.pi / 2)},
                     {"theta": 9.0}, {"x": 1.5, "y": -2.0, "theta": norm(9.0)})
    check_value_type(core.Pose, (0, 0, 0), {"x": 0, "y": 0, "theta": 0.0},
                     {"x": 2.5}, {"x": 2.5, "y": 0, "theta": 0.0})
    h = norm(-1.0)
    check_value_type(core.CurrentState, (0.5, -1.0),
                     {"speed": 0.5, "heading": h, "wx": 0.5 * math.cos(h), "wy": 0.5 * math.sin(h)},
                     {"speed": 0.25},
                     {"speed": 0.25, "heading": h, "wx": 0.25 * math.cos(h),
                      "wy": 0.25 * math.sin(h)})
    check_current_components(core)


def load_core():
    """src/driftplan/core.py as a module of its own, without the package."""
    path = Path(__file__).resolve().parent.parent / "src" / "driftplan" / "core.py"
    spec = importlib.util.spec_from_file_location("driftplan_core_alone", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass and pickle look the module up
    spec.loader.exec_module(module)
    return module


if __name__ == "__main__":
    check_core(load_core())
    print(f"value-type contract holds for Pose and CurrentState on Python {sys.version.split()[0]}")
