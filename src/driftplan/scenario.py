"""What a mission is, and the JSON document that states one.

A `Scenario` holds everything one simulated mission needs: start, goal,
vehicle, the current (a fixed schedule or a `RandomCurrentProcess`), sensor
noise, latencies and stopping rules.  `scenario_from_dict` and
`load_scenario` read its document form, passing each type only the fields
its JSON object holds, so the types' own defaults and checks apply.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields

from .baseline import LatencyModel
from .core import (CurrentSchedule, CurrentState, Pose, VehicleSpec, angle_input, check_count,
                   check_finite)

PLANNER_KINDS = ("analytic_4pi", "dubins_six")


@dataclass(frozen=True)
class NoiseModel:
    """Additive white Gaussian sensor noise parameters."""

    sigma_position: float = 0.0
    sigma_heading: float = 0.0
    sigma_vw_relative: float = 0.0
    sigma_thetaw: float = 0.0
    sample_rate: float = 1.0

    def __post_init__(self):
        for name in ("sigma_position", "sigma_heading", "sigma_vw_relative", "sigma_thetaw"):
            check_finite(name, getattr(self, name))
        check_finite("sample_rate", self.sample_rate, positive=True)


@dataclass(frozen=True)
class RandomCurrentProcess:
    """Current that re-draws its heading after random hold periods."""

    initial: CurrentState
    headings: tuple[float, ...] = tuple(m * math.pi / 6 for m in range(12))
    periods: tuple[float, ...] = (30.0, 45.0, 60.0)

    def __post_init__(self):
        for name in ("headings", "periods"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for heading in self.headings:  # any finite angle; it is normalized when drawn
            if not math.isfinite(heading):
                raise ValueError(f"headings must be finite, got {heading!r}")
        for period in self.periods:
            check_finite("periods", period, positive=True)


@dataclass(frozen=True)
class Scenario:
    """Everything one simulated mission needs.

    initial_compute_latency False starts the mission with a plan already in
    hand (only replans cost compute time); True charges the first plan's
    compute time too, with the vehicle holding at the deployment point
    while the planner runs.  Replans always happen in-water: the vehicle
    drifts along the net velocity for the compute duration.
    """

    start: Pose
    goal: Pose
    vehicle: VehicleSpec
    current_process: CurrentSchedule | RandomCurrentProcess
    noise: NoiseModel = NoiseModel()
    precision_radius: float = 1.0
    heading_tolerance: float = math.radians(5.0)
    t_max: float = 1000.0
    estimation_window: float = 12.0
    latency: LatencyModel = LatencyModel()
    planner: str = "analytic_4pi"
    initial_compute_latency: bool = False

    def __post_init__(self):
        check_finite("precision_radius", self.precision_radius, positive=True)
        check_finite("heading_tolerance", self.heading_tolerance)
        if self.planner not in PLANNER_KINDS:
            raise ValueError(f"planner must be one of {PLANNER_KINDS}")
        check_finite("t_max", self.t_max, positive=True)
        check_finite("estimation_window", self.estimation_window)
        # no estimation window runs past t_max, so none takes more samples
        window = min(self.estimation_window, self.t_max)
        check_count(window * self.noise.sample_rate, f"sample_rate {self.noise.sample_rate!r}"
                    f" over an estimation_window of {window!r} s", "samples")



# Fields that hold angles; a document may give each in degrees as <name>_deg.
_ANGLE_FIELDS = frozenset(
    ("theta", "heading", "headings", "heading_tolerance", "sigma_heading", "sigma_thetaw"))


def _object(doc, where: str) -> dict:
    """A copy of a JSON object; anything else is refused by name."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object, got {doc!r}")
    return dict(doc)


def _value(kind: str, value, name: str):
    """A document value as a field annotated kind takes it, numbers through
    float() and finite; a value of the wrong shape is refused by name."""
    if kind == "tuple[float, ...]":
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a list of numbers, got {value!r}")
        return tuple(_value("float", v, name) for v in value)
    if kind == "bool" and not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    if kind != "float":
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer beyond the float range") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number!r}")
    return number


def _read(cls, doc, where: str, **built):
    """cls from a JSON object: the fields built from it plus those it holds.

    Only the fields the object holds are passed, so the others take cls's
    defaults and cls's own checks judge every value.  The caller removes
    the keys it built from; a key that no other field takes is refused.
    """
    doc, kwargs, keys = _object(doc, where), dict(built), set()
    for f in (f for f in fields(cls) if f.init and f.name not in built):
        name, deg = f.name, f"{f.name}_deg"
        required = f.default is MISSING
        keys.add(name)
        if name in _ANGLE_FIELDS:
            keys.add(deg)
            if required or name in doc or deg in doc:
                given = (_value(f.type, doc[k], f"{where} {k}") if k in doc else None
                         for k in (name, deg))
                kwargs[name] = angle_input(*given, f"{where} {name}", f"{where} {deg}")
        elif name in doc:
            kwargs[name] = _value(f.type, doc[name], f"{where} {name}")
        elif required:
            raise ValueError(f"missing {where} {name}")
    unknown = sorted(doc.keys() - keys)
    if unknown:
        raise ValueError(f"{where} has no field {unknown[0]!r}")
    return _build(where, cls, **kwargs)


def _build(where: str, cls, *args, **kwargs):
    """cls(*args, **kwargs), a refusal of its own checks prefixed with where:
    cls names the field, but not where the document holds it."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _schedule_entry(doc, where: str) -> tuple[float, CurrentState]:
    state = _object(doc, where)
    t_start = _value("float", state.pop("t_start", None), f"{where} t_start")
    return t_start, _read(CurrentState, state, where)


def _process(doc) -> RandomCurrentProcess:
    rest = _object(doc, "current_process")
    initial = {} if "heading_deg" in rest else {"heading": 0.0}  # the one default no type holds
    initial.update({k: rest.pop(k) for k in ("speed", "heading", "heading_deg") if k in rest})
    return _read(RandomCurrentProcess, rest, "current_process",
                 initial=_read(CurrentState, initial, "current_process"))


def scenario_from_dict(d: dict) -> Scenario:
    """Build a Scenario from its JSON document form.

    The document mirrors the types: each object passes its type only the
    fields it holds, and an angle field may be given in degrees as
    <name>_deg.  The current is a current_schedule, a list of entries
    {t_start, speed, heading}, or a current_process {speed, heading,
    headings, periods}, whose heading is 0 unless given.
    """
    doc = _object(d, "scenario")
    if ("current_schedule" in doc) == ("current_process" in doc):
        raise ValueError("scenario needs one of current_schedule and current_process")
    if "current_process" in doc:
        built = {"current_process": _process(doc.pop("current_process"))}
    else:
        entries = doc.pop("current_schedule")
        if not isinstance(entries, list):
            raise ValueError(f"current_schedule must be a list, got {entries!r}")
        entries = tuple(_schedule_entry(e, f"current_schedule[{i}]") for i, e in enumerate(entries))
        built = {"current_process": _build("current_schedule", CurrentSchedule, entries)}
    for name, cls in (("start", Pose), ("goal", Pose), ("vehicle", VehicleSpec),
                      ("noise", NoiseModel), ("latency", LatencyModel)):
        if name in doc:
            built[name] = _read(cls, doc.pop(name), name)
    return _read(Scenario, doc, "scenario", **built)


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
