"""In-memory span tracing of the library's layers, for the traced run.

The tracer wraps library functions from the outside: each wrapped call
records a span (name, start, end, parent) in flat arrays, and a few
wrappers also count work done.  A function imported into another module by
name is replaced in every driftplan module that holds it.  Self time is a
span's duration minus the time its child spans cover; calls are
single-threaded and properly nested, so that is the sum of the direct
children's durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

import driftplan.baseline as baseline
import driftplan.core as core
import driftplan.planner as planner
import driftplan.reachability as reachability
import driftplan.simulator as simulator
import driftplan.trajectory as trajectory

# (span name, module, function) for every wrapped layer boundary.
LAYERS = (
    ("planner.plan", planner, "plan"),
    ("planner.solve_one", planner, "solve_one"),
    ("planner.feasible_range", planner, "feasible_range"),
    ("reachability.reachability_map", reachability, "reachability_map"),
    ("reachability.parametric_scan", reachability, "parametric_scan"),
    ("reachability.full_reachability_2pi", reachability, "full_reachability_2pi"),
    ("baseline.solve_six", baseline, "solve_six"),
    ("baseline.multi_start_solve", baseline, "multi_start_solve"),
    ("baseline._batched_jacobian", baseline, "_batched_jacobian"),
    ("baseline._low_discrepancy_starts", baseline, "_low_discrepancy_starts"),
    ("simulator.run_scenario", simulator, "run_scenario"),
    ("simulator._advance", simulator, "_advance"),
    ("core.current_at", core, "current_at"),
    ("trajectory.controls_of", trajectory, "controls_of"),
)
RESIDUAL = "baseline.residual"  # the per-branch residual closures

# Per-layer metrics reported by the traced run: (name, kind, argument).
# kind "calls" and "self_s" read a span name; "counter" reads a counter;
# "ratio" divides a counter by a counter or by a span's call count.
METRICS = (
    ("planner.plan.calls", "calls", "planner.plan"),
    ("planner.plan.self_s", "self_s", "planner.plan"),
    ("planner.solve_one.calls", "calls", "planner.solve_one"),
    ("planner.solve_one.self_s", "self_s", "planner.solve_one"),
    ("planner.solve_one.feasible_ratio", "ratio", ("solve_one.feasible", "planner.solve_one")),
    ("planner.feasible_range.calls", "calls", "planner.feasible_range"),
    ("planner.feasible_range.self_s", "self_s", "planner.feasible_range"),
    ("reachability.reachability_map.self_s", "self_s", "reachability.reachability_map"),
    ("reachability.reachability_map.cells", "counter", "reachability_map.cells"),
    ("reachability.parametric_scan.self_s", "self_s", "reachability.parametric_scan"),
    ("reachability.full_reachability_2pi.calls", "calls", "reachability.full_reachability_2pi"),
    ("reachability.full_reachability_2pi.self_s", "self_s", "reachability.full_reachability_2pi"),
    ("reachability.full_reachability_2pi.reachable_ratio", "ratio",
     ("full_reachability_2pi.reachable", "reachability.full_reachability_2pi")),
    ("baseline.solve_six.calls", "calls", "baseline.solve_six"),
    ("baseline.solve_six.self_s", "self_s", "baseline.solve_six"),
    ("baseline.multi_start_solve.calls", "calls", "baseline.multi_start_solve"),
    ("baseline.multi_start_solve.self_s", "self_s", "baseline.multi_start_solve"),
    ("baseline.multi_start_solve.roots_per_start", "ratio",
     ("multi_start_solve.roots", "multi_start_solve.starts")),
    ("baseline.residual_rows", "counter", "residual.rows"),
    ("baseline.residual.self_s", "self_s", RESIDUAL),
    ("baseline._batched_jacobian.calls", "calls", "baseline._batched_jacobian"),
    ("baseline._batched_jacobian.self_s", "self_s", "baseline._batched_jacobian"),
    ("baseline._low_discrepancy_starts.self_s", "self_s", "baseline._low_discrepancy_starts"),
    ("simulator.run_scenario.self_s", "self_s", "simulator.run_scenario"),
    ("simulator._advance.calls", "calls", "simulator._advance"),
    ("simulator._advance.self_s", "self_s", "simulator._advance"),
    ("simulator.replans", "counter", "run_scenario.replans"),
    ("core.current_at.calls", "calls", "core.current_at"),
    ("core.current_at.self_s", "self_s", "core.current_at"),
    ("trajectory.controls_of.calls", "calls", "trajectory.controls_of"),
    ("trajectory.controls_of.self_s", "self_s", "trajectory.controls_of"),
)


def unit_of(metric: str) -> str:
    if metric.endswith("self_s"):
        return "s"
    if metric.endswith("_ratio") or metric.endswith("per_start"):
        return "ratio"
    return "count"


def _count_result(counters, name, args, result):
    """Work counters taken from a wrapped call's arguments and result."""
    if name == "planner.solve_one":
        counters["solve_one.feasible"] += result is not None
    elif name == "reachability.reachability_map":
        counters["reachability_map.cells"] += result.travel_time.size
    elif name == "reachability.full_reachability_2pi":
        counters["full_reachability_2pi.reachable"] += result.fully_reachable
    elif name == "baseline.multi_start_solve":
        counters["multi_start_solve.roots"] += len(result)
        counters["multi_start_solve.starts"] += args[2].n_initial_guesses
    elif name == "simulator.run_scenario":
        counters["run_scenario.replans"] += result.replan_count


class Tracer:
    """Span recorder; spans are recorded while the wrappers are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, count: bool = True):
        nid = self._id(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if count:
                _count_result(counters, name, args, result)
            return result

        return traced

    def _wrap_residual_factory(self, factory):
        """Wrap each residual closure the factory builds, counting its rows."""
        counters = self.counters

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            fn = self._wrap(RESIDUAL, factory(*args, **kwargs), count=False)

            def residual(u):
                counters["residual.rows"] += len(u)
                return fn(u)

            return residual

        return traced_factory

    def _patch_list(self):
        """(module, attribute, original, wrapper) for every place a layer is bound."""
        wrappers = {}
        for name, module, attr in LAYERS:
            fn = getattr(module, attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        factory = baseline._branch_residual
        wrappers[id(factory)] = (factory, self._wrap_residual_factory(factory))
        patches = []
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "driftplan" and not mod_name.startswith("driftplan."):
                continue
            for attr, value in vars(module).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    patches.append((module, attr, value, wrappers[id(value)][1]))
        return patches

    def install(self) -> None:
        """Replace every layer function by its wrapper in all driftplan modules.

        The wrappers are built on the first call; later calls only rebind
        them, so the traced run can switch tracing on and off per operation.
        """
        if not self._patches:
            self._patches = self._patch_list()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _arrays(self):
        return (np.array(self.name_id, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        names, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

    def metrics(self, time_scale: float = 1.0) -> dict[str, float]:
        """Every per-layer metric in METRICS; layers never called read 0.

        Self times are multiplied by time_scale.
        """
        spans = self.self_times()
        out = {}
        for metric, kind, arg in METRICS:
            if kind == "calls":
                out[metric] = spans.get(arg, (0, 0.0))[0]
            elif kind == "self_s":
                out[metric] = spans.get(arg, (0, 0.0))[1] * time_scale
            elif kind == "counter":
                out[metric] = int(self.counters[arg])
            else:
                num, den = arg
                den_value = spans[den][0] if den in spans else self.counters[den]
                out[metric] = self.counters[num] / den_value if den_value else 0.0
        return out

    def write(self, path: Path) -> None:
        """Write the recorded spans as an .npz of flat arrays plus span names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names, parent, start, end = self._arrays()
        np.savez(path, name_id=names, parent=parent, start=start, end=end,
                 names=np.array(json.dumps(self.names)))
