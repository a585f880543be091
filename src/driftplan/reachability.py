"""Reachable-region geometry for 2*pi-arc LSL/RSR paths.

For a fixed first-arc angle the reachable goal positions form a ray from a
fixed rotation center; sweeping the arc angle rotates the ray (ccw for LSL,
cw for RSR), so each (path type, winding index) yields an angular sector.
This module builds those sectors, classifies the major/minor one per path
type, and rasterizes reachability and travel-time grids.  The eight
closed-form full-coverage predicates are defined once, by the array kernel
`_coverage_rows`: a scan runs it over a lattice, and full_reachability_2pi
over one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import (TWO_PI, CurrentState, Pose, VehicleSpec, check_count, check_finite,
                   normalize_angle, write_csv)
from .planner import (
    WINDING_CANDIDATES,
    ArcMode,
    PathType,
    _normalize_angles,
    _normalize_problem,
    coeffs,
    feasible_range,
    first_turn_sign,
    plan_goals,
    solve_one,  # noqa: F401  -- benchmarks/selftest.py asserts it is bound here
)

# Angular tolerance for closed-interval membership and full-circle detection.
ANGLE_TOL = 1e-12

FULL_REACH_CASES = ("1.1", "1.2", "2.1", "2.2", "3.1", "3.2", "4.1", "4.2")

# Cells per plan_goals call of reachability_map (about 20 rows of the
# default 201-column grid), and lattice rows per _coverage_rows call of
# parametric_scan, which bounds the kernels' temporaries.
_BLOCK_CELLS = 4096

# _coverage_rows flags a comparison as fragile when its two sides lie within
# this margin.  numpy's sin, cos and fmod give math's bits (the tests pin the
# kernel to a scalar loop of math calls, so a platform where they do not fails
# there); atan2 does not: np.arctan2 differs from math.atan2 in the last bit
# on about 7% of inputs, by 1 ulp at most over 2*10^5 random inputs on
# x86-64 with numpy 2.4.  Each side of a comparison is at most two atan2
# values combined by at most six roundings at magnitudes below 4*pi, so it
# differs between the two forms by under 1e-14 while atan2 stays within a
# few ulp; sides further apart than the margin compare alike in both.  The
# fragile rows are decided by the kernel again with math.atan2, the bits
# full_reachability_2pi decides every row with.
_FRAGILE_MARGIN = 1e-9


def _math_atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """math.atan2 elementwise, as a float array: full_reachability_2pi's bits."""
    return np.frompyfunc(math.atan2, 2, 1)(y, x).astype(float)

# Dominant label per plan_goals winner code; code -1 (no path) picks the last.
_LABELS = np.array([t.value for t in WINDING_CANDIDATES] + ["unreachable"], dtype=object)


@dataclass(frozen=True)
class RegionDescriptor:
    """One swept sector: center, boundary ray rotations, and sweep sense."""

    path_type: PathType
    k: int
    center: tuple[float, float]
    omega_start: float
    omega_end: float
    sweep: str  # "ccw" for LSL, "cw" for RSR
    covers_full_circle: bool


@dataclass(frozen=True)
class ReachGrid:
    """Rasterized reachability/cost data over a goal-position grid."""

    xs: np.ndarray
    ys: np.ndarray
    dominant: np.ndarray  # shape (len(ys), len(xs)) of "LSL"/"RSR"/"unreachable"
    travel_time: np.ndarray  # same shape; NaN where unreachable

    def unreachable_count(self) -> int:
        return int((self.dominant == "unreachable").sum())

    def write_csv(self, path) -> None:
        xs = self.xs.tolist()
        rows = zip(self.ys.tolist(), self.dominant.tolist(), self.travel_time.tolist())
        write_csv(path, ("x", "y", "dominant", "T"),
                  (c for y, labels, times in rows for c in zip(xs, repeat(y), labels, times)))


@dataclass(frozen=True)
class FullReachability:
    """Outcome of the closed-form 2*pi coverage predicates."""

    satisfied_cases: frozenset[str]
    fully_reachable: bool
    degenerate: bool = False


def center(
    path_type: PathType, k: int, theta_f: float, current: CurrentState, r: float
) -> tuple[float, float]:
    """Rotation center of the reachability ray for one (path type, k).

    It is -(A, B) of `coeffs` for a goal at the origin; theta_f is
    normalized to [0, 2*pi), as Pose does it.
    """
    a, b = coeffs(path_type, k, Pose(0.0, 0.0, theta_f), current, r)
    return -a, -b


def _ray_terms(s: int, alpha, wx, wy, num):
    """(y, x) whose atan2 is omega for first-turn sign s; num is math or
    numpy, whose sin and cos it calls, so floats and arrays share it."""
    return s * num.sin(alpha) + wy, num.cos(alpha) + wx


def omega(path_type: PathType, alpha: float, current: CurrentState) -> float:
    """Rotation of the reachability ray at first-arc angle alpha, in [0, 2*pi).

    Independent of the winding index; strictly ccw in alpha for LSL and cw
    for RSR whenever the current is slower than the vehicle.
    """
    s = first_turn_sign(path_type)
    return normalize_angle(math.atan2(*_ray_terms(s, alpha, current.wx, current.wy, math)))


def opposite(delta: float) -> float:
    """Rotation of a ray direction by pi, normalized to [0, 2*pi)."""
    return normalize_angle(delta + math.pi)


def _ccw_offset(start: float, x: float) -> float:
    """Counterclockwise angle from start to x, in [0, 2*pi)."""
    return normalize_angle(x - start)


def _in_ccw_interval(start: float, end: float, x: float) -> bool:
    """Whether x lies in the closed ccw interval from start to end."""
    span = _ccw_offset(start, end)
    off = _ccw_offset(start, x)
    return off <= span + ANGLE_TOL or off >= TWO_PI - ANGLE_TOL


def region_span(
    path_type: PathType,
    k: int,
    theta_f: float,
    current: CurrentState,
    r: float,
    kappa: float,
) -> RegionDescriptor:
    """Sector swept by the reachability ray over the feasible alpha range."""
    interval = feasible_range(path_type, k, theta_f, kappa)
    sweep = "ccw" if path_type is PathType.LSL else "cw"
    full = (interval.upper - interval.lower) >= TWO_PI - ANGLE_TOL
    return RegionDescriptor(
        path_type,
        k,
        center(path_type, k, theta_f, current, r),
        omega(path_type, interval.lower, current),
        omega(path_type, interval.upper, current),
        sweep,
        full,
    )


def _ccw_bounds(region: RegionDescriptor) -> tuple[float, float]:
    """A sector's boundary rotations in ccw order (a cw sweep reversed)."""
    if region.sweep == "ccw":
        return region.omega_start, region.omega_end
    return region.omega_end, region.omega_start


def sweep_extent(region: RegionDescriptor) -> float:
    """Unwrapped angular width of a sector, in [0, 2*pi]."""
    if region.covers_full_circle:
        return TWO_PI
    return _ccw_offset(*_ccw_bounds(region))


def contains(region: RegionDescriptor, point: tuple[float, float]) -> bool:
    """Whether a goal position lies inside a swept sector.

    The sector apex itself is always contained (zero-length straight
    segment).  Boundary rays are treated as inclusive.
    """
    if region.covers_full_circle:
        return True
    px, py = region.center
    dx = point[0] - px
    dy = point[1] - py
    if math.hypot(dx, dy) <= ANGLE_TOL:
        return True
    return _in_ccw_interval(*_ccw_bounds(region), normalize_angle(math.atan2(dy, dx)))


def classify_major_minor(
    path_type: PathType, theta_f: float, current: CurrentState, r: float
) -> tuple[int, int]:
    """Winding indices of the larger and smaller 2*pi sector of a path type.

    Ties (isolated theta_f values) resolve toward k=0 for LSL and k=-1 for
    RSR for determinism.
    """
    major = _major_sectors(theta_f, current, r)[path_type][0].k
    (minor,) = (k for k in WINDING_CANDIDATES[path_type] if k != major)
    return major, minor


def _major_sectors(
    theta_f: float, current: CurrentState, r: float
) -> dict[PathType, tuple[RegionDescriptor, float]]:
    """Each path type's major 2*pi sector and its sweep extent.

    Builds each of the four sectors once; a tie picks the first winding
    index.
    """
    out = {}
    for path_type, ks in WINDING_CANDIDATES.items():
        regions = [region_span(path_type, k, theta_f, current, r, TWO_PI) for k in ks]
        extents = [sweep_extent(region) for region in regions]
        major = 0 if extents[0] >= extents[1] else 1
        out[path_type] = regions[major], extents[major]
    return out


def _phi_terms(case: str, theta_f, wx, wy, num):
    """(y, x) whose atan2 is phi for a case; num is math or numpy, as in
    _ray_terms."""
    if case in ("1.1", "2.1"):
        return wy, wx
    if case in ("1.2", "2.2"):
        return -wy, -wx
    if case in ("3.1", "3.2"):
        return (num.cos(theta_f) - 1.0 + wy * (math.pi - theta_f),
                -num.sin(theta_f) + wx * (math.pi - theta_f))
    if case in ("4.1", "4.2"):
        return (1.0 - num.cos(theta_f) - wy * (math.pi - theta_f),
                num.sin(theta_f) - wx * (math.pi - theta_f))
    raise ValueError(f"unknown case {case!r}")


def phi(case: str, theta_f: float, current: CurrentState, r: float) -> float:
    """Rotation of the segment joining the major and minor sector centers.

    Closed forms per predicate case; cases 1.x/2.x are undefined for zero
    current (the centers coincide along the current direction).
    """
    wx, wy = current.wx, current.wy
    terms = _phi_terms(case, theta_f, wx, wy, math)
    if case in ("1.1", "1.2", "2.1", "2.2") and wx == 0.0 and wy == 0.0:
        raise ValueError("phi is degenerate for zero current in cases 1 and 2")
    return normalize_angle(math.atan2(*terms))


# Per case: path type owning the major sector and the winding index the case
# presumes for it.
_CASE_MAJOR = {
    "1.1": (PathType.LSL, 0),
    "1.2": (PathType.LSL, 1),
    "2.1": (PathType.RSR, -1),
    "2.2": (PathType.RSR, -2),
    "3.1": (PathType.LSL, 0),
    "3.2": (PathType.LSL, 1),
    "4.1": (PathType.RSR, -1),
    "4.2": (PathType.RSR, -2),
}


def _shadow_interval(region: RegionDescriptor) -> tuple[float, float]:
    """Ccw interval of directions whose sector placement covers the gap.

    The gap of a major sector (the directions it misses) spans at most pi;
    rotating its boundaries by pi gives the cone in which the complementary
    sector's center must lie to cover that gap.
    """
    start, end = _ccw_bounds(region)
    return opposite(end), opposite(start)


def full_reachability_2pi(
    theta_f: float, current: CurrentState, r: float
) -> FullReachability:
    """Evaluate the eight coverage predicates for 2*pi-arc LSL/RSR paths.

    A case is satisfied when its presumed major sector matches the actual
    one and the center-joining rotation phi falls inside the major sector's
    pi-rotated gap; any satisfied case means every goal position is
    reachable.  Zero current is reported degenerate and fully reachable.
    The predicates are one row of `_coverage_rows` on math.atan2; no
    turning radius r changes the outcome.
    """
    if not math.isfinite(theta_f):
        raise ValueError(f"theta_f must be finite, got {theta_f!r}")
    if current.speed == 0.0:
        return FullReachability(frozenset(), True, degenerate=True)
    held = _coverage_rows(np.array([theta_f]), np.array([current.wx]), np.array([current.wy]),
                          _math_atan2)[0][0].tolist()
    satisfied = frozenset(case for case, ok in zip(FULL_REACH_CASES, held) if ok)
    return FullReachability(satisfied, bool(satisfied))


def _coverage_rows(
    theta_f: np.ndarray, wx: np.ndarray, wy: np.ndarray, atan2
) -> tuple[np.ndarray, np.ndarray]:
    """The eight coverage predicates over arrays of rows with a nonzero current.

    Each row is a goal heading and a unit-speed current (wx, wy).  Builds
    the four 2*pi sectors from the feasible_range bounds, picks each path
    type's major, and tests its cases.  atan2 is np.arctan2, or _math_atan2
    for math.atan2's bits.  Returns per row which of FULL_REACH_CASES hold,
    a bool column per case in that order, and whether the row is fragile: a
    comparison fed by atan2 lies within _FRAGILE_MARGIN of its threshold and
    no case holds without one, so only math.atan2's bits can decide the row.
    """
    margin = _FRAGILE_MARGIN
    held_cases = np.zeros(theta_f.shape + (len(FULL_REACH_CASES),), dtype=bool)
    fragile = np.zeros(theta_f.shape, dtype=bool)
    sure = np.zeros(theta_f.shape, dtype=bool)  # a case holds with no fragile comparison
    for path_type, ks in WINDING_CANDIDATES.items():
        s = first_turn_sign(path_type)
        sectors = []
        shaky = np.zeros(theta_f.shape, dtype=bool)  # the major or its width is fragile
        for k in ks:
            interval = feasible_range(path_type, k, theta_f, TWO_PI)
            lo, up = interval.lower, interval.upper
            full = (up - lo) >= TWO_PI - ANGLE_TOL
            bounds = [_normalize_angles(atan2(*_ray_terms(s, alpha, wx, wy, np)))
                      for alpha in (lo, up)]
            start, end = bounds if s > 0 else bounds[::-1]  # _ccw_bounds
            extent = np.where(full, TWO_PI, _normalize_angles(end - start))
            # Bounds at one alpha have equal rotations: an exactly empty sector.
            shaky |= ~full & (lo != up) & ((extent <= margin) | (extent >= TWO_PI - margin))
            sectors.append((start, end, extent))
        (start0, end0, extent0), (start1, end1, extent1) = sectors
        first = extent0 >= extent1  # _major_sectors
        shaky |= np.abs(extent0 - extent1) <= margin
        start, end = np.where(first, start0, start1), np.where(first, end0, end1)
        wide = np.where(first, extent0, extent1) >= TWO_PI - ANGLE_TOL
        shadow_start = _normalize_angles(end + math.pi)  # _shadow_interval
        span = _normalize_angles(_normalize_angles(start + math.pi) - shadow_start)
        span_shaky = (span <= margin) | (span >= TWO_PI - margin)
        # One case per major winding index in each family, as _CASE_MAJOR pairs them.
        by_major = [[c for c in FULL_REACH_CASES if _CASE_MAJOR[c] == (path_type, k)]
                    for k in ks]
        for case0, case1 in zip(*by_major):
            (y0, x0), (y1, x1) = (_phi_terms(c, theta_f, wx, wy, np) for c in (case0, case1))
            off = _normalize_angles(atan2(np.where(first, y0, y1), np.where(first, x0, x1))
                                    - shadow_start)
            held = wide | (off <= span + ANGLE_TOL) | (off >= TWO_PI - ANGLE_TOL)
            near = ~wide & (span_shaky | (np.abs(off - (span + ANGLE_TOL)) <= margin)
                            | (np.abs(off - (TWO_PI - ANGLE_TOL)) <= margin))
            held_cases[..., FULL_REACH_CASES.index(case0)] = held & first
            held_cases[..., FULL_REACH_CASES.index(case1)] = held & ~first
            fragile |= near
            sure |= held & ~near & ~shaky
        fragile |= shaky
    return held_cases, fragile & ~sure


def major_region_containment(
    theta_f: float, current: CurrentState, r: float
) -> tuple[bool, bool]:
    """Which path type's major sector fully covers the other's.

    Exactly one flag is true.  At measure-zero degeneracies the mutual
    relation breaks down (both sectors full circles at theta_f = 0, or
    opposite-facing half-planes at exact extent ties, where neither covers
    the other); those resolve deterministically to the LSL side.
    """
    majors = _major_sectors(theta_f, current, r)
    (lsl, lsl_extent), (rsr, rsr_extent) = majors[PathType.LSL], majors[PathType.RSR]

    def covers(big: RegionDescriptor, big_extent: float, small: RegionDescriptor) -> bool:
        if big_extent >= TWO_PI - ANGLE_TOL:
            return True
        dx = small.center[0] - big.center[0]
        dy = small.center[1] - big.center[1]
        if math.hypot(dx, dy) <= ANGLE_TOL:
            return True
        start, end = _shadow_interval(big)
        return _in_ccw_interval(start, end, normalize_angle(math.atan2(dy, dx)))

    lsl_covers = covers(lsl, lsl_extent, rsr)
    rsr_covers = covers(rsr, rsr_extent, lsl)
    if lsl_covers == rsr_covers:
        return True, False
    return lsl_covers, rsr_covers


def parametric_scan(
    theta_f_step: float = math.pi / 100,
    theta_w_step: float = math.pi / 100,
    v_w_values: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
) -> list[tuple[float, float, float, bool]]:
    """Sweep (theta_f, theta_w, v_w) and record where full coverage holds.

    Rows run over v_w, then theta_f = i * theta_f_step, then theta_w =
    j * theta_w_step, with i and j from 0 while the angle is below 2*pi,
    so each axis holds at least the angle 0; each row's flag is
    full_reachability_2pi's, which no turning radius changes, so r = 1
    stands for all.  `_coverage_rows` decides the lattice a block of rows
    at a time.  Rows it reports fragile are decided again by
    `_coverage_rows` with math.atan2: they hold a comparison within
    _FRAGILE_MARGIN of its threshold, such as the exact extent and boundary
    ties a lattice of fractions of pi meets, and there the last bit of
    atan2, in which numpy and math differ, can decide.
    """
    check_finite("theta_f_step", theta_f_step, positive=True)
    check_finite("theta_w_step", theta_w_step, positive=True)
    for vw in v_w_values:  # current speeds relative to the vehicle's
        if not 0.0 <= vw < 1.0:
            raise ValueError(f"current speed must be finite and in [0, 1): v_w_values holds {vw!r}")
    check_count(len(v_w_values) * (TWO_PI / theta_f_step) * (TWO_PI / theta_w_step),
                f"theta_f_step {theta_f_step!r}, theta_w_step {theta_w_step!r}"
                f" and {len(v_w_values)} speeds", "cells")
    n_f = max(1, math.ceil(TWO_PI / theta_f_step - ANGLE_TOL))  # 0 is always below 2*pi
    n_w = max(1, math.ceil(TWO_PI / theta_w_step - ANGLE_TOL))
    theta_fs = [i * theta_f_step for i in range(n_f)]
    theta_ws = [j * theta_w_step for j in range(n_w)]
    f_axis = np.array(theta_fs, dtype=float)
    headings = _normalize_angles(np.array(theta_ws, dtype=float))  # as CurrentState keeps them
    speeds = np.array(v_w_values, dtype=float)
    n = len(v_w_values) * n_f * n_w

    def lattice(rows):
        """The rows' goal headings and unit-speed currents, as CurrentState
        computes them."""
        vw = speeds[rows // (n_f * n_w)]
        heading = headings[rows % n_w]
        return f_axis[rows // n_w % n_f], vw * np.cos(heading), vw * np.sin(heading)

    reachable = np.empty(n, dtype=bool)
    fragile = np.empty(n, dtype=bool)
    for lo in range(0, n, _BLOCK_CELLS):
        rows = np.arange(lo, min(lo + _BLOCK_CELLS, n))
        cases, shaky = _coverage_rows(*lattice(rows), np.arctan2)
        still = speeds[rows // (n_f * n_w)] == 0.0  # zero current: degenerate and fully reachable
        reachable[rows] = cases.any(axis=-1) | still
        fragile[rows] = shaky & ~still
    fragile = np.flatnonzero(fragile)
    for lo in range(0, len(fragile), _BLOCK_CELLS):
        rows = fragile[lo:lo + _BLOCK_CELLS]
        reachable[rows] = _coverage_rows(*lattice(rows), _math_atan2)[0].any(axis=-1)
    flags = iter(reachable.tolist())
    return [(theta_f, theta_w, vw, next(flags))
            for vw in v_w_values for theta_f in theta_fs for theta_w in theta_ws]


def reachability_map(
    theta_f: float,
    current: CurrentState,
    bounds: tuple[float, float, float, float] | None = None,
    step: float | None = None,
    mode: ArcMode | str = ArcMode.TWO_PI,
    vehicle: VehicleSpec = VehicleSpec(),
) -> ReachGrid:
    """Per-cell dominant path type and travel time over a goal grid.

    Each cell is the `plan` from the origin in the given arc mode, computed
    by `plan_goals` a block of cells at a time; the dominant label is the
    planned path type, "unreachable" if none exists.  Default bounds are
    [-10r, 10r]^2 with step 0.1r.
    """
    mode = ArcMode(mode)
    if not math.isfinite(theta_f):
        raise ValueError(f"theta_f must be finite, got {theta_f!r}")
    _normalize_problem(current, vehicle)  # refuses a current at or above vehicle speed
    r = vehicle.turning_radius
    if bounds is None:
        bounds = (-10.0 * r, 10.0 * r, -10.0 * r, 10.0 * r)
    if step is None:
        step = 0.1 * r
    check_finite("step", step, positive=True)
    if not all(math.isfinite(b) for b in bounds):
        raise ValueError(f"bounds must be finite, got {tuple(bounds)!r}")
    x_min, x_max, y_min, y_max = bounds
    if x_min > x_max or y_min > y_max:
        raise ValueError(f"bounds must not be empty, got {tuple(bounds)!r}")
    check_count(((x_max - x_min) / step + 1.0) * ((y_max - y_min) / step + 1.0),
                f"step {step!r} over bounds {tuple(bounds)}", "cells")
    xs = np.arange(x_min, x_max + 0.5 * step, step)
    ys = np.arange(y_min, y_max + 0.5 * step, step)
    n = len(xs) * len(ys)
    if n == 0:  # half a step vanished in rounding against the bounds
        raise ValueError(f"step {step!r} is below the resolution of bounds {tuple(bounds)}: "
                         "the grid has no cells")
    winner = np.empty(n, dtype=np.int8)
    times = np.empty(n)
    for lo in range(0, n, _BLOCK_CELLS):
        cells = np.arange(lo, min(lo + _BLOCK_CELLS, n))
        gx = xs[cells % len(xs)]
        gy = ys[cells // len(xs)]
        # The goal as to_start_frame expresses it from the origin pose
        # (cos 0 = 1, sin 0 = 0); the sum turns a -0.0 coordinate into 0.0.
        winner[lo:lo + len(cells)], times[lo:lo + len(cells)] = plan_goals(
            1.0 * gx + 0.0 * gy, -0.0 * gx + 1.0 * gy, theta_f, current, vehicle, mode.kappa)
    shape = (len(ys), len(xs))
    return ReachGrid(xs, ys, _LABELS[winner].reshape(shape), times.reshape(shape))
