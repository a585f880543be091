"""Six-path-type minimum-time solver in the drift frame.

The comparison baseline: LSL and RSR come from the closed forms, while LSR,
RSL, LRL and RLR require numeric root finding of their interception
equations (the goal keeps drifting while the path plays out, so the travel
time enters the boundary conditions).  The turn-sign table
`planner.SEGMENT_SIGNS` serves all six words: the four numeric ones share
one heading closure, one endpoint and one residual, with RSL and RLR the
mirrors of LSR and LRL, and a CCC word differs from a CSC one only in its
middle segment.  Roots are found by a seeded, batched, damped-Newton
multistart, which stands in for the generic nonlinear solvers such
planners traditionally rely on; each word's winding branches run as rows
of one array.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import TWO_PI, CurrentState, Pose, VehicleSpec, check_finite, to_start_frame
from .planner import SEGMENT_SIGNS, ArcMode, PathSolution, PathType, _normalize_problem, plan

HARD_TYPES = (PathType.LSR, PathType.RSL, PathType.LRL, PathType.RLR)

# Accept roots whose arc angles poke marginally outside [0, 2*pi).
_ARC_SLACK = 1e-9

# Newton stops once the max-norm residual is at most this, or after this
# many iterations.
RESIDUAL_TOLERANCE = 1e-10
MAX_ITERATIONS = 25


@dataclass(frozen=True)
class SolverConfig:
    """Multistart root-finder settings for the four transcendental types."""

    n_initial_guesses: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_initial_guesses < 1:
            raise ValueError("need at least one initial guess")


@dataclass(frozen=True)
class LatencyModel:
    """Synthetic planner compute delays used by the mission simulator."""

    dubins_six: float = 8.72
    analytic_4pi: float = 6.4e-4

    def __post_init__(self):
        for name in ("dubins_six", "analytic_4pi"):
            check_finite(f"latency {name}", getattr(self, name))

    def delay_for(self, planner: str) -> float:
        if planner == "dubins_six":
            return self.dubins_six
        if planner == "analytic_4pi":
            return self.analytic_4pi
        raise ValueError(f"unknown planner kind {planner!r}")


def _van_der_corput(n: int, base: int) -> float:
    q = 0.0
    bk = 1.0 / base
    while n > 0:
        n, rem = divmod(n, base)
        q += rem * bk
        bk /= base
    return q


def _low_discrepancy_starts(
    n: int, bounds: np.ndarray, seed: int
) -> np.ndarray:
    """Halton points with a seeded toroidal shift, scaled into bounds."""
    dims = bounds.shape[0]
    primes = (2, 3, 5, 7)[:dims]
    rng = np.random.default_rng(np.random.SeedSequence((seed, dims, n)))
    shift = rng.random(dims)
    pts = np.empty((n, dims))
    for d, p in enumerate(primes):
        col = np.array([_van_der_corput(i + 1, p) for i in range(n)])
        pts[:, d] = (col + shift[d]) % 1.0
    lo = bounds[:, 0]
    hi = bounds[:, 1]
    return lo + pts * (hi - lo)


def _batched_jacobian(residual_fn, x: np.ndarray) -> np.ndarray:
    n, d = x.shape
    jac = np.empty((n, d, d))
    for col in range(d):
        eps = 1e-7 * np.maximum(1.0, np.abs(x[:, col]))
        xp = x.copy()
        xm = x.copy()
        xp[:, col] += eps
        xm[:, col] -= eps
        jac[:, :, col] = (residual_fn(xp) - residual_fn(xm)) / (2.0 * eps)[:, None]
    return jac


def _batched_solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve J dx = rhs per row with explicit 2x2/3x3 inverses.

    Rows with a near-singular Jacobian get a zero step and simply fail the
    convergence test later.
    """
    d = jac.shape[1]
    if d == 2:
        a, b = jac[:, 0, 0], jac[:, 0, 1]
        c, e = jac[:, 1, 0], jac[:, 1, 1]
        det = a * e - b * c
        ok = np.abs(det) > 1e-14
        det = np.where(ok, det, 1.0)
        dx = np.empty_like(rhs)
        dx[:, 0] = (e * rhs[:, 0] - b * rhs[:, 1]) / det
        dx[:, 1] = (-c * rhs[:, 0] + a * rhs[:, 1]) / det
        dx[~ok] = 0.0
        return dx
    det = np.linalg.det(jac)
    ok = np.abs(det) > 1e-14
    dx = np.zeros_like(rhs)
    if ok.any():
        dx[ok] = np.linalg.solve(jac[ok], rhs[ok][..., None])[..., 0]
    return dx


def multi_start_solve(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    bounds: np.ndarray,
    cfg: SolverConfig,
    branches: int = 1,
) -> list[tuple[int, np.ndarray]]:
    """Deduplicated (branch, root) pairs of a batched residual.

    residual_fn maps an (n, d) array of parameter rows to an (n, d) array of
    residual rows.  The low-discrepancy starts are tiled once per branch, so
    row b*n_initial_guesses + i is start i of branch b, and the residual may
    read each row's branch from its position.  All rows iterate in lockstep
    with damped Newton steps, and a converged or stalled row stops moving;
    the returned pairs are deterministic for a fixed config.
    """
    bounds = np.asarray(bounds, dtype=float)
    x = np.tile(_low_discrepancy_starts(cfg.n_initial_guesses, bounds, cfg.seed), (branches, 1))
    f = residual_fn(x)
    fnorm = np.abs(f).max(axis=1)
    active = fnorm > RESIDUAL_TOLERANCE  # neither converged nor stalled
    for _ in range(MAX_ITERATIONS):
        if not active.any():
            break
        step = _batched_solve(_batched_jacobian(residual_fn, x), -f)
        # cap absurd steps so one bad Jacobian cannot fling a start away
        step *= (10.0 / np.maximum(np.abs(step).max(axis=1), 10.0))[:, None]
        todo = active.copy()
        lam = 1.0
        for _ in range(6):
            trial = x + lam * step
            ft = residual_fn(trial)
            fn = np.abs(ft).max(axis=1)
            improve = todo & (fn < fnorm)
            x[improve], f[improve], fnorm[improve] = trial[improve], ft[improve], fn[improve]
            todo &= ~improve
            if not todo.any():
                break
            lam *= 0.5
        active &= ~todo & (fnorm > RESIDUAL_TOLERANCE)  # drop converged and stalled rows
    roots = []
    n, dims = cfg.n_initial_guesses, bounds.shape[0]
    for b, (xs, norms) in enumerate(zip(x.reshape(branches, n, dims), fnorm.reshape(branches, n))):
        converged = xs[norms <= RESIDUAL_TOLERANCE]
        kept: list[np.ndarray] = []
        for row in converged[np.lexsort(converged.T[::-1])]:
            if all(np.abs(row - other).max() > 1e-6 for other in kept):
                kept.append(row)
        roots.extend((b, row) for row in kept)
    return roots


def _closure_offsets(path_type: PathType) -> tuple[int, ...]:
    """Winding branches m of the heading-closure identity."""
    if path_type is PathType.LSR:
        return (0, 1)
    if path_type is PathType.RSL:
        return (-1, 0)
    if path_type is PathType.LRL:
        return (-1, 0, 1)
    if path_type is PathType.RLR:
        return (0, 1, 2)
    raise ValueError(f"{path_type} has a closed-form solution; no residual needed")


def _is_ccc(path_type: PathType) -> bool:
    """Whether the middle segment turns: CCC unknowns are (alpha, delta, T),
    CSC unknowns (alpha, T)."""
    return SEGMENT_SIGNS[path_type][1] != 0


def _gamma(path_type: PathType, alpha, delta, theta_f: float, m):
    # heading closure s1*alpha + s2*delta + s3*gamma = theta_f (delta = 0 on CSC)
    _, s2, s3 = SEGMENT_SIGNS[path_type]
    turn = delta - alpha if s2 else alpha
    return turn + s3 * theta_f + TWO_PI * m


def _endpoint(path_type: PathType, alpha, mid, theta_f: float, r: float):
    """Unit-speed path endpoint from the origin in the first-turn sign s.

    mid is the straight length of a CSC word or the middle arc angle of a
    CCC word; RSL and RLR are LSR and LRL mirrored across the start heading.
    """
    s, s2, s3 = SEGMENT_SIGNS[path_type]
    sa, ca = np.sin(alpha), np.cos(alpha)
    if s2:
        chord = alpha - mid
        mx, my = -2 * r * np.sin(chord), 2 * r * np.cos(chord)
    else:
        mx, my = mid * ca, mid * sa
    return (2 * r * sa + mx + s3 * r * math.sin(theta_f),
            s * (r - 2 * r * ca + my) - s3 * r * math.cos(theta_f))


def _branch_residual(
    path_type: PathType,
    m: int | np.ndarray,
    goal: Pose,
    current: CurrentState,
    r: float,
) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth residual on winding branch m, normalized vehicle speed.

    m is one branch for every row or an array with one branch per row.
    CSC rows are (alpha, T); CCC rows are (alpha, delta, T) and add the
    time closure T = r*(alpha + delta + gamma) as a third residual.  The
    residual vanishes exactly when the path endpoint meets the goal
    displaced by the current drift over T.
    """
    wx, wy = current.wx, current.wy
    theta_f = goal.theta
    ccc = _is_ccc(path_type)

    def fn(u: np.ndarray) -> np.ndarray:
        alpha, t = u[:, 0], u[:, -1]
        delta = u[:, 1] if ccc else 0.0
        gamma = _gamma(path_type, alpha, delta, theta_f, m)
        closure = t - r * (alpha + delta + gamma)  # the straight length on CSC
        px, py = _endpoint(path_type, alpha, delta if ccc else closure, theta_f, r)
        rows = [px - (goal.x - wx * t), py - (goal.y - wy * t)]
        return np.stack(rows + [closure] if ccc else rows, axis=1)
    return fn


def residual(
    path_type: PathType,
    unknowns,
    goal: Pose,
    current: CurrentState,
    vehicle: VehicleSpec,
) -> np.ndarray:
    """Interception residual for one of the four transcendental path types.

    unknowns is (alpha, T) for LSR/RSL or (alpha, arc2, T) for LRL/RLR, in
    normalized (unit-speed) units with the goal in the start frame; gamma is
    taken as the representative of the heading closure in [0, 2*pi).
    """
    if path_type not in HARD_TYPES:
        raise ValueError(f"{path_type} has a closed-form solution; no residual needed")
    u = np.atleast_2d(np.asarray(unknowns, dtype=float))
    scaled, _ = _normalize_problem(current, vehicle)
    r = vehicle.turning_radius
    delta = u[:, 1] if _is_ccc(path_type) else 0.0
    raw = _gamma(path_type, u[:, 0], delta, goal.theta, 0)
    m = -np.floor(raw / TWO_PI)  # representative in [0, 2*pi)
    out = _branch_residual(path_type, m, goal, scaled, r)(u)
    return out[0] if np.ndim(unknowns) == 1 else out


def _time_upper_bound(goal: Pose, vw: float, r: float) -> float:
    """Any minimum-time candidate finishes before this (net progress >= 1-vw)."""
    return (math.hypot(goal.x, goal.y) + 2 * TWO_PI * r) / (1.0 - vw)


def _roots_to_solutions(
    path_type: PathType,
    roots: list[tuple[int, np.ndarray]],
    goal: Pose,
    r: float,
    t_bound: float,
    v: float,
) -> list[PathSolution]:
    """Filter (branch, root) pairs down to geometrically valid path solutions.

    Branch b is the winding offset `_closure_offsets(path_type)[b]`.  Roots
    are in unit-speed time; the solutions carry it in seconds (/v).
    """
    sols = []
    ccc = _is_ccc(path_type)
    offsets = _closure_offsets(path_type)
    for b, row in roots:
        m = offsets[b]
        alpha, t = row[0], row[-1]
        delta = row[1] if ccc else 0.0
        gamma = float(_gamma(path_type, alpha, delta, goal.theta, m))
        closure = t - r * (alpha + delta + gamma)
        if ccc:
            middle_ok = _ARC_SLACK < delta < TWO_PI + _ARC_SLACK and abs(closure) <= 1e-6
        else:
            middle_ok = closure >= -1e-9
        if (middle_ok
                and -_ARC_SLACK <= alpha < TWO_PI + _ARC_SLACK
                and -_ARC_SLACK <= gamma < TWO_PI + _ARC_SLACK
                and 0.0 < t <= t_bound + 1e-6):
            sols.append(PathSolution(
                path_type, m, max(alpha, 0.0), r * delta if ccc else max(closure, 0.0),
                max(gamma, 0.0), TWO_PI, t / v,
            ))
    return sols


def solve_hard_type(
    path_type: PathType,
    goal: Pose,
    current: CurrentState,
    vehicle: VehicleSpec,
    cfg: SolverConfig,
) -> list[PathSolution]:
    """All multistart roots of one transcendental type, as path solutions.

    Goal in the start frame.  Travel times are rescaled to real seconds;
    for LRL/RLR the middle-arc length r*delta is stored in beta.
    """
    scaled, v = _normalize_problem(current, vehicle)
    r = vehicle.turning_radius
    t_bound = _time_upper_bound(goal, scaled.speed, r)
    arcs = 2 if _is_ccc(path_type) else 1
    bounds = np.array([[0.0, TWO_PI]] * arcs + [[0.0, t_bound]])
    offsets = _closure_offsets(path_type)
    m = np.repeat(offsets, cfg.n_initial_guesses)  # the row layout of multi_start_solve
    fn = _branch_residual(path_type, m, goal, scaled, r)
    roots = multi_start_solve(fn, bounds, cfg, len(offsets))
    return _roots_to_solutions(path_type, roots, goal, r, t_bound, v)


def solve_six(
    start: Pose,
    goal: Pose,
    current: CurrentState,
    vehicle: VehicleSpec,
    cfg: SolverConfig = SolverConfig(),
) -> tuple[PathSolution, float] | None:
    """Minimum-time path over all six types plus the wall-clock solve time.

    LSL/RSR use the closed forms with classical 2*pi arcs; the other four
    are solved numerically.  Returns None when nothing converges (possible
    only if the closed forms are infeasible and every multistart fails).
    Raises ValueError, from `plan`, unless the current is slower than the
    vehicle.
    """
    t0 = time.perf_counter()
    best = plan(start, goal, current, vehicle, ArcMode.TWO_PI)
    local_goal, local_current = to_start_frame(start, goal, current)
    for path_type in HARD_TYPES:
        for sol in solve_hard_type(path_type, local_goal, local_current, vehicle, cfg):
            if best is None or sol.travel_time < best.travel_time - 1e-12:
                best = sol
    elapsed = time.perf_counter() - t0
    if best is None:
        return None
    return best, elapsed
