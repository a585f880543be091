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
planners traditionally rely on.  A word and its mirror run as rows of one
array, one block of rows per (word, winding branch), and Newton uses the
residual's closed-form Jacobian.  Newton works on an index array of the
rows still searching, and each iteration's line search makes at most two
residual calls: the full step on every searching row, then all smaller
dampings at once for the rows the full step did not improve.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import TWO_PI, CurrentState, Pose, VehicleSpec, check_finite, to_start_frame
from .planner import SEGMENT_SIGNS, ArcMode, PathSolution, PathType, _normalize_problem, plan

HARD_TYPES = (PathType.LSR, PathType.RSL, PathType.LRL, PathType.RLR)
# Mirror pairs of one arity; each pair is solved as one array.
_MIRROR_PAIRS = ((PathType.LSR, PathType.RSL), (PathType.LRL, PathType.RLR))

# Accept roots whose arc angles poke marginally outside [0, 2*pi).
_ARC_SLACK = 1e-9

# Newton stops once the max-norm residual is at most this, or after this
# many iterations.
RESIDUAL_TOLERANCE = 1e-10
MAX_ITERATIONS = 25
# Line-search dampings tried after the full Newton step, in order.
_DAMPING = 0.5 ** np.arange(1, 6)
# Newton's working sets are padded to a multiple of this many rows.
_PAD_ROWS = 16


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


@functools.lru_cache(maxsize=8)
def _halton_table(n: int, dims: int) -> np.ndarray:
    """The first n Halton points in [0, 1)^dims, built once per (n, dims)."""
    table = np.array([[_van_der_corput(i + 1, p) for p in (2, 3, 5, 7)[:dims]]
                      for i in range(n)])
    table.setflags(write=False)
    return table


def _low_discrepancy_starts(
    n: int, bounds: np.ndarray, seed: int
) -> np.ndarray:
    """Halton points with a seeded toroidal shift, scaled into bounds."""
    dims = bounds.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence((seed, dims, n)))
    pts = (_halton_table(n, dims) + rng.random(dims)) % 1.0
    lo = bounds[:, 0]
    hi = bounds[:, 1]
    return lo + pts * (hi - lo)


def _max_abs(rows: np.ndarray) -> np.ndarray:
    """Max-norm of each row, as an elementwise maximum over the columns
    (ndarray.max over a short last axis costs about ten times more)."""
    return functools.reduce(np.maximum, np.abs(rows).T)


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
    """Solve J dx = rhs per row as adj(J) rhs / det(J), with the adjugate of
    each 2x2 or 3x3 matrix written out.

    Rows with a near-singular Jacobian get a zero step and simply fail the
    convergence test later.
    """
    if jac.shape[1] == 2:
        (a, b), (c, e) = jac.transpose(1, 2, 0)
        det = a * e - b * c
        adj = ((e, -b), (-c, a))
    else:
        (a, b, c), (d, e, f), (g, h, i) = jac.transpose(1, 2, 0)
        cof = (e * i - f * h, f * g - d * i, d * h - e * g)
        det = a * cof[0] + b * cof[1] + c * cof[2]
        adj = ((cof[0], c * h - b * i, b * f - c * e),
               (cof[1], a * i - c * g, c * d - a * f),
               (cof[2], b * g - a * h, a * e - b * d))
    ok = np.abs(det) > 1e-14
    det = np.where(ok, det, 1.0)
    dx = np.empty_like(rhs)
    for k, row in enumerate(adj):
        dx[:, k] = sum(coef * rhs[:, j] for j, coef in enumerate(row)) / det
    dx[~ok] = 0.0
    return dx


def multi_start_solve(
    residual_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    bounds: np.ndarray,
    cfg: SolverConfig,
    branches: int = 1,
    jacobian_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> list[tuple[int, np.ndarray]]:
    """Deduplicated (branch, root) pairs of a batched residual.

    The low-discrepancy starts are tiled once per branch, so row
    b*n_initial_guesses + i is start i of branch b.  residual_fn(u, rows)
    maps an (n, d) array of parameter rows to an (n, d) array of residual
    rows, where rows[k] is the position of u[k] among the tiled starts, so
    the residual may read each row's branch from it.  jacobian_fn(u, rows),
    if given, returns the (n, d, d) Jacobians; without it central
    differences are used.

    Damped Newton works on an index array of the rows still searching; a
    converged or stalled row leaves it and stops moving.  Each iteration
    makes at most two residual calls (see `_line_search`).  Every step is
    computed row by row, so the result is float for float that of moving
    all rows in lockstep and trying one damping per call.  The returned
    pairs are deterministic for a fixed config.
    """
    bounds = np.asarray(bounds, dtype=float)
    x = np.tile(_low_discrepancy_starts(cfg.n_initial_guesses, bounds, cfg.seed), (branches, 1))
    rows = np.arange(len(x))
    f = residual_fn(x, rows)
    fnorm = _max_abs(f)
    rows = rows[fnorm > RESIDUAL_TOLERANCE]  # the searching rows
    if jacobian_fn is None:
        def jacobian_fn(u, rows):
            return _batched_jacobian(lambda v: residual_fn(v, rows), u)
    for _ in range(MAX_ITERATIONS):
        if not rows.size:
            break
        n = len(rows)
        rows = _padded(rows)
        xs, fs, norms = x[rows], f[rows], fnorm[rows]
        step = _batched_solve(jacobian_fn(xs, rows), -fs)
        # cap absurd steps so one bad Jacobian cannot fling a start away
        step *= (10.0 / np.maximum(_max_abs(step), 10.0))[:, None]
        improve, xs, fs, norms = _line_search(residual_fn, rows, xs, fs, norms, step)
        x[rows], f[rows], fnorm[rows] = xs, fs, norms
        # a row that no damping improved has stalled
        rows = rows[:n][(improve & (norms > RESIDUAL_TOLERANCE))[:n]]
    roots = []
    n, dims = cfg.n_initial_guesses, bounds.shape[0]
    for b, (xs, norms) in enumerate(zip(x.reshape(branches, n, dims), fnorm.reshape(branches, n))):
        roots.extend((b, row) for row in _distinct_rows(xs[norms <= RESIDUAL_TOLERANCE]))
    return roots


def _padded(rows: np.ndarray) -> np.ndarray:
    """rows repeated cyclically up to a multiple of _PAD_ROWS entries.

    A repeated row computes exactly what its first copy does, so padding
    changes no result.  It bounds the number of array sizes a solve makes:
    numpy keeps up to 7 freed blocks of each size under 1 KiB for reuse,
    and unpadded working sets, of every size from 1 to 600 rows, left about
    1 MB of such blocks resident after 200 benchmark solves.
    """
    return np.resize(rows, -(-len(rows) // _PAD_ROWS) * _PAD_ROWS)


def _line_search(residual_fn, rows, x, f, fnorm, step):
    """Newton's line search on the searching rows, in at most two residual
    calls.

    The first call tries the full step on every row.  The second tries the
    dampings in `_DAMPING` together, for only the rows whose residual norm
    the full step did not lower, and each of those rows takes its first
    damping that lowers it.  Returns the mask of rows that improved and
    every row's point, residual and norm after the search.
    """
    trial = x + step
    ft = residual_fn(trial, rows)
    norm = _max_abs(ft)
    improve = norm < fnorm
    back = np.flatnonzero(~improve)
    if back.size:
        back = _padded(back)
        damped = x[back] + _DAMPING[:, None, None] * step[back]
        fd = residual_fn(damped.reshape(-1, x.shape[1]), np.tile(rows[back], len(_DAMPING)))
        nd = _max_abs(fd).reshape(len(_DAMPING), -1)
        better = nd < fnorm[back]
        pick = better.argmax(axis=0), np.arange(len(back))  # each row's first improving damping
        trial[back], ft[back], norm[back] = damped[pick], fd.reshape(damped.shape)[pick], nd[pick]
        improve[back] = better.any(axis=0)
    keep = improve[:, None]
    return improve, np.where(keep, trial, x), np.where(keep, ft, f), np.where(improve, norm, fnorm)


def _distinct_rows(rows: np.ndarray) -> list[np.ndarray]:
    """Greedy dedup in lexicographic order: each row is kept unless it lies
    within 1e-6 (max-norm) of a row kept before it."""
    rows = rows[np.lexsort(rows.T[::-1])]
    kept = []
    free = np.ones(len(rows), dtype=bool)  # farther than 1e-6 from every kept row
    while free.any():
        row = rows[free.argmax()]
        kept.append(row)
        free &= _max_abs(rows - row) > 1e-6
    return kept


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


def _gamma(ccc: bool, s, alpha, delta, theta_f: float, m):
    # heading closure s*alpha + s2*delta + s3*gamma = theta_f, where a mirror
    # flips all three signs: s2 = -s, s3 = s on CCC; s2 = 0, s3 = -s and
    # delta = 0 on CSC
    turn = delta - alpha if ccc else alpha
    return turn + (s if ccc else -s) * theta_f + TWO_PI * m


def _endpoint(ccc: bool, s, alpha, mid, theta_f: float, r: float):
    """Unit-speed path endpoint from the origin in the first-turn sign s.

    mid is the straight length of a CSC word or the middle arc angle of a
    CCC word; s = -1 mirrors the path across the start heading.
    """
    s3 = s if ccc else -s
    sa, ca = np.sin(alpha), np.cos(alpha)
    if ccc:
        chord = alpha - mid
        mx, my = -2 * r * np.sin(chord), 2 * r * np.cos(chord)
    else:
        mx, my = mid * ca, mid * sa
    return (2 * r * sa + mx + s3 * r * math.sin(theta_f),
            s * (r - 2 * r * ca + my) - s3 * r * math.cos(theta_f))


def _branch_residual(
    ccc: bool,
    s: int | np.ndarray,
    m: int | np.ndarray,
    goal: Pose,
    current: CurrentState,
    r: float,
) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth residual of first-turn sign s on winding branch m, normalized
    vehicle speed.

    s and m are each one value for every row or an array with one value
    per row.  CSC rows are (alpha, T); CCC rows are (alpha, delta, T) and
    add the time closure T = r*(alpha + delta + gamma) as a third residual.
    The residual vanishes exactly when the path endpoint meets the goal
    displaced by the current drift over T.
    """
    wx, wy = current.wx, current.wy
    theta_f = goal.theta

    def fn(u: np.ndarray) -> np.ndarray:
        alpha, t = u[:, 0], u[:, -1]
        delta = u[:, 1] if ccc else 0.0
        gamma = _gamma(ccc, s, alpha, delta, theta_f, m)
        closure = t - r * (alpha + delta + gamma)  # the straight length on CSC
        px, py = _endpoint(ccc, s, alpha, delta if ccc else closure, theta_f, r)
        out = np.empty((len(u), 3 if ccc else 2))
        np.subtract(px, goal.x - wx * t, out=out[:, 0])
        np.subtract(py, goal.y - wy * t, out=out[:, 1])
        if ccc:
            out[:, 2] = closure
        return out
    return fn


def _branch_jacobian(
    ccc: bool,
    s: int | np.ndarray,
    m: int | np.ndarray,
    goal: Pose,
    current: CurrentState,
    r: float,
) -> Callable[[np.ndarray], np.ndarray]:
    """Closed-form Jacobian of `_branch_residual` with the same arguments.

    The residual is a trig polynomial in the unknowns; with c the straight
    length, a CSC row's matrix is [[-c sin a, cos a + wx],
    [s c cos a, s sin a + wy]].
    """
    wx, wy = current.wx, current.wy
    theta_f = goal.theta

    def jac(u: np.ndarray) -> np.ndarray:
        alpha, t = u[:, 0], u[:, -1]
        sa, ca = np.sin(alpha), np.cos(alpha)
        if not ccc:
            c = t - r * (alpha + _gamma(ccc, s, alpha, 0.0, theta_f, m))
            out = np.empty((len(u), 2, 2))
            out[:, 0, 0], out[:, 0, 1] = -c * sa, ca + wx
            out[:, 1, 0], out[:, 1, 1] = s * c * ca, s * sa + wy
            return out
        chord = alpha - u[:, 1]
        sc, cc = np.sin(chord), np.cos(chord)
        two_rs = 2 * r * s
        out = np.zeros((len(u), 3, 3))
        out[:, 0, 0], out[:, 0, 1], out[:, 0, 2] = 2 * r * (ca - cc), 2 * r * cc, wx
        out[:, 1, 0], out[:, 1, 1], out[:, 1, 2] = two_rs * (sa - sc), two_rs * sc, wy
        out[:, 2, 1], out[:, 2, 2] = -2 * r, 1.0  # the time closure
        return out
    return jac


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
    ccc = _is_ccc(path_type)
    s = SEGMENT_SIGNS[path_type][0]
    raw = _gamma(ccc, s, u[:, 0], u[:, 1] if ccc else 0.0, goal.theta, 0)
    m = -np.floor(raw / TWO_PI)  # representative in [0, 2*pi)
    out = _branch_residual(ccc, s, m, goal, scaled, r)(u)
    return out[0] if np.ndim(unknowns) == 1 else out


def _time_upper_bound(goal: Pose, vw: float, r: float) -> float:
    """Any minimum-time candidate finishes before this (net progress >= 1-vw)."""
    return (math.hypot(goal.x, goal.y) + 2 * TWO_PI * r) / (1.0 - vw)


def _roots_to_solutions(
    branches: list[tuple[PathType, int]],
    roots: list[tuple[int, np.ndarray]],
    goal: Pose,
    r: float,
    t_bound: float,
    v: float,
) -> list[PathSolution]:
    """Filter (branch, root) pairs down to geometrically valid path solutions.

    Branch b is the word and winding offset `branches[b]`.  Roots are in
    unit-speed time; the solutions carry it in seconds (/v).
    """
    sols = []
    for b, row in roots:
        path_type, m = branches[b]
        ccc = _is_ccc(path_type)
        alpha, t = row[0], row[-1]
        delta = row[1] if ccc else 0.0
        gamma = float(_gamma(ccc, SEGMENT_SIGNS[path_type][0], alpha, delta, goal.theta, m))
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


def _solve_words(
    words: tuple[PathType, ...],
    goal: Pose,
    current: CurrentState,
    vehicle: VehicleSpec,
    cfg: SolverConfig,
) -> list[PathSolution]:
    """All multistart roots of transcendental words of one arity, solved as
    one array.

    The rows are one block of n_initial_guesses per (word, winding branch),
    and each row reads its first-turn sign and winding from its position;
    all blocks start from the same Halton points.  Solutions come word by
    word, in the order given.
    """
    scaled, v = _normalize_problem(current, vehicle)
    r = vehicle.turning_radius
    t_bound = _time_upper_bound(goal, scaled.speed, r)
    ccc = _is_ccc(words[0])
    bounds = np.array([[0.0, TWO_PI]] * (2 if ccc else 1) + [[0.0, t_bound]])
    branches = [(word, m) for word in words for m in _closure_offsets(word)]
    n = cfg.n_initial_guesses
    s = np.repeat([float(SEGMENT_SIGNS[word][0]) for word, _ in branches], n)
    m = np.repeat([m for _, m in branches], n)

    def fn(u, rows):
        return _branch_residual(ccc, s[rows], m[rows], goal, scaled, r)(u)

    def jac(u, rows):
        return _branch_jacobian(ccc, s[rows], m[rows], goal, scaled, r)(u)

    roots = multi_start_solve(fn, bounds, cfg, len(branches), jac)
    return _roots_to_solutions(branches, roots, goal, r, t_bound, v)


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
    return _solve_words((path_type,), goal, current, vehicle, cfg)


def solve_six(
    start: Pose,
    goal: Pose,
    current: CurrentState,
    vehicle: VehicleSpec,
    cfg: SolverConfig = SolverConfig(),
) -> tuple[PathSolution, float] | None:
    """Minimum-time path over all six types plus the wall-clock solve time.

    LSL/RSR use the closed forms with classical 2*pi arcs; the other four
    are solved numerically, each mirror pair as one array.  Returns None
    when nothing converges (possible only if the closed forms are
    infeasible and every multistart fails).  Raises ValueError, from
    `plan`, unless the current is slower than the vehicle.
    """
    t0 = time.perf_counter()
    best = plan(start, goal, current, vehicle, ArcMode.TWO_PI)
    local_goal, local_current = to_start_frame(start, goal, current)
    for words in _MIRROR_PAIRS:
        for sol in _solve_words(words, local_goal, local_current, vehicle, cfg):
            if best is None or sol.travel_time < best.travel_time - 1e-12:
                best = sol
    elapsed = time.perf_counter() - t0
    if best is None:
        return None
    return best, elapsed
