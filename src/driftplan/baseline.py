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
residual's closed-form Jacobian.  Each row's constants (its first-turn
sign and the goal-heading and winding terms, `_row_constants`) are
computed once per solve into a (rows, 5) table, and each residual call
gathers its rows' constants with one take.  Newton keeps a working set of
the rows still searching, with their points, residuals and norms, from
one iteration to the next; a row goes back to the full arrays only when it
converges or stalls.  Each iteration's line search makes at most two
residual calls: the full step on every searching row, then all smaller
dampings at once for the rows the full step did not improve.

The residual closure also returns the sines, cosines and straight length
its Jacobian needs, and Newton moves them with the residual, so the
Jacobian at an accepted point computes no trig; its entries go straight
into `_batched_solve`'s written-out adjugate.  The roots are float for
float those of the Jacobian recomputed from the unknowns and a summed
(n, d, d) adjugate (`tests/oracles.solve_words_lockstep`).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FOUR_PI, TWO_PI, CurrentState, Pose, VehicleSpec, check_finite, to_start_frame
from .planner import (SEGMENT_SIGNS, TIME_TIE, ArcMode, PathSolution, PathType,
                      _normalize_problem, plan)

HARD_TYPES = (PathType.LSR, PathType.RSL, PathType.LRL, PathType.RLR)
# Mirror pairs of one arity; each pair is solved as one array.
_MIRROR_PAIRS = ((PathType.LSR, PathType.RSL), (PathType.LRL, PathType.RLR))

# Accept roots whose arc angles poke marginally outside [0, 2*pi).
_ARC_SLACK = 1e-9

# Newton stops once the max-norm residual is at most this, or after this
# many iterations.
RESIDUAL_TOLERANCE = 1e-10
MAX_ITERATIONS = 25
# Line-search dampings tried after the full Newton step, in order, shaped
# to scale a (rows, d) step into one block of rows per damping.
_DAMPING = 0.5 ** np.arange(1, 6)[:, None, None]
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
    """Max-norm of each row, as an elementwise maximum over the columns'
    absolute values (ndarray.max over a short last axis costs about ten
    times more, and np.abs of a column slice loops over its short axis)."""
    return functools.reduce(np.maximum, map(np.abs, rows.T))


def _batched_jacobian(residual_fn, x: np.ndarray) -> np.ndarray:
    """Central differences of the first d residual columns, as an (n, d, d)
    array."""
    n, d = x.shape
    jac = np.empty((n, d, d))
    for col in range(d):
        eps = 1e-7 * np.maximum(1.0, np.abs(x[:, col]))
        xp = x.copy()
        xm = x.copy()
        xp[:, col] += eps
        xm[:, col] -= eps
        jac[:, :, col] = (residual_fn(xp)[:, :d] - residual_fn(xm)[:, :d]) / (2.0 * eps)[:, None]
    return jac


def _batched_solve(jac, rhs: np.ndarray) -> np.ndarray:
    """Solve J dx = rhs per row as adj(J) rhs / det(J), with each component
    of the 2x2 or 3x3 adjugate written out.

    jac[i][j] is entry (i, j) of every row's matrix: a 1-D array, or a
    scalar that all rows share.  An (n, d, d) array is read the same way.
    Columns of rhs past d are ignored.  Rows with a near-singular Jacobian
    get a zero step and simply fail the convergence test later.
    """
    if isinstance(jac, np.ndarray):
        jac = jac.transpose(1, 2, 0)
    if len(jac) == 2:
        (a, b), (c, e) = jac
        r0, r1 = rhs[:, 0], rhs[:, 1]
        det = a * e - b * c
        num = (e * r0 - b * r1, a * r1 - c * r0)
    else:
        (a, b, c), (d, e, f), (g, h, i) = jac
        r0, r1, r2 = rhs[:, 0], rhs[:, 1], rhs[:, 2]
        cof0, cof1, cof2 = e * i - f * h, f * g - d * i, d * h - e * g
        det = a * cof0 + b * cof1 + c * cof2
        num = (cof0 * r0 + (c * h - b * i) * r1 + (b * f - c * e) * r2,
               cof1 * r0 + (a * i - c * g) * r1 + (c * d - a * f) * r2,
               cof2 * r0 + (b * g - a * h) * r1 + (a * e - b * d) * r2)
    ok = np.abs(det) > 1e-14
    det = np.where(ok, det, 1.0)
    dx = np.empty((len(rhs), len(num)))
    for k, num_k in enumerate(num):
        np.divide(num_k, det, out=dx[:, k])
    dx[~ok] = 0.0
    return dx


def multi_start_solve(
    residual_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    bounds: np.ndarray,
    cfg: SolverConfig,
    branches: int = 1,
    jacobian_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], object] | None = None,
) -> list[tuple[int, np.ndarray]]:
    """Deduplicated (branch, root) pairs of a batched residual.

    The low-discrepancy starts are tiled once per branch, so row
    b*n_initial_guesses + i is start i of branch b.  residual_fn(u, rows)
    maps an (n, d) array of parameter rows to an (n, d + k) array whose
    first d columns are the residual rows; rows[k] is the position of u[k]
    among the tiled starts, so the residual may read each row's branch from
    it.  The k further columns, if any, are terms carried for the Jacobian:
    they move with their row, and jacobian_fn(u, f, rows) receives them in
    f, the residual_fn output at u.  It returns the entries of the Jacobians
    of the first d columns in a form `_batched_solve` reads.  Without
    jacobian_fn, central differences are used.

    Damped Newton keeps a working set of the rows still searching: their
    positions, points, residuals and norms, padded by `_padded`, carried
    from one iteration to the next.  A row that converges or stalls leaves
    it and stops moving, and only then is its point and norm written back;
    an iteration from which no row leaves gathers and scatters nothing.
    Each iteration makes at most two residual calls (see `_line_search`).
    Every step is computed row by row, so the result is float for float
    that of moving all rows in lockstep and trying one damping per call.
    The returned pairs are deterministic for a fixed config.
    """
    bounds = np.asarray(bounds, dtype=float)
    d = bounds.shape[0]
    x = np.tile(_low_discrepancy_starts(cfg.n_initial_guesses, bounds, cfg.seed), (branches, 1))
    rows = np.arange(len(x))
    f = residual_fn(x, rows)
    fnorm = _max_abs(f[:, :d])
    rows = rows[fnorm > RESIDUAL_TOLERANCE]  # the working set, n rows before padding
    n = len(rows)
    rows = _padded(rows)
    xs, fs, norms = x.take(rows, axis=0), f.take(rows, axis=0), fnorm.take(rows)
    if jacobian_fn is None:
        def jacobian_fn(u, f, rows):
            return _batched_jacobian(lambda v: residual_fn(v, rows), u)
    for _ in range(MAX_ITERATIONS):
        if not n:
            break
        # J^-1 f is minus the Newton step, so the cap's factor is negative;
        # the cap keeps one bad Jacobian from flinging a start away
        step = _batched_solve(jacobian_fn(xs, fs, rows), fs)
        step *= (-10.0 / np.maximum(_max_abs(step), 10.0))[:, None]
        improve, xs, fs, norms = _line_search(residual_fn, rows, xs, fs, norms, step)
        # a row that no damping improved has stalled
        stay = (improve & (norms > RESIDUAL_TOLERANCE))[:n]
        keep = stay.nonzero()[0]
        if len(keep) == n:
            continue
        leave = (~stay).nonzero()[0]
        x[rows[leave]], fnorm[rows[leave]] = xs[leave], norms[leave]
        n = len(keep)
        keep = _padded(keep)
        rows, xs, fs, norms = (rows.take(keep), xs.take(keep, axis=0), fs.take(keep, axis=0),
                               norms.take(keep))
    x[rows[:n]], fnorm[rows[:n]] = xs[:n], norms[:n]
    roots = []
    n = cfg.n_initial_guesses
    for b, (xs, norms) in enumerate(zip(x.reshape(branches, n, d), fnorm.reshape(branches, n))):
        roots.extend((b, row) for row in _distinct_rows(xs[norms <= RESIDUAL_TOLERANCE]))
    return roots


def _cycled(a: np.ndarray, size: int) -> np.ndarray:
    """a repeated cyclically to size entries (np.resize and np.tile cost
    several numpy calls more)."""
    return a.take(np.arange(size), mode="wrap")


def _padded(rows: np.ndarray) -> np.ndarray:
    """rows repeated cyclically up to a multiple of _PAD_ROWS entries.

    A repeated row computes exactly what its first copy does, so padding
    changes no result.  It bounds the number of array sizes a solve makes:
    numpy keeps up to 7 freed blocks of each size under 1 KiB for reuse,
    and unpadded working sets, of every size from 1 to 600 rows, left about
    1 MB of such blocks resident after 200 benchmark solves.
    """
    return _cycled(rows, -(-len(rows) // _PAD_ROWS) * _PAD_ROWS)


def _line_search(residual_fn, rows, x, f, fnorm, step):
    """Newton's line search on the searching rows, in at most two residual
    calls.

    The first call tries the full step on every row.  The second tries the
    dampings in `_DAMPING` together, for only the rows whose residual norm
    the full step did not lower, and each of those rows takes its first
    damping that lowers it.  Returns the mask of rows that improved and
    every row's point, residual (with its carried columns) and norm after
    the search; only the rows that no damping improved are copied back from
    x, f and fnorm.
    """
    d = x.shape[1]
    trial = x + step
    ft = residual_fn(trial, rows)
    norm = _max_abs(ft[:, :d])
    improve = norm < fnorm
    back = (~improve).nonzero()[0]
    if back.size:
        back = _padded(back)
        nb = len(back)
        damped = (x.take(back, axis=0) + _DAMPING * step.take(back, axis=0)).reshape(-1, d)
        fd = residual_fn(damped, _cycled(rows[back], len(damped)))
        nd = _max_abs(fd[:, :d])
        better = nd.reshape(-1, nb) < fnorm[back]
        # each row's first improving damping, as a row of damped
        pick = better.argmax(axis=0) * nb + np.arange(nb)
        trial[back], ft[back] = damped.take(pick, axis=0), fd.take(pick, axis=0)
        norm[back] = nd[pick]
        improve[back] = ok = better.any(axis=0)
        stuck = back[~ok]  # keep their point, residual and norm
        if stuck.size:
            trial[stuck], ft[stuck], norm[stuck] = x[stuck], f[stuck], fnorm[stuck]
    return improve, trial, ft, norm


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


def _row_constants(ccc: bool, s, m, theta_f: float, r: float) -> tuple:
    """The constants of rows of first-turn sign s on winding branch m: s,
    s3*theta_f, 2*pi*m, s3*r*sin(theta_f) and s3*r*cos(theta_f).

    s and m are scalars or per-row arrays.  A mirror flips the signs of all
    three turns: s3 = s on CCC and -s on CSC.  `_gamma` reads entries 1 and
    2, `_endpoint` entries 0, 3 and 4, as scalars or as rows of a (5, n)
    table.
    """
    s3 = s if ccc else -s
    return s, s3 * theta_f, TWO_PI * m, s3 * r * math.sin(theta_f), s3 * r * math.cos(theta_f)


def _gamma(ccc: bool, alpha, delta, k):
    # heading closure s*alpha + s2*delta + s3*gamma = theta_f, with s2 = -s
    # on CCC and s2 = 0, delta = 0 on CSC; k holds `_row_constants`
    turn = delta - alpha if ccc else alpha
    return turn + k[1] + k[2]


def _endpoint(ccc: bool, alpha, mid, r: float, k, trig: np.ndarray):
    """Unit-speed path endpoint from the origin in the first-turn sign k[0].

    mid is the straight length of a CSC word or the middle arc angle of a
    CCC word; a sign of -1 mirrors the path across the start heading, and
    k holds `_row_constants`.  Columns 0 and 1 of trig receive sin and cos
    of alpha, and on CCC columns 2 and 3 those of the chord alpha - mid.
    """
    sa, ca = np.sin(alpha, out=trig[:, 0]), np.cos(alpha, out=trig[:, 1])
    if ccc:
        chord = alpha - mid
        sc, cc = np.sin(chord, out=trig[:, 2]), np.cos(chord, out=trig[:, 3])
        mx, my = -2 * r * sc, 2 * r * cc
    else:
        mx, my = mid * ca, mid * sa
    return 2 * r * sa + mx + k[3], k[0] * (r - 2 * r * ca + my) - k[4]


def _branch_residual(ccc: bool, k, goal: Pose, current: CurrentState,
                     r: float) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth residual of rows with the constants k, normalized vehicle
    speed.

    k is `_row_constants` for goal.theta and r: a tuple of scalars shared
    by every row or of per-row arrays, or a (5, n) table of them.  CSC rows
    are (alpha, T); CCC rows are (alpha, delta, T) and add the time closure
    T = r*(alpha + delta + gamma) as a third residual.  The residual
    vanishes exactly when the path endpoint meets the goal displaced by the
    current drift over T.

    The closure returns 5 columns on CSC and 7 on CCC: the residual, then
    the terms `_branch_jacobian` reads.  Column 2 is the straight length
    T - r*(alpha + gamma) on CSC and the time closure on CCC, columns 3 and
    4 are sin and cos of alpha, and CCC columns 5 and 6 those of the chord
    alpha - delta.
    """
    wx, wy = current.wx, current.wy

    def fn(u: np.ndarray) -> np.ndarray:
        alpha, t = u[:, 0], u[:, -1]
        delta = u[:, 1] if ccc else 0.0
        gamma = _gamma(ccc, alpha, delta, k)
        out = np.empty((len(u), 7 if ccc else 5))
        closure = np.subtract(t, r * (alpha + delta + gamma), out=out[:, 2])
        px, py = _endpoint(ccc, alpha, delta if ccc else closure, r, k, out[:, 3:])
        np.subtract(px, goal.x - wx * t, out=out[:, 0])
        np.subtract(py, goal.y - wy * t, out=out[:, 1])
        return out
    return fn


def _branch_jacobian(ccc: bool, s: float | np.ndarray, current: CurrentState, r: float,
                     f: np.ndarray):
    """Closed-form Jacobian of `_branch_residual`, read from the columns f
    its closure returned at the same point, for rows of first-turn sign s.

    The entries come as nested tuples for `_batched_solve`.  The residual
    is a trig polynomial in the unknowns; with c the straight length, a CSC
    row's matrix is [[-c sin a, cos a + wx], [s c cos a, s sin a + wy]].
    On CCC the column of T and the time-closure row are scalars.
    """
    wx, wy = current.wx, current.wy
    c, sa, ca = f[:, 2], f[:, 3], f[:, 4]
    if not ccc:
        return (-c * sa, ca + wx), (s * c * ca, s * sa + wy)
    sc, cc = f[:, 5], f[:, 6]
    two_rs = 2 * r * s
    return ((2 * r * (ca - cc), 2 * r * cc, wx),
            (two_rs * (sa - sc), two_rs * sc, wy),
            (0.0, -2 * r, 1.0))  # the time closure


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
    raw = _gamma(ccc, u[:, 0], u[:, 1] if ccc else 0.0, _row_constants(ccc, s, 0, goal.theta, r))
    m = -np.floor(raw / TWO_PI)  # representative in [0, 2*pi)
    k = _row_constants(ccc, s, m, goal.theta, r)
    out = _branch_residual(ccc, k, goal, scaled, r)(u)[:, :3 if ccc else 2]
    return out[0] if np.ndim(unknowns) == 1 else out


def _time_upper_bound(goal: Pose, vw: float, r: float) -> float:
    """Any minimum-time candidate finishes before this (net progress >= 1-vw)."""
    return (math.hypot(goal.x, goal.y) + 2 * TWO_PI * r) / (1.0 - vw)


def _check_scale(goal: Pose, current: CurrentState, vehicle: VehicleSpec) -> None:
    """Refuse, before any solve, a turning radius or a goal whose Newton
    terms overflow, or a vehicle speed under which a time in seconds does.

    goal is in the start frame.  A root's time lies below the time bound,
    and a residual, in unit-speed units, within size = bound + (2 + 4*pi) r
    + |x| + |y|.  A 3x3 Jacobian entry is at most 4r, and _batched_solve
    multiplies two entries by a residual, summing three such products.  A
    2x2 one's first column holds the straight length, up to size, and
    _batched_solve sums two products of such an entry and a residual.
    """
    scaled, v = _normalize_problem(current, vehicle)
    r = float(vehicle.turning_radius)
    bound = _time_upper_bound(goal, scaled.speed, r)
    size = float(bound + (2.0 + FOUR_PI) * r + abs(goal.x) + abs(goal.y))
    if not math.isfinite(48.0 * r * r * size):
        raise ValueError(f"vehicle turning_radius {r!r} is too large for a goal at "
                         f"({goal.x!r}, {goal.y!r}): the numeric words' Newton terms overflow")
    if not math.isfinite(4.0 * size * size):
        raise ValueError(f"goal ({goal.x!r}, {goal.y!r}) is too far from the start: the numeric"
                         " words' Newton terms overflow")
    if not math.isfinite(bound / v):
        raise ValueError(f"vehicle speed {vehicle.speed!r} is too small for a goal at "
                         f"({goal.x!r}, {goal.y!r}): the travel time in seconds overflows")


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
    unit-speed time; the solutions carry it in seconds (/v), as floats.
    """
    sols = []
    for b, row in roots:
        path_type, m = branches[b]
        ccc = _is_ccc(path_type)
        row = row.tolist()
        alpha, t = row[0], row[-1]
        delta = row[1] if ccc else 0.0
        gamma = _gamma(ccc, alpha, delta,
                       _row_constants(ccc, SEGMENT_SIGNS[path_type][0], m, goal.theta, r))
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
    and each residual call gathers its rows' `_row_constants` by position
    from a (rows, 5) table built once; all blocks start from the same
    Halton points.  Solutions come word by word, in the order given.
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
    table = np.stack(_row_constants(ccc, s, m, goal.theta, r), axis=1)

    def fn(u, rows):
        return _branch_residual(ccc, table.take(rows, axis=0).T, goal, scaled, r)(u)

    def jac(u, f, rows):
        return _branch_jacobian(ccc, s.take(rows), scaled, r, f)

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
    infeasible and every multistart fails).  Raises ValueError unless the
    current is slower than the vehicle, and for a turning radius or a
    vehicle speed under which the solve would overflow (`_check_scale`).
    """
    t0 = time.perf_counter()
    local_goal, local_current = to_start_frame(start, goal, current)
    _check_scale(local_goal, local_current, vehicle)
    best = plan(start, goal, current, vehicle, ArcMode.TWO_PI)
    for words in _MIRROR_PAIRS:
        for sol in _solve_words(words, local_goal, local_current, vehicle, cfg):
            if best is None or sol.travel_time < best.travel_time - TIME_TIE:
                best = sol
    elapsed = time.perf_counter() - t0
    if best is None:
        return None
    return best, elapsed
