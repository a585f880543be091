"""Six-type solver: residual roots, multistart behavior, and oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftplan import baseline
from driftplan.baseline import (
    HARD_TYPES,
    LatencyModel,
    SolverConfig,
    multi_start_solve,
    residual,
    solve_hard_type,
    solve_six,
)
from driftplan.core import TWO_PI, CurrentSchedule, CurrentState, Pose, VehicleSpec, to_start_frame
from driftplan.experiments import AERIAL, NAVAL, _square_perimeter_points, monte_carlo_goals
from driftplan.planner import SEGMENT_SIGNS, ArcMode, PathType, plan
from driftplan.trajectory import controls_of, integrate_if

from oracles import (
    batched_solve_by_sum,
    branch_jacobian_from_u,
    branch_residual_by_formula,
    classical_dubins_candidates,
    classical_dubins_shortest,
    solve_words_lockstep,
    virtual_target_roots,
)

ORIGIN = Pose(0.0, 0.0, 0.0)
UNIT = VehicleSpec(1.0, 1.0)
STILL = CurrentState(0.0, 0.0)
FAST_CFG = SolverConfig(n_initial_guesses=24, seed=5)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n_initial_guesses=0)


def test_latency_model_defaults():
    lat = LatencyModel()
    assert lat.delay_for("dubins_six") == pytest.approx(8.72)
    assert lat.delay_for("analytic_4pi") == pytest.approx(6.4e-4)
    with pytest.raises(ValueError):
        lat.delay_for("other")


def test_multi_start_on_synthetic_quadratic():
    # residual (x^2 - 1, y - 2) has exactly the roots (+/-1, 2)
    def fn(u, rows):
        return np.stack([u[:, 0] ** 2 - 1.0, u[:, 1] - 2.0], axis=1)

    pairs = multi_start_solve(fn, np.array([[-3.0, 3.0], [0.0, 4.0]]),
                              SolverConfig(n_initial_guesses=40, seed=1))
    assert [b for b, _ in pairs] == [0, 0]
    roots = [row for _, row in pairs]
    xs = sorted(round(r[0], 6) for r in roots)
    assert xs == [-1.0, 1.0]
    assert all(abs(r[1] - 2.0) < 1e-8 for r in roots)


def test_multi_start_deterministic():
    def fn(u, rows):
        return np.stack([np.sin(u[:, 0]), u[:, 1] ** 2 - 2.0], axis=1)

    bounds = np.array([[0.0, 7.0], [0.0, 3.0]])
    cfg = SolverConfig(n_initial_guesses=30, seed=9)
    a = multi_start_solve(fn, bounds, cfg)
    b = multi_start_solve(fn, bounds, cfg)
    assert a
    assert repr([(i, row.tolist()) for i, row in a]) == repr([(i, row.tolist()) for i, row in b])


def test_multi_start_lockstep_matches_one_call_per_branch():
    # Rows carry their branch's parameter p by position; p = -1 has no root.
    # Each branch must keep exactly the roots that a run on p alone keeps.
    def residual_for(p):
        def fn(u, rows):
            q = p[rows] if np.ndim(p) else p
            return np.stack([u[:, 0] ** 2 - q, u[:, 1] ** 3 + u[:, 1] - q], axis=1)
        return fn

    params = (-1.0, 0.25, 2.0, 9.0)
    bounds = np.array([[-4.0, 4.0], [-1.0, 3.0]])
    cfg = SolverConfig(n_initial_guesses=30, seed=3)
    p = np.repeat(params, cfg.n_initial_guesses)
    lockstep = multi_start_solve(residual_for(p), bounds, cfg, len(params))
    assert [b for b, _ in lockstep] == sorted(b for b, _ in lockstep)
    for b, param in enumerate(params):
        alone = multi_start_solve(residual_for(param), bounds, cfg)
        assert {i for i, _ in alone} <= {0}
        assert repr([row.tolist() for _, row in alone]) == \
            repr([row.tolist() for i, row in lockstep if i == b])
    assert {b for b, _ in lockstep} == {1, 2, 3}


def _pairs_match_lockstep(start, goal, current, vehicle, cfg):
    """Assert that both mirror pairs of a solve_six instance solve to the
    lockstep oracle's list; returns how many solutions they hold."""
    local_goal, local_current = to_start_frame(start, goal, current)
    found = 0
    for words in baseline._MIRROR_PAIRS:
        args = (words, local_goal, local_current, vehicle, cfg)
        out = baseline._solve_words(*args)
        assert repr(out) == repr(solve_words_lockstep(*args)), args
        found += len(out)
    return found


@pytest.mark.slow
def test_solve_words_match_lockstep_on_criterion_13_goals():
    # the 1000 zero-current goals of criterion 13, drawn the same way
    rng = np.random.default_rng(2026 + 2)
    cfg = SolverConfig(n_initial_guesses=24, seed=int(rng.integers(2**16)))
    found = 0
    for _ in range(1000):
        goal = Pose(rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(0, TWO_PI))
        found += _pairs_match_lockstep(ORIGIN, goal, CurrentState(0, 0), UNIT, cfg)
    assert found > 1000


def test_solve_words_match_lockstep_on_criterion_14_instances():
    # 40 of criterion 14's 576 static-comparison instances, in its order
    vehicle = VehicleSpec()
    cfg = SolverConfig(seed=2026)
    vw = 0.5 * vehicle.speed
    instances = [
        (Pose(gx, gy, 2.0 * math.pi * hm / 6), CurrentState(vw, 2.0 * math.pi * wm / 6))
        for radius in (5.0, 10.0) for gx, gy in _square_perimeter_points(radius, 8)
        for hm in range(6) for wm in range(6)
    ]
    assert len(instances) == 576
    found = sum(_pairs_match_lockstep(ORIGIN, goal, cur, vehicle, cfg)
                for goal, cur in (instances[i] for i in np.linspace(0, 575, 40).astype(int)))
    assert found > 40


@settings(max_examples=60)
@given(
    pair=st.sampled_from(baseline._MIRROR_PAIRS),
    x=st.floats(-10.0, 10.0), y=st.floats(-10.0, 10.0), theta_f=st.floats(0.0, TWO_PI),
    ring=st.none() | st.integers(0, 35),
    vw=st.sampled_from((0.0, 0.5, 0.99, 1 - 1e-7)) | st.floats(0.0, 1 - 1e-7),
    psi=st.floats(0.0, TWO_PI), speed=st.floats(0.5, 30.0), radius=st.floats(0.3, 30.0),
    starts=st.integers(1, 100), seed=st.integers(0, 2**16),
)
# start counts at the working set's padding boundaries (_PAD_ROWS = 16 rows),
# for both mirror pairs, and a current a hair under the vehicle's speed,
# where no start converges
@example(pair=baseline._MIRROR_PAIRS[0], x=3.0, y=4.0, theta_f=1.0, ring=None, vw=0.5, psi=2.0,
         speed=1.0, radius=1.0, starts=1, seed=2)
@example(pair=baseline._MIRROR_PAIRS[0], x=3.0, y=4.0, theta_f=1.0, ring=None, vw=0.5, psi=2.0,
         speed=1.0, radius=1.0, starts=16, seed=7)
@example(pair=baseline._MIRROR_PAIRS[0], x=-2.0, y=1.5, theta_f=4.0, ring=None, vw=0.8, psi=0.5,
         speed=2.0, radius=0.7, starts=17, seed=11)
@example(pair=baseline._MIRROR_PAIRS[0], x=6.0, y=-5.0, theta_f=5.5, ring=None, vw=0.3, psi=4.0,
         speed=8.0, radius=10.0, starts=33, seed=12)
@example(pair=baseline._MIRROR_PAIRS[1], x=1.0, y=1.5, theta_f=3.0, ring=None, vw=0.2, psi=1.0,
         speed=1.0, radius=1.0, starts=1, seed=1)
@example(pair=baseline._MIRROR_PAIRS[1], x=1.0, y=1.5, theta_f=3.0, ring=None, vw=0.2, psi=1.0,
         speed=1.0, radius=1.0, starts=16, seed=7)
@example(pair=baseline._MIRROR_PAIRS[1], x=-0.5, y=2.0, theta_f=0.5, ring=None, vw=0.6, psi=3.0,
         speed=2.0, radius=0.7, starts=17, seed=11)
@example(pair=baseline._MIRROR_PAIRS[1], x=1.5, y=-1.0, theta_f=2.0, ring=None, vw=0.4, psi=5.0,
         speed=8.0, radius=10.0, starts=33, seed=12)
@example(pair=baseline._MIRROR_PAIRS[0], x=0.0, y=0.0, theta_f=0.0, ring=7, vw=1 - 1e-7, psi=2.0,
         speed=18.0, radius=40.0, starts=40, seed=4)
def test_solve_words_match_lockstep_anywhere(pair, x, y, theta_f, ring, vw, psi, speed, radius,
                                             starts, seed):
    # goals within +-10r of the start, or on the 100 m Monte-Carlo ring
    vehicle = VehicleSpec(speed, radius)
    goal = Pose(x * radius, y * radius, theta_f) if ring is None else monte_carlo_goals()[ring]
    args = (pair, goal, CurrentState(vw * speed, psi), vehicle,
            SolverConfig(n_initial_guesses=starts, seed=seed))
    assert repr(baseline._solve_words(*args)) == repr(solve_words_lockstep(*args))


def test_solve_six_makes_two_residual_calls_per_newton_iteration(monkeypatch):
    # Counts each residual closure's calls and rows, wrapping the factory
    # as the benchmark tracer does, on one aerial instance at the 100 m ring.
    calls = []
    factory = baseline._branch_residual

    def counting_factory(*args):
        fn = factory(*args)

        def counted(u):
            calls.append(len(u))
            return fn(u)
        return counted

    monkeypatch.setattr(baseline, "_branch_residual", counting_factory)
    goal, cur = monte_carlo_goals()[7], CurrentState(0.8 * AERIAL.vehicle.speed, 2.0)
    local_goal, local_current = to_start_frame(ORIGIN, goal, cur)
    cfg = SolverConfig(seed=4)
    for words in baseline._MIRROR_PAIRS:
        args = (words, local_goal, local_current, AERIAL.vehicle, cfg)
        calls.clear()
        out = baseline._solve_words(*args)
        searched = list(calls)
        calls.clear()
        assert repr(solve_words_lockstep(*args)) == repr(out)
        assert len(searched) <= 1 + 2 * baseline.MAX_ITERATIONS
        assert len(searched) < len(calls)
        assert sum(searched) < sum(calls)
    calls.clear()
    assert solve_six(ORIGIN, goal, cur, AERIAL.vehicle, cfg) is not None
    assert len(calls) <= 2 * (1 + 2 * baseline.MAX_ITERATIONS)


def test_line_search_keeps_the_rows_no_damping_improves():
    # residual (u0^2 + 1, u1) with a carried column: rows at u0 = 0 sit at
    # the minimum of the first column, so no step along u0 lowers the norm;
    # they keep their point, residual and norm, and the other rows move
    def fn(u, rows):
        return np.stack([u[:, 0] ** 2 + 1.0, u[:, 1], rows + 0.5], axis=1)

    x = np.array([[0.0, 0.5], [2.0, 0.5], [0.0, -0.25], [3.0, 0.0], [-0.0, 0.5]])
    rows = np.arange(len(x)) + 10
    f = fn(x, rows)
    fnorm = baseline._max_abs(f[:, :2])
    step = np.array([[1.0, -0.5], [-2.0, -0.5], [-0.5, 0.25], [-13.0, 0.0], [0.25, 0.0]])
    improve, trial, ft, norm = baseline._line_search(fn, rows, x, f, fnorm, step)
    assert improve.tolist() == [False, True, False, True, False]
    stuck = ~improve
    assert repr(trial[stuck].tolist()) == repr(x[stuck].tolist())
    assert repr(ft[stuck].tolist()) == repr(f[stuck].tolist())
    assert repr(norm[stuck].tolist()) == repr(fnorm[stuck].tolist())
    # the full step for row 1, the first improving damping (1/4) for row 3
    assert trial[1].tolist() == [0.0, 0.0] and trial[3].tolist() == [-0.25, 0.0]
    assert ft[improve, 2].tolist() == [11.5, 13.5]
    assert (norm[improve] < fnorm[improve]).all()


def test_distinct_rows_matches_greedy_loop():
    # clusters a few 1e-6 wide, so which row of a cluster survives depends
    # on the greedy order; the reference is the row-by-row loop
    rng = np.random.default_rng(31)
    for dims in (2, 3):
        centers = rng.uniform(-5, 5, size=(6, dims))
        rows = centers[rng.integers(6, size=80)] + rng.uniform(-1.5e-6, 1.5e-6, size=(80, dims))
        kept = []
        for row in rows[np.lexsort(rows.T[::-1])]:
            if all(np.abs(row - other).max() > 1e-6 for other in kept):
                kept.append(row)
        assert len(kept) > 6
        assert repr(baseline._distinct_rows(rows)) == repr(kept)
    assert baseline._distinct_rows(np.empty((0, 2))) == []


@pytest.mark.parametrize("dims", [2, 3])
def test_batched_solve_matches_lapack_and_zeroes_singular_rows(dims):
    rng = np.random.default_rng(dims)
    jac = rng.normal(size=(200, dims, dims))
    jac[::7, -1] = jac[::7, 0]  # singular: two equal rows
    rhs = rng.normal(size=(200, dims))
    dx = baseline._batched_solve(jac, rhs)
    singular = np.zeros(200, dtype=bool)
    singular[::7] = True
    assert (dx[singular] == 0.0).all()
    expected = np.linalg.solve(jac[~singular], rhs[~singular][..., None])[..., 0]
    cond = np.linalg.cond(jac[~singular])
    assert (np.abs(dx[~singular] - expected).max(axis=1)
            <= 1e-13 * cond * np.abs(expected).max(axis=1)).all()


def _as_matrices(entries, n):
    """Nested Jacobian entries (1-D arrays or shared scalars) as (n, d, d)."""
    return np.array([[np.broadcast_to(e, n) for e in row] for row in entries]).transpose(2, 0, 1)


def _random_branch_rows(words, rng, n):
    """s, m and unknowns u of n rows that mix both words of a mirror pair
    and all their winding branches."""
    picks = rng.integers(len(words), size=n)
    assert set(picks) == {0, 1}
    s = np.array([SEGMENT_SIGNS[words[i]][0] for i in picks], dtype=float)
    m = np.array([rng.choice(baseline._closure_offsets(words[i])) for i in picks])
    u = rng.uniform(0.0, TWO_PI, size=(n, 3 if baseline._is_ccc(words[0]) else 2))
    u[:, -1] = rng.uniform(0.0, 40.0, size=n)
    return s, m, u


@pytest.mark.parametrize("words", baseline._MIRROR_PAIRS, ids=lambda w: "+".join(x.name for x in w))
def test_analytic_jacobian_matches_finite_differences(words):
    # Rows mix both words of the pair and all their winding branches; each
    # row's closed-form matrix must match central differences of the same
    # residual to about 1e-6 of that matrix row's scale.
    ccc = baseline._is_ccc(words[0])
    rng = np.random.default_rng(17)
    for _ in range(20):
        goal = Pose(rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(0, TWO_PI))
        cur = CurrentState(rng.uniform(0, 0.9), rng.uniform(0, TWO_PI))
        r = rng.uniform(0.3, 3.0)
        s, m, u = _random_branch_rows(words, rng, 60)
        k = baseline._row_constants(ccc, s, m, goal.theta, r)
        residual_fn = baseline._branch_residual(ccc, k, goal, cur, r)
        jac = _as_matrices(baseline._branch_jacobian(ccc, s, cur, r, residual_fn(u)), len(u))
        fd = baseline._batched_jacobian(residual_fn, u)
        scale = np.maximum(np.abs(jac).max(axis=2, keepdims=True), 1.0)
        assert np.abs(jac - fd).max() > 0.0  # not the same computation
        assert (np.abs(jac - fd) <= 1e-6 * scale).all(), np.abs(jac - fd).max()


@pytest.mark.parametrize("words", baseline._MIRROR_PAIRS, ids=lambda w: "+".join(x.name for x in w))
def test_carried_jacobian_is_the_from_u_formula_bit_for_bit(words):
    # The Jacobian reads sin, cos and the straight length from the columns
    # the residual carried; recomputing them at u must give the same floats,
    # entry by entry, also at alpha and delta = +-0, large T and r = 1e100.
    ccc = baseline._is_ccc(words[0])
    rng = np.random.default_rng(29)
    for r in (rng.uniform(0.3, 3.0), 1.0, 1e100):
        for _ in range(10):
            goal = Pose(rng.uniform(-8, 8) * r, rng.uniform(-8, 8) * r, rng.uniform(0, TWO_PI))
            cur = CurrentState(rng.uniform(0, 0.999), rng.uniform(0, TWO_PI))
            s, m, u = _random_branch_rows(words, rng, 80)
            u[:, -1] *= r
            u[:8, 0] = (0.0, -0.0) * 4
            u[8:16, -1] = rng.uniform(1e6, 1e12, size=8) * r
            if ccc:
                u[:8:2, 1] = (0.0, -0.0, 0.0, -0.0)
            k = baseline._row_constants(ccc, s, m, goal.theta, r)
            f = baseline._branch_residual(ccc, k, goal, cur, r)(u)
            entries = baseline._branch_jacobian(ccc, s, cur, r, f)
            expected = branch_jacobian_from_u(ccc, s, m, goal, cur, r)(u)
            assert np.isfinite(expected).all()
            for i, row in enumerate(entries):
                for j, entry in enumerate(row):
                    assert repr(np.broadcast_to(entry, len(u)).tolist()) == \
                        repr(expected[:, i, j].tolist()), (r, i, j)


@pytest.mark.parametrize("words", baseline._MIRROR_PAIRS, ids=lambda w: "+".join(x.name for x in w))
def test_row_constant_table_gives_the_residual_formula_bit_for_bit(words):
    # _solve_words gathers each row's constants from a (rows, 5) table; the
    # residual columns must be the floats of the formula that computes them
    # from s, m and theta_f, also at alpha and delta = +-0, large T and
    # r = 1e100.
    ccc = baseline._is_ccc(words[0])
    d = 3 if ccc else 2
    rng = np.random.default_rng(37)
    for r in (rng.uniform(0.3, 3.0), 1.0, 1e100):
        for _ in range(10):
            goal = Pose(rng.uniform(-8, 8) * r, rng.uniform(-8, 8) * r, rng.uniform(0, TWO_PI))
            cur = CurrentState(rng.uniform(0, 0.999), rng.uniform(0, TWO_PI))
            s, m, u = _random_branch_rows(words, rng, 80)
            u[:, -1] *= r
            u[:8, 0] = (0.0, -0.0) * 4
            u[8:16, -1] = rng.uniform(1e6, 1e12, size=8) * r
            if ccc:
                u[:8:2, 1] = (0.0, -0.0, 0.0, -0.0)
            table = np.stack(baseline._row_constants(ccc, s, m, goal.theta, r), axis=1)
            rows = rng.permutation(len(u))
            f = baseline._branch_residual(ccc, table.take(rows, axis=0).T, goal, cur, r)(u)
            expected = branch_residual_by_formula(ccc, s[rows], m[rows], goal, cur, r)(u)
            assert repr(f[:, :d].tolist()) == repr(expected.tolist()), r


@pytest.mark.parametrize("dims", [2, 3])
def test_batched_solve_reads_entries_as_the_array_form(dims):
    # Nested entries, with a CCC-shaped scalar row (0, -2r, 1) and scalar
    # last column on 3x3, solve to the same floats as the (n, d, d) array of
    # the same matrices and as the summed-adjugate form, singular rows too.
    rng = np.random.default_rng(41 + dims)
    n = 200
    a, b, c, e = rng.normal(size=(4, n))
    c[::7], e[::7] = a[::7], b[::7]  # singular: two equal rows
    if dims == 2:
        entries = ((a, b), (c, e))
    else:
        w = 0.3
        entries = ((a, b, w), (c, e, w), (0.0, -2 * 1.7, 1.0))
    rhs = rng.normal(size=(n, dims))
    jac = _as_matrices(entries, n)
    dx = baseline._batched_solve(entries, rhs)
    assert (dx[::7] == 0.0).all() and (dx[1::7] != 0.0).all()
    assert repr(dx.tolist()) == repr(baseline._batched_solve(jac, rhs).tolist())
    assert repr(dx.tolist()) == repr(batched_solve_by_sum(jac, rhs).tolist())


@pytest.mark.parametrize("vehicle", [NAVAL.vehicle, AERIAL.vehicle, UNIT],
                         ids=["naval", "aerial", "unit"])
def test_solve_six_pairs_match_per_word_solves(monkeypatch, vehicle):
    # solve_six solves each mirror pair as one array; every pair's solutions
    # must be repr-identical to the two words solved one at a time.
    paired = []
    solve_words = baseline._solve_words

    def spy(words, *args):
        out = solve_words(words, *args)
        paired.append((words, args, out))
        return out

    monkeypatch.setattr(baseline, "_solve_words", spy)
    v, r = vehicle.speed, vehicle.turning_radius
    rng = np.random.default_rng(23)
    found = 0
    for _ in range(6):
        start = Pose(rng.uniform(-5, 5) * r, rng.uniform(-5, 5) * r, rng.uniform(0, TWO_PI))
        goal = Pose(start.x + rng.uniform(-10, 10) * r, start.y + rng.uniform(-10, 10) * r,
                    rng.uniform(0, TWO_PI))
        cur = CurrentState(rng.uniform(0, 0.9) * v, rng.uniform(0, TWO_PI))
        cfg = SolverConfig(n_initial_guesses=40, seed=int(rng.integers(2**16)))
        paired.clear()
        solve_six(start, goal, cur, vehicle, cfg)
        assert [words for words, _, _ in paired] == list(baseline._MIRROR_PAIRS)
        for words, args, out in list(paired):
            alone = [sol for word in words for sol in solve_hard_type(word, *args)]
            assert repr(out) == repr(alone)
            found += len(out)
    assert found > 10


def test_residual_zero_at_classical_lsr_root():
    # zero current: the classical closed-form LSR parameters must be a root
    goal = Pose(4.0, -3.0, 5.5)
    cands = [c for c in [classical_dubins_shortest(goal.x, goal.y, goal.theta)]
             if c[0] is PathType.LSR]
    if not cands:
        from oracles import classical_dubins_candidates
        cands = [c for c in classical_dubins_candidates(goal.x, goal.y, goal.theta)
                 if c[0] is PathType.LSR]
    assert cands
    _, alpha, beta, gamma, length = cands[0]
    res = residual(PathType.LSR, (alpha, length), goal, STILL, UNIT)
    assert np.abs(res).max() <= 1e-9


def test_residual_positive_away_from_roots():
    goal = Pose(3.0, 2.0, 1.0)
    cur = CurrentState(0.3, 1.0)
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.3, 5.0, size=(50, 2))
    res = residual(PathType.LSR, vals, goal, cur, UNIT)
    assert (np.abs(res).max(axis=1) > 1e-9).sum() >= 49


@pytest.mark.parametrize("path_type", HARD_TYPES)
def test_residual_returns_only_the_residual_columns(path_type):
    # the terms the closure carries for the Jacobian stay inside the solver
    d = 3 if baseline._is_ccc(path_type) else 2
    goal, cur = Pose(3.0, 2.0, 1.0), CurrentState(0.3, 1.0)
    rows = np.random.default_rng(5).uniform(0.3, 5.0, size=(7, d))
    assert residual(path_type, rows[0], goal, cur, UNIT).shape == (d,)
    assert residual(path_type, rows, goal, cur, UNIT).shape == (7, d)


@pytest.mark.parametrize("path_type", [PathType.LSL, PathType.RSR])
def test_residual_refuses_closed_form_words(path_type):
    # used to return the residual of another word without error
    with pytest.raises(ValueError, match="closed-form"):
        residual(path_type, (1.0, 5.0), Pose(3.0, 2.0, 1.0), STILL, UNIT)


def test_solve_six_refuses_a_turning_radius_whose_terms_overflow():
    # Used to overflow in numpy and return an infinite travel time.
    with pytest.raises(ValueError, match=r"^vehicle turning_radius 1e\+308 is too large"):
        solve_six(Pose(0.0, 0.0, 0.0), Pose(4.0, 2.0, 1.0), CurrentState(0.3, 1.0),
                  VehicleSpec(1.0, 1e308))


def test_solve_six_refuses_a_radius_whose_newton_terms_overflow():
    # Used to print numpy overflow warnings from _batched_solve, whose 3x3
    # adjugate times a residual grows like r^3, and exit 0.
    with pytest.raises(ValueError, match=r"^vehicle turning_radius 1e\+150 is too large for a "
                                         r"goal at \(4\.0, 2\.0\): the numeric words' Newton"):
        solve_six(ORIGIN, Pose(4.0, 2.0, 1.0), CurrentState(0.3, 1.0), VehicleSpec(1.0, 1e150),
                  FAST_CFG)


def test_solve_six_refuses_a_goal_whose_newton_terms_overflow():
    # Used to print numpy overflow warnings from _batched_solve, whose 2x2
    # adjugate times a residual grows like the squared goal distance, and
    # exit 0; the goal passes to_start_frame and the closed forms' check.
    with pytest.raises(ValueError, match=r"^goal \(1e\+154, 4e\+153\) is too far from the "
                                         r"start: the numeric words' Newton terms overflow"):
        solve_six(ORIGIN, Pose(1e154, 4e153, 1.0), CurrentState(0.5, 1.0), VehicleSpec(),
                  FAST_CFG)


@pytest.mark.parametrize("scale, vw", [(1e153, 0.0), (1e153, 0.5), (1e150, 0.999)])
def test_solve_six_solves_a_far_goal_below_the_bound(scale, vw):
    # Accepted, and solved with no numpy overflow (the suite fails on one).
    goal, current = Pose(scale, 0.4 * scale, 1.0), CurrentState(vw, 1.0)
    sol, _ = solve_six(ORIGIN, goal, current, VehicleSpec(), FAST_CFG)
    assert math.isfinite(sol.travel_time)


@pytest.mark.parametrize("words", [(PathType.LSR, PathType.RSL), (PathType.LRL, PathType.RLR)],
                         ids=["LSR+RSL", "LRL+RLR"])
def test_a_radius_of_1e100_solves_as_the_lockstep_oracle(words):
    # Accepted, and solved with no numpy overflow (the suite fails on one).
    # No numeric root meets the absolute residual tolerance at this scale,
    # so the closed forms answer.
    goal, current, vehicle = Pose(4.0, 2.0, 1.0), CurrentState(0.3, 1.0), VehicleSpec(1.0, 1e100)
    sol, _ = solve_six(ORIGIN, goal, current, vehicle, FAST_CFG)
    assert sol == plan(ORIGIN, goal, current, vehicle, ArcMode.TWO_PI)
    sols = baseline._solve_words(words, goal, current, vehicle, FAST_CFG)
    assert repr(sols) == repr(solve_words_lockstep(words, goal, current, vehicle, FAST_CFG))


def test_solve_six_refuses_a_speed_whose_travel_time_overflows():
    # The closed forms find no 2*pi path here, so only the numeric words
    # answer; their times in seconds used to overflow with a numpy warning.
    goal, current = Pose(4.0, 3.0, 7 * math.pi / 4), CurrentState(0.5e-310, math.pi / 3)
    vehicle = VehicleSpec(1e-310, 1.0)
    assert plan(ORIGIN, goal, current, vehicle, ArcMode.TWO_PI) is None
    with pytest.raises(ValueError, match=r"^vehicle speed 1e-310 is too small for a goal at "
                                         r"\(4\.0, 3\.0\)"):
        solve_six(ORIGIN, goal, current, vehicle, FAST_CFG)


def test_hard_type_roots_integrate_to_goal():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(12):
        goal = Pose(rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(0, TWO_PI))
        cur = CurrentState(rng.uniform(0, 0.7), rng.uniform(0, TWO_PI))
        for path_type in HARD_TYPES:
            for sol in solve_hard_type(path_type, goal, cur, UNIT, FAST_CFG):
                traj = integrate_if(ORIGIN, controls_of(sol, UNIT),
                                    CurrentSchedule.constant(cur), UNIT, h=1e-3)
                end = traj.end_pose()
                err = math.hypot(end.x - goal.x, end.y - goal.y)
                assert err <= 1e-6, (path_type, sol, err)
                checked += 1
    assert checked > 20


def test_hard_roots_match_virtual_target_oracle():
    # At its travel time T every multistart root is the classical word of
    # its type aimed at the goal drifted back by the current, and the
    # oracle's own T scan finds it too.
    vehicle = VehicleSpec(1.5, 0.8)
    v, r = vehicle.speed, vehicle.turning_radius
    rng = np.random.default_rng(19)
    checked = 0
    for _ in range(30):
        goal = Pose(rng.uniform(-6, 6) * r, rng.uniform(-6, 6) * r, rng.uniform(0, TWO_PI))
        cur = CurrentState(rng.uniform(0, 0.8) * v, rng.uniform(0, TWO_PI))
        t_max = (math.hypot(goal.x, goal.y) + 2 * TWO_PI * r) / (v - cur.speed)
        scanned = virtual_target_roots(goal.x, goal.y, goal.theta, cur.wx, cur.wy, t_max, v, r)
        for path_type in HARD_TYPES:
            for sol in solve_hard_type(path_type, goal, cur, vehicle, FAST_CFG):
                t = sol.travel_time
                words = classical_dubins_candidates(
                    goal.x - cur.wx * t, goal.y - cur.wy * t, goal.theta, r)
                gap = min((max(abs(a - sol.alpha), abs(r * mid - sol.beta),
                               abs(c - sol.gamma), abs(length - v * t))
                           for word, a, mid, c, length in words if word is path_type),
                          default=math.inf)
                assert gap <= 1e-7, (path_type, sol, gap)
                assert any(word is path_type and abs(ts - t) <= 1e-7 * t
                           for word, ts, *_ in scanned), (path_type, sol)
                checked += 1
    assert checked > 50


def test_zero_current_matches_classical_dubins():
    rng = np.random.default_rng(11)
    for _ in range(60):
        goal = Pose(rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(0, TWO_PI))
        solved = solve_six(ORIGIN, goal, STILL, UNIT, FAST_CFG)
        assert solved is not None
        best, _ = solved
        _, _, _, _, ref_len = classical_dubins_shortest(goal.x, goal.y, goal.theta)
        assert best.travel_time == pytest.approx(ref_len, abs=1e-6)


def test_six_never_slower_than_two_pi():
    rng = np.random.default_rng(13)
    for _ in range(40):
        goal = Pose(rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(0, TWO_PI))
        cur = CurrentState(rng.uniform(0, 0.8), rng.uniform(0, TWO_PI))
        two = plan(ORIGIN, goal, cur, UNIT, ArcMode.TWO_PI)
        if two is None:
            continue
        solved = solve_six(ORIGIN, goal, cur, UNIT, FAST_CFG)
        assert solved[0].travel_time <= two.travel_time + 1e-9


def test_solve_six_deterministic():
    goal = Pose(5, 3, 1.0)
    cur = CurrentState(0.4, 2.0)
    cfg = SolverConfig(n_initial_guesses=30, seed=21)
    a = solve_six(ORIGIN, goal, cur, UNIT, cfg)
    b = solve_six(ORIGIN, goal, cur, UNIT, cfg)
    assert a[0] == b[0]


def test_solve_six_upstream_example_beats_closed_forms():
    # at the published upstream instance a drift-exploiting RLR root exists
    # that undercuts both the classical-arc optimum (20.91) and the
    # extended-arc optimum (10.51); its endpoint must still verify
    goal = Pose(-2.3, 2.8, math.pi / 2)
    cur = CurrentState(0.5, math.pi)
    best, _ = solve_six(ORIGIN, goal, cur, UNIT, SolverConfig(seed=2))
    assert best.travel_time <= 10.52
    traj = integrate_if(ORIGIN, controls_of(best, UNIT),
                        CurrentSchedule.constant(cur), UNIT, h=1e-3)
    end = traj.end_pose()
    assert math.hypot(end.x - goal.x, end.y - goal.y) <= 1e-6


def test_numeric_word_solutions_hold_plain_floats():
    # The drift-exploiting RLR root of the upstream instance, read out of the
    # Newton arrays, holds Python floats as the closed-form words do.
    best, _ = solve_six(ORIGIN, Pose(-2.3, 2.8, math.pi / 2), CurrentState(0.5, math.pi), UNIT,
                        SolverConfig(seed=2))
    assert best.path_type is PathType.RLR
    assert [type(getattr(best, name)) for name in ("alpha", "beta", "gamma", "kappa",
                                                   "travel_time")] == [float] * 5
    assert type(best.k) is int


def test_solve_six_rejects_fast_current():
    with pytest.raises(ValueError):
        solve_six(ORIGIN, Pose(1, 1, 0), CurrentState(2.0, 0), UNIT)


def test_solve_six_reports_wall_clock():
    _, elapsed = solve_six(ORIGIN, Pose(2, 2, 1.0), STILL, UNIT, FAST_CFG)
    assert elapsed > 0.0


@settings(max_examples=40)
@given(
    pair=st.sampled_from(((PathType.LSR, PathType.RSL), (PathType.LRL, PathType.RLR))),
    x=st.floats(-10.0, 10.0), y=st.floats(-10.0, 10.0), theta_f=st.floats(1e-3, TWO_PI - 1e-3),
    vw=st.floats(0.0, 0.9), psi=st.floats(0.0, TWO_PI),
    speed=st.floats(0.5, 3.0), radius=st.floats(0.3, 3.0),
)
def test_hard_words_are_mirrored(pair, x, y, theta_f, vw, psi, speed, radius):
    # Reflecting goal and current across the start heading turns the LSR
    # (LRL) roots into RSL (RLR) roots with the same arcs, middle and time.
    # theta_f stays clear of 0, where the mirrored heading wraps.
    word, mirrored = pair
    vehicle = VehicleSpec(speed, radius)
    sols = solve_hard_type(word, Pose(x * radius, y * radius, theta_f),
                           CurrentState(vw * speed, psi), vehicle, FAST_CFG)
    mirrored_sols = solve_hard_type(mirrored, Pose(x * radius, -y * radius, -theta_f),
                                    CurrentState(vw * speed, -psi), vehicle, FAST_CFG)
    assert len(sols) == len(mirrored_sols)

    def rows(found):
        return np.array(sorted((s.alpha, s.beta, s.gamma, s.travel_time) for s in found))

    np.testing.assert_allclose(rows(mirrored_sols), rows(sols), rtol=1e-9, atol=1e-9)
