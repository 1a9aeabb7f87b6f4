import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import DEEP_PROBLEM, FOUR_STATE_PROBLEM, OVERFLOW_PROBLEM, WIDE_PROBLEM, random_expr
from compassdiff import expr as ex
from compassdiff import odesens
from compassdiff.compass import probe_directions, verify_subgradient_inequality
from compassdiff.demos import paper_fixture_path
from compassdiff.odesens import (
    IntegrationConfig,
    IntegrationError,
    OdeProblem,
    StepStats,
    _A,
    _B5,
    _E,
    _combine,
    _control,
    _dopri5_rows,
    _error_norm,
    _first_guess,
    _rms,
    _second_guess,
    _subgradient_and_trajectories,
    _vector_oracle_from_exprs,
    integrate_coupled,
    integrate_state,
    ode_cost_dirderiv,
    ode_cost_value,
    ode_subgradient,
    problem_from_json,
)
from compassdiff.oracle import DirectionalOracle, InputError, VectorOracle
from compassdiff.sampling import halton_in_box

E = math.e
COSH1 = math.cosh(1.0)
SINH1 = math.sinh(1.0)


@pytest.fixture(scope="module")
def bundled_problem():
    return problem_from_json(paper_fixture_path("example46.json"))


def _linear_problem(A, c):
    """Classical smooth benchmark: dx/dt = A x, x0(p) = p, cost <c, x(T)>."""
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    # point maps: lists of Python floats in and out
    rhs = VectorOracle(value=lambda x: (A @ x).tolist(), tangent=lambda z: (A @ z[:2]).tolist() + (A @ z[2:]).tolist(),
                       dim_in=2, dim_out=2)
    init = VectorOracle(value=list, tangent=list, dim_in=2, dim_out=2)
    cost = DirectionalOracle(
        value=lambda z: float(c @ z[2:]),
        dir_deriv=lambda z, t: float(c @ t[2:]),
        dim=4,
    )
    return OdeProblem(rhs=rhs, init=init, cost=cost, t_final=1.0)


# ---------------------------------------------------------------------------
# coupled integration against closed forms

def test_sensitivity_branch_plus_e1(bundled_problem):
    # at p = 0 the state stays at the origin and the tangent system has the
    # closed-form solution y1(t) = (1 + t) e^t along d = e1
    traj = integrate_coupled(bundled_problem, [0.0, 0.0], [1.0, 0.0])
    assert np.max(np.abs(traj.states[-1])) == 0.0
    assert traj.sensitivities[-1] == pytest.approx([2.0 * E, 0.0, E], abs=1e-5)
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    assert traj.stats.accepted == traj.times.size - 1


def test_sensitivity_branch_minus_e1(bundled_problem):
    # along d = -e1 the first tangent stays negative: y1(t) = -cosh t
    traj = integrate_coupled(bundled_problem, [0.0, 0.0], [-1.0, 0.0])
    assert traj.sensitivities[-1][0] == pytest.approx(-COSH1, abs=1e-5)


def test_cost_dirderivs_match_closed_forms(bundled_problem):
    cases = {
        (1.0, 0.0): 2.0 * E,
        (-1.0, 0.0): -COSH1,
        (0.0, 1.0): E,
        (0.0, -1.0): SINH1,
        (0.0, 0.0): 0.0,
    }
    for d, want in cases.items():
        got = ode_cost_dirderiv(bundled_problem, [0.0, 0.0], list(d))
        assert got == pytest.approx(want, abs=1e-5)


def test_smooth_linear_system_matches_matrix_exponential():
    A = np.array([[0.3, -1.2], [0.7, -0.5]])
    problem = _linear_problem(A, c=[1.0, 0.0])
    propagator = expm(A)
    for d in (np.array([1.0, 0.0]), np.array([0.4, -0.9])):
        traj = integrate_coupled(problem, [0.2, -0.1], d, IntegrationConfig())
        assert traj.sensitivities[-1] == pytest.approx(propagator @ d, abs=1e-7)


def test_smooth_linear_subgradient_is_classical_gradient():
    A = np.array([[0.3, -1.2], [0.7, -0.5]])
    c = np.array([0.8, -0.3])
    problem = _linear_problem(A, c)
    result = ode_subgradient(problem, [0.5, 0.5])
    assert result.subgradient == pytest.approx(expm(A).T @ c, abs=1e-7)
    assert result.guarantee == "guaranteed"


# ---------------------------------------------------------------------------
# the headline subgradient

def test_ode_subgradient_value(bundled_problem):
    result = ode_subgradient(bundled_problem, [0.0, 0.0])
    closed_form = np.array([E + COSH1 / 2.0, (E - SINH1) / 2.0])
    assert result.subgradient == pytest.approx(closed_form, abs=1e-6)
    assert result.subgradient == pytest.approx([3.490, 0.772], abs=2e-3)
    assert len(result.probes) == 4
    assert np.array_equal(result.recompute_subgradient(), result.subgradient)


def test_psi_positive_homogeneity(bundled_problem):
    # psi(2d) = 2 psi(d) up to integration error; the realized tolerance of a
    # probe scales with the trajectory magnitude the controller worked at
    cfg = IntegrationConfig()
    rng = np.random.default_rng(7)
    for _ in range(8):
        d = rng.uniform(-1, 1, 2)
        doubled = ode_cost_dirderiv(bundled_problem, [0.0, 0.0], 2.0 * d, cfg)
        single = ode_cost_dirderiv(bundled_problem, [0.0, 0.0], d, cfg)
        traj = integrate_coupled(bundled_problem, [0.0, 0.0], 2.0 * d, cfg)
        scale = max(1.0, float(np.max(np.abs(traj.sensitivities[-1]))))
        assert abs(doubled - 2.0 * single) <= 10.0 * (cfg.abs_tol + cfg.rel_tol * scale)


def test_subgradient_inequality_for_ode_cost(bundled_problem):
    # the cost is convex here; 200 low-discrepancy parameter samples, with
    # slack matched to the integrator tolerance
    s = ode_subgradient(bundled_problem, [0.0, 0.0]).subgradient
    samples = halton_in_box(200, [-1.0, -1.0], [1.0, 1.0])
    report = verify_subgradient_inequality(
        lambda q: ode_cost_value(bundled_problem, q), np.zeros(2), s, samples, slack=1e-4)
    assert report.passed, report.max_violation


def test_tolerance_convergence(bundled_problem):
    # halving both tolerances four times changes the answer by strictly
    # decreasing increments (base tolerance chosen inside the regime where
    # the controller is the dominant error source)
    subs = []
    for k in range(6):
        tol = 1e-3 / 2.0 ** k
        cfg = IntegrationConfig(abs_tol=tol, rel_tol=tol)
        subs.append(ode_subgradient(bundled_problem, [0.0, 0.0], cfg).subgradient)
    increments = [float(np.linalg.norm(subs[k + 1] - subs[k])) for k in range(5)]
    assert all(increments[i + 1] < increments[i] for i in range(4)), increments


def test_nine_branch_tangent_table(bundled_problem):
    # the generated tangent right-hand side agrees with the explicit
    # nine-case table for dy1 and three-case table for dy2
    f1 = ex.parse_expr("(add (abs (var 0)) (abs (var 1)) (var 2))")
    f2 = ex.parse_expr("(abs (var 1))")

    def table_dy1(x, y):
        t1 = np.sign(x[0]) * y[0] if x[0] != 0 else abs(y[0])
        t2 = np.sign(x[1]) * y[1] if x[1] != 0 else abs(y[1])
        return t1 + t2 + y[2]

    def table_dy2(x, y):
        return np.sign(x[1]) * y[1] if x[1] != 0 else abs(y[1])

    rng = np.random.default_rng(99)
    for i in range(10_000):
        x = rng.uniform(-2, 2, 3)
        if i % 3 == 0:
            x[0] = 0.0
        if i % 5 == 0:
            x[1] = 0.0
        y = rng.uniform(-2, 2, 3)
        got = bundled_problem.rhs.tangent(np.concatenate([x, y]).tolist())[3:]
        assert got[0] == table_dy1(x, y)
        assert got[1] == table_dy2(x, y)
        assert got[2] == y[2]


# coordinates on kinks and ties (small integers and both zeros; the
# expressions' constants are integers too) and non-finite entries
_ROW_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, math.inf, -math.inf, math.nan]),
                       st.floats(-3.0, 3.0))
# literals the generated code must carry exactly: bound by name, never printed into it
_LITERALS = st.lists(st.sampled_from([-0.0, 0.1, 1e308, math.inf, -math.inf, math.nan]), max_size=4)


def _closure_oracle(exprs, dim) -> VectorOracle:
    """The point maps as the closure pass computes them: one forward per component."""
    forwards = [ex.compile_expr(e).forward for e in exprs]

    def value(x):
        return [f(x, x)[0] for f in forwards]

    def tangent(z):
        pairs = [f(z[:dim], z[dim:]) for f in forwards]
        return [v for v, _ in pairs] + [t for _, t in pairs]

    return VectorOracle(value=value, tangent=tangent, dim_in=dim, dim_out=len(forwards))


def _at_rows(point_map, Z) -> np.ndarray:
    """``point_map`` at each row of ``Z``, as rows of an array; each output a list of Python floats."""
    out = [point_map(z) for z in Z.tolist()]
    assert all(type(row) is list and all(type(v) is float for v in row) for row in out)
    return np.array(out).reshape(len(Z), -1)


def _assert_maps_match_the_closure_pass(oracle, exprs, Z):
    """Both point maps of ``oracle`` at the rows of ``Z`` against the closure pass, bit for bit."""
    dim = oracle.dim_in
    reference = _closure_oracle(exprs, dim)
    T, values = _at_rows(oracle.tangent, Z), _at_rows(oracle.value, Z[:, :dim])
    assert T.shape == (len(Z), 2 * len(exprs)) and values.shape == (len(Z), len(exprs))
    assert T[:, :len(exprs)].tobytes() == values.tobytes()
    assert T.tobytes() == _at_rows(reference.tangent, Z).tobytes()
    assert values.tobytes() == _at_rows(reference.value, Z[:, :dim]).tobytes()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), width=st.integers(1, 3), constants=_LITERALS,
       data=st.data())
def test_expression_point_maps_match_the_closure_pass(seed, dim, width, constants, data):
    rng = np.random.default_rng(seed)
    exprs = [random_expr(rng, dim, 3, constants) for _ in range(width)]
    rows = data.draw(st.integers(1, 40))  # drawn apart: a list strategy seldom draws long lists
    Z = np.array(data.draw(st.lists(st.lists(_ROW_ENTRY, min_size=2 * dim, max_size=2 * dim),
                                    min_size=rows, max_size=rows)))
    _assert_maps_match_the_closure_pass(_vector_oracle_from_exprs(exprs, dim), exprs, Z)


def test_expression_point_maps_on_every_node_kind():
    exprs = [ex.parse_expr(s) for s in (
        "(max (var 0) (var 1) (const -0.0))",
        "(min (var 0) (neg (var 1)) (const 0))",
        "(norm (var 0) (var 1))",
        "(add (abs (var 0)) (sub (var 1) (const 0.1)) (mul (var 0) (scale 1e308 (var 1))))",
        "(add (const -0.0) (const inf) (const nan))",
        "(add (var 0) (neg (var 1)))",
    )]
    Z = np.array([
        [0.0, 0.0, 1.0, -2.0],     # max/min ties, norm at the origin
        [-0.0, 0.0, -0.0, 0.0],    # signed zeros everywhere
        [1.0, 1.0, 0.5, 2.0],      # a tie away from zero
        [-1.0, 1.0, 0.0, 3.0],     # a min tie through neg
        [2.0, 1e10, -1.0, 1.0],    # mul overflows to inf
        [math.nan, 1.0, 1.0, 1.0],
        [math.inf, -math.inf, 1.0, 0.0],
        [0.0, 0.0, -1.0, 0.5],     # abs at its kink, moving left
    ])
    oracle = _vector_oracle_from_exprs(exprs, 2)
    _assert_maps_match_the_closure_pass(oracle, exprs, Z)
    _assert_maps_match_the_closure_pass(oracle, exprs, np.tile(Z, (5, 1)))
    T = _at_rows(oracle.tangent, Z)
    # a tie takes the later value and the extremal tangent; the norm at the
    # origin has the norm of the tangents; a sum of tangents starts from +0.0
    assert T[0, 6:9].tolist() == [1.0, 0.0, math.sqrt(5.0)] and T[0, :2].tobytes() == np.array([-0.0, 0.0]).tobytes()
    assert T[1, :3].tobytes() == np.array([-0.0, 0.0, 0.0]).tobytes()
    assert T[1, 6:8].tobytes() == np.array([-0.0, -0.0]).tobytes()
    assert T[1, [5, 11]].tobytes() == np.array([-0.0, 0.0]).tobytes()
    assert T[2, 6:8].tolist() == [2.0, -2.0] and T[3, 7] == -3.0
    assert math.isnan(T[5, 0]) and math.isnan(T[5, 6]) and math.isnan(T[0, 4])


def test_point_maps_return_one_nan_however_warm_the_code():
    # inf - inf is a NaN of the other sign than math.nan, and CPython's float
    # add and multiply return one or the other operand's NaN depending on
    # whether the code has run often enough to be specialised: a fresh
    # oracle's first points run cold, its later points warm
    exprs = [ex.parse_expr(s) for s in ("(add (sub (var 0) (var 0)) (var 1))", "(mul (var 1) (sub (var 0) (var 0)))")]
    Z = np.tile([math.inf, math.nan, math.inf, math.nan], (12, 1))
    nan = np.full(2, math.nan).tobytes()
    oracle = _vector_oracle_from_exprs(exprs, 2)
    values, T = _at_rows(oracle.value, Z[:, :2]), _at_rows(oracle.tangent, Z)
    assert all(row.tobytes() == nan for row in values)
    assert all(row.tobytes() == nan * 2 for row in T)
    for e in exprs:  # the closure pass, whose code is warm by now
        assert np.array(ex.compile_expr(e).forward([math.inf, math.nan], [math.inf, math.nan])).tobytes() == nan


@pytest.mark.parametrize("data", [WIDE_PROBLEM, DEEP_PROBLEM], ids=["wide", "deep"])
def test_wide_and_deep_problem_files_match_the_closure_pass(data):
    # 5000-child add, max and norm nodes, and a tree nested MAX_DEPTH deep,
    # each compiled to flat statements: they load, and rows and whole
    # integrations are those of the closure pass
    problem = problem_from_json(data)
    n = problem.n_state
    rhs = [ex.parse_expr(s) for s in data["rhs_expr"]]
    init = [ex.parse_expr(s) for s in data["init_expr"]]
    rng = np.random.default_rng(5)
    Z = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], (12, 2 * n))  # kinks, ties and the origin
    Z[6:] += rng.standard_normal((6, 2 * n))
    _assert_maps_match_the_closure_pass(problem.rhs, rhs, Z)
    reference = dataclasses.replace(problem, rhs=_closure_oracle(rhs, n), init=_closure_oracle(init, 2))
    p = [0.3, 0.0]  # x1 stays 0: the abs kink and, in the wide file, a 5000-way tie all the way
    got, got_trajectories = _subgradient_and_trajectories(problem, p, IntegrationConfig())
    want, want_trajectories = _subgradient_and_trajectories(reference, p, IntegrationConfig())
    assert got.subgradient.tobytes() == want.subgradient.tobytes()
    for a, b in zip(got_trajectories, want_trajectories):
        assert a.stats == b.stats and a.states.tobytes() == b.states.tobytes()
        assert a.sensitivities.tobytes() == b.sensitivities.tobytes()
    assert ode_cost_value(problem, p) == ode_cost_value(reference, p)


# ---------------------------------------------------------------------------
# pinned integrator output: bit-exact values and first-same-as-last step counts

@pytest.mark.parametrize("p, expected", [
    ((0.0, 0.0), ("0x1.beb27dff8219ep+1", "0x1.8b07552758ca1p-1")),
    ((0.3, -0.7), ("0x1.5bf0a8b5c62d2p+2", "-0x1.2cd9fc466d2f4p+0")),
    ((-0.952, 1.312), ("0x1.cb5c5a4adca0fp+0", "0x1.5cb54ddcce251p+0")),
])
def test_ode_subgradient_is_pinned_bit_for_bit(bundled_problem, p, expected):
    got = ode_subgradient(bundled_problem, p).subgradient.tolist()
    assert got == [float.fromhex(h) for h in expected]


@pytest.mark.parametrize("p, expected", [
    ((0.3, -0.7), "0x1.3a0fe3eca10b4p+1"),
    ((-0.952, 1.312), "0x1.43566172cadd7p-4"),
])
def test_ode_cost_value_is_pinned_bit_for_bit(bundled_problem, p, expected):
    assert ode_cost_value(bundled_problem, p) == float.fromhex(expected)


@pytest.mark.parametrize("p, expected", [
    ((0.0, 0.0), StepStats(19, 0, 116)),
    ((-0.952, 1.312), StepStats(41, 30, 428)),
])
def test_integrate_coupled_step_counts(bundled_problem, p, expected):
    # 6 rhs evaluations per attempted step, plus f(z0) and the step-size guess
    stats = integrate_coupled(bundled_problem, p, [1.0, 0.0]).stats
    assert stats == expected
    assert stats.rhs_evals == 2 + 6 * (stats.accepted + stats.rejected)


def test_stage_sums_keep_the_builtin_sum_order():
    # left to right from +0.0: a column of negative zeros sums to +0.0
    rng = np.random.default_rng(3)
    for m in (1, 3, 6, 9):
        k = rng.standard_normal((7, m)) * 10.0 ** rng.integers(-9, 9, (7, m))
        k[:, 0] = -0.0
        for coeffs in (*_A[1:], _B5, _E):
            coeffs = np.abs(coeffs)
            expected = sum(coeffs[j, 0] * k[j] for j in range(coeffs.shape[0]))
            got = _combine(coeffs, k, np.zeros((8, m)))
            assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# both loops: each row is its own one-row integration, bit for bit

def _on_arrays(point_map):
    """A point map on 1-D arrays, as the reference integrator calls it."""
    return lambda z: np.array(point_map(z.tolist()))


def _dopri5(fun, z0, t_final, cfg):
    """Reference: one system at a time, the plain FSAL Dormand-Prince loop on a 1-D state.

    Shares the step control, error norm, initial-step guess and stage sums
    with the lockstep loop, and reads its step limits from the module at call
    time, as the loop does; returns (times, states, stats) of the accepted steps.
    """
    t = 0.0
    z = np.asarray(z0, dtype=float).copy()
    times = [0.0]
    states = [z.copy()]
    k = np.empty((7, z.size))
    k[0] = fun(z)
    if not np.isfinite(k[0]).all():
        raise IntegrationError("non-finite state derivative at t = 0", time=0.0)
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(z)
    d1 = float(_rms(k[0], scale))
    h0 = _first_guess(float(_rms(z, scale)), d1, t_final)
    h = _second_guess(h0, d1, float(_rms(fun(z + h0 * k[0]) - k[0], scale)), t_final)
    evals = 2
    accepted = rejected = 0
    err_prev = 1.0
    terms = np.zeros((8, z.size))
    while t < t_final:
        if accepted + rejected >= odesens.MAX_STEPS:
            raise IntegrationError(f"step limit {odesens.MAX_STEPS} exceeded at t = {t:.6g}", time=t)
        last = h >= t_final - t
        if last:
            h = t_final - t
        if h < odesens.MIN_STEP:
            raise IntegrationError(f"step size underflow ({h:.3e}) at t = {t:.6g}", time=t)
        for s in range(1, 7):
            k[s] = fun(z + h * _combine(_A[s], k, terms))
        evals += 6
        z_new = z + h * _combine(_B5, k, terms)
        err = float(_error_norm(h * _combine(_E, k, terms), z, z_new, cfg))
        if not math.isfinite(err):
            raise IntegrationError(f"non-finite state at t = {t:.6g}", time=t)
        if err <= 1.0:
            t = t_final if last else t + h
            z = z_new
            times.append(t)
            states.append(z.copy())
            accepted += 1
            k[0] = k[6]
        else:
            rejected += 1
        h, err_prev = _control(h, err, err_prev)
    return times, states, StepStats(accepted=accepted, rejected=rejected, rhs_evals=evals)


_ROW_PROBLEMS = {
    "example46": problem_from_json(paper_fixture_path("example46.json")),
    # both point maps generated from the problem file (expr.compile_rows)
    "linear, expressions": problem_from_json({
        "n_state": 2,
        "rhs_expr": ["(add (scale 0.3 (var 0)) (scale -1.2 (var 1)))",
                     "(add (scale 0.7 (var 0)) (scale -0.5 (var 1)))"],
        "init_expr": ["(var 0)", "(var 1)"], "cost_expr": "(var 2)", "t_final": 1.0}),
    # hand-written point maps
    "linear, hand-written": _linear_problem([[0.3, -1.2], [0.7, -0.5]], [1.0, 0.0]),
    # 8 components per coupled row
    "four states": problem_from_json(FOUR_STATE_PROBLEM),
}

# coordinates on the kink lines p1 = 0 and p2 = 0 half the time
_COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.5, 1.5, allow_nan=False))

# batch sizes on each side of SCALAR_ROWS: one row after another on floats, and numpy lockstep
_SIZES = [4, 40]


def test_batch_sizes_take_both_loops():
    assert _SIZES[0] <= odesens.SCALAR_ROWS < _SIZES[1]


def _assert_rows_match_the_reference(fun, Z0, t_final, config):
    """Every row of one :func:`_dopri5_rows` call, trajectory included, against the reference alone."""
    final, stats, errors, trajectories = _dopri5_rows(fun, Z0, t_final, config, record=True)
    assert errors == [None] * len(Z0) and final.shape == Z0.shape
    for z0, z, row_stats, (times, states) in zip(Z0, final, stats, trajectories):
        want_times, want_states, want_stats = _dopri5(_on_arrays(fun), z0, t_final, config)
        assert times.tobytes() == np.array(want_times).tobytes()
        assert states.tobytes() == np.array(want_states).tobytes()
        assert z.tobytes() == want_states[-1].tobytes() and row_stats == want_stats


@pytest.mark.parametrize("size", _SIZES)
@settings(derandomize=True, max_examples=16, deadline=None)
@given(name=st.sampled_from(sorted(_ROW_PROBLEMS)), data=st.data())
def test_lockstep_rows_match_one_row_integrations(size, name, data):
    problem, config = _ROW_PROBLEMS[name], IntegrationConfig()
    P = np.array(data.draw(st.lists(st.tuples(_COORD, _COORD), min_size=size, max_size=size)))
    # state rows, and coupled state/tangent rows along the compass directions in turn
    Z0 = _at_rows(problem.init.value, P)
    _assert_rows_match_the_reference(problem.rhs.value, Z0, problem.t_final, config)
    directions = np.tile(np.array(probe_directions(np.eye(2))), (size // 4 + 1, 1))[:size]
    coupled = _at_rows(problem.init.tangent, np.hstack([P, directions]))
    _assert_rows_match_the_reference(problem.rhs.tangent, coupled, problem.t_final, config)
    costs = ode_cost_value(problem, P, config)
    assert costs.tolist() == [ode_cost_value(problem, q, config) for q in P]
    # a single integration is a batch of one row, with its trajectory
    times, states, one_row = _dopri5(_on_arrays(problem.rhs.value), Z0[0], problem.t_final, config)
    got = integrate_state(problem, P[0], config)
    assert got[0].tobytes() == np.array(times).tobytes() and got[1].tobytes() == np.array(states).tobytes()
    assert got[2] == one_row
    # the four compass probes at P[0]: four coupled rows of one integration
    p, n = P[0], problem.n_state
    result, trajectories = _subgradient_and_trajectories(problem, p, config)
    assert len(trajectories) == 4
    for pr, traj in zip(result.probes, trajectories):
        z0 = problem.init.tangent(p.tolist() + pr.direction.tolist())
        times, states, stats = _dopri5(_on_arrays(problem.rhs.tangent), z0, problem.t_final, config)
        times, states = np.array(times), np.array(states)
        for got in (traj, integrate_coupled(problem, p, pr.direction, config)):
            assert got.direction.tobytes() == pr.direction.tobytes()
            assert got.times.tobytes() == times.tobytes()
            assert got.states.tobytes() == states[:, :n].tobytes()
            assert got.sensitivities.tobytes() == states[:, n:].tobytes()
            assert got.stats == stats
        x, y = states[-1, :n], states[-1, n:]
        assert pr.value == problem.cost.dir_deriv(np.concatenate([p, x]), np.concatenate([pr.direction, y]))


@pytest.mark.parametrize("size", _SIZES)
def test_stage_sums_start_from_positive_zero_on_both_loops(size):
    # x0 stays -0.0 with derivative -0.0, so a stage sum from +0.0 gives a
    # stage point of +0.0 where a sum from its first term would give -0.0,
    # and x1' reads the sign of that zero
    fun = lambda x: [-0.0, math.copysign(1.0, x[0])]  # noqa: E731
    Z0 = np.tile([-0.0, 0.0], (size, 1))
    _assert_rows_match_the_reference(fun, Z0, 1.0, IntegrationConfig())
    final = _dopri5_rows(fun, Z0, 1.0, IntegrationConfig())[0]
    assert math.copysign(1.0, final[0, 0]) == 1.0 and final[0, 1] > 0.0  # x0 is +0.0 after the first step


@pytest.mark.parametrize("size", _SIZES)
def test_the_last_step_lands_on_t_final_on_both_loops(size):
    # dx/dt = 1 with steps growing fivefold: the last step starts at t = 0.3906,
    # where t + (0.9 - t) rounds to 0.9000000000000001
    problem = problem_from_json({"n_state": 1, "rhs_expr": ["(const 1)"], "init_expr": ["(var 0)"],
                                 "cost_expr": "(var 2)", "t_final": 0.9})
    Z0 = np.zeros((size, 1))
    _assert_rows_match_the_reference(problem.rhs.value, Z0, problem.t_final, IntegrationConfig())
    times = _dopri5_rows(problem.rhs.value, Z0, problem.t_final, IntegrationConfig(), record=True)[3][0][0]
    assert times[-2] == 0.3906 and 0.3906 + (0.9 - 0.3906) > 0.9 and times[-1] == 0.9


def test_error_norm_sums_squares_left_to_right():
    # eight or more components: numpy's add.reduce sums pairwise, which differs in the last bit
    rng = np.random.default_rng(11)
    v, scale = rng.standard_normal((200, 8)) * 10.0 ** rng.integers(-3, 3, (200, 8)), np.full(8, 1e-8)
    for row, got in zip(v.tolist(), _rms(v, scale).tolist()):
        s = 0.0
        for a in row:
            q = a / 1e-8
            s += q * q
        assert got == math.sqrt(s / 8) == odesens._rms_floats(row, scale.tolist())


def test_ode_cost_value_shapes(bundled_problem):
    one = ode_cost_value(bundled_problem, [0.3, -0.7])
    assert type(one) is float and one == float.fromhex("0x1.3a0fe3eca10b4p+1")
    batch = ode_cost_value(bundled_problem, [[0.3, -0.7], [-0.952, 1.312]])
    assert batch.shape == (2,)
    assert batch.tolist() == [float.fromhex("0x1.3a0fe3eca10b4p+1"), float.fromhex("0x1.43566172cadd7p-4")]
    assert ode_cost_value(bundled_problem, np.empty((0, 2))).shape == (0,)
    for bad in ([[0.0, 0.0], [1.0]], [[0.0, 0.0, 0.0]], [0.0, 0.0, 0.0], [[[0.0, 0.0]]], "ab"):
        with pytest.raises(InputError, match="shape"):
            ode_cost_value(bundled_problem, bad)


# ---------------------------------------------------------------------------
# failure modes and plumbing

def test_integration_error_carries_time_and_direction(bundled_problem, monkeypatch):
    monkeypatch.setattr(odesens, "MAX_STEPS", 3)
    with pytest.raises(IntegrationError, match="step limit 3 exceeded") as err:
        integrate_coupled(bundled_problem, [0.0, 0.0], [1.0, 0.0])
    assert 0.0 <= err.value.time <= 1.0
    assert np.array_equal(err.value.direction, [1.0, 0.0])


def test_blowup_reports_failure_time():
    # dx/dt = x^2 from x(0) = 1 blows up at t = 1
    rhs = VectorOracle(value=lambda x: [x[0] * x[0]], tangent=lambda z: [z[0] * z[0], 2 * z[0] * z[1]],
                       dim_in=1, dim_out=1)
    init = VectorOracle(value=lambda p: [1.0], tangent=lambda z: [1.0, 0.0], dim_in=2, dim_out=1)
    cost = DirectionalOracle(value=lambda z: float(z[2]), dir_deriv=lambda z, t: float(t[2]), dim=3)
    problem = OdeProblem(rhs=rhs, init=init, cost=cost, t_final=2.0)
    with pytest.raises(IntegrationError) as err:
        ode_cost_value(problem, [0.0, 0.0])
    assert 0.9 <= err.value.time <= 2.0


_BLOWUP = problem_from_json({"n_state": 1, "rhs_expr": ["(mul (var 0) (var 0))"], "init_expr": ["(var 0)"],
                             "cost_expr": "(var 2)", "t_final": 1.0})


def _assert_same_outcome(a, b):
    """Two ``_dopri5_rows`` results are the same, bit for bit, failing rows' partial trajectories included."""
    assert a[0].tobytes() == b[0].tobytes() and a[1] == b[1]
    assert [None if e is None else (str(e), e.time, e.row) for e in a[2]] == \
        [None if e is None else (str(e), e.time, e.row) for e in b[2]]
    for (ta, sa), (tb, sb) in zip(a[3], b[3]):
        assert ta.tobytes() == tb.tobytes() and sa.shape == sb.shape and sa.tobytes() == sb.tobytes()


@pytest.mark.parametrize("size", [6, _SIZES[1]])  # every failure kind below, on each loop
@pytest.mark.parametrize("max_steps", [odesens.MAX_STEPS, 25])
def test_failing_rows_fail_as_they_would_alone(size, max_steps, monkeypatch):
    # dx/dt = x^2 from x0 = p1 blows up at t = 1 / p1; 1e200 has a non-finite
    # derivative at t = 0; a step limit of 25 stops the slower rows
    monkeypatch.setattr(odesens, "MAX_STEPS", max_steps)
    config = IntegrationConfig()
    P = np.array([[0.0, 0.0], [1.25, 0.0], [2.0, 0.0], [0.5, 0.0], [1e200, 0.0], [-3.0, 0.0]])
    P = np.tile(P, (size // 6 + 1, 1))[:size]
    P[6:, 0] += np.linspace(-0.5, 0.5, size - 6)
    Z0 = _at_rows(_BLOWUP.init.value, P)
    got = _dopri5_rows(_BLOWUP.rhs.value, Z0, 1.0, config, record=True)
    final, stats, errors, _ = got
    failed = 0
    for i, z0 in enumerate(Z0):
        try:
            _, states, one_row = _dopri5(_on_arrays(_BLOWUP.rhs.value), z0, 1.0, config)
        except IntegrationError as alone:
            failed += 1
            assert (str(errors[i]), errors[i].time, errors[i].row, stats[i]) == (str(alone), alone.time, i, None)
            assert final[i].tobytes() == z0.tobytes()
        else:
            assert errors[i] is None and stats[i] == one_row and final[i].tobytes() == states[-1].tobytes()
    assert failed >= 3
    # the other loop gives the same
    monkeypatch.setattr(odesens, "SCALAR_ROWS", size - 1 if size <= odesens.SCALAR_ROWS else size)
    _assert_same_outcome(got, _dopri5_rows(_BLOWUP.rhs.value, Z0, 1.0, config, record=True))


def test_batch_failure_names_the_lowest_failing_row():
    # p1 = 2 fails in an earlier lockstep iteration than p1 = 1.25
    P = [[0.0, 0.0], [1.25, 0.0], [2.0, 0.0]]
    with pytest.raises(IntegrationError) as batch:
        ode_cost_value(_BLOWUP, P)
    with pytest.raises(IntegrationError) as alone:
        ode_cost_value(_BLOWUP, P[1])
    assert batch.value.row == 1 and batch.value.time == alone.value.time
    assert str(batch.value) == str(alone.value) and str(alone.value).endswith("for p = (1.25, 0)")


def test_probe_errors_come_in_probe_order():
    # along e2 the tangent overflows first, but e1 is probed first
    problem = problem_from_json(OVERFLOW_PROBLEM)
    with pytest.raises(IntegrationError) as first:
        ode_subgradient(problem, [0.0, 0.0])
    assert first.value.direction.tolist() == [1.0, 0.0]
    assert str(first.value) == "non-finite state at t = 16.5561"
    with pytest.raises(IntegrationError) as alone:
        integrate_coupled(problem, [0.0, 0.0], [0.0, 1.0])
    assert alone.value.time < first.value.time


def test_an_overflowing_error_norm_rejects_the_step():
    # finite states whose scaled error overflows the norm: no warning, no
    # "non-finite state", the step shrinks until it underflows
    problem = problem_from_json(paper_fixture_path("example46.json"))
    tiny = IntegrationConfig(abs_tol=1e-300, rel_tol=1e-300)
    with pytest.raises(IntegrationError, match=r"^step size underflow \(1\.000e-14\) at t = 0$"):
        integrate_coupled(problem, [0.3, 0.2], [1.0, 0.0], tiny)
    with pytest.raises(IntegrationError, match="step size underflow"):
        ode_cost_value(problem, [[0.3, 0.2], [0.0, 0.0]], tiny)
    # the initial-step guess: an overflowed norm rejects the trial step by the smallest factor
    assert _first_guess(math.inf, math.inf, 1.0) == 1e-6
    assert _second_guess(1e-6, math.inf, math.inf, 1.0) == 1e-7
    assert _second_guess(1e-6, 1.0, math.inf, 1.0) == 1e-7


def test_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(abs_tol=0.0)


def test_problem_json_roundtrip_and_validation(bundled_problem, tmp_path):
    assert bundled_problem.n_state == 3
    assert bundled_problem.t_final == 1.0
    with pytest.raises(ValueError, match="missing"):
        problem_from_json({"n_state": 1})
    with pytest.raises(ValueError, match="exactly"):
        problem_from_json({
            "n_state": 2, "rhs_expr": ["(var 0)"], "init_expr": ["(var 0)", "(var 1)"],
            "cost_expr": "(var 0)", "t_final": 1.0})


def test_trajectory_csv_layout(bundled_problem):
    traj = integrate_coupled(bundled_problem, [0.0, 0.0], [1.0, 0.0])
    csv = traj.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "t,x1,x2,x3,y1,y2,y3"
    assert len(lines) == traj.times.size + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0]


def test_parameter_space_must_be_planar(bundled_problem):
    with pytest.raises(ValueError):
        ode_subgradient(bundled_problem, [0.0, 0.0, 0.0])
    with pytest.raises(InputError, match="two-dimensional"):
        integrate_state(bundled_problem, [0.3, 0.2, 99.0])
