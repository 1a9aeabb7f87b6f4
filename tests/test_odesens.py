import contextlib
import dataclasses
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (DEEP_PROBLEM, FOUR_STATE_PROBLEM, OVERFLOW_PROBLEM, WIDE_PROBLEM, halton_in_box, max_violation,
                      random_expr)
from compassdiff import expr as ex
from compassdiff import odesens
from compassdiff.cli import main
from compassdiff.compass import _pair_subgradient, probe_directions
from compassdiff.demos import paper_fixture_path
from compassdiff.odesens import (
    IntegrationConfig,
    IntegrationError,
    OdeProblem,
    StepStats,
    _control,
    _dopri5_floats,
    _first_guess,
    _second_guess,
    _trial,
    _trial_of_width,
    _vector_oracle_from_exprs,
    integrate_coupled,
    integrate_state,
    ode_cost_dirderiv,
    ode_cost_value,
    ode_probes,
    ode_subgradient,
    problem_from_json,
)
from compassdiff.oracle import DirectionalOracle, InputError, VectorOracle

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
    assert np.array_equal(_pair_subgradient(result.probes, result.basis), result.subgradient)


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
    violation = max_violation(lambda q: ode_cost_value(bundled_problem, q), np.zeros(2), s, samples)
    assert violation <= 1e-4, violation


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
    first = _vector_oracle_from_exprs(exprs, 2)
    for oracle in (first, _vector_oracle_from_exprs(exprs, 2)):
        # the second oracle shares the first's code objects, so it starts warm
        assert oracle.value.__code__ is first.value.__code__
        values, T = _at_rows(oracle.value, Z[:, :2]), _at_rows(oracle.tangent, Z)
        assert all(row.tobytes() == nan for row in values)
        assert all(row.tobytes() == nan * 2 for row in T)
    for e in exprs:  # the closure pass, whose code is warm by now
        assert np.array(ex.compile_expr(e).forward([math.inf, math.nan], [math.inf, math.nan])).tobytes() == nan


def _switching_reference(exprs, x, win=None):
    """Switching values and winners of ``exprs`` at ``x``, from the closure pass.

    Post-order over every tree: an ``abs`` gives its argument (once per
    variable it is applied to), an extremum of two or more children the
    margin of its winner (``win``'s, or the first extremal child) over the
    others, NaN when a child is NaN or the children sum to NaN.
    """
    values, seen, winners = [], set(), []
    given = None if win is None else iter(win)

    def walk(e):
        for c in e.children:
            walk(c)
        kids = [ex.compile_expr(c).forward(x, x)[0] for c in e.children]
        if e.kind == "abs":
            (child,) = e.children
            if child.kind != "var" or child.index not in seen:
                seen.add(child.index if child.kind == "var" else None)
                values.append(kids[0])
        elif e.kind in ("max", "min") and len(kids) > 1:
            best = max if e.kind == "max" else min
            w = kids.index(best(kids)) if given is None else next(given)
            winners.append(w)
            other = best(kids[:w] + kids[w + 1:])
            margin = kids[w] - other if e.kind == "max" else other - kids[w]
            values.append(math.nan if any(map(math.isnan, kids)) or math.isnan(sum(kids)) else margin)

    for e in exprs:
        walk(e)
    return values, tuple(winners)


def _same(a: list, b: list) -> bool:
    return len(a) == len(b) and all(u == v or (u != u and v != v) for u, v in zip(a, b))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), width=st.integers(1, 3), constants=_LITERALS,
       data=st.data())
def test_switching_map_matches_the_closure_pass(seed, dim, width, constants, data):
    # the generated switching map against the values it stands for, at a point and
    # at a second point with the first one's winners, where ``crossed`` must say
    # whether some value changed sign strictly (zeros and NaN never do)
    rng = np.random.default_rng(seed)
    exprs = [random_expr(rng, dim, 3, constants) for _ in range(width)]
    switch = ex.compile_rows(exprs, dim)[2]
    x, y = (data.draw(st.lists(_ROW_ENTRY, min_size=dim, max_size=dim)) for _ in range(2))
    want, win = _switching_reference(exprs, x)
    if switch is None:
        assert want == []
        return
    values, got_win, crossed = switch(x + [9.0] * dim, None, None)  # a coupled point: only x is read
    assert _same(values, want) and not crossed
    if not any(map(math.isnan, values)):  # NaN children may tie-break otherwise
        assert got_win == win
    later, same_win, crossed = switch(y, got_win, values)
    assert _same(later, _switching_reference(exprs, y, got_win)[0]) and same_win == got_win
    assert crossed == any(a < 0.0 < b or b < 0.0 < a for a, b in zip(values, later))


# ---------------------------------------------------------------------------
# the code-object cache of compile_rows

def _maps(problem):
    return (problem.rhs.value, problem.rhs.tangent, problem.init.value, problem.init.tangent)


def test_repeat_loads_share_code_but_not_functions():
    path = paper_fixture_path("example46.json")
    a, b = problem_from_json(path), problem_from_json(path)
    for f, g in zip(_maps(a), _maps(b)):
        assert f is not g and f.__code__ is g.__code__
    assert a.rhs.value.__code__ is not a.rhs.tangent.__code__


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), constants=st.lists(st.floats(), min_size=2, max_size=2, unique_by=repr),
       data=st.data())
def test_problems_that_differ_in_one_constant_share_code(seed, constants, data):
    # the constant is bound by name, so both files generate one source and
    # get one code object; each file's maps still carry its own constant
    tree = ex.format_expr(random_expr(np.random.default_rng(seed), 2, 3, [0.5]))
    Z = np.array(data.draw(st.lists(st.lists(_ROW_ENTRY, min_size=4, max_size=4), min_size=1, max_size=20)))
    problems = []
    for c in constants:
        rhs = [tree, f"(add (scale {c!r} (var 0)) (abs (var 1)))"]
        problems.append(problem_from_json({"n_state": 2, "rhs_expr": rhs, "init_expr": ["(var 0)", "(var 1)"],
                                           "cost_expr": "(var 3)", "t_final": 1.0}))
        _assert_maps_match_the_closure_pass(problems[-1].rhs, [ex.parse_expr(s) for s in rhs], Z)
    for f, g in zip(_maps(problems[0]), _maps(problems[1])):
        assert f is not g and f.__code__ is g.__code__


def test_the_code_cache_keeps_its_bound_and_recompiles_what_it_dropped():
    # one distinct source per width of the add: one more than the cache holds
    sources = [[ex.parse_expr("(add" + " (var 0)" * k + ")")] for k in range(1, ex.CODE_CACHE_SIZE + 2)]
    first = _vector_oracle_from_exprs(sources[0], 1)
    for exprs in sources[1:]:
        _vector_oracle_from_exprs(exprs, 1)
    info = ex._code.cache_info()
    assert info.maxsize == ex.CODE_CACHE_SIZE and info.currsize == ex.CODE_CACHE_SIZE
    again = _vector_oracle_from_exprs(sources[0], 1)  # dropped first, so compiled anew
    assert ex._code.cache_info().misses == info.misses + 1
    assert again.value.__code__ is not first.value.__code__
    Z = np.array([[0.0, 1.0], [-0.0, -0.0], [2.5, math.nan], [math.inf, -1.0]])
    _assert_maps_match_the_closure_pass(again, sources[0], Z)


def test_a_vector_over_the_node_cap_fails_however_often_it_is_loaded():
    exprs = [ex.parse_expr("(add" + " (var 0)" * ex.MAX_NODES + ")")]
    before = ex._code.cache_info()
    for _ in range(2):
        with pytest.raises(InputError, match="more than the 30000 allowed"):
            ex.compile_rows(exprs, 1)
    assert ex._code.cache_info() == before  # refused before it reaches the compiler


def test_repeat_cli_surface_runs_are_byte_identical(capsys, tmp_path):
    runs = []
    for k in range(2):
        out = tmp_path / str(k)
        argv = ["ode", "--problem", "example46.json", "--at=0.3,-0.7", "--surface=-1:1:4", "--out", str(out)]
        assert main(argv) == 0
        runs.append((capsys.readouterr().out.replace(str(out), "OUT"), (out / "surface.csv").read_bytes()))
    assert runs[0] == runs[1]


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
    got, got_trajectories = ode_probes(problem, p, IntegrationConfig())
    want, want_trajectories = ode_probes(reference, p, IntegrationConfig())
    assert got.subgradient.tobytes() == want.subgradient.tobytes()
    for a, b in zip(got_trajectories, want_trajectories):
        assert a.stats == b.stats and a.states.tobytes() == b.states.tobytes()
        assert a.sensitivities.tobytes() == b.sensitivities.tobytes()
    assert ode_cost_value(problem, p) == ode_cost_value(reference, p)


# ---------------------------------------------------------------------------
# pinned integrator output: bit-exact values and first-same-as-last step counts

def _without_switch(problem: OdeProblem) -> OdeProblem:
    """``problem`` with its right-hand side as a hand-written oracle would have it: no switching map."""
    return dataclasses.replace(problem, rhs=dataclasses.replace(problem.rhs, switch=None))


# example46 points whose x1 crosses zero on every probe, with and without a
# crossing in the state row, and points that cross nothing
_CROSSING = [(-0.071, 0.229), (-0.952, 1.312), (-0.0025, -0.5045), (-0.5808, 0.7634)]
_QUIET = [(0.0, 0.0), (0.3, -0.7), (0.4, 0.0), (-0.3, 0.0)]


@pytest.mark.parametrize("p, expected", [
    ((0.0, 0.0), ("0x1.beb27dff8219ep+1", "0x1.8b07552758ca1p-1")),
    ((0.3, -0.7), ("0x1.5bf0a8b5c62d2p+2", "-0x1.2cd9fc466d2f4p+0")),
    ((-0.952, 1.312), ("0x1.cb5c0eb99830ap+0", "0x1.5cb510407bb1ep+0")),
])
def test_ode_subgradient_is_pinned_bit_for_bit(bundled_problem, p, expected):
    got = ode_subgradient(bundled_problem, p).subgradient.tolist()
    assert got == [float.fromhex(h) for h in expected]


@pytest.mark.parametrize("p, expected", [
    ((0.3, -0.7), "0x1.3a0fe3eca10b4p+1"),
    ((-0.952, 1.312), "0x1.4319085c3b1fap-4"),
])
def test_ode_cost_value_is_pinned_bit_for_bit(bundled_problem, p, expected):
    assert ode_cost_value(bundled_problem, p) == float.fromhex(expected)


@pytest.mark.parametrize("p, expected", [
    ((0.0, 0.0), StepStats(19, 0, 116)),
    ((-0.952, 1.312), StepStats(22, 1, 140, events=1)),
])
def test_integrate_coupled_step_counts(bundled_problem, p, expected):
    # 6 rhs evaluations per attempted step, plus f(z0) and the step-size guess;
    # a trial retaken to land on a kink crossing counts as rejected
    stats = integrate_coupled(bundled_problem, p, [1.0, 0.0]).stats
    assert stats == expected
    assert stats.rhs_evals == 2 + 6 * (stats.accepted + stats.rejected)


def test_without_a_switching_map_steps_straddle_kinks_as_before(bundled_problem):
    # x1 crosses zero at (-0.952, 1.312) on every probe: with the same maps
    # but no switching map, as a hand-written oracle has them, the steps
    # straddle the crossing and give the values pinned before landing
    problem, p = _without_switch(bundled_problem), (-0.952, 1.312)
    assert ode_subgradient(problem, p).subgradient.tolist() == [float.fromhex("0x1.cb5c5a4adca0fp+0"),
                                                                float.fromhex("0x1.5cb54ddcce251p+0")]
    assert ode_cost_value(problem, p) == float.fromhex("0x1.43566172cadd7p-4")
    assert integrate_coupled(problem, p, [1.0, 0.0]).stats == StepStats(41, 30, 428)
    for p in _QUIET:  # where nothing crosses, both take the same steps
        assert ode_cost_value(problem, p) == ode_cost_value(bundled_problem, p)


# ---------------------------------------------------------------------------
# landing on kink crossings

def test_example46_switches_on_x1_and_x2(bundled_problem):
    # |x1| and |x2| are the kinks, |x2| twice
    switch = bundled_problem.rhs.switch
    assert switch([0.5, -2.0, 3.0, 1.0, 1.0, 1.0], None, None) == ([0.5, -2.0], (), False)
    assert switch([-0.5, -2.0, 3.0], (), [0.5, -2.0]) == ([-0.5, -2.0], (), True)
    assert bundled_problem.init.switch is None


def _runs(problem, p):
    result, trajectories = ode_probes(problem, p, IntegrationConfig())
    return result.subgradient.tobytes(), [(tr.stats, tr.times.tobytes(), tr.states.tobytes(),
                                           tr.sensitivities.tobytes()) for tr in trajectories]


@pytest.mark.parametrize("p", _QUIET)
def test_values_that_stay_at_zero_or_keep_their_sign_never_fire(bundled_problem, p):
    # p2 = 0 keeps x2 at zero all along (x2' = |x2|), and p = 0 keeps x1 there
    # too; no x1 changes sign: each probe takes exactly the steps it takes
    # without a switching map, and lands nowhere
    got = _runs(bundled_problem, p)
    assert got == _runs(_without_switch(bundled_problem), p)
    assert all(stats.events == 0 for stats, *_ in got[1])


def test_a_graze_never_fires():
    # x0 is time; the kink's argument -(x0 - 1/2)^2 touches zero at t = 1/2
    # and is never positive (a square is not negative in floating point)
    problem = problem_from_json({
        "n_state": 2, "rhs_expr": ["(const 1)", "(abs (neg (mul (sub (var 0) (const 0.5)) (sub (var 0) (const 0.5)))))"],
        "init_expr": ["(const 0)", "(var 1)"], "cost_expr": "(var 3)", "t_final": 1.0})
    assert problem.rhs.switch([0.5, 0.0], None, None)[0] == [-0.0]
    for p in ((0.0, 0.0), (0.0, 2.0)):
        got = _runs(problem, p)
        assert got == _runs(_without_switch(problem), p)
        assert all(stats.events == 0 for stats, *_ in got[1])


def test_steps_land_on_each_crossing_up_to_the_cap(monkeypatch):
    # x0'' = -x0: x0 = sin t changes sign at each multiple of pi, five times
    # before t = 5.5 pi; past MAX_EVENTS located crossings the steps straddle
    problem = problem_from_json({
        "n_state": 3, "rhs_expr": ["(var 1)", "(neg (var 0))", "(abs (var 0))"],
        "init_expr": ["(var 0)", "(const 1)", "(const 0)"], "cost_expr": "(var 4)", "t_final": 5.5 * math.pi})
    p = [0.0, 0.0]
    stats = integrate_state(problem, p)[2]
    assert stats.events == 5
    want = 10.0 + (1.0 - math.cos(5.5 * math.pi))  # the integral of |sin t|
    landed, straddled = (abs(ode_cost_value(q, p) - want) for q in (problem, _without_switch(problem)))
    assert landed < 5e-7 and landed < straddled / 50  # 1.2e-7 against 1.2e-5
    monkeypatch.setattr(odesens, "MAX_EVENTS", 3)
    capped = integrate_state(problem, p)[2]
    assert capped.events == 3 and capped.rhs_evals == 2 + 6 * (capped.accepted + capped.rejected)


def test_crossings_right_after_the_start_land_without_a_step_underflow(bundled_problem):
    # x1 = -0.0025 reaches zero at t of about 0.005, and x1 = -5e-324 at once:
    # an approach step would be shorter than MIN_STEP, so the crossing is
    # straddled by a step of MIN_STEP
    for p in ((-0.0025, -0.5045), (-5e-324, 1.0)):
        for d in ([1.0, 0.0], [0.0, -1.0]):
            traj = integrate_coupled(bundled_problem, p, d)
            assert traj.times[-1] == 1.0 and traj.stats.events == 1


# ---------------------------------------------------------------------------
# both trials: each row is its own integration, bit for bit

def _on_arrays(point_map):
    """A point map on 1-D arrays, as the reference integrator calls it."""
    return lambda z: np.array(point_map(z.tolist()))


def _strictly_opposite(a: float, b: float) -> bool:
    return a < 0.0 < b or b < 0.0 < a


def _on_the_generic_trial():
    """Every run of the step loop on the generic trial, whatever its width."""
    return mock.patch.object(odesens, "_trial_of_width", lambda n: _trial)


def _bits(run) -> tuple:
    """``(times, states, stats)`` of an integration, its floats as bytes: signs of zero count."""
    times, states, stats = run
    return np.array(times).tobytes(), np.array(states).tobytes(), stats


# the reference's tableau as column vectors, so that ``k[:s] * row`` scales stage j by its coefficient
_A = tuple(np.array(row).reshape(-1, 1) for row in odesens._STAGES)
_B5 = np.array(odesens._WEIGHTS).reshape(-1, 1)
_E = np.array(odesens._ERROR_WEIGHTS).reshape(-1, 1)


def _rms(v: np.ndarray, scale: np.ndarray):
    """Root mean square of ``v / scale`` over the last axis, the squares summed left to right.

    ``np.add.reduce`` would sum 8 or more components pairwise.
    """
    q = v / scale
    return np.sqrt(np.add.accumulate(q * q, axis=-1)[..., -1] / v.shape[-1])


def _combine(coeffs: np.ndarray, k: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum(coeffs[j] * k[j]) in the builtin ``sum``'s order: from +0.0, left to right.

    ``terms`` is a work buffer of shape (8, n) whose row 0 stays zero; the products
    go into the rows after it and one ``add.accumulate`` adds them in order.
    """
    s = coeffs.shape[0]
    np.multiply(k[:s], coeffs, out=terms[1:s + 1])
    return np.add.accumulate(terms[:s + 1], axis=0)[s]


def test_the_reference_stage_sums_keep_the_builtin_sum_order():
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


def _dopri5(fun, z0, t_final, cfg, switch=None):
    """Reference: one system at a time, the plain FSAL Dormand-Prince loop on a 1-D state.

    Shares the step control and the initial-step guesses with the package,
    computes the stage sums and the error norm in numpy, and reads the step
    limits from the module at call time, as the package does; returns (times, states, stats, crossed) of the
    accepted steps.  It straddles kinks: ``crossed`` says whether some trial
    changed the sign of a value of ``switch`` strictly, from the values at
    the trial's start (winners picked there), where the package's loops
    would land on the crossing instead.
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
    crossed = False
    if switch is not None:
        marks, win, _ = switch(z.tolist(), None, None)
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
        tol = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(z), np.abs(z_new))
        err = float(_rms(h * _combine(_E, k, terms), tol))
        if not math.isfinite(err):
            raise IntegrationError(f"non-finite state at t = {t:.6g}", time=t)
        if switch is not None:
            crossed |= any(map(_strictly_opposite, marks, switch(z_new.tolist(), win, None)[0]))
        if err <= 1.0:
            t = t_final if last else t + h
            z = z_new
            times.append(t)
            states.append(z.copy())
            accepted += 1
            k[0] = k[6]
            if switch is not None:
                marks, win, _ = switch(z.tolist(), None, None)
        else:
            rejected += 1
        h, err_prev = _control(h, err, err_prev)
    return times, states, StepStats(accepted=accepted, rejected=rejected, rhs_evals=evals), crossed


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

_SIZES = [4, 40]


def _assert_rows_match_the_reference(fun, Z0, t_final, config, switch=None) -> int:
    """Every row of ``Z0`` on both trials against the reference alone; returns the rows that cross.

    A row whose trials change no sign of a switching value: its trajectory
    and :class:`StepStats` against the reference's, bit for bit.  A row that
    crosses lands on the crossing, so the reference, which straddles it, no
    longer applies: its steps still end on t_final and cost 2 + 6 per
    attempted step.  Either way the row takes the same steps, bit for bit,
    on its width's own trial and on the generic one.
    """
    assert _trial_of_width(Z0.shape[1]) is not _trial
    crossing = 0
    for z0 in Z0:
        want_times, want_states, want_stats, crossed = _dopri5(_on_arrays(fun), z0, t_final, config, switch)
        times, states, stats = run = _dopri5_floats(fun, z0.tolist(), t_final, config, switch)
        with _on_the_generic_trial():
            assert _bits(_dopri5_floats(fun, z0.tolist(), t_final, config, switch)) == _bits(run)
        if crossed:
            crossing += 1
            assert times[-1] == t_final and stats.rhs_evals == 2 + 6 * (stats.accepted + stats.rejected)
        else:
            assert _bits(run) == _bits((want_times, want_states, want_stats))
    return crossing


@pytest.mark.parametrize("size", _SIZES)
@settings(derandomize=True, max_examples=16, deadline=None)
@given(name=st.sampled_from(sorted(_ROW_PROBLEMS)), data=st.data())
def test_batch_rows_match_one_row_integrations(size, name, data):
    problem, config = _ROW_PROBLEMS[name], IntegrationConfig()
    P = np.array(data.draw(st.lists(st.tuples(_COORD, _COORD), min_size=size, max_size=size)))
    _assert_batches_match_one_row_integrations(problem, P, config)


@pytest.mark.parametrize("size", [*_SIZES, 442])
def test_rows_that_cross_land_alike_on_both_trials(bundled_problem, size):
    # the crossing points, the quiet ones, then seeded points of [-1.5, 1.5]^2;
    # 442 rows are as many as the README's 21 x 21 surface.  Each crossing
    # point crosses on its coupled row, and a fifth of all rows cross or more
    seeded = halton_in_box(size, [-1.5, -1.5], [1.5, 1.5]).tolist()
    P = np.array(_CROSSING + _QUIET + seeded)[:size]
    assert _assert_batches_match_one_row_integrations(bundled_problem, P, IntegrationConfig()) >= max(4, size // 5)


def _assert_batches_match_one_row_integrations(problem, P, config) -> int:
    """The rows of ``P`` in batches and one at a time, and P[0] on every entry point; returns the crossing rows."""
    switch = problem.rhs.switch
    # state rows, and coupled state/tangent rows along the compass directions in turn
    Z0 = _at_rows(problem.init.value, P)
    crossing = _assert_rows_match_the_reference(problem.rhs.value, Z0, problem.t_final, config, switch)
    size = len(P)
    directions = np.tile(np.array(probe_directions(np.eye(2))), (size // 4 + 1, 1))[:size]
    coupled = _at_rows(problem.init.tangent, np.hstack([P, directions]))
    crossing += _assert_rows_match_the_reference(problem.rhs.tangent, coupled, problem.t_final, config, switch)
    costs = ode_cost_value(problem, P, config)
    assert costs.tolist() == [ode_cost_value(problem, q, config) for q in P]
    # a single integration, with its trajectory
    run = _dopri5_floats(problem.rhs.value, Z0[0].tolist(), problem.t_final, config, switch)
    assert _bits(integrate_state(problem, P[0], config)) == _bits(run)
    # the four compass probes at P[0]: four coupled integrations
    p, n = P[0], problem.n_state
    result, trajectories = ode_probes(problem, p, config)
    assert len(trajectories) == 4
    for pr, traj in zip(result.probes, trajectories):
        z0 = problem.init.tangent(p.tolist() + pr.direction.tolist())
        times, states, stats = _dopri5_floats(problem.rhs.tangent, z0, problem.t_final, config, switch)
        times, states = np.array(times), np.array(states)
        for got in (traj, integrate_coupled(problem, p, pr.direction, config)):
            assert got.direction.tobytes() == pr.direction.tobytes()
            assert got.times.tobytes() == times.tobytes()
            assert got.states.tobytes() == states[:, :n].tobytes()
            assert got.sensitivities.tobytes() == states[:, n:].tobytes()
            assert got.stats == stats
        x, y = states[-1, :n], states[-1, n:]
        assert pr.value == problem.cost.dir_deriv(np.concatenate([p, x]), np.concatenate([pr.direction, y]))
    return crossing


@pytest.mark.parametrize("size", _SIZES)
def test_two_crossings_in_one_step_land_in_turn(size):
    # x0 is time from p1; x1' = |x0 - 1/2| + |x0 - 0.5005|, piecewise linear,
    # so each smooth piece is integrated exactly: a first step of 0.2 or more
    # sees both kinks change sign, lands on the earlier one, then the later
    problem = problem_from_json({
        "n_state": 2, "rhs_expr": ["(const 1)", "(add (abs (sub (var 0) (const 0.5))) (abs (sub (var 0) (const 0.5005))))"],
        "init_expr": ["(var 0)", "(const 0)"], "cost_expr": "(var 3)", "t_final": 1.0})
    times, states, stats = integrate_state(problem, [0.0, 0.0])
    # each crossing step ends at most rel_tol times the step before it past the kink
    assert stats.events == 2 and all(any(0.0 < t - kink <= 1e-8 for t in times) for kink in (0.5, 0.5005))
    assert abs(states[-1][1] - (0.25 + (0.5005 ** 2 + 0.4995 ** 2) / 2)) < 1e-14
    P = np.column_stack([np.linspace(-0.3, 0.45, size), np.zeros(size)])
    Z0 = _at_rows(problem.init.value, P)
    assert _assert_rows_match_the_reference(problem.rhs.value, Z0, 1.0, IntegrationConfig(), problem.rhs.switch) == size


def _reference_trial(fun, z, k1, h, atol, rtol):
    """One trial step straight from the tableau: each sum from +0.0, term by term, the 0.0 weights kept."""
    def combine(coeffs, ks, i):
        total = 0.0
        for c, k in zip(coeffs, ks):
            total += c * k[i]
        return total

    ks = [k1]
    for row in odesens._STAGES[1:]:
        ks.append(fun([a + h * combine(row, ks, i) for i, a in enumerate(z)]))
    z_new, q, nonfinite = [], 0.0, 0.0
    for i, a in enumerate(z):
        b, e = a + h * combine(odesens._WEIGHTS, ks, i), h * combine(odesens._ERROR_WEIGHTS, ks, i)
        z_new.append(b)
        nonfinite += b * 0.0 + e * 0.0
        e /= atol + rtol * (abs(a) if abs(a) >= abs(b) else abs(b))
        q += e * e
    return z_new, math.sqrt(q / len(z)) + nonfinite, tuple(ks)


# components a trial must carry exactly: signed zeros, infinities and NaN among other floats
_COMPONENT = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), st.floats())


@settings(derandomize=True, max_examples=400, deadline=None)
@given(width=st.integers(1, 8), data=st.data())
def test_each_width_has_a_trial_with_the_generic_trials_bits(width, data):
    # the points the six stages call the rhs at, the new state, the error
    # norm and the stages, on both trials and on the reference; the rhs
    # returns drawn components.  A stage sum that starts from its first term
    # turns +0.0 into -0.0, and a 0.0 weight (b2, b7, e2) dropped turns
    # 0.0 * inf = NaN into a number
    vector = st.lists(_COMPONENT, min_size=width, max_size=width)
    z, k1, *outputs = (data.draw(vector) for _ in range(8))
    h = data.draw(st.sampled_from([1.0, 1e-3]) | st.floats(1e-13, 10.0))
    atol, rtol = data.draw(st.sampled_from([(1e-8, 1e-8), (1e-300, 1e-300), (1e308, 1e308)]))

    def run(trial):
        points = []

        def fun(x):
            points.append(x)
            return list(outputs[len(points) - 1])

        z_new, err, ks = trial(fun, list(z), list(k1), h, atol, rtol)
        # every NaN as one NaN: CPython's specialized float operations may pick another NaN's sign
        return [np.where(np.isnan(v), math.nan, v).tobytes() for v in map(np.array, (points, z_new, err, ks))]

    assert run(_trial_of_width(width)) == run(_trial) == run(_reference_trial)


def test_stage_sums_start_from_positive_zero_on_both_trials():
    # x0 stays -0.0 with derivative -0.0, so a stage sum from +0.0 gives a
    # stage point of +0.0 where a sum from its first term would give -0.0,
    # and x1' reads the sign of that zero
    fun = lambda x: [-0.0, math.copysign(1.0, x[0])]  # noqa: E731
    _assert_rows_match_the_reference(fun, np.array([[-0.0, 0.0]]), 1.0, IntegrationConfig())
    for trial in (_on_the_generic_trial, contextlib.nullcontext):
        with trial():
            x = _dopri5_floats(fun, [-0.0, 0.0], 1.0, IntegrationConfig())[1][-1]
        assert math.copysign(1.0, x[0]) == 1.0 and x[1] > 0.0  # x0 is +0.0 after the first step


@settings(derandomize=True, max_examples=200, deadline=None)
@given(width=st.integers(1, 8), data=st.data())
def test_the_seventh_stage_is_evaluated_at_the_new_state_on_both_trials(width, data):
    # first same as last: with finite stage outputs the seventh rhs call
    # receives exactly the returned z_new, zeros' signs included, so the step
    # loop may take that stage as the next step's first
    finite = st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False)
    vector = st.lists(finite, min_size=width, max_size=width)
    z, k1, *outputs = (data.draw(vector) for _ in range(8))
    h = data.draw(st.sampled_from([1.0, 1e-3]) | st.floats(1e-13, 10.0))
    for trial in (_trial_of_width(width), _trial):
        points = []

        def fun(x):
            points.append(x)
            return list(outputs[len(points) - 1])

        z_new = trial(fun, list(z), list(k1), h, 1e-8, 1e-8)[0]
        # sums that overflow give NaN, compared as one NaN
        seventh, new = (np.where(np.isnan(v), math.nan, v).tobytes() for v in map(np.array, (points[5], z_new)))
        assert len(points) == 6 and seventh == new


def _builtin_control(h, err, err_prev):
    """The step control written with the builtin ``max`` and ``min``: the reference for :func:`_control`."""
    if err <= 1.0:
        factor = odesens._SAFETY * (max(err, 1e-16) ** (-0.7 / odesens._ORDER)) * \
            (max(err_prev, 1e-16) ** (0.4 / odesens._ORDER))
        return h * min(odesens._MAX_FACTOR, max(odesens._MIN_FACTOR, factor)), max(err, 1e-16)
    return h * max(0.1, odesens._SAFETY * err ** (-1.0 / odesens._ORDER)), err_prev


def _neighbours(x: float) -> list:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# error norms: zero, subnormals, around the 1e-16 floor and the acceptance
# bound 1, where the factors reach their clamps, large values and inf
_ERRS = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, *_neighbours(1e-16), 1e-12, 0.3, *_neighbours(1.0), 1.5,
         3.0, 1e3, 1e100, sys.float_info.max, math.inf]
# what the loop passes as err_prev: 1.0 before the first accepted step, then
# an accepted step's err with the 1e-16 floor, in [1e-16, 1]
_ERR_PREVS = [1.0, math.nextafter(1.0, 0.0), *_neighbours(1e-16)[1:], 1e-10, 0.5]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(h=st.floats(1e-13, 10.0), err=st.floats(0.0, math.inf), err_prev=st.floats(1e-16, 1.0))
def test_step_control_has_the_builtin_max_and_min_bits(h, err, err_prev):
    assert [x.hex() for x in _control(h, err, err_prev)] == [x.hex() for x in _builtin_control(h, err, err_prev)]


def test_step_control_meets_each_clamp():
    # every listed pair: the PI factor below 0.2, inside, and above 5, and a rejection below and above 0.1
    for err in _ERRS:
        for err_prev in _ERR_PREVS:
            for h in (1e-13, 1.0):
                assert [x.hex() for x in _control(h, err, err_prev)] == \
                       [x.hex() for x in _builtin_control(h, err, err_prev)]
    assert _control(1.0, 0.0, 1.0)[0] == odesens._MAX_FACTOR and _control(1.0, 1.0, 1e-16)[0] == odesens._MIN_FACTOR
    assert _control(1.0, math.inf, 1.0)[0] == 0.1 and 0.1 < _control(1.0, 1.5, 1.0)[0] < 0.9


def test_the_last_step_lands_on_t_final_on_both_trials():
    # dx/dt = 1 with steps growing fivefold: the last step starts at t = 0.3906,
    # where t + (0.9 - t) rounds to 0.9000000000000001
    problem = problem_from_json({"n_state": 1, "rhs_expr": ["(const 1)"], "init_expr": ["(var 0)"],
                                 "cost_expr": "(var 2)", "t_final": 0.9})
    _assert_rows_match_the_reference(problem.rhs.value, np.zeros((1, 1)), problem.t_final, IntegrationConfig())
    times = _dopri5_floats(problem.rhs.value, [0.0], problem.t_final, IntegrationConfig())[0]
    assert times[-2] == 0.3906 and 0.3906 + (0.9 - 0.3906) > 0.9 and times[-1] == 0.9


def _chain_problem(n_state: int) -> OdeProblem:
    """x0' = |x1|, x(i+1)' = x(i+1) - x(i) / 2 along a chain and the last x' = -x0, from x0(p) = (p1, p2, 1/4, ...)."""
    return problem_from_json({
        "n_state": n_state, "rhs_expr": ["(abs (var 1))", *(f"(sub (var {i + 1}) (scale 0.5 (var {i})))"
                                                            for i in range(n_state - 2)), "(neg (var 0))"],
        "init_expr": ["(var 0)", "(var 1)", *(["(const 0.25)"] * (n_state - 2))], "cost_expr": "(var 2)",
        "t_final": 1.0})


@pytest.mark.parametrize("width", [odesens.MAX_TRIAL_WIDTH, odesens.MAX_TRIAL_WIDTH + 1])
def test_wide_batches_match_their_single_row_integrations(width):
    # up to MAX_TRIAL_WIDTH components every run takes the width's own trial,
    # past it the generic one; the single integration on the generic trial
    # checks both against it
    problem = _chain_problem(width)
    assert (_trial_of_width(width) is _trial) == (width > odesens.MAX_TRIAL_WIDTH)
    P = np.array([[0.5, -0.25], [-0.3, 0.7], [0.0, -0.0]])
    costs = ode_cost_value(problem, P)
    for q, cost in zip(P, costs.tolist()):
        times, states, stats = integrate_state(problem, q)
        assert cost == problem.cost.value(np.concatenate([q, states[-1]]))
        with _on_the_generic_trial():
            generic = _dopri5_floats(problem.rhs.value, states[0].tolist(), 1.0, IntegrationConfig(),
                                     problem.rhs.switch)
        assert _bits(generic) == _bits((times, states, stats))


@pytest.mark.parametrize("n_state", [odesens.MAX_TRIAL_WIDTH // 2, odesens.MAX_TRIAL_WIDTH // 2 + 1])
def test_probes_at_the_widest_trial_match_the_generic_trial(n_state):
    # a probe integrates 2 * n_state components: up to n_state 32 on the
    # width's own trial, past it on the generic one.  Either way the
    # subgradient, its probe values and each coupled integration are those
    # of the generic trial, bit for bit
    problem = _chain_problem(n_state)
    assert (_trial_of_width(2 * n_state) is _trial) == (2 * n_state > odesens.MAX_TRIAL_WIDTH)

    def runs() -> list:
        out = []
        for p in ([1.0, 0.2], [-0.3, 0.7], [0.0, -0.0]):
            result = ode_subgradient(problem, p)
            out.append((result.subgradient.tobytes(), [pr.value for pr in result.probes]))
            for d in probe_directions(np.eye(2)):
                traj = integrate_coupled(problem, p, d)
                out.append((traj.times.tobytes(), traj.states.tobytes(), traj.sensitivities.tobytes(), traj.stats))
        return out

    own = runs()
    with _on_the_generic_trial():
        assert runs() == own
    assert sum(stats.events for *_, stats in own[1:5]) == 4  # x1 changes sign along each probe at (1, 0.2)


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
    assert batch.tolist() == [float.fromhex("0x1.3a0fe3eca10b4p+1"), float.fromhex("0x1.4319085c3b1fap-4")]
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


@pytest.mark.parametrize("size", [6, 40])
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
    fun = _BLOWUP.rhs.value
    errors = {}  # the reference's error of each failing row
    for i, z0 in enumerate(Z0):
        try:
            want = _dopri5(_on_arrays(fun), z0, 1.0, config)[:3]
        except IntegrationError as alone:
            errors[i] = alone
            for trial in (_on_the_generic_trial, contextlib.nullcontext):
                with trial(), pytest.raises(IntegrationError) as floats:
                    _dopri5_floats(fun, z0.tolist(), 1.0, config)
                assert (str(floats.value), floats.value.time) == (str(alone), alone.time)
        else:
            for trial in (_on_the_generic_trial, contextlib.nullcontext):
                with trial():
                    assert _bits(_dopri5_floats(fun, z0.tolist(), 1.0, config)) == _bits(want)
    assert len(errors) >= 3
    # the batch raises the lowest failing row's error
    with pytest.raises(IntegrationError) as batch:
        ode_cost_value(_BLOWUP, P, config)
    row = min(errors)
    assert (batch.value.row, batch.value.time) == (row, errors[row].time)
    assert str(batch.value).startswith(f"{errors[row]} for p = ")


def test_batch_failure_names_the_lowest_failing_row():
    # p1 = 2 fails at an earlier time than p1 = 1.25
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


def test_each_entry_point_runs_its_own_loop(bundled_problem, monkeypatch):
    # each run of the step loop takes the trial of its width: 3 for a state
    # integration or a row of ode_cost_value, 6 for a coupled one or a probe
    trials = []  # the trial of each run of the step loop
    trial_of_width = odesens._trial_of_width

    def record(n):
        trials.append(trial_of_width(n))
        return trials[-1]

    def runs(call):
        trials.clear()
        call()
        return trials

    monkeypatch.setattr(odesens, "_trial_of_width", record)
    p, own, coupled = [0.3, -0.7], trial_of_width(bundled_problem.n_state), trial_of_width(6)
    assert _trial not in (own, coupled) and own is trial_of_width(3)  # compiled once per width
    assert runs(lambda: integrate_state(bundled_problem, p)) == [own]
    assert runs(lambda: integrate_coupled(bundled_problem, p, [1.0, 0.0])) == [coupled]
    assert runs(lambda: ode_subgradient(bundled_problem, p)) == [coupled] * 4
    assert runs(lambda: ode_cost_value(bundled_problem, p)) == [own]
    assert runs(lambda: ode_cost_value(bundled_problem, [p] * 21)) == [own] * 21
    # x0 = 1.5 blows up at t = 2/3 along every direction: the first probe's
    # failure ends the probes, and the first failing row ends a batch
    with pytest.raises(IntegrationError) as err:
        runs(lambda: ode_subgradient(_BLOWUP, [1.5, 0.0]))
    assert trials == [trial_of_width(2)] and err.value.direction.tolist() == [1.0, 0.0]
    with pytest.raises(IntegrationError) as err:
        runs(lambda: ode_cost_value(_BLOWUP, [[0.5, 0.0], [1.5, 0.0], [0.5, 0.0]]))
    assert trials == [trial_of_width(1)] * 2 and err.value.row == 1


def _rhs_that_changes_width(good_calls: int, extra: int) -> OdeProblem:
    """dx/dt = -x on two states, by a hand-written rhs that returns ``2 + extra`` components after ``good_calls``."""
    calls = []

    def value(x):
        calls.append(x)
        out = [-x[0], -x[1]]
        if len(calls) <= good_calls:
            return out
        return out + [0.0] if extra > 0 else out[:1]

    return dataclasses.replace(_linear_problem([[-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0]),
                               rhs=VectorOracle(value=value, tangent=value, dim_in=2, dim_out=2))


# calls before the rhs changes its width: f(z0), the step-size guess, then the first trial's stages k2 to k7
@pytest.mark.parametrize("good_calls", [1, 2, 6, 7])
@pytest.mark.parametrize("extra", [1, -1])
def test_an_rhs_that_changes_its_width_fails_on_both_trials(good_calls, extra):
    # a zip would truncate the longer output, or the next stage's point, in silence
    message = f"^the right-hand side returned {2 + extra} components for a point, expected 2$"
    for run in (lambda problem: integrate_state(problem, [1.0, 2.0]),
                lambda problem: ode_cost_value(problem, [1.0, 2.0]),
                lambda problem: ode_cost_value(problem, [[1.0, 2.0]] * 40)):
        for trial in (_on_the_generic_trial, contextlib.nullcontext):
            with trial(), pytest.raises(InputError, match=message):
                run(_rhs_that_changes_width(good_calls, extra))
    # a later row of a batch
    with pytest.raises(InputError, match=message):
        ode_cost_value(_rhs_that_changes_width(good_calls + 200, extra), [[1.0, 2.0]] * 40)


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
