import math

import numpy as np
import pytest
from scipy.linalg import expm

from compassdiff import expr as ex
from compassdiff.compass import verify_subgradient_inequality
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
    integrate_coupled,
    ode_cost_dirderiv,
    ode_cost_value,
    ode_subgradient,
    problem_from_json,
)
from compassdiff.oracle import DirectionalOracle, VectorOracle
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
    rhs = VectorOracle(value=lambda x: A @ x, dir_deriv=lambda x, y: A @ y, dim_in=2, dim_out=2)
    init = VectorOracle(value=lambda p: p.copy(), dir_deriv=lambda p, d: d.copy(), dim_in=2, dim_out=2)
    cost = DirectionalOracle(
        value=lambda z: float(c @ z[2:]),
        dir_deriv=lambda z, t: float(c @ t[2:]),
        dim=4,
    )
    return OdeProblem(n_state=2, rhs=rhs, init=init, cost=cost, t_final=1.0)


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


def test_reintegration_with_perturbed_initial_step_agrees(bundled_problem):
    cfg = IntegrationConfig()
    base = integrate_coupled(bundled_problem, [0.0, 0.0], [1.0, 0.0], cfg)
    perturbed = integrate_coupled(
        bundled_problem, [0.0, 0.0], [1.0, 0.0], IntegrationConfig(initial_step=0.0037))
    scale = max(1.0, float(np.max(np.abs(base.sensitivities[-1]))))
    agreement = np.max(np.abs(base.sensitivities[-1] - perturbed.sensitivities[-1]))
    assert agreement <= 10.0 * (cfg.abs_tol + cfg.rel_tol * scale)


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
        got = bundled_problem.rhs.dir_deriv(x, y)
        assert got[0] == table_dy1(x, y)
        assert got[1] == table_dy2(x, y)
        assert got[2] == y[2]


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


@pytest.mark.parametrize("p, config, expected", [
    ((0.0, 0.0), IntegrationConfig(), StepStats(19, 0, 116)),
    ((0.0, 0.0), IntegrationConfig(initial_step=0.9), StepStats(13, 2, 91)),
    ((-0.952, 1.312), IntegrationConfig(), StepStats(41, 30, 428)),
])
def test_integrate_coupled_step_counts(bundled_problem, p, config, expected):
    # 6 rhs evaluations per attempted step, plus f(z0) and, without an
    # initial step, the step-size guess
    stats = integrate_coupled(bundled_problem, p, [1.0, 0.0], config).stats
    assert stats == expected
    setup = 1 if config.initial_step is not None else 2
    assert stats.rhs_evals == setup + 6 * (stats.accepted + stats.rejected)


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


def test_hand_written_rhs_gets_the_default_fused_pass():
    calls = []
    rhs = VectorOracle(value=lambda x: calls.append("value") or -x,
                       dir_deriv=lambda x, y: calls.append("dir_deriv") or -y, dim_in=1, dim_out=1)
    init = VectorOracle(value=lambda p: p[:1].copy(), dir_deriv=lambda p, d: d[:1].copy(), dim_in=2, dim_out=1)
    cost = DirectionalOracle(value=lambda z: float(z[2]), dir_deriv=lambda z, t: float(t[2]), dim=3)
    problem = OdeProblem(n_state=1, rhs=rhs, init=init, cost=cost, t_final=1.0)
    traj = integrate_coupled(problem, [1.0, 0.0], [1.0, 0.0])
    assert calls[:4] == ["value", "dir_deriv", "value", "dir_deriv"]
    assert len(calls) == 2 * traj.stats.rhs_evals
    assert traj.sensitivities[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-7)


# ---------------------------------------------------------------------------
# failure modes and plumbing

def test_integration_error_carries_time_and_direction(bundled_problem):
    cfg = IntegrationConfig(max_steps=3)
    with pytest.raises(IntegrationError) as err:
        integrate_coupled(bundled_problem, [0.0, 0.0], [1.0, 0.0], cfg)
    assert 0.0 <= err.value.time <= 1.0
    assert np.array_equal(err.value.direction, [1.0, 0.0])


def test_blowup_reports_failure_time():
    # dx/dt = x^2 from x(0) = 1 blows up at t = 1
    rhs = VectorOracle(value=lambda x: x * x, dir_deriv=lambda x, y: 2 * x * y, dim_in=1, dim_out=1)
    init = VectorOracle(value=lambda p: np.array([1.0]), dir_deriv=lambda p, d: np.array([0.0]),
                        dim_in=2, dim_out=1)
    cost = DirectionalOracle(value=lambda z: float(z[2]), dir_deriv=lambda z, t: float(t[2]), dim=3)
    problem = OdeProblem(n_state=1, rhs=rhs, init=init, cost=cost, t_final=2.0)
    with pytest.raises(IntegrationError) as err:
        ode_cost_value(problem, [0.0, 0.0])
    assert 0.9 <= err.value.time <= 2.0


def test_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        IntegrationConfig(max_steps=0)
    with pytest.raises(ValueError):
        IntegrationConfig(initial_step=-1.0)


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
