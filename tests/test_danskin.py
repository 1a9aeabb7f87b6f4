import numpy as np
import pytest

from compassdiff.compass import finite_difference_compass
from compassdiff.danskin import (
    ActiveSet,
    Box,
    FinitePointCloud,
    OptimalValueProblem,
    danskin_subgradient,
    optimal_value,
    problem_from_json,
    psi,
    solve_inner,
    stability_probe,
)
from compassdiff.demos import paper_fixture_path


def _circle_cloud(count=360):
    theta = 2.0 * np.pi * np.arange(count) / count
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _inner_product_problem():
    return OptimalValueProblem(
        objective=lambda x, ys: ys[:, 0] * x[0] + ys[:, 1] * x[1],
        grad_x=lambda x, ys: np.asarray(ys, dtype=float),
        feasible=FinitePointCloud(points=_circle_cloud()),
    )


def _sqdist_problem():
    return OptimalValueProblem(
        objective=lambda x, ys: (ys[:, 0] - x[0]) ** 2 + (ys[:, 1] - x[1]) ** 2,
        grad_x=lambda x, ys: 2.0 * (np.asarray(x, float) - np.asarray(ys, float)),
        feasible=FinitePointCloud(points=_circle_cloud()),
    )


# ---------------------------------------------------------------------------
# solve_inner

def test_solve_inner_single_minimizer():
    problem = _inner_product_problem()
    active = solve_inner(problem, [1.0, 0.0])
    assert active.minimizers.shape[0] == 1
    assert active.minimizers[0] == pytest.approx([-1.0, 0.0], abs=1e-12)
    assert active.optimal_value == pytest.approx(-1.0, abs=1e-12)


def test_solve_inner_everything_active_at_origin():
    problem = _inner_product_problem()
    active = solve_inner(problem, [0.0, 0.0])
    assert active.minimizers.shape[0] == 360
    assert active.optimal_value == 0.0


def test_solve_inner_equidistant_circle():
    problem = _sqdist_problem()
    active = solve_inner(problem, [0.0, 0.0])
    assert active.minimizers.shape[0] == 360
    assert active.optimal_value == pytest.approx(1.0, abs=1e-12)


def test_solve_inner_default_epsilon_is_relative():
    problem = _inner_product_problem()
    active = solve_inner(problem, [1.0, 0.0])
    assert active.epsilon == pytest.approx(1e-8 * 2.0)
    explicit = solve_inner(problem, [1.0, 0.0], eps_active=1e-3)
    assert explicit.minimizers.shape[0] > 1  # near-by circle points activate


def test_solve_inner_rejects_nonfinite_objective():
    problem = OptimalValueProblem(
        objective=lambda x, ys: np.full(len(ys), np.nan),
        grad_x=lambda x, ys: np.zeros((len(ys), 2)),
        feasible=FinitePointCloud(points=np.zeros((1, 2))),
    )
    with pytest.raises(ValueError, match="non-finite"):
        solve_inner(problem, [0.0, 0.0])


def test_solve_inner_rejects_nan_from_a_compiled_objective():
    # max(1, NaN) is NaN in the compiled pass, so the non-finite check fires
    problem = problem_from_json({
        "objective": "(max (const 1) (mul (var 2) (const nan)))",
        "grad_x": ["(var 2)", "(var 3)"],
        "feasible": {"cloud": [[0.0, 0.0], [1.0, 0.0]]},
    })
    with pytest.raises(ValueError, match="non-finite"):
        solve_inner(problem, [0.0, 0.0])


# ---------------------------------------------------------------------------
# psi

def test_psi_examples():
    inner = _inner_product_problem()
    active = solve_inner(inner, [0.0, 0.0])
    assert psi(inner, [0.0, 0.0], active, [1.0, 0.0]) == pytest.approx(-1.0, abs=1e-12)
    sq = _sqdist_problem()
    active = solve_inner(sq, [0.0, 0.0])
    assert psi(sq, [0.0, 0.0], active, [1.0, 0.0]) == pytest.approx(-2.0, abs=1e-12)
    single = ActiveSet(minimizers=np.array([[0.5, -0.25]]), optimal_value=0.0, epsilon=1e-8)
    assert psi(inner, [0.0, 0.0], single, [2.0, 4.0]) == 2.0 * 0.5 + 4.0 * (-0.25)


def test_psi_superadditive_on_point_clouds():
    # psi is a min of linear maps, hence concave/superadditive in d, exactly
    # so when the active set is computed by exact enumeration
    problem = _inner_product_problem()
    active = solve_inner(problem, [0.0, 0.0])
    rng = np.random.default_rng(13)
    for _ in range(50):
        d1 = rng.uniform(-1, 1, 2)
        d2 = rng.uniform(-1, 1, 2)
        lhs = psi(problem, [0.0, 0.0], active, d1 + d2)
        rhs = psi(problem, [0.0, 0.0], active, d1) + psi(problem, [0.0, 0.0], active, d2)
        assert lhs >= rhs - 1e-10


# ---------------------------------------------------------------------------
# danskin_subgradient

def test_danskin_circle_examples():
    inner = _inner_product_problem()
    res = danskin_subgradient(inner, [0.0, 0.0])
    assert res.subgradient == pytest.approx([0.0, 0.0], abs=1e-3)
    # the optimal-value function here is -||x||; its subdifferential at the
    # origin is the unit ball, which contains the reported (0, 0)
    assert np.linalg.norm(res.subgradient) <= 1.0 + 1e-12

    res = danskin_subgradient(inner, [1.0, 0.0])
    assert res.subgradient == pytest.approx([-1.0, 0.0], abs=1e-3)

    sq = _sqdist_problem()
    res = danskin_subgradient(sq, [0.0, 0.0])
    assert res.subgradient == pytest.approx([0.0, 0.0], abs=1e-3)
    assert [p.value for p in res.probes] == pytest.approx([-2.0] * 4, abs=1e-12)


def test_danskin_agrees_with_finite_differences_of_value():
    for problem, x_hat in [
        (_inner_product_problem(), [0.0, 0.0]),
        (_inner_product_problem(), [1.0, 0.0]),
        (_sqdist_problem(), [0.0, 0.0]),
    ]:
        x_hat = np.asarray(x_hat, dtype=float)
        s = danskin_subgradient(problem, x_hat).subgradient
        fd = finite_difference_compass(lambda q: optimal_value(problem, q), x_hat, 1e-5)
        assert np.max(np.abs(s - fd)) <= 1e-3


def test_danskin_smooth_singleton_reduces_to_gradient():
    problem = _inner_product_problem()
    res = danskin_subgradient(problem, [1.0, 0.0])
    active = solve_inner(problem, [1.0, 0.0])
    gradient = problem.grad_x(np.array([1.0, 0.0]), active.minimizers[:1])[0]
    assert np.max(np.abs(res.subgradient - gradient)) <= 1e-10


def test_danskin_box_feasible_set():
    # squared distance to the unit box: at (2, 0.3) the projection is (1, 0.3)
    # and the gradient of the optimal value is 2 (x - projection) = (2, 0)
    problem = OptimalValueProblem(
        objective=lambda x, ys: (ys[:, 0] - x[0]) ** 2 + (ys[:, 1] - x[1]) ** 2,
        grad_x=lambda x, ys: 2.0 * (np.asarray(x, float) - np.asarray(ys, float)),
        feasible=Box(lower=[-1.0, -1.0], upper=[1.0, 1.0], grid=21, refine_steps=40),
    )
    active = solve_inner(problem, [2.0, 0.3])
    assert active.minimizers.shape[0] == 1
    assert active.minimizers[0] == pytest.approx([1.0, 0.3], abs=1e-6)
    res = danskin_subgradient(problem, [2.0, 0.3])
    assert res.subgradient == pytest.approx([2.0, 0.0], abs=1e-6)


def test_requires_planar_outer_space():
    with pytest.raises(ValueError):
        danskin_subgradient(_inner_product_problem(), [0.0, 0.0, 0.0])


def test_stability_probe_reports_both_tolerances():
    report = stability_probe(_inner_product_problem(), [1.0, 0.0])
    assert report["active_size"] == 1
    assert len(report["psi"]) == 4 and len(report["psi_10eps"]) == 4
    assert report["active_size_10eps"] >= report["active_size"]


# ---------------------------------------------------------------------------
# JSON loading

def test_problem_from_json_fixture_matches_in_memory():
    fixture = problem_from_json(paper_fixture_path("danskin_circle.json"))
    local = _inner_product_problem()
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(-1, 1, 2)
        ys = rng.uniform(-1, 1, (1, 2))
        assert fixture.objective(x, ys) == pytest.approx(local.objective(x, ys), abs=1e-15)
        assert fixture.grad_x(x, ys) == pytest.approx(local.grad_x(x, ys), abs=1e-15)
    res = danskin_subgradient(fixture, [1.0, 0.0])
    assert res.subgradient == pytest.approx([-1.0, 0.0], abs=1e-3)


def test_problem_from_json_box_and_errors():
    problem = problem_from_json({
        "objective": "(add (mul (sub (var 2) (var 0)) (sub (var 2) (var 0))) (mul (sub (var 3) (var 1)) (sub (var 3) (var 1))))",
        "grad_x": ["(scale 2.0 (sub (var 0) (var 2)))", "(scale 2.0 (sub (var 1) (var 3)))"],
        "feasible": {"box": {"lower": [-1, -1], "upper": [1, 1], "grid": 11, "refine_steps": 25}},
    })
    assert isinstance(problem.feasible, Box)
    res = danskin_subgradient(problem, [2.0, 0.0])
    assert res.subgradient == pytest.approx([2.0, 0.0], abs=1e-5)

    with pytest.raises(ValueError, match="missing"):
        problem_from_json({"objective": "(var 0)"})
    with pytest.raises(ValueError, match="cloud"):
        problem_from_json({"objective": "(var 0)", "grad_x": ["(var 0)", "(var 1)"], "feasible": {}})
