"""Acceptance suite: one test per headline criterion, at its stated tolerance.

Each test prints a single PASS line when its assertions hold, so running
``pytest tests/test_acceptance.py -v -s`` gives a one-line-per-criterion
scoreboard.
"""

import math
import time

import numpy as np

from compassdiff import expr as ex
from compassdiff.catalog import catalog, catalog_entry
from compassdiff.compass import (
    basis_compass_difference,
    compass_difference,
    finite_difference_compass,
    verify_subgradient_inequality,
)
from compassdiff.demos import paper_fixture_path, run_demo
from compassdiff.geometry import midpoint_element, polytope_support
from compassdiff.hulls import convex_hull_2d, hull_distance, separation
from compassdiff.odesens import IntegrationConfig, ode_cost_value, ode_subgradient, problem_from_json
from compassdiff.danskin import danskin_subgradient, optimal_value
from compassdiff.danskin import problem_from_json as danskin_from_json
from compassdiff.optimize import Polyak, subgradient_method
from compassdiff.sampling import halton_in_box


def _passline(text: str):
    print(f"[PASS] {text}")


def _membership(subgradient, hull, tol_hull=1e-9, tol_ball=1e-12) -> bool:
    if hull.ball_radius is not None:
        return float(np.linalg.norm(subgradient)) <= hull.ball_radius + tol_ball
    if hull.generators.shape[0] == 1:
        return float(np.max(np.abs(subgradient - hull.generators[0]))) <= tol_hull
    return hull_distance(subgradient, hull.generators) <= tol_hull


def test_criterion_1_ode_cost_reproduction():
    problem = problem_from_json(paper_fixture_path("example46.json"))
    config = IntegrationConfig(abs_tol=1e-8, rel_tol=1e-8)
    start = time.perf_counter()
    result = ode_subgradient(problem, [0.0, 0.0], config)
    elapsed = time.perf_counter() - start
    closed_form = np.array([math.e + math.cosh(1.0) / 2.0, (math.e - math.sinh(1.0)) / 2.0])
    reported = np.array([3.490, 0.772])
    assert np.max(np.abs(result.subgradient - reported)) <= 2e-3
    assert np.max(np.abs(result.subgradient - closed_form)) <= 1e-6
    assert elapsed < 5.0
    _passline(f"criterion 1: ODE subgradient {result.subgradient.tolist()} "
              f"within 2e-3 of (3.490, 0.772) and 1e-6 of the closed form, {elapsed:.2f}s")


def test_criterion_2_planar_membership_suite():
    failures = 0
    total = 0
    for entry in [e for e in catalog() if e.dim == 2]:
        points = [np.asarray(p, float) for p in entry.kink_points]
        points += list(halton_in_box(100 - len(points), [-2.0, -2.0], [2.0, 2.0]))
        assert len(points) == 100
        for x in points:
            s = compass_difference(entry.oracle, x).subgradient
            total += 1
            if not _membership(s, entry.clarke_hull(x)):
                failures += 1
    assert failures == 0
    _passline(f"criterion 2: {total} compass differences all inside the known generalized gradients")


def test_criterion_3_convex_subgradient_inequality_suite():
    checked = 0
    for entry in [e for e in catalog() if e.convex and e.dim <= 2]:
        n = entry.dim
        lo, hi = -2.0 * np.ones(n), 2.0 * np.ones(n)
        base_points = halton_in_box(20, lo, hi, start=101)
        samples = halton_in_box(10_000, lo, hi)
        value_fn = lambda y: ex.eval_value(entry.expr, y)
        for x in base_points:
            s = compass_difference(entry.oracle, x).subgradient
            report = verify_subgradient_inequality(value_fn, x, s, samples, slack=1e-9)
            assert report.passed, (entry.name, x.tolist(), report.max_violation)
            checked += 1
    problem = problem_from_json(paper_fixture_path("example46.json"))
    config = IntegrationConfig(abs_tol=1e-8, rel_tol=1e-8)
    s = ode_subgradient(problem, [0.0, 0.0], config).subgradient
    ode_samples = halton_in_box(200, [-1.0, -1.0], [1.0, 1.0])
    report = verify_subgradient_inequality(
        lambda q: ode_cost_value(problem, q, config), np.zeros(2), s, ode_samples, slack=1e-4)
    assert report.passed, report.max_violation
    _passline(f"criterion 3: subgradient inequality holds at {checked} convex base points "
              f"(slack 1e-9) and for the ODE cost on 200 samples (slack 1e-4)")


def test_criterion_4_random_polygon_midpoints():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    built = 0
    while built < 500:
        pts = rng.uniform(-10.0, 10.0, size=(int(rng.integers(3, 13)) + 6, 2))
        hull = convex_hull_2d(pts)
        if not (3 <= hull.shape[0] <= 12):
            continue
        built += 1
        mid = midpoint_element(polytope_support(hull))
        assert separation(mid.point, hull)[0] <= 1e-9, (hull.tolist(), mid.point.tolist())
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    _passline(f"criterion 4: 500 random polygon midpoints all pass the exact separation test, "
              f"{elapsed:.2f}s")


def test_criterion_5_counterexample_suite():
    for name in ("example41", "example42", "example43", "example44", "footnote1"):
        report = run_demo(name)
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert report["passed"], (name, failed)
    _passline("criterion 5: all five bundled counterexample demos verify")


def test_criterion_6_finite_difference_convergence():
    # centered differences of a quadratic-plus-kink cost: dyadic step halvings
    # spanning 1e-1 down to 1e-5; the error must shrink at least 1.9x per
    # halving, which here it does in the strongest possible way (it is
    # exactly zero at every step, the method being exact for this class)
    entry = catalog_entry("quad_plus_abs")
    x = np.array([0.0, 1.0])
    compass = compass_difference(entry.oracle, x).subgradient
    deltas = [2.0 ** -k for k in range(3, 17)]
    assert deltas[0] > 1e-1 and 1e-5 / 2 < deltas[-1] < 1e-4
    errors = [
        float(np.max(np.abs(finite_difference_compass(
            lambda q: ex.eval_value(entry.expr, q), x, delta) - compass)))
        for delta in deltas
    ]
    for prev, nxt in zip(errors, errors[1:]):
        assert nxt <= prev / 1.9
    assert max(errors) == 0.0
    _passline(f"criterion 6: finite-difference error shrinks >= 1.9x per halving over "
              f"{len(deltas)} dyadic steps (exactly zero throughout)")


def test_criterion_7_basis_change_suite():
    rng = np.random.default_rng(3)
    bases = []
    while len(bases) < 50:
        V = rng.uniform(-2.0, 2.0, size=(2, 2))
        if abs(np.linalg.det(V)) >= 0.1:
            bases.append(V)
    checked = 0
    for entry in [e for e in catalog() if e.dim == 2]:
        identity = basis_compass_difference(entry.oracle, np.zeros(2), np.eye(2))
        plain = compass_difference(entry.oracle, np.zeros(2))
        assert np.array_equal(identity.subgradient, plain.subgradient)
        for x in entry.kink_points:
            x = np.asarray(x, float)
            hull = entry.clarke_hull(x)
            for V in bases:
                s = basis_compass_difference(entry.oracle, x, V).subgradient
                assert _membership(s, hull), (entry.name, x.tolist(), V.tolist())
                checked += 1
    _passline(f"criterion 7: {checked} basis-change subgradients all pass membership; "
              f"identity basis matches bitwise")


def test_criterion_8_optimal_value_examples():
    circle = danskin_from_json(paper_fixture_path("danskin_circle.json"))
    sqdist = danskin_from_json(paper_fixture_path("danskin_sqdist.json"))
    cases = [
        (circle, np.zeros(2), np.zeros(2)),
        (circle, np.array([1.0, 0.0]), np.array([-1.0, 0.0])),
        (sqdist, np.zeros(2), np.zeros(2)),
    ]
    for problem, x_hat, expected in cases:
        s = danskin_subgradient(problem, x_hat).subgradient
        assert np.max(np.abs(s - expected)) <= 1e-3
        fd = finite_difference_compass(lambda q: optimal_value(problem, q), x_hat, 1e-5)
        assert np.max(np.abs(s - fd)) <= 1e-3
    _passline("criterion 8: the three optimal-value examples match their targets and "
              "finite differences of the numerical value function within 1e-3")


def test_criterion_9_polyak_convergence():
    rng = np.random.default_rng(2024)
    for name in ("euclid_norm_2d", "abs_sum"):
        entry = catalog_entry(name)
        for _ in range(10):
            x0 = rng.uniform(-5.0, 5.0, 2)
            trace = subgradient_method(entry.oracle, x0, Polyak(entry.f_star), max_iters=1000)
            assert trace.best_value - entry.f_star <= 1e-3, (name, x0.tolist(), trace.best_value)
    norm_entry = catalog_entry("euclid_norm_2d")
    trace = subgradient_method(norm_entry.oracle, [3.0, 4.0], Polyak(0.0), max_iters=1000)
    assert len(trace.iterates) == 2 and trace.best_value == 0.0
    assert np.array_equal(trace.iterates[1].x, np.zeros(2))
    _passline("criterion 9: Polyak reaches f - f* <= 1e-3 within 1000 iterations from "
              "10 random starts on both test functions; the (3, 4) start solves in one step")
