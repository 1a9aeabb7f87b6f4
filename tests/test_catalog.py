import numpy as np
import pytest

from conftest import sample_limiting_gradients
from compassdiff import expr as ex
from compassdiff.catalog import (
    GradientHull,
    catalog,
    catalog_entry,
    clarke_membership_check,
)
from compassdiff.hulls import convex_hull_2d, hull_distance, separation


def test_catalog_contains_required_entries():
    names = {e.name for e in catalog()}
    required = {
        "euclid_norm_2d", "neg_abs_x1", "max0_min", "maxx1_0",
        "example43_f", "example43_phi", "abs_univariate", "smooth_quad",
    }
    assert required <= names


def test_catalog_returns_fresh_lists_of_shared_entries():
    first = catalog()
    names = [e.name for e in first]
    first.clear()
    second = catalog()
    assert [e.name for e in second] == names
    assert second is not catalog()
    assert all(a is b for a, b in zip(second, catalog()))
    assert catalog_entry("abs_sum") is next(e for e in second if e.name == "abs_sum")


def test_neg_abs_generators_at_origin():
    entry = catalog_entry("neg_abs_x1")
    hull = entry.clarke_hull(np.zeros(2))
    assert sorted(map(tuple, hull.generators.tolist())) == [(-1.0, 0.0), (1.0, 0.0)]


def test_three_variable_pair_generators():
    f = catalog_entry("example43_f").clarke_hull(np.zeros(3)).generators
    phi = catalog_entry("example43_phi").clarke_hull(np.zeros(3)).generators
    assert sorted(map(tuple, f.tolist())) == [(-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0)]
    assert sorted(map(tuple, phi.tolist())) == [(-1.0, -1.0, 1.0), (-1.0, 1.0, -1.0), (1.0, -1.0, -1.0)]
    # disjoint hulls: (1,1,1) separates them
    e = np.ones(3)
    assert float(np.min(f @ e)) > float(np.max(phi @ e))


def test_norm_entry_uses_ball_rule_at_origin():
    entry = catalog_entry("euclid_norm_2d")
    hull = entry.clarke_hull(np.zeros(2))
    assert hull.ball_radius == 1.0


def test_membership_examples():
    segment = GradientHull(generators=[[-1.0, 0.0], [1.0, 0.0]])
    assert clarke_membership_check(np.zeros(2), segment, tol=1e-12)
    ex43 = catalog_entry("example43_f").clarke_hull(np.zeros(3))
    assert not clarke_membership_check(np.zeros(3), ex43, tol=1e-9)
    ball = catalog_entry("euclid_norm_2d").clarke_hull(np.zeros(2))
    assert clarke_membership_check(np.array([0.6, 0.8]), ball, tol=1e-12)
    assert not clarke_membership_check(np.array([1.01, 0.0]), ball, tol=1e-6)


def test_membership_rejects_bad_arguments():
    with pytest.raises(ValueError):
        clarke_membership_check(np.zeros(2), GradientHull(generators=[[0.0, 0.0]]), tol=-1.0)
    with pytest.raises(ValueError):
        GradientHull()


def test_hull_distance_handles_degenerate_generators():
    # collinear generators (a segment) and repeated points
    assert hull_distance([0.0, 0.0], [[-1.0, 0.0], [1.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)
    assert hull_distance([0.0, 0.5], [[-1.0, 0.0], [1.0, 0.0]]) == pytest.approx(0.5, abs=1e-9)
    assert hull_distance([2.0, 1.0], [[1.0, 1.0], [1.0, 1.0]]) == pytest.approx(1.0)


def test_clarke_hull_singletons_match_probed_gradients():
    rng = np.random.default_rng(23)
    for entry in [e for e in catalog() if e.dim == 2]:
        checked = 0
        while checked < 8:
            x = rng.uniform(-2, 2, 2)
            hull = entry.clarke_hull(x)
            if not hull.is_singleton:
                continue
            g = np.array([ex.eval_dir_deriv(entry.expr, x, d) for d in np.eye(2)])
            assert np.max(np.abs(g - hull.generators[0])) <= 1e-12, (entry.name, x)
            checked += 1


def test_limiting_gradient_sampler_recovers_known_sets():
    max0min = catalog_entry("max0_min")
    gens = sample_limiting_gradients(max0min.expr, np.zeros(2))
    assert sorted(map(tuple, gens.tolist())) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    neg = catalog_entry("neg_abs_x1")
    gens = sample_limiting_gradients(neg.expr, np.zeros(2))
    assert sorted(map(tuple, gens.tolist())) == [(-1.0, 0.0), (1.0, 0.0)]


def test_convex_hull_2d_and_point_tests():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
    hull = convex_hull_2d(square)
    assert hull.shape == (4, 2)
    assert separation([0.5, 0.5], hull)[0] <= 1e-9
    assert separation([0.0, 0.5], hull)[0] <= 1e-9  # on the boundary
    assert not separation([1.1, 0.5], hull)[0] <= 1e-9
    collinear = convex_hull_2d([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert collinear.shape[0] == 2


def test_oracles_are_consistent_with_expressions():
    rng = np.random.default_rng(31)
    for entry in catalog():
        x = rng.uniform(-2, 2, entry.dim)
        d = rng.uniform(-1, 1, entry.dim)
        assert entry.oracle.value(x) == ex.eval_value(entry.expr, x)
        assert entry.oracle.dir_deriv(x, d) == ex.eval_dir_deriv(entry.expr, x, d)
        assert entry.oracle.dir_deriv(x, np.zeros(entry.dim)) == 0.0
