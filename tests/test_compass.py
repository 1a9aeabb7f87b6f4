import numpy as np
import pytest

from conftest import halton_in_box, max_violation, sample_limiting_gradients
from compassdiff import expr as ex
from compassdiff.catalog import catalog, catalog_entry, clarke_membership_check
from compassdiff.compass import (
    _pair_subgradient,
    basis_compass_difference,
    compass_difference,
    finite_difference_probes,
)
from compassdiff.hulls import hull_distance
from compassdiff.oracle import GUARANTEED, UNGUARANTEED, DirectionalOracle, OracleError
from compassdiff.sampling import unit_directions


def _value_fn(entry):
    return lambda y: ex.eval_value(entry.expr, y)


def _fd(value_fn, x, delta):
    return finite_difference_probes(value_fn, x, delta)[0]


# ---------------------------------------------------------------------------
# compass_difference

def test_compass_norm_at_origin():
    entry = catalog_entry("euclid_norm_2d")
    res = compass_difference(entry.oracle, np.zeros(2))
    assert np.array_equal(res.subgradient, np.zeros(2))
    # by symmetry all four probes see slope one
    assert [p.value for p in res.probes] == [1.0, 1.0, 1.0, 1.0]
    assert res.guarantee == GUARANTEED


def test_compass_neg_abs_at_origin():
    entry = catalog_entry("neg_abs_x1")
    res = compass_difference(entry.oracle, np.zeros(2))
    assert np.array_equal(res.subgradient, np.zeros(2))


def test_compass_max0min_at_origin_with_bruteforce_cross_check():
    entry = catalog_entry("max0_min")
    res = compass_difference(entry.oracle, np.zeros(2))
    # the four probe values are max(0, min(+-1, 0)) = 0 in every direction
    assert [p.value for p in res.probes] == [0.0, 0.0, 0.0, 0.0]
    assert np.array_equal(res.subgradient, np.zeros(2))
    # independent oracle: gradients sampled on a small ring around the origin
    gens = sample_limiting_gradients(entry.expr, np.zeros(2))
    assert sorted(map(tuple, gens.tolist())) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]
    assert hull_distance(res.subgradient, gens) <= 1e-12


def test_compass_norm_at_smooth_point():
    entry = catalog_entry("euclid_norm_2d")
    res = compass_difference(entry.oracle, np.array([3.0, 4.0]))
    assert res.subgradient == pytest.approx([0.6, 0.8], abs=1e-15)
    fd = _fd(_value_fn(entry), np.array([3.0, 4.0]), 1e-6)
    assert res.subgradient == pytest.approx(fd, abs=1e-9)


def test_compass_guarantee_flag_by_dimension():
    assert compass_difference(catalog_entry("abs_univariate").oracle, [0.5]).guarantee == GUARANTEED
    assert compass_difference(catalog_entry("euclid_norm_2d").oracle, [1.0, 1.0]).guarantee == GUARANTEED
    res = compass_difference(catalog_entry("example43_f").oracle, np.zeros(3))
    assert res.guarantee == UNGUARANTEED
    assert np.array_equal(res.subgradient, np.zeros(3))
    assert len(res.probes) == 6


def test_compass_probes_recompute_bitwise():
    rng = np.random.default_rng(4)
    for entry in catalog():
        x = rng.uniform(-2, 2, entry.dim)
        res = compass_difference(entry.oracle, x)
        assert len(res.probes) == 2 * entry.dim
        assert np.array_equal(_pair_subgradient(res.probes, res.basis), res.subgradient)


def test_compass_membership_property():
    # every 2-D entry, sampled points: the compass difference is a Clarke
    # subgradient (360-direction support inequalities at 1e-12 plus the exact
    # hull test)
    for entry in [e for e in catalog() if e.dim == 2]:
        points = [np.asarray(p, float) for p in entry.kink_points]
        points += list(halton_in_box(20, [-2, -2], [2, 2]))
        for x in points:
            s = compass_difference(entry.oracle, x).subgradient
            assert clarke_membership_check(s, entry.clarke_hull(x), tol=1e-12), (entry.name, x, s)


def test_compass_scaling_covariance():
    rng = np.random.default_rng(0)
    for entry in [e for e in catalog() if e.dim == 2]:
        x = rng.uniform(-2, 2, 2)
        base = compass_difference(entry.oracle, x).subgradient
        for c in (0.5, 2.0, 3.7):
            scaled = ex.as_oracle(ex.scale(c, entry.expr), 2)
            got = compass_difference(scaled, x).subgradient
            assert got == pytest.approx(c * base, rel=1e-12, abs=1e-15)


def test_compass_translation_covariance():
    rng = np.random.default_rng(1)
    for entry in [e for e in catalog() if e.dim == 2]:
        x = rng.uniform(-2, 2, 2)
        a = rng.uniform(-3, 3, 2)
        base = compass_difference(entry.oracle, x).subgradient
        shifted = ex.as_oracle(
            ex.add(entry.expr, ex.scale(a[0], ex.var(0)), ex.scale(a[1], ex.var(1))), 2)
        got = compass_difference(shifted, x).subgradient
        assert got == pytest.approx(base + a, rel=1e-12, abs=1e-13)


def test_compass_nonfinite_oracle_reports_direction():
    def bad_dir_deriv(x, d):
        return np.inf if d[0] > 0 else 0.0

    oracle = DirectionalOracle(value=lambda x: 0.0, dir_deriv=bad_dir_deriv, dim=2)
    with pytest.raises(OracleError, match="non-finite") as err:
        compass_difference(oracle, np.zeros(2))
    assert np.array_equal(err.value.direction, [1.0, 0.0])


def test_compass_oracle_exception_wrapped_with_direction():
    def exploding(x, d):
        if d[1] < 0:
            raise RuntimeError("boom")
        return 0.0

    oracle = DirectionalOracle(value=lambda x: 0.0, dir_deriv=exploding, dim=2)
    with pytest.raises(OracleError, match="boom") as err:
        compass_difference(oracle, np.zeros(2))
    assert np.array_equal(err.value.direction, [0.0, -1.0])


# ---------------------------------------------------------------------------
# basis_compass_difference

def test_basis_identity_is_bitwise_equal():
    rng = np.random.default_rng(9)
    for entry in [e for e in catalog() if e.dim == 2]:
        x = rng.uniform(-2, 2, 2)
        plain = compass_difference(entry.oracle, x)
        with_basis = basis_compass_difference(entry.oracle, x, np.eye(2))
        assert np.array_equal(plain.subgradient, with_basis.subgradient)


def test_basis_rotated_probes_on_max():
    entry = catalog_entry("maxx1_0")
    V = np.array([[0.0, -1.0], [1.0, 0.0]])  # 90 degree rotation
    res = basis_compass_difference(entry.oracle, np.zeros(2), V)
    assert [p.value for p in res.probes] == [0.0, 0.0, 0.0, 1.0]
    assert res.subgradient == pytest.approx([0.5, 0.0], abs=0.0)
    assert np.array_equal(_pair_subgradient(res.probes, res.basis), res.subgradient)


def test_basis_recovers_gradient_of_linear_function():
    linear = ex.add(ex.scale(2.0, ex.var(0)), ex.scale(-1.0, ex.var(1)))
    oracle = ex.as_oracle(linear, 2)
    V = np.array([[1.0, 1.0], [0.0, 1.0]])
    for x in (np.zeros(2), np.array([3.0, -1.5])):
        res = basis_compass_difference(oracle, x, V)
        assert res.subgradient == pytest.approx([2.0, -1.0], abs=1e-14)


def test_basis_membership_property():
    rng = np.random.default_rng(3)
    mats = []
    while len(mats) < 10:
        V = rng.uniform(-2, 2, (2, 2))
        if abs(np.linalg.det(V)) >= 0.1:
            mats.append(V)
    for entry in [e for e in catalog() if e.dim == 2]:
        for x in entry.kink_points:
            x = np.asarray(x, float)
            hull = entry.clarke_hull(x)
            for V in mats:
                s = basis_compass_difference(entry.oracle, x, V).subgradient
                assert clarke_membership_check(s, hull, tol=1e-9), (entry.name, x, V)


def test_basis_rejects_singular_matrices():
    oracle = catalog_entry("euclid_norm_2d").oracle
    with pytest.raises(ValueError, match="basis not invertible"):
        basis_compass_difference(oracle, np.zeros(2), np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ValueError, match="basis not invertible"):
        basis_compass_difference(oracle, np.zeros(2), np.array([[1e-7, 0.0], [0.0, 1e-7]]))


# ---------------------------------------------------------------------------
# finite_difference_probes

def test_fd_symmetric_kink_is_exact_at_any_delta():
    entry = catalog_entry("neg_abs_x1")
    for delta in (1.0, 1e-3, 1e-8):
        fd = _fd(_value_fn(entry), np.zeros(2), delta)
        assert np.array_equal(fd, np.zeros(2))


def test_fd_piecewise_linear_exact_inside_cone():
    entry = catalog_entry("maxx1_0")
    fd = _fd(_value_fn(entry), np.zeros(2), 0.1)
    assert fd[0] == 0.5 and fd[1] == 0.0


def test_fd_norm_at_smooth_point():
    entry = catalog_entry("euclid_norm_2d")
    fd = _fd(_value_fn(entry), np.array([3.0, 4.0]), 1e-5)
    assert fd == pytest.approx([0.6, 0.8], abs=1e-5)


def test_fd_error_monotone_under_dyadic_halving():
    # for functions built from piecewise-linear and polynomial pieces the
    # centered compass approximation is exact once delta stays inside one
    # conical piece; with dyadic deltas the evaluation is exact in floating
    # point too, so the error can only go down (within 1e-12) as delta halves
    for entry in catalog():
        if entry.curvature is None:
            continue
        points = [np.asarray(p, float) for p in entry.kink_points]
        points.append(np.full(entry.dim, 0.5))
        for x in points:
            comp = compass_difference(entry.oracle, x).subgradient
            errs = [
                float(np.max(np.abs(_fd(_value_fn(entry), x, 2.0 ** -k) - comp)))
                for k in range(3, 21)
            ]
            assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1)), (entry.name, x, errs)


def test_fd_rejects_bad_inputs():
    entry = catalog_entry("euclid_norm_2d")
    with pytest.raises(ValueError, match="delta must be positive"):
        finite_difference_probes(_value_fn(entry), np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="sample point"):
        finite_difference_probes(lambda y: np.nan, np.zeros(2), 0.1)


# ---------------------------------------------------------------------------
# the univariate Clarke generalized gradient, read off the two probes

def _univariate_interval(oracle, x):
    plus, minus = compass_difference(oracle, [x]).probes
    return sorted([-minus.value, plus.value])


def test_univariate_interval_abs():
    oracle = catalog_entry("abs_univariate").oracle
    assert _univariate_interval(oracle, 0.0) == [-1.0, 1.0]
    assert _univariate_interval(oracle, 2.0) == [1.0, 1.0]
    # a concave kink: psi(1) = -1 is the left end, -psi(-1) = 1 the right
    assert _univariate_interval(ex.as_oracle(ex.neg(ex.abs_(ex.var(0))), 1), 0.0) == [-1.0, 1.0]


def test_univariate_interval_two_slopes():
    oracle = ex.as_oracle(ex.max_(ex.var(0), ex.scale(2.0, ex.var(0))), 1)
    lo, hi = _univariate_interval(oracle, 0.0)
    assert (lo, hi) == (1.0, 2.0)
    # cross-check: the gradients on either side of the kink, and the compass difference, the midpoint
    for x in (-1e-6, 1e-6):
        assert lo <= compass_difference(oracle, [x]).subgradient[0] <= hi
    assert compass_difference(oracle, [0.0]).subgradient[0] == 1.5


# ---------------------------------------------------------------------------
# the subgradient inequality f(y) >= f(x) + <s, y - x> of convex functions

def test_norm_zero_subgradient_has_no_violation():
    entry = catalog_entry("euclid_norm_2d")
    rng = np.random.default_rng(11)
    samples = rng.uniform(-2, 2, size=(10_000, 2))
    assert max_violation(_value_fn(entry), np.zeros(2), np.zeros(2), samples) <= 0.0


def test_a_bad_subgradient_violates_the_inequality():
    entry = catalog_entry("euclid_norm_2d")
    samples = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert max_violation(_value_fn(entry), np.zeros(2), np.array([1.1, 0.0]), samples) == pytest.approx(0.1, abs=1e-12)


def test_a_true_clarke_subgradient_of_a_nonconvex_function_fails_the_inequality():
    # (0, 0) is a Clarke subgradient of -|x1| at the origin, yet the convex
    # subgradient inequality fails along the x1 axis: a pass is only
    # meaningful for convex functions
    f = _value_fn(catalog_entry("neg_abs_x1"))
    assert max_violation(f, np.zeros(2), np.zeros(2), [[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0]]) == pytest.approx(1.0)
    assert max_violation(f, np.zeros(2), np.zeros(2), [[0.0, 1.0], [0.0, -2.0]]) <= 0.0


def test_convex_catalog_entries_satisfy_the_inequality():
    rng = np.random.default_rng(21)
    for entry in [e for e in catalog() if e.convex and e.dim <= 2]:
        n = entry.dim
        samples = halton_in_box(2000, -2 * np.ones(n), 2 * np.ones(n))
        for _ in range(5):
            x = rng.uniform(-2, 2, n)
            s = compass_difference(entry.oracle, x).subgradient
            violation = max_violation(_value_fn(entry), x, s, samples)
            assert violation <= 1e-9, (entry.name, x, violation)


def test_unit_directions_are_unit_and_deterministic():
    for dim in (1, 2, 3):
        a = unit_directions(64, dim, seed=0)
        b = unit_directions(64, dim, seed=0)
        assert np.array_equal(a, b)
        assert np.linalg.norm(a, axis=1) == pytest.approx(np.ones(64))
    shifted = unit_directions(64, 2, seed=5)
    assert not np.array_equal(shifted, unit_directions(64, 2, seed=0))
