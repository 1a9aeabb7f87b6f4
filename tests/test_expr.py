import math

import numpy as np
import pytest
from conftest import random_expr

from compassdiff import expr as ex


def test_eval_value_examples():
    neg_abs = ex.neg(ex.abs_(ex.var(0)))
    assert ex.eval_value(neg_abs, [3.0, 7.0]) == -3.0
    max0min = ex.max_(ex.const(0.0), ex.min_(ex.var(0), ex.var(1)))
    assert ex.eval_value(max0min, [2.0, 5.0]) == 2.0
    nrm = ex.norm(ex.var(0), ex.var(1))
    assert ex.eval_value(nrm, [3.0, 4.0]) == 5.0


def test_eval_value_batch_matches_pointwise():
    rng = np.random.default_rng(5)
    for _ in range(20):
        e = random_expr(rng, 2, 3)
        batch = rng.uniform(-2, 2, size=(16, 2))
        vectorised = ex.eval_value(e, batch)
        pointwise = np.array([ex.eval_value(e, row) for row in batch])
        assert np.array_equal(vectorised, pointwise)


def test_dir_deriv_examples():
    abs_x1 = ex.abs_(ex.var(0))
    # at the kink the tangent of abs is the absolute tangent
    assert ex.eval_dir_deriv(abs_x1, [0.0, 0.0], [-1.0, 0.0]) == 1.0

    max0min = ex.max_(ex.const(0.0), ex.min_(ex.var(0), ex.var(1)))
    assert ex.eval_dir_deriv(max0min, [0.0, 0.0], [1.0, 1.0]) == 1.0
    # forward-difference cross-check along the tie direction
    t = 1e-7
    quot = ex.eval_value(max0min, [t, t]) / t
    assert quot == pytest.approx(1.0, abs=1e-12)

    nrm = ex.norm(ex.var(0), ex.var(1))
    assert ex.eval_dir_deriv(nrm, [0.0, 0.0], [3.0, 4.0]) == 5.0


def test_dir_deriv_zero_direction_is_zero():
    rng = np.random.default_rng(17)
    for _ in range(50):
        e = random_expr(rng, 3, 3)
        x = rng.uniform(-2, 2, 3)
        assert ex.eval_dir_deriv(e, x, np.zeros(3)) == 0.0


def test_dir_deriv_positively_homogeneous_exact_for_doubling():
    # doubling the direction doubles the tangent bit-for-bit: every rule in
    # the forward pass commutes exactly with scaling by a power of two
    rng = np.random.default_rng(12345)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        e = random_expr(rng, dim, 3)
        x = rng.uniform(-2, 2, dim)
        d = rng.uniform(-1, 1, dim)
        assert ex.eval_dir_deriv(e, x, 2.0 * d) == 2.0 * ex.eval_dir_deriv(e, x, d)


def test_dir_deriv_matches_difference_quotients():
    # |f(x + t d) - f(x)| / t -> f'(x; d) with error <= L t away from kinks
    # (L bounds the curvature of the smooth part along the segment)
    from compassdiff.catalog import catalog

    for entry in catalog():
        if entry.curvature is None:
            continue
        n = entry.dim
        # offset grid keeps the segment x + [0, t] d inside one smooth piece
        points = [np.asarray(p, float) for p in entry.kink_points]
        points.append(np.full(n, 0.35))
        rng = np.random.default_rng(hash(entry.name) % 2**32)
        for x in points:
            d = rng.uniform(-1, 1, n)
            dd = ex.eval_dir_deriv(entry.expr, x, d)
            L = entry.curvature * float(d @ d)
            for t in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
                quot = (ex.eval_value(entry.expr, x + t * d) - ex.eval_value(entry.expr, x)) / t
                assert abs(quot - dd) <= L * t + 1e-9, (entry.name, x, t)


def test_dir_deriv_additive_at_smooth_points():
    from compassdiff.catalog import catalog

    rng = np.random.default_rng(8)
    for entry in catalog():
        if entry.dim != 2:
            continue
        checked = 0
        while checked < 10:
            x = rng.uniform(-2, 2, 2)
            if not entry.clarke_hull(x).is_singleton:
                continue
            d1 = rng.uniform(-1, 1, 2)
            d2 = rng.uniform(-1, 1, 2)
            lhs = ex.eval_dir_deriv(entry.expr, x, d1 + d2)
            rhs = ex.eval_dir_deriv(entry.expr, x, d1) + ex.eval_dir_deriv(entry.expr, x, d2)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
            checked += 1


def test_three_variable_max_pair_axis_derivatives_equal_one():
    # the two piecewise-linear three-variable functions cannot be told apart
    # from axis directional derivatives: all six values are 1 for both
    from compassdiff.catalog import catalog_entry

    for name in ("example43_f", "example43_phi"):
        entry = catalog_entry(name)
        for i in range(3):
            for s in (1.0, -1.0):
                d = np.zeros(3)
                d[i] = s
                assert ex.eval_dir_deriv(entry.expr, np.zeros(3), d) == 1.0


def test_directional_derivative_of_max0min_is_nonconvex_in_direction():
    e = ex.max_(ex.const(0.0), ex.min_(ex.var(0), ex.var(1)))
    d1 = np.array([1.0, 0.0])
    d2 = np.array([0.0, 1.0])
    f1 = ex.eval_dir_deriv(e, np.zeros(2), d1)
    f2 = ex.eval_dir_deriv(e, np.zeros(2), d2)
    f12 = ex.eval_dir_deriv(e, np.zeros(2), d1 + d2)
    assert f1 == 0.0 and f2 == 0.0 and f12 == 1.0
    assert f12 > f1 + f2  # violates subadditivity, hence nonconvex in d


def test_parse_format_roundtrip():
    sources = [
        "(max (const 0) (min (var 0) (var 1)))",
        "(neg (abs (var 0)))",
        "(norm (var 0) (var 1))",
        "(add (mul (var 0) (var 0)) (scale 0.125 (var 1)))",
        "(sub (var 1) (const -2.5))",
    ]
    for src in sources:
        tree = ex.parse_expr(src)
        assert ex.parse_expr(ex.format_expr(tree)) == tree
    rng = np.random.default_rng(77)
    for _ in range(100):
        tree = random_expr(rng, 3, 4)
        text = ex.format_expr(tree)
        assert ex.parse_expr(text) == tree
        assert ex.format_expr(ex.parse_expr(text)) == text


@pytest.mark.parametrize(
    "bad, position",
    [
        ("", 0),
        ("(frobnicate (var 0))", 1),
        ("(var x)", 5),
        ("(abs (var 0)", 11),
        ("(var 0) trailing", 8),
        ("(sub (var 0))", 1),
        ("(const nan-ish)", 7),
    ],
)
def test_parse_errors_carry_positions(bad, position):
    with pytest.raises(ex.ExprParseError) as err:
        ex.parse_expr(bad)
    assert err.value.position == position


def test_dimension_mismatch_raises():
    e = ex.var(2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        ex.eval_value(e, [1.0, 2.0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        ex.eval_dir_deriv(e, [1.0, 2.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        ex.as_oracle(e, 2)
    oracle = ex.as_oracle(ex.var(0), 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        oracle.value(np.zeros(3))


def _chain(depth: int) -> str:
    """``depth`` levels of nesting: alternating abs, max, norm, scale and add around (var 0)."""
    wrappers = ["(abs {})", "(max {} (var 1))", "(norm {} (const 1))", "(scale -0.5 {})", "(add {} (var 0))"]
    text = "(var 0)"
    for level in range(depth - 1):
        text = wrappers[level % len(wrappers)].format(text)
    return text


def test_nesting_at_the_depth_cap_parses_and_evaluates():
    import pickle

    abs_chain = ex.parse_expr("(abs " * (ex.MAX_DEPTH - 1) + "(var 0)" + ")" * (ex.MAX_DEPTH - 1))
    assert ex.eval_value(abs_chain, [-2.0]) == 2.0
    assert ex.eval_dir_deriv(abs_chain, [-2.0], [1.0]) == -1.0
    assert ex.eval_dir_deriv(abs_chain, [0.0], [-3.0]) == 3.0
    e = ex.parse_expr(_chain(ex.MAX_DEPTH))
    assert ex.parse_expr(ex.format_expr(e)) == e
    assert ex.parse_expr(_chain(ex.MAX_DEPTH)) == e
    rows = np.array([[0.3, -0.2], [0.0, 0.0], [-1.5, 2.0]])
    batch = ex.eval_value(e, rows)
    assert batch.shape == (3,)
    for row, value in zip(rows, batch):
        v, t = ex.compile_expr(e).forward(row.tolist(), [1.0, 0.5])
        assert v == value and math.isfinite(t)
    assert pickle.loads(pickle.dumps(e)) == e


def test_nesting_past_the_depth_cap_is_a_parse_error():
    too_deep = _chain(ex.MAX_DEPTH + 1)
    with pytest.raises(ex.ExprParseError, match=f"deeper than {ex.MAX_DEPTH}") as err:
        ex.parse_expr(too_deep)
    assert err.value.position == too_deep.index("(var 0)")
    with pytest.raises(ex.ExprParseError, match="deeper"):
        ex.parse_expr("(abs " * 3000 + "(var 0)" + ")" * 3000)
