"""The compiled forward pass against the recursive walk it replaced.

``reference_value_and_tangent`` is the tree walk that computed tangents
before expressions were compiled, with two sets of changes:

* its values follow the batched numpy walk, as the compiled values do: a sum
  starts from its first term (the old walk started from +0.0), and a tie
  between extrema takes the later operand, as ``np.maximum`` does (the old
  walk took the first).  These change only the sign of a zero value, and
  through ``mul`` and ``norm`` the sign of a zero tangent;
* the NaN rules of the compiled pass: the ``abs`` kink branch is taken only
  at an exact zero, and NaN propagates through ``max``, ``min`` and ``norm``
  instead of being skipped over.
"""

import math
import pickle
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from compassdiff import expr as ex


def reference_value_and_tangent(e, x, d):
    k = e.kind
    if k == "var":
        return float(x[e.index]), float(d[e.index])
    if k == "const":
        return e.coeff, 0.0
    if k == "add":
        pairs = [reference_value_and_tangent(c, x, d) for c in e.children]
        v, t = pairs[0][0], 0.0
        for cv, _ in pairs[1:]:
            v += cv
        for _, ct in pairs:
            t += ct
        return v, t
    if k == "sub":
        av, at = reference_value_and_tangent(e.children[0], x, d)
        bv, bt = reference_value_and_tangent(e.children[1], x, d)
        return av - bv, at - bt
    if k == "mul":
        av, at = reference_value_and_tangent(e.children[0], x, d)
        bv, bt = reference_value_and_tangent(e.children[1], x, d)
        return av * bv, at * bv + av * bt
    if k == "scale":
        cv, ct = reference_value_and_tangent(e.children[0], x, d)
        return e.coeff * cv, e.coeff * ct
    if k == "abs":
        cv, ct = reference_value_and_tangent(e.children[0], x, d)
        if cv > 0.0:
            return cv, ct
        if cv < 0.0:
            return -cv, -ct
        if cv == 0.0:
            return 0.0, abs(ct)
        return cv, cv
    if k in ("max", "min"):
        pairs = [reference_value_and_tangent(c, x, d) for c in e.children]
        values = [p[0] for p in pairs]
        if any(math.isnan(v) for v in values):
            return math.nan, math.nan
        extremum = values[0]
        for w in values[1:]:
            if not (extremum > w if k == "max" else extremum < w):
                extremum = w
        tied = [p[1] for p in pairs if p[0] == extremum]
        tangent = max(tied) if k == "max" else min(tied)
        return extremum, tangent
    if k == "norm":
        pairs = [reference_value_and_tangent(c, x, d) for c in e.children]
        nv = math.sqrt(sum(v * v for v, _ in pairs))
        if nv == 0.0:
            return 0.0, math.sqrt(sum(t * t for _, t in pairs))
        return nv, sum(v * t for v, t in pairs) / nv
    raise ValueError(f"unknown node kind {k!r}")


def bits(v: float) -> bytes:
    """The float's bit pattern, with every NaN mapped to one pattern."""
    return b"nan" if math.isnan(v) else struct.pack("<d", v)


# ---------------------------------------------------------------------------
# random grammar trees, points on kinks and ties, and NaN

# kinks and ties sit at 0 and at equal coordinates; a small pool of values
# (both zeros included) makes exact ties common
_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])
_COORD = st.one_of(_SPECIAL, st.floats(-2.0, 2.0), st.just(math.nan))
_DIRECTION = st.one_of(_SPECIAL, st.floats(-1.0, 1.0))

_LEAVES = st.one_of(
    st.integers(0, 2).map(ex.var),
    st.one_of(_SPECIAL, st.integers(-3, 3).map(float)).map(ex.const),
)


def _extend(children):
    kids = st.lists(children, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        st.tuples(st.sampled_from(["add", "max", "min", "norm"]), kids).map(lambda a: ex.NonsmoothExpr(*a)),
        st.tuples(st.sampled_from(["sub", "mul"]), children, children).map(
            lambda a: ex.NonsmoothExpr(a[0], (a[1], a[2]))),
        children.map(ex.abs_),
        children.map(ex.neg),
        st.tuples(st.sampled_from([-2.0, 0.5, 3.0]), children).map(lambda a: ex.scale(*a)),
    )


_TREES = st.recursive(_LEAVES, _extend, max_leaves=10)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_TREES, st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1, max_size=4),
       st.tuples(_DIRECTION, _DIRECTION, _DIRECTION))
def test_compiled_pass_matches_reference_and_batch(e, points, d):
    forward = ex.compile_expr(e).forward
    batch = ex.eval_value(e, np.array(points))
    for row, x in enumerate(points):
        value, tangent = forward(list(x), list(d))
        ref_value, ref_tangent = reference_value_and_tangent(e, x, d)
        assert bits(tangent) == bits(ref_tangent)
        assert bits(value) == bits(float(batch[row]))
        assert bits(value) == bits(ref_value)
        assert bits(ex.eval_value(e, x)) == bits(value)
        assert bits(ex.eval_dir_deriv(e, x, d)) == bits(tangent)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_TREES, st.tuples(_COORD, _COORD, _COORD))
def test_one_row_batch_matches_the_numpy_walk(e, x):
    # a one-row batch runs the compiled pass; the walk is what larger batches run
    row = ex.eval_value(e, np.array([x]))
    assert row.shape == (1,)
    walk = np.broadcast_to(ex._value(e, np.array([x])), (1,))
    assert bits(row[0]) == bits(walk[0])


def test_signs_of_zero_are_those_of_the_earlier_passes():
    # printed JSON shows -0.0 and 0.0 apart, so the compiled pass keeps the
    # signs the two earlier walks gave: a value sum keeps the sign of its
    # first term, a tangent sum starts from +0.0, a tie takes the later operand
    neg_sum = ex.parse_expr("(add (neg (var 0)) (neg (var 1)))")
    assert bits(ex.eval_value(neg_sum, [0.0, 0.0])) == bits(-0.0)
    assert bits(ex.eval_dir_deriv(neg_sum, [1.0, 1.0], [0.0, 0.0])) == bits(0.0)
    tie = ex.parse_expr("(max (var 0) (var 1))")
    assert bits(ex.eval_value(tie, [0.0, -0.0])) == bits(-0.0)
    assert bits(ex.eval_value(tie, [-0.0, 0.0])) == bits(0.0)


# ---------------------------------------------------------------------------
# NaN stays visible

def test_nan_propagates_through_kinks_and_extrema():
    nan = [math.nan, 1.0]
    one = [1.0, 0.0]
    for text in ("(abs (var 0))", "(max (const 1) (var 0))", "(min (var 0) (const 1))",
                 "(norm (var 0) (var 1))", "(max (var 1) (abs (var 0)))"):
        e = ex.parse_expr(text)
        assert math.isnan(ex.eval_value(e, nan)), text
        assert math.isnan(ex.eval_dir_deriv(e, nan, one)), text
        assert math.isnan(ex.as_oracle(e, 2).value(np.array(nan))), text


def test_compiled_dimension_and_pickling():
    e = ex.parse_expr("(add (abs (var 0)) (max (var 4) (const 2)))")
    assert ex.dimension(e) == ex.compile_expr(e).dim == 5
    assert ex.compile_expr(e) is ex.compile_expr(e)
    clone = pickle.loads(pickle.dumps(e))
    assert clone == e
    assert ex.eval_value(clone, [1.0, 0.0, 0.0, 0.0, -3.0]) == 3.0
