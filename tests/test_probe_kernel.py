"""The compass kernel against the five copies of its arithmetic it replaced.

The references below are the probe loops as they were before
:func:`compassdiff.compass.probe` existed: ``_paired_probes`` behind
``compass_difference`` and ``basis_compass_difference``, ``compass_from_psi``,
``finite_difference_probes``, ``CompassResult.recompute_subgradient`` and
``geometry.interval_hull`` with ``IntervalHull.midpoint``, which was
``0.5 * (lower + upper)``.  Fed the same directional values, the kernel's
front ends must agree with them bit for bit: subgradients, probe values and
probe directions, signs of zero included.

The centered difference is now (psi(e) - psi(-e)) / 2 / delta where it was
(psi(e) - psi(-e)) / (2 delta).  Halving and doubling are exact unless the
difference is subnormal or 2 delta overflows, so values are drawn from
+-[1e-100, 1e100] and zero, and delta from [1e-12, 10].
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compassdiff.compass import (
    basis_compass_difference,
    compass_difference,
    compass_from_psi,
    finite_difference_probes,
    probe,
)
from compassdiff.geometry import IntervalHull, SupportOracle, interval_hull, midpoint_element
from compassdiff.oracle import CompassResult, DirectionalOracle, OracleError, Probe, guarantee_for_dim

# ---------------------------------------------------------------------------
# references: the copies as they were


def ref_paired_probes(oracle, x, directions):
    probes = []
    half = np.empty(len(directions))
    for i, d in enumerate(directions):
        plus = float(oracle.dir_deriv(x, d))
        minus = float(oracle.dir_deriv(x, -d))
        probes.append(Probe(direction=d.copy(), value=plus))
        probes.append(Probe(direction=-d, value=minus))
        half[i] = 0.5 * (plus - minus)
    return probes, half


def ref_basis_compass_difference(oracle, x, V):
    n = oracle.dim
    probes, half = ref_paired_probes(oracle, x, [V[:, i].copy() for i in range(n)])
    subgradient = half if np.array_equal(V, np.eye(n)) else np.linalg.solve(V.T, half)
    return CompassResult(subgradient=subgradient, probes=tuple(probes), basis=V.copy(),
                         guarantee=guarantee_for_dim(n))


def ref_compass_from_psi(psi_fn, dim=2):
    probes = []
    half = np.empty(dim)
    for i, d in enumerate([e.copy() for e in np.eye(dim)]):
        plus = float(psi_fn(d))
        minus = float(psi_fn(-d))
        probes.append(Probe(direction=d, value=plus))
        probes.append(Probe(direction=-d, value=minus))
        half[i] = 0.5 * (plus - minus)
    return CompassResult(subgradient=half, probes=tuple(probes), basis=np.eye(dim),
                         guarantee=guarantee_for_dim(dim))


def ref_finite_difference_probes(value_fn, x, delta):
    n = x.size
    approx = np.empty(n)
    probes = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        f_plus = float(value_fn(x + delta * e))
        f_minus = float(value_fn(x - delta * e))
        probes.append(Probe(direction=e, value=f_plus))
        probes.append(Probe(direction=-e, value=f_minus))
        approx[i] = (f_plus - f_minus) / (2.0 * delta)
    return approx, tuple(probes)


def ref_recompute_subgradient(result):
    n = result.dim
    half = np.empty(n)
    for i in range(n):
        half[i] = 0.5 * (result.probes[2 * i].value - result.probes[2 * i + 1].value)
    if result.basis is None or np.array_equal(result.basis, np.eye(n)):
        return half
    return np.linalg.solve(result.basis.T, half)


def ref_interval_hull(oracle):
    n = oracle.dim
    lower = np.empty(n)
    upper = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        upper[i] = float(oracle.sigma(e))
        lower[i] = -float(oracle.sigma(-e))
    return IntervalHull(lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# bit-for-bit comparison on random directional values


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def probe_bits(probes):
    return [(bits(p.direction), bits(p.value)) for p in probes]


def same_result(got: CompassResult, want: CompassResult):
    assert bits(got.subgradient) == bits(want.subgradient)
    assert probe_bits(got.probes) == probe_bits(want.probes)
    assert bits(got.basis) == bits(want.basis)
    assert got.guarantee == want.guarantee


def replay(values):
    """A directional map returning ``values`` in call order, recording the directions asked for."""
    calls = []

    def psi(d):
        calls.append(np.array(d, dtype=float))
        return values[len(calls) - 1]

    return psi, calls


def replay_oracle(psi):
    return DirectionalOracle(value=lambda y: 0.0, dir_deriv=lambda y, d: psi(d), dim=2)


values_2d = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
        st.floats(min_value=-1e100, max_value=1e100).filter(lambda v: v == 0.0 or abs(v) >= 1e-100),
    ),
    min_size=4, max_size=4,
)
entries = st.floats(min_value=-3.0, max_value=3.0, allow_subnormal=False)
bases = st.one_of(
    st.just(np.eye(2)),
    st.lists(entries, min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2)).filter(
        lambda V: abs(np.linalg.det(V)) >= 1e-3),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(values_2d, bases, st.floats(min_value=1e-12, max_value=10.0),
       st.lists(st.sampled_from([0.0, -0.0, 0.5, -2.0]), min_size=2, max_size=2))
def test_front_ends_match_the_copies_they_replaced(values, V, delta, x):
    x = np.array(x)

    # the oracle front ends: identity and random bases
    psi, calls = replay(values)
    ref_psi, ref_calls = replay(values)
    got = basis_compass_difference(replay_oracle(psi), x, V)
    want = ref_basis_compass_difference(replay_oracle(ref_psi), x, V)
    same_result(got, want)
    assert [bits(d) for d in calls] == [bits(d) for d in ref_calls]
    assert bits(got.recompute_subgradient()) == bits(ref_recompute_subgradient(got))
    if np.array_equal(V, np.eye(2)):
        same_result(compass_difference(replay_oracle(replay(values)[0]), x), want)

    # a directional map handed in directly
    got = compass_from_psi(replay(values)[0])
    same_result(got, ref_compass_from_psi(replay(values)[0]))
    same_result(probe(replay(values)[0], np.eye(2)), got)
    assert bits(got.recompute_subgradient()) == bits(ref_recompute_subgradient(got))

    # centered differences: psi(d) = f(x + delta d)
    f, samples = replay(values)
    ref_f, ref_samples = replay(values)
    approx, probes = finite_difference_probes(f, x, delta)
    ref_approx, ref_probes = ref_finite_difference_probes(ref_f, x, delta)
    assert bits(approx) == bits(ref_approx)
    assert probe_bits(probes) == probe_bits(ref_probes)
    assert [bits(s) for s in samples] == [bits(s) for s in ref_samples]

    # support probes: the interval hull, and its midpoint as the compass difference of sigma
    sigma = SupportOracle(dim=2, sigma=replay(values)[0])
    try:
        want_hull = ref_interval_hull(SupportOracle(dim=2, sigma=replay(values)[0]))
    except ValueError:
        with pytest.raises(ValueError, match="out of order"):
            interval_hull(sigma)
        return
    hull = interval_hull(sigma)
    assert bits(hull.lower) == bits(want_hull.lower) and bits(hull.upper) == bits(want_hull.upper)
    mid = midpoint_element(SupportOracle(dim=2, sigma=replay(values)[0]))
    assert bits(mid.point) == bits(0.5 * (want_hull.lower + want_hull.upper))
    assert bits(mid.hull.lower) == bits(want_hull.lower) and bits(mid.hull.upper) == bits(want_hull.upper)


# ---------------------------------------------------------------------------
# the kernel's contract


def test_probe_calls_in_order_and_keeps_the_basis():
    psi, calls = replay([1.0, 2.0, 3.0, 4.0])
    V = np.array([[2.0, 1.0], [1.0, 1.0]])
    result = probe(psi, V)
    assert [d.tolist() for d in calls] == [[2.0, 1.0], [-2.0, -1.0], [1.0, 1.0], [-1.0, -1.0]]
    assert [p.value for p in result.probes] == [1.0, 2.0, 3.0, 4.0]
    assert result.basis is V
    assert np.allclose(V.T @ result.subgradient, [-0.5, -0.5])


def test_nonfinite_minus_probe_is_reported_with_its_own_direction():
    # the old compass_from_psi evaluated both of a pair first and named +v
    psi, calls = replay([0.0, math.nan, 0.0, 0.0])
    with pytest.raises(OracleError, match="non-finite") as err:
        compass_from_psi(psi)
    assert err.value.direction.tolist() == [-1.0, -0.0]
    assert len(calls) == 2  # stops at the first non-finite value


def test_probe_lets_psi_errors_through():
    class Boom(Exception):
        pass

    def psi(d):
        raise Boom()

    with pytest.raises(Boom):
        probe(psi, np.eye(2))


def test_interval_hull_names_the_direction_of_an_unbounded_support():
    sigma = SupportOracle(dim=2, sigma=lambda d: math.inf if d[1] < 0 else 1.0)
    with pytest.raises(ValueError, match=r"unbounded or empty set: .* direction \[-0.0, -1.0\]"):
        interval_hull(sigma)
