"""Compass differences: subgradients built from directional derivatives.

The compass difference of f at x is the vector with components
(f'(x; e_i) - f'(x; -e_i)) / 2.  For functions of one or two variables it is
always a Clarke subgradient; for three or more variables it is computed but
flagged as carrying no membership guarantee.  A change of probing basis and a
centered finite-difference approximation are provided alongside, plus a
verification harness for the defining subgradient inequality of convex
functions.

All of the compass arithmetic lives in one kernel, :func:`probe`: given a
directional map psi and a basis V it evaluates psi(+v_1), psi(-v_1),
psi(+v_2), ... and returns (V^T)^{-1} [(psi(v_i) - psi(-v_i)) / 2]_i.  Every
front end only supplies a psi: an oracle's directional derivative, a tangent
ODE solve (``odesens``), an inner minimisation (``danskin``), the samples
f(x + delta d) of a centered difference, or a support function, whose probes
are the interval hull (``geometry``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import (
    CompassResult,
    DirectionalOracle,
    InputError,
    OracleError,
    Probe,
    UnivariateClarkeInterval,
    guarantee_for_dim,
    require_positive,
)
from .sampling import halton_in_box, unit_directions

#: Bases with |det| below this are rejected as numerically singular; the
#: conditioning of the transposed-inverse solve dominates the error.
DEFAULT_DET_TOL = 1e-12


def _pair_subgradient(probes, basis: np.ndarray | None) -> np.ndarray:
    """(V^T)^{-1} [(psi(v_i) - psi(-v_i)) / 2]_i from probes ordered +v_1, -v_1, +v_2, ...

    The solve is skipped when V is exactly the identity (or absent), so a
    plain compass difference is the halved differences themselves, bit for bit.
    """
    n = len(probes) // 2
    half = np.array([0.5 * (probes[2 * i].value - probes[2 * i + 1].value) for i in range(n)])
    if basis is None or np.array_equal(basis, np.eye(n)):
        return half
    return np.linalg.solve(basis.T, half)


def probe_directions(basis: np.ndarray) -> list[np.ndarray]:
    """+v_1, -v_1, +v_2, -v_2, ...: the directions :func:`probe` hands to psi, in its order."""
    return [d for column in basis.T for d in (column.copy(), -column)]


def probe(psi, basis: np.ndarray) -> CompassResult:
    """Compass difference of the directional map ``psi`` along the columns of ``basis``.

    Calls psi on :func:`probe_directions` in that order and raises
    :class:`OracleError` carrying the direction at the first non-finite
    value.  Exceptions raised by psi itself pass through unchanged.
    ``basis`` is stored in the result as given.
    """
    probes: list[Probe] = []
    for d in probe_directions(basis):
        value = float(psi(d))
        if not math.isfinite(value):
            raise OracleError(f"non-finite directional value along {d.tolist()}", direction=d)
        probes.append(Probe(direction=d, value=value))
    return CompassResult(
        subgradient=_pair_subgradient(probes, basis),
        probes=tuple(probes),
        basis=basis,
        guarantee=guarantee_for_dim(basis.shape[0]),
    )


def _oracle_psi(oracle: DirectionalOracle, x: np.ndarray):
    """psi(d) = f'(x; d), with oracle failures reported as :class:`OracleError` naming d."""

    def psi(d: np.ndarray) -> float:
        try:
            return float(oracle.dir_deriv(x, d))
        except OracleError:
            raise
        except Exception as err:
            raise OracleError(f"oracle evaluation failed in direction {d.tolist()}: {err}", direction=d) from err

    return psi


def compass_difference(oracle: DirectionalOracle, x) -> CompassResult:
    """Compass difference of the oracle's function at ``x``.

    Makes 2n directional-derivative calls (+-e_i in fixed order).  The result
    is a Clarke subgradient when n <= 2; for larger n the ``guarantee`` field
    is set accordingly.
    """
    x = np.asarray(x, dtype=float)
    n = oracle.dim
    if x.size != n:
        raise InputError(f"point has dimension {x.size}, oracle expects {n}")
    return probe(_oracle_psi(oracle, x), np.eye(n))


def basis_compass_difference(oracle: DirectionalOracle, x, V, det_tol: float = DEFAULT_DET_TOL) -> CompassResult:
    """Compass difference probed along the columns of ``V`` instead of +-e_i.

    Returns (V^T)^{-1} * [ (f'(x; v_i) - f'(x; -v_i)) / 2 ]_i, which is again
    a Clarke subgradient in two dimensions (generally a different one from
    the plain compass difference).  With ``V`` exactly the identity this
    reproduces :func:`compass_difference` bit for bit.

    Directional derivatives are positively homogeneous in the direction, so
    the columns of ``V`` need not be normalised.
    """
    x = np.asarray(x, dtype=float)
    V = np.asarray(V, dtype=float)
    n = oracle.dim
    if x.size != n or V.shape != (n, n):
        raise InputError(f"point of size {x.size} and basis of shape {V.shape} do not fit dimension {n}")
    det = float(np.linalg.det(V))
    if abs(det) < det_tol:
        raise ValueError(f"basis not invertible: |det| = {abs(det):.3e} below threshold {det_tol:.0e}")
    return probe(_oracle_psi(oracle, x), V.copy())


def finite_difference_probes(value_fn, x, delta: float) -> tuple[np.ndarray, tuple[Probe, ...]]:
    """Centered-difference compass approximation plus the sampled values.

    The compass kernel applied to psi(d) = f(x + delta d), divided by delta.
    """
    require_positive("delta", delta)
    x = np.asarray(x, dtype=float)

    def psi(d: np.ndarray) -> float:
        sample = x + delta * d
        value = float(value_fn(sample))
        if not math.isfinite(value):
            raise ValueError(f"non-finite function value at sample point {sample.tolist()}")
        return value

    result = probe(psi, np.eye(x.size))
    return result.subgradient / delta, result.probes


def finite_difference_compass(value_fn, x, delta: float) -> np.ndarray:
    """Centered finite-difference approximation of the compass difference.

    Component i is (f(x + delta e_i) - f(x - delta e_i)) / (2 delta); it
    converges to the compass difference as delta decreases, and is exact at
    any delta for piecewise-linear functions probed inside one conical piece.
    """
    approx, _ = finite_difference_probes(value_fn, x, delta)
    return approx


def univariate_clarke_interval(oracle: DirectionalOracle, x) -> UnivariateClarkeInterval:
    """The whole Clarke generalized gradient of a univariate function at ``x``.

    This is the convex hull of f'(x; 1) and -f'(x; -1).
    """
    if oracle.dim != 1:
        raise ValueError(f"univariate interval needs a one-dimensional oracle, got dim {oracle.dim}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    plus, minus = probe(_oracle_psi(oracle, x), np.eye(1)).probes
    endpoints = (plus.value, -minus.value)
    return UnivariateClarkeInterval(lo=min(endpoints), hi=max(endpoints))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a subgradient-inequality check over a sample set.

    ``violations[k]`` is f(x) + <s, y_k - x> - f(y_k); the check passes when
    the largest violation does not exceed ``slack``.  A pass certifies ``s``
    (up to slack) only when f is convex; for nonconvex f it is merely
    consistent with membership, never a certificate.
    """

    passed: bool
    slack: float
    max_violation: float
    worst_point: np.ndarray
    n_samples: int
    violations: np.ndarray
    note: str = (
        "pass certifies the subgradient up to slack only for convex f; "
        "for nonconvex f a pass is consistent-with, never a certificate"
    )


def _sample_values(value_fn, samples: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(value_fn(samples), dtype=float)
        if vals.shape == (samples.shape[0],):
            return vals
    except Exception:
        pass
    return np.array([float(value_fn(y)) for y in samples])


def verify_subgradient_inequality(value_fn, x, s, samples, slack: float) -> VerificationReport:
    """Check f(y) >= f(x) + <s, y - x> over the given sample points.

    ``value_fn`` may accept a batch of shape (N, n) for vectorised
    evaluation; otherwise it is called one point at a time.
    """
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] == 0:
        raise ValueError("sample list must not be empty")
    f_x = float(value_fn(x))
    values = _sample_values(value_fn, samples)
    violations = f_x + (samples - x) @ s - values
    worst = int(np.argmax(violations))
    max_violation = float(violations[worst])
    return VerificationReport(
        passed=max_violation <= slack,
        slack=slack,
        max_violation=max_violation,
        worst_point=samples[worst].copy(),
        n_samples=samples.shape[0],
        violations=violations,
    )


def verification_points(x, lower, upper, count: int, seed: int = 0) -> np.ndarray:
    """Standard sample set for :func:`verify_subgradient_inequality`.

    Low-discrepancy points in the box [lower, upper], plus the 2n axis points
    x +- e_i, plus 64 points on a sphere of radius 1e-3 around x; the mix
    catches both global and local violations.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    box = halton_in_box(count, lower, upper, start=1 + max(seed, 0))
    axis = np.vstack([x + e for e in np.eye(n)] + [x - e for e in np.eye(n)])
    ring = x + 1e-3 * unit_directions(64, n, seed=seed)
    return np.vstack([box, axis, ring])


def compass_from_psi(psi_fn, dim: int = 2) -> CompassResult:
    """Assemble a compass difference from a directional map d -> psi(d).

    Used when psi is itself the directional derivative of some function
    (an ODE cost, an optimal-value function): the compass difference of psi
    at the origin is then a subgradient of that function.
    """
    return probe(psi_fn, np.eye(dim))
