"""Compass differences: subgradients built from directional derivatives.

The compass difference of f at x is the vector with components
(f'(x; e_i) - f'(x; -e_i)) / 2.  For functions of one or two variables it is
always a Clarke subgradient; for three or more variables it is computed but
flagged as carrying no membership guarantee.  A change of probing basis and a
centered finite-difference approximation are provided alongside.  In one
variable the two probes give the whole Clarke generalized gradient: it is
the interval between f'(x; 1) and -f'(x; -1).

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

import numpy as np

from .oracle import (
    CompassResult,
    DirectionalOracle,
    InputError,
    OracleError,
    Probe,
    guarantee_for_dim,
    require_positive,
)

#: Bases with |det| below this are rejected as numerically singular; the
#: conditioning of the transposed-inverse solve dominates the error.
DET_TOL = 1e-12


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


def basis_compass_difference(oracle: DirectionalOracle, x, V) -> CompassResult:
    """Compass difference probed along the columns of ``V`` instead of +-e_i.

    Returns (V^T)^{-1} * [ (f'(x; v_i) - f'(x; -v_i)) / 2 ]_i, which is again
    a Clarke subgradient in two dimensions (generally a different one from
    the plain compass difference).  With ``V`` exactly the identity this
    reproduces :func:`compass_difference` bit for bit.

    Directional derivatives are positively homogeneous in the direction, so
    the columns of ``V`` need not be normalised.  A basis with |det V|
    below :data:`DET_TOL` is rejected as singular.
    """
    x = np.asarray(x, dtype=float)
    V = np.asarray(V, dtype=float)
    n = oracle.dim
    if x.size != n or V.shape != (n, n):
        raise InputError(f"point of size {x.size} and basis of shape {V.shape} do not fit dimension {n}")
    det = float(np.linalg.det(V))
    if abs(det) < DET_TOL:
        raise ValueError(f"basis not invertible: |det| = {abs(det):.3e} below threshold {DET_TOL:.0e}")
    return probe(_oracle_psi(oracle, x), V.copy())


def finite_difference_probes(value_fn, x, delta: float) -> tuple[np.ndarray, tuple[Probe, ...]]:
    """Centered-difference compass approximation plus the sampled values.

    The compass kernel applied to psi(d) = f(x + delta d), divided by delta:
    it converges to the compass difference as delta decreases.  It serves
    the CLI's ``compass --fd``.
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


def compass_from_psi(psi_fn) -> CompassResult:
    """Assemble a planar compass difference from a directional map d -> psi(d).

    Used when psi is itself the directional derivative of some function
    (an ODE cost, an optimal-value function): the compass difference of psi
    at the origin is then a subgradient of that function.  The package's
    front ends call :func:`probe` directly; this name stays because the
    traced benchmark (``bench/spans.py``) binds it as a span target.
    """
    return probe(psi_fn, np.eye(2))
