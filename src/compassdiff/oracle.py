"""Oracle and result types shared across the library.

A :class:`DirectionalOracle` bundles a scalar function with an evaluator of
its one-sided directional derivatives.  Everything downstream (compass
differences, ODE sensitivities, optimal-value probing) consumes this
interface and nothing else, so any way of producing directional derivatives
(expression trees, hand-coded closures, auxiliary ODE solves) plugs in
uniformly.

All types here are immutable after construction and safe for concurrent
read-only use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: Membership guarantee labels.  A compass difference is a Clarke subgradient
#: for functions of one or two variables; for three or more variables it is
#: still well defined but carries no membership guarantee (and the built-in
#: three-variable demo refutes it).
GUARANTEED = "guaranteed"
UNGUARANTEED = "unguaranteed"


def guarantee_for_dim(dim: int) -> str:
    return GUARANTEED if dim <= 2 else UNGUARANTEED


class InputError(ValueError):
    """The caller's argument is malformed or out of range (the CLI's exit code 2).

    Evaluation failures on well-formed input raise :class:`OracleError` or a plain ``ValueError``.
    """


def require_positive(name: str, value: float, zero_ok: bool = False) -> None:
    """Raise :class:`InputError` unless ``value`` is finite and positive (or zero, with ``zero_ok``); NaN never passes."""
    above = 0 <= value if zero_ok else 0 < value
    if not (above and value < math.inf):
        raise InputError(f"{name} must be {'nonnegative' if zero_ok else 'positive'} and finite, got {value!r}")


def require_integer(name: str, value) -> int:
    """``value`` as an ``int``; raise :class:`InputError` unless it is an integral number (a bool is not)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{name} must be an integer, got {value!r}")


def require_numbers(name: str, value) -> np.ndarray:
    """``value``, a number or nested lists of numbers from a problem file, as a float array.

    Any other leaf (a string, a bool, null, or a list where a number
    belongs) is an :class:`InputError`: ``np.asarray(value, dtype=float)``
    alone would parse ``"1"`` and read ``true`` as 1.0.
    """
    array = np.asarray(value, dtype=object)
    for v in array.flat:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise InputError(f"{name} must hold JSON numbers, got {v!r}")
    return array.astype(float)


class OracleError(RuntimeError):
    """An oracle evaluation failed or returned a non-finite value.

    ``direction`` carries the probe direction that triggered the failure,
    when one is known.
    """

    def __init__(self, message: str, direction: Optional[np.ndarray] = None):
        super().__init__(message)
        self.direction = None if direction is None else np.asarray(direction, dtype=float)


@dataclass(frozen=True)
class DirectionalOracle:
    """A scalar function together with its directional-derivative evaluator.

    ``value(x)`` returns f(x); ``dir_deriv(x, d)`` returns the one-sided
    directional derivative f'(x; d).  The caller promises that directional
    derivatives exist at queried points; oracles that cannot honour a query
    should raise (e.g. :class:`OracleError`) rather than guess.
    """

    value: Callable[[np.ndarray], float]
    dir_deriv: Callable[[np.ndarray, np.ndarray], float]
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise InputError(f"oracle dimension must be positive, got {self.dim}")


@dataclass(frozen=True)
class VectorOracle:
    """Vector-valued analogue of :class:`DirectionalOracle`, as two point maps.

    Used for ODE right-hand sides f: R^n -> R^n and initial-condition maps
    x0: R^2 -> R^n.  Both maps take and return lists of Python floats, so
    the integrator can call them without numpy: ``value(x)`` maps a point of
    ``dim_in`` floats to its ``dim_out`` values, and ``tangent(z)`` maps
    ``[x | d]`` (``2 * dim_in`` floats) to ``[f(x) | f'(x; d)]``
    (``2 * dim_out`` floats), with the componentwise one-sided directional
    derivative; for a right-hand side that is the coupled state/tangent
    system.  A map whose output has another width is an :class:`InputError`
    when the integrator first calls it.  ``switch``, optional, gives the
    switching values of the components at a point, as
    :data:`compassdiff.expr.SwitchMap` defines them: the integrator lands
    its steps on their sign changes.  Without it the steps straddle kinks.
    """

    value: Callable[[list], list]
    tangent: Callable[[list], list]
    dim_in: int
    dim_out: int
    switch: Optional[Callable[[list, Optional[tuple], Optional[list]], tuple[list, tuple, bool]]] = None


@dataclass(frozen=True)
class Probe:
    """One directional-derivative evaluation: the direction and its value."""

    direction: np.ndarray
    value: float


@dataclass(frozen=True)
class CompassResult:
    """A subgradient candidate plus the probe provenance that produced it.

    ``probes`` holds the 2n directional-derivative evaluations in the fixed
    order (+v1, -v1, +v2, -v2, ...), one pair per basis column.  ``basis`` is
    the matrix whose columns were probed (the identity for a plain compass
    difference).  ``guarantee`` states whether the result is guaranteed to be
    a Clarke subgradient (dimensions one and two) or merely computed
    (dimension three and up).
    """

    subgradient: np.ndarray
    probes: tuple[Probe, ...]
    basis: Optional[np.ndarray]
    guarantee: str

    @property
    def dim(self) -> int:
        return self.subgradient.shape[0]

    def recompute_subgradient(self) -> np.ndarray:
        """Re-derive the subgradient from the stored probes and basis.

        Runs the compass kernel's own arithmetic on the stored values, so the
        result reproduces ``subgradient`` exactly.
        """
        from .compass import _pair_subgradient  # compass imports this module

        n = self.dim
        if len(self.probes) != 2 * n:
            raise ValueError(f"expected {2 * n} probes, found {len(self.probes)}")
        return _pair_subgradient(self.probes, self.basis)

    def to_json_dict(self) -> dict:
        return {
            "subgradient": self.subgradient.tolist(),
            "probes": [
                {"direction": p.direction.tolist(), "value": p.value} for p in self.probes
            ],
            "basis": None if self.basis is None else self.basis.tolist(),
            "guarantee": self.guarantee,
        }


@dataclass(frozen=True)
class UnivariateClarkeInterval:
    """The full Clarke generalized gradient of a univariate function, [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    def contains(self, s: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= s <= self.hi + tol
