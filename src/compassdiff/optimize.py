"""A bivariate subgradient method driven by compass-difference oracles.

Subgradient methods are not descent methods, so the trace tracks the best
iterate seen.  Stopping on a small compass difference is a heuristic only:
a zero compass difference does not certify stationarity for nonconvex
functions, and the trace records that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import jsonio
from .compass import compass_difference
from .oracle import DirectionalOracle, InputError, OracleError, require_positive, shown


@dataclass(frozen=True)
class Constant:
    gamma: float

    def __post_init__(self):
        require_positive("step length", self.gamma)


@dataclass(frozen=True)
class Diminishing:
    """gamma_k = gamma0 / sqrt(k + 1)."""

    gamma0: float

    def __post_init__(self):
        require_positive("step length", self.gamma0)


@dataclass(frozen=True)
class Polyak:
    """gamma_k = (f(x_k) - f_star) / ||g_k||^2, for a known optimal value."""

    f_star: float

    def __post_init__(self):
        if not math.isfinite(self.f_star):
            raise InputError(f"the optimal value f_star must be finite, got {self.f_star!r}")


StepRule = Union[Constant, Diminishing, Polyak]


def rule_label(rule: StepRule) -> str:
    if isinstance(rule, Constant):
        return f"constant({rule.gamma:g})"
    if isinstance(rule, Diminishing):
        return f"diminishing({rule.gamma0:g})"
    return f"polyak({rule.f_star:g})"


@dataclass(frozen=True)
class Iterate:
    x: np.ndarray
    value: float
    subgradient: np.ndarray
    step: float


@dataclass
class OptTrace:
    iterates: list[Iterate] = field(default_factory=list)
    best_value: float = np.inf
    best_point: np.ndarray | None = None
    stop_reason: str = "iteration budget exhausted"

    def record(self, it: Iterate):
        self.iterates.append(it)
        if it.value < self.best_value:
            self.best_value = it.value
            self.best_point = it.x.copy()

    def to_csv(self) -> str:
        return jsonio.csv(("iter", "x1", "x2", "f", "g1", "g2", "step"),
                          ((k, *it.x, it.value, *it.subgradient, it.step) for k, it in enumerate(self.iterates)))


def subgradient_method(oracle: DirectionalOracle, x0, rule: StepRule,
                       max_iters: int, stop_tol: float = 1e-12) -> OptTrace:
    """Iterate x_{k+1} = x_k - gamma_k g_k with g_k the compass difference.

    Stops early when the compass difference has norm at most ``stop_tol``
    (a heuristic, recorded as such) or, under the Polyak rule, when
    f(x_k) - f_star <= stop_tol.
    """
    if not max_iters >= 1:
        raise InputError(f"max_iters must be at least 1, got {shown(max_iters)}")
    require_positive("stop_tol", stop_tol, zero_ok=True)
    x = np.asarray(x0, dtype=float).copy()
    if oracle.dim != 2 or x.size != 2:
        raise InputError("the subgradient method works on bivariate functions from a two-coordinate start")
    trace = OptTrace()
    for k in range(max_iters + 1):
        f = float(oracle.value(x))
        if not math.isfinite(f):
            raise OracleError(f"non-finite function value {f} at {x.tolist()}")
        g = compass_difference(oracle, x).subgradient
        if k == max_iters:  # the budget is spent: record the last point and stop
            break
        g_norm_sq = float(g @ g)
        if isinstance(rule, Polyak) and f - rule.f_star <= stop_tol:
            trace.record(Iterate(x=x.copy(), value=f, subgradient=g, step=0.0))
            trace.stop_reason = "reached target value"
            return trace
        if isinstance(rule, Polyak) and g_norm_sq == 0.0:
            raise ValueError("zero compass difference at non-optimal point")
        if g_norm_sq <= stop_tol * stop_tol:
            trace.record(Iterate(x=x.copy(), value=f, subgradient=g, step=0.0))
            trace.stop_reason = "zero compass difference (not a stationarity certificate for nonconvex f)"
            return trace
        if isinstance(rule, Constant):
            step = rule.gamma
        elif isinstance(rule, Diminishing):
            step = rule.gamma0 / np.sqrt(k + 1.0)
        else:
            step = (f - rule.f_star) / g_norm_sq
        trace.record(Iterate(x=x.copy(), value=f, subgradient=g, step=step))
        x = x - step * g
    trace.record(Iterate(x=x.copy(), value=f, subgradient=g, step=0.0))
    return trace
