"""Subgradients of two-parameter ODE cost functions via directional sensitivities.

For a parametric system dx/dt = f(x), x(0) = x0(p) with locally Lipschitz,
directionally differentiable f, the directional derivative of the solution
along a parameter direction d solves the tangent system

    dy/dt = f'(x(t); y),    y(0) = x0'(p; d),

integrated here together with the state.  With a cost phi(p) = g(p, x(T)),
the map psi(d) = g'((p, x(T)); (d, y(T, d))) is the directional derivative of
phi, and the compass difference of psi (four integrations) is a guaranteed
subgradient of phi for p in the plane.

Integrator: an explicit Dormand-Prince 5(4) embedded pair with PI step-size
control, written here to keep runs dependency-free and deterministic.  It is
first-same-as-last: the seventh stage of an accepted step is evaluated at the
new state and becomes the next step's first, so an integration costs
2 + 6 * (accepted + rejected) right-hand-side evaluations.  In the coupled
system each evaluation is one call of ``rhs.value_and_dir_deriv``; for
expression problems that is one compiled pass per component (see
:func:`compassdiff.expr.compile_expr`), compiled once when the problem is
built.  Stage sums keep the builtin ``sum``'s order, and the reused stage
was evaluated at the very state it stands for, so neither changes a bit of
the result.  No
event detection is attempted: the tangent right-hand side is only Lipschitz
in y, and adaptive step control absorbs the kink crossings at desk scale.
The default tolerances (1e-8 absolute and relative) are deliberately tight
so compass differences inherit roughly six accurate digits.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import expr as ex
from .compass import probe
from .oracle import CompassResult, DirectionalOracle, InputError, VectorOracle, require_positive


class IntegrationError(RuntimeError):
    """Adaptive integration failed; carries the failure time and, when the
    failure happened inside a directional probe, the parameter direction."""

    def __init__(self, message: str, time: float, direction=None):
        super().__init__(message)
        self.time = time
        self.direction = None if direction is None else np.asarray(direction, dtype=float)


@dataclass(frozen=True)
class IntegrationConfig:
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    max_steps: int = 100_000
    min_step: float = 1e-13
    initial_step: Optional[float] = None  # None: choose automatically

    def __post_init__(self):
        require_positive("abs_tol", self.abs_tol)
        require_positive("rel_tol", self.rel_tol)
        require_positive("min_step", self.min_step)
        if self.initial_step is not None:
            require_positive("initial_step", self.initial_step)
        if not self.max_steps >= 1:
            raise InputError(f"max_steps must be at least 1, got {self.max_steps!r}")


@dataclass(frozen=True)
class OdeProblem:
    """Right-hand side, initial-condition map, cost, and horizon.

    ``rhs`` acts on R^n_state; ``init`` maps the two parameters to the initial
    state (with its directional derivative); ``cost`` acts on the
    concatenated (p, x(T)) vector of dimension 2 + n_state.  All three must be
    locally Lipschitz and directionally differentiable, and the state ODE is
    assumed to have unique solutions (not checkable at runtime for black-box
    oracles).
    """

    n_state: int
    rhs: VectorOracle
    init: VectorOracle
    cost: DirectionalOracle
    t_final: float

    def __post_init__(self):
        require_positive("t_final", self.t_final)
        if self.n_state < 1:
            raise InputError(f"n_state must be at least 1, got {self.n_state}")
        if self.rhs.dim_in != self.n_state or self.rhs.dim_out != self.n_state:
            raise InputError("rhs oracle dimensions do not match n_state")
        if self.init.dim_in != 2 or self.init.dim_out != self.n_state:
            raise InputError("init map must send R^2 to R^n_state")
        if self.cost.dim != 2 + self.n_state:
            raise InputError("cost oracle must act on (p, x), dimension 2 + n_state")


@dataclass(frozen=True)
class StepStats:
    accepted: int
    rejected: int
    rhs_evals: int


@dataclass(frozen=True)
class SensitivityTrajectory:
    """Accepted-step record of one coupled state/tangent integration."""

    times: np.ndarray
    states: np.ndarray          # (len(times), n_state)
    sensitivities: np.ndarray   # (len(times), n_state)
    direction: np.ndarray
    stats: StepStats

    def to_csv(self) -> str:
        n = self.states.shape[1]
        header = ["t"] + [f"x{i + 1}" for i in range(n)] + [f"y{i + 1}" for i in range(n)]
        lines = [",".join(header)]
        for k in range(self.times.size):
            row = [self.times[k], *self.states[k], *self.sensitivities[k]]
            lines.append(",".join(format(v, ".17g") for v in row))
        return "\n".join(lines) + "\n"


# Dormand-Prince 5(4) tableau; each row is a column vector so that
# ``k[:s] * row`` scales stage j by its coefficient.
_A = tuple(np.array(row).reshape(-1, 1) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]).reshape(-1, 1)
# b5 - b4: coefficients of the embedded error estimate
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]).reshape(-1, 1)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER = 5.0


def _error_norm(err: np.ndarray, z_old: np.ndarray, z_new: np.ndarray, cfg: IntegrationConfig) -> float:
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(z_old), np.abs(z_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(fun, t_final: float, z0: np.ndarray, f0: np.ndarray, cfg: IntegrationConfig) -> float:
    # standard two-evaluation heuristic, with a defensive fallback when the
    # problem starts at an equilibrium (f0 == 0)
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(z0)
    d0 = float(np.sqrt(np.mean((z0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, t_final)
    z1 = z0 + h0 * f0
    f1 = fun(z1)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / _ORDER)
    return min(100.0 * h0, h1, t_final)


def _combine(coeffs: np.ndarray, k: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum(coeffs[j] * k[j]) in the builtin ``sum``'s order: from +0.0, left to right.

    ``terms`` is a work buffer of shape (8, n) whose row 0 stays zero; the products
    go into the rows after it and one ``add.accumulate`` adds them in order.
    """
    s = coeffs.shape[0]
    np.multiply(k[:s], coeffs, out=terms[1:s + 1])
    return np.add.accumulate(terms[:s + 1], axis=0)[s]


def _dopri5(fun, z0: np.ndarray, t_final: float, cfg: IntegrationConfig,
            direction=None) -> tuple[list[float], list[np.ndarray], StepStats]:
    """Integrate dz/dt = fun(z) from 0 to t_final, recording accepted steps.

    First same as last: the last stage of an accepted step is evaluated at the
    new state, so it is the next step's first stage, and a rejected step keeps
    its first stage.  That costs 6 rhs evaluations per attempted step, plus
    f(z0) and, without ``initial_step``, one more for the step-size guess.
    """
    t = 0.0
    z = np.asarray(z0, dtype=float).copy()
    times = [0.0]
    states = [z.copy()]
    k = np.empty((7, z.size))
    k[0] = fun(z)
    if not np.isfinite(k[0]).all():  # the step-size guess would divide by zero
        raise IntegrationError("non-finite state derivative at t = 0", time=0.0, direction=direction)
    evals = 1
    if cfg.initial_step is not None:
        h = min(cfg.initial_step, t_final)
    else:
        h = _initial_step(fun, t_final, z, k[0], cfg)
        evals += 1
    accepted = 0
    rejected = 0
    err_prev = 1.0
    terms = np.zeros((8, z.size))
    while t < t_final:
        if accepted + rejected >= cfg.max_steps:
            raise IntegrationError(
                f"step limit {cfg.max_steps} exceeded at t = {t:.6g}", time=t, direction=direction)
        last = h >= t_final - t
        if last:
            h = t_final - t
        if h < cfg.min_step:
            raise IntegrationError(
                f"step size underflow ({h:.3e}) at t = {t:.6g}", time=t, direction=direction)
        for s in range(1, 7):
            k[s] = fun(z + h * _combine(_A[s], k, terms))
        evals += 6
        z_new = z + h * _combine(_B5, k, terms)
        err_vec = h * _combine(_E, k, terms)
        err = _error_norm(err_vec, z, z_new, cfg)
        if not math.isfinite(err):
            raise IntegrationError(f"non-finite state at t = {t:.6g}", time=t, direction=direction)
        if err <= 1.0:
            # land exactly on t_final: t + (t_final - t) can round past it
            t = t_final if last else t + h
            z = z_new
            times.append(t)
            states.append(z.copy())
            accepted += 1
            # the last stage was evaluated at z_new (its row of _A is _B5)
            k[0] = k[6]
            # PI controller (error exponent 0.7/p, history exponent 0.4/p)
            factor = _SAFETY * (max(err, 1e-16) ** (-0.7 / _ORDER)) * (max(err_prev, 1e-16) ** (0.4 / _ORDER))
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = max(err, 1e-16)
        else:
            rejected += 1
            h *= max(0.1, _SAFETY * err ** (-1.0 / _ORDER))
    return times, states, StepStats(accepted=accepted, rejected=rejected, rhs_evals=evals)


def integrate_state(problem: OdeProblem, p, config: IntegrationConfig = IntegrationConfig()):
    """Integrate the state system alone; returns (times, states, stats)."""
    p = np.asarray(p, dtype=float)
    x0 = np.asarray(problem.init.value(p), dtype=float)
    times, states, stats = _dopri5(problem.rhs.value, x0, problem.t_final, config)
    return np.array(times), np.array(states), stats


def integrate_coupled(problem: OdeProblem, p, d,
                      config: IntegrationConfig = IntegrationConfig()) -> SensitivityTrajectory:
    """Integrate state and directional sensitivity together along direction ``d``."""
    p = np.asarray(p, dtype=float)
    d = np.asarray(d, dtype=float)
    if p.size != 2 or d.size != 2:
        raise InputError("the parameter space is two-dimensional")
    n = problem.n_state
    x0 = np.asarray(problem.init.value(p), dtype=float)
    y0 = np.asarray(problem.init.dir_deriv(p, d), dtype=float)

    fused = problem.rhs.value_and_dir_deriv
    times, states, stats = _dopri5(lambda z: fused(z[:n], z[n:]), np.concatenate([x0, y0]),
                                   problem.t_final, config, direction=d)
    zs = np.array(states)
    return SensitivityTrajectory(
        times=np.array(times),
        states=zs[:, :n],
        sensitivities=zs[:, n:],
        direction=d.copy(),
        stats=stats,
    )


def ode_cost_value(problem: OdeProblem, p, config: IntegrationConfig = IntegrationConfig()) -> float:
    """phi(p) = g(p, x(T, p)) by one state integration."""
    p = np.asarray(p, dtype=float)
    times, states, _ = integrate_state(problem, p, config)
    return float(problem.cost.value(np.concatenate([p, states[-1]])))


def _cost_dirderiv(problem: OdeProblem, p: np.ndarray, traj: SensitivityTrajectory) -> float:
    point = np.concatenate([p, traj.states[-1]])
    tangent = np.concatenate([traj.direction, traj.sensitivities[-1]])
    return float(problem.cost.dir_deriv(point, tangent))


def ode_cost_dirderiv(problem: OdeProblem, p, d,
                      config: IntegrationConfig = IntegrationConfig()) -> float:
    """psi(d) = g'((p, x(T)); (d, y(T, d))) by one coupled integration."""
    p = np.asarray(p, dtype=float)
    return _cost_dirderiv(problem, p, integrate_coupled(problem, p, d, config))


def _subgradient_and_trajectories(problem: OdeProblem, p, config: IntegrationConfig
                                  ) -> tuple[CompassResult, list[SensitivityTrajectory]]:
    """:func:`ode_subgradient` plus the coupled integrations behind its probes, in probe order."""
    p = np.asarray(p, dtype=float)
    if p.size != 2:
        raise InputError("the parameter space is two-dimensional")
    trajectories: list[SensitivityTrajectory] = []

    def psi(d: np.ndarray) -> float:
        trajectories.append(integrate_coupled(problem, p, d, config))
        return _cost_dirderiv(problem, p, trajectories[-1])

    return probe(psi, np.eye(2)), trajectories


def ode_subgradient(problem: OdeProblem, p,
                    config: IntegrationConfig = IntegrationConfig()) -> CompassResult:
    """Guaranteed subgradient of phi at ``p``: compass difference of psi.

    Four coupled integrations, one per compass direction.
    """
    return _subgradient_and_trajectories(problem, p, config)[0]


# ---------------------------------------------------------------------------
# JSON problem format

def _vector_oracle_from_exprs(exprs: list[ex.NonsmoothExpr], dim_in: int) -> VectorOracle:
    compiled = [ex.compile_expr(e) for e in exprs]
    for e, c in zip(exprs, compiled):
        if c.dim > dim_in:
            raise InputError(f"expression {ex.format_expr(e)} uses variables beyond dimension {dim_in}")
    forwards = [c.forward for c in compiled]

    def value(x):
        xs = np.asarray(x, dtype=float).tolist()
        return np.array([f(xs, xs)[0] for f in forwards])

    def dir_deriv(x, d):
        return value_and_dir_deriv(x, d)[len(forwards):]

    def value_and_dir_deriv(x, d):
        xs = np.asarray(x, dtype=float).tolist()
        ds = np.asarray(d, dtype=float).tolist()
        pairs = [f(xs, ds) for f in forwards]
        return np.array([v for v, _ in pairs] + [t for _, t in pairs])

    return VectorOracle(value=value, dir_deriv=dir_deriv, dim_in=dim_in, dim_out=len(exprs),
                        value_and_dir_deriv=value_and_dir_deriv)


def problem_from_json(source) -> OdeProblem:
    """Build an :class:`OdeProblem` from its JSON description.

    Schema::

        {"n_state": n,
         "rhs_expr":  [expr, ...]   n expressions over the state variables,
         "init_expr": [expr, ...]   n expressions over the two parameters,
         "cost_expr": expr          over the concatenated (p, x) variables,
         "t_final": T}
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = source
    for key in ("n_state", "rhs_expr", "init_expr", "cost_expr", "t_final"):
        if key not in data:
            raise InputError(f"ODE problem JSON is missing {key!r}")
    n = int(data["n_state"])
    rhs_exprs = [ex.parse_expr(s) for s in data["rhs_expr"]]
    init_exprs = [ex.parse_expr(s) for s in data["init_expr"]]
    if len(rhs_exprs) != n or len(init_exprs) != n:
        raise InputError(f"need exactly {n} rhs and init expressions")
    cost_expr = ex.parse_expr(data["cost_expr"])
    return OdeProblem(
        n_state=n,
        rhs=_vector_oracle_from_exprs(rhs_exprs, n),
        init=_vector_oracle_from_exprs(init_exprs, 2),
        cost=ex.as_oracle(cost_expr, 2 + n),
        t_final=float(data["t_final"]),
    )
