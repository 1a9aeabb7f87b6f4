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
control, written here to keep runs dependency-free and deterministic.  One
loop, :func:`_dopri5_rows`, runs every integration: it integrates the rows of
an (N, n) array in lockstep, each row with its own t, h, error history and
accept/reject decision, so a row takes the steps it would take alone, bit for
bit.  The four compass probes are four coupled state/tangent rows of one
integration, whose right-hand side is ``rhs.tangent_rows`` (for expression
problems one compiled pass per component and row, see
:func:`compassdiff.expr.compile_expr`).  ``ode --surface`` is one state-only
batch through ``rhs.value_rows``.  A single integration is a batch of one.
The loop is first-same-as-last: the seventh stage of an accepted step is
evaluated at the new state and becomes the next step's first, so a row costs
2 + 6 * (accepted + rejected) right-hand-side evaluations.  No event
detection is attempted: the tangent right-hand side is only Lipschitz in y,
and adaptive step control absorbs the kink crossings at desk scale.  The
default tolerances (1e-8 absolute and relative) are deliberately tight so
compass differences inherit roughly six accurate digits; they are the only
settings, and the step limits are the constants MAX_STEPS and MIN_STEP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import expr as ex
from . import jsonio
from .compass import probe, probe_directions
from .oracle import CompassResult, DirectionalOracle, InputError, VectorOracle, require_positive


class IntegrationError(RuntimeError):
    """Adaptive integration failed; carries the failure time and, when the
    failure happened inside a directional probe, the parameter direction, or
    in a state-only batch, the index of the failing row.

    A failing row leaves its lockstep batch while the others run on, so a
    failure does not depend on the batch.  It is raised when the caller
    reaches its row: ``psi`` in probe order, ``ode_cost_value`` the lowest.
    """

    def __init__(self, message: str, time: float, direction=None, row: Optional[int] = None):
        super().__init__(message)
        self.time = time
        self.direction = None if direction is None else np.asarray(direction, dtype=float)
        self.row = row


#: Attempted steps after which a row fails, and the step size below which it fails.
MAX_STEPS = 100_000
MIN_STEP = 1e-13


@dataclass(frozen=True)
class IntegrationConfig:
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8

    def __post_init__(self):
        require_positive("abs_tol", self.abs_tol)
        require_positive("rel_tol", self.rel_tol)


@dataclass(frozen=True)
class OdeProblem:
    """Right-hand side, initial-condition map, cost, and horizon.

    ``rhs`` acts on R^n_state (n_state is read from it); ``init`` maps the two
    parameters to the initial state (with its directional derivative); ``cost``
    acts on the concatenated (p, x(T)) vector of dimension 2 + n_state.  All
    three must be locally Lipschitz and directionally differentiable, and the
    state ODE is assumed to have unique solutions (not checkable at runtime
    for black-box oracles).
    """

    rhs: VectorOracle
    init: VectorOracle
    cost: DirectionalOracle
    t_final: float

    def __post_init__(self):
        require_positive("t_final", self.t_final)
        if self.n_state < 1:
            raise InputError(f"n_state must be at least 1, got {self.n_state}")
        if self.rhs.dim_out != self.n_state:
            raise InputError("rhs oracle must map R^n_state to itself")
        if self.init.dim_in != 2 or self.init.dim_out != self.n_state:
            raise InputError("init map must send R^2 to R^n_state")
        if self.cost.dim != 2 + self.n_state:
            raise InputError("cost oracle must act on (p, x), dimension 2 + n_state")

    @property
    def n_state(self) -> int:
        return self.rhs.dim_in


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


def _rms(v: np.ndarray, scale: np.ndarray):
    """Root mean square of ``v / scale`` over the last axis: one value per row.

    The same bits as ``np.sqrt(np.mean((v / scale) ** 2, axis=-1))``, at a
    third of its call cost.  Finite components far beyond their scale
    overflow it to inf, which the step control reads as a rejected step.
    """
    q = v / scale
    return np.sqrt(np.add.reduce(q * q, axis=-1) / v.shape[-1])


def _error_norm(err: np.ndarray, z_old: np.ndarray, z_new: np.ndarray, cfg: IntegrationConfig):
    # tolerances near the float limit overflow the scale to inf, and the error then counts as zero
    return _rms(err, cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(z_old), np.abs(z_new)))


def _first_guess(d0: float, d1: float, t_final: float) -> float:
    # standard two-evaluation heuristic, with a defensive fallback when the
    # problem starts at an equilibrium (f0 == 0) or the norm of f0 overflowed
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 or d1 == math.inf else 0.01 * d0 / d1
    return min(h0, t_final)


def _second_guess(h0: float, d1: float, df: float, t_final: float) -> float:
    """The initial step from the first guess ``h0`` and ``df``, the scaled norm of f(z0 + h0 f0) - f0.

    A norm that overflowed rejects the trial step ``h0`` as the step control
    would reject it, by the smallest factor, 0.1.
    """
    d = max(d1, df / h0)
    if d <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    elif d == math.inf:
        h1 = 0.1 * h0
    else:
        h1 = (0.01 / d) ** (1.0 / _ORDER)
    return min(100.0 * h0, h1, t_final)


def _control(h: float, err: float, err_prev: float) -> tuple[float, float]:
    """PI step-size control after a step of size ``h`` with error norm ``err``.

    The step is accepted when ``err <= 1``.  Returns the next step size and
    the next ``err_prev``.  The factors use Python's ``**`` (libc ``pow``):
    numpy's array ``**`` rounds differently in the last bit.
    """
    if err <= 1.0:
        # PI controller (error exponent 0.7/p, history exponent 0.4/p)
        factor = _SAFETY * (max(err, 1e-16) ** (-0.7 / _ORDER)) * (max(err_prev, 1e-16) ** (0.4 / _ORDER))
        return h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor)), max(err, 1e-16)
    return h * max(0.1, _SAFETY * err ** (-1.0 / _ORDER)), err_prev


def _combine(coeffs: np.ndarray, k: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum(coeffs[j] * k[j]) in the builtin ``sum``'s order: from +0.0, left to right.

    ``terms`` is a work buffer of shape (8, n) whose row 0 stays zero; the products
    go into the rows after it and one ``add.accumulate`` adds them in order.
    """
    s = coeffs.shape[0]
    np.multiply(k[:s], coeffs, out=terms[1:s + 1])
    return np.add.accumulate(terms[:s + 1], axis=0)[s]


def _dopri5_rows(fun, Z0: np.ndarray, t_final: float, cfg: IntegrationConfig, record: bool = False):
    """Integrate dz/dt = fun(z) from 0 to t_final for every row of ``Z0`` in lockstep.

    ``fun`` maps an (M, n) array of states to their derivatives, row by row.
    The stage arithmetic is elementwise and the step control is scalar code
    per row.  The rhs sees only the rows still running; a row leaves the
    batch when it reaches t_final or fails.  A row costs 6 rhs evaluations
    per attempted step, plus f(z0) and one more for the step-size guess.  A
    row fails on a non-finite derivative at t = 0, a non-finite state or
    error-estimate component, MAX_STEPS attempted steps or a step below
    MIN_STEP; an error norm that overflows from finite components only
    rejects the step.  Overflow in the loop is quiet.

    Returns ``(final, stats, errors, trajectories)``: the final states, shape
    (N, n); per row its :class:`StepStats` and its :class:`IntegrationError`
    (``row`` set), one of them None; and with ``record``, per row its
    accepted ``(times, states)`` from t = 0, else None.
    """
    final = np.array(Z0, dtype=float)
    N, n = final.shape
    stats: list = [None] * N
    errors: list = [None] * N
    log = []  # with record: (rows, t, z, accepted) at t = 0 and after each iteration
    with np.errstate(over="ignore", invalid="ignore"):
        f0 = fun(final)
        good = np.isfinite(f0).all(axis=1)
        for i in np.flatnonzero(~good).tolist():  # the step-size guess would divide by zero
            errors[i] = IntegrationError("non-finite state derivative at t = 0", time=0.0, row=i)
        rows = np.flatnonzero(good)  # original index of each running row
        z, f0 = final[rows], f0[rows]
        scale = cfg.abs_tol + cfg.rel_tol * np.abs(z)
        d1 = _rms(f0, scale).tolist()
        h0 = [_first_guess(a, b, t_final) for a, b in zip(_rms(z, scale).tolist(), d1)]
        df = _rms(fun(z + np.array(h0).reshape(-1, 1) * f0) - f0, scale).tolist()
        h = np.array([_second_guess(*guess, t_final) for guess in zip(h0, d1, df)])
        # per running row; elementwise numpy arithmetic rounds as scalar arithmetic does
        t = np.zeros(rows.size)
        err_prev = np.ones(rows.size)
        steps = 0  # attempted steps, the same for every running row
        accepted = np.zeros(rows.size, dtype=int)
        k = np.empty((7, rows.size, n))
        k[0] = f0
        bad = False  # rows whose last step went non-finite
        terms = np.zeros((8, rows.size * n))
        if record:
            log.append((rows, t, z, np.ones(rows.size, dtype=bool)))
        while rows.size:
            rest = t_final - t
            last = h >= rest
            h = np.where(last, rest, h)
            # a finished row (t >= t_final) has h = 0 here
            stop = bad | (h < MIN_STEP) | (steps >= MAX_STEPS)
            if stop.any():  # rows leave the batch, finished or failed
                for i in np.flatnonzero(stop).tolist():
                    row = int(rows[i])
                    if rest[i] <= 0.0:
                        final[row] = z[i]
                        a, r = int(accepted[i]), steps - int(accepted[i])
                        stats[row] = StepStats(accepted=a, rejected=r, rhs_evals=2 + 6 * (a + r))
                    elif errors[row] is None:
                        message = (f"step limit {MAX_STEPS} exceeded" if steps >= MAX_STEPS
                                   else f"step size underflow ({h[i]:.3e})")
                        errors[row] = IntegrationError(f"{message} at t = {t[i]:.6g}", time=float(t[i]), row=row)
                keep = ~stop
                rows, z, t, h, last, err_prev, accepted = (
                    x[keep] for x in (rows, z, t, h, last, err_prev, accepted))
                # contiguous, so that the flat view below is a view
                k = np.ascontiguousarray(k[:, keep])
                terms = np.zeros((8, rows.size * n))
                if not rows.size:
                    break
            m = rows.size
            hs = h.reshape(-1, 1)
            # the stage sums run on the flattened (7, m * n) view: one buffer for all rows
            flat = k.reshape(7, m * n)
            for s in range(1, 7):
                k[s] = fun(z + hs * _combine(_A[s], flat, terms).reshape(m, n))
            z_new = z + hs * _combine(_B5, flat, terms).reshape(m, n)
            err_vec = hs * _combine(_E, flat, terms).reshape(m, n)
            err = _error_norm(err_vec, z, z_new, cfg)
            ok = err <= 1.0
            bad = False
            # a cheap test first: the sum is non-finite with any non-finite component (and rarely without)
            if not np.isfinite(z_new + err_vec).all():
                bad = ~(np.isfinite(z_new).all(axis=1) & np.isfinite(err_vec).all(axis=1))
                for i in np.flatnonzero(bad).tolist():
                    errors[rows[i]] = IntegrationError(f"non-finite state at t = {t[i]:.6g}", time=float(t[i]),
                                                       row=int(rows[i]))
                ok &= ~bad
            # land exactly on t_final: t + (t_final - t) can round past it
            t = np.where(ok, np.where(last, t_final, t + h), t)
            steps += 1
            accepted += ok
            accept = ok.reshape(-1, 1)
            z = np.where(accept, z_new, z)  # a new array, so the log below needs no copy
            np.copyto(k[0], k[6], where=accept)  # the last stage was evaluated at z_new (its row of _A is _B5)
            if record:
                log.append((rows, t, z, ok))
            h, err_prev = np.array(list(map(_control, h.tolist(), err.tolist(), err_prev.tolist()))).T
    trajectories = None
    if record:
        index, times, states, accept = (np.concatenate(part) for part in zip(*log))
        index, times, states = index[accept], times[accept], states[accept]
        order = np.argsort(index, kind="stable")
        cuts = np.cumsum(np.bincount(index, minlength=N))[:-1]
        trajectories = list(zip(np.split(times[order], cuts), np.split(states[order], cuts)))
    return final, stats, errors, trajectories


def integrate_state(problem: OdeProblem, p, config: IntegrationConfig = IntegrationConfig()):
    """Integrate the state system alone; returns (times, states, stats)."""
    p = np.asarray(p, dtype=float)
    if p.size != 2:
        raise InputError("the parameter space is two-dimensional")
    x0 = problem.init.value_rows(p.reshape(1, 2))
    _, stats, errors, trajectories = _dopri5_rows(problem.rhs.value_rows, x0, problem.t_final, config, record=True)
    if errors[0] is not None:
        raise errors[0]
    times, states = trajectories[0]
    return times, states, stats[0]


def _coupled_rows(problem: OdeProblem, p: np.ndarray, directions: list, config: IntegrationConfig) -> list:
    """One lockstep integration of the coupled state/tangent system, one row per direction.

    Returns per direction, in order, its :class:`SensitivityTrajectory` or
    the :class:`IntegrationError` naming that direction.
    """
    n = problem.n_state
    Z0 = problem.init.tangent_rows(np.array([np.concatenate([p, d]) for d in directions]))
    _, stats, errors, trajectories = _dopri5_rows(problem.rhs.tangent_rows, Z0, problem.t_final, config, record=True)
    return [
        IntegrationError(str(error), time=error.time, direction=d) if error is not None else
        SensitivityTrajectory(times=times, states=zs[:, :n], sensitivities=zs[:, n:], direction=d.copy(),
                              stats=row_stats)
        for d, row_stats, error, (times, zs) in zip(directions, stats, errors, trajectories)
    ]


def _trajectory(outcome) -> SensitivityTrajectory:
    if isinstance(outcome, IntegrationError):
        raise outcome
    return outcome


def integrate_coupled(problem: OdeProblem, p, d,
                      config: IntegrationConfig = IntegrationConfig()) -> SensitivityTrajectory:
    """Integrate state and directional sensitivity together along direction ``d``."""
    p = np.asarray(p, dtype=float)
    d = np.asarray(d, dtype=float)
    if p.size != 2 or d.size != 2:
        raise InputError("the parameter space is two-dimensional")
    return _trajectory(_coupled_rows(problem, p, [d], config)[0])


def ode_cost_value(problem: OdeProblem, p, config: IntegrationConfig = IntegrationConfig()):
    """phi(p) = g(p, x(T, p)) by one state integration.

    ``p`` is one point of shape (2,), which returns a float, or a batch of
    shape (N, 2), which returns shape (N,) from one lockstep integration of
    all rows (:func:`_dopri5_rows`); row i equals ``ode_cost_value(problem,
    p[i])`` bit for bit.  The error of the lowest-index failing row is
    raised, naming its point.
    """
    try:
        p = np.asarray(p, dtype=float)
    except ValueError:
        p = None
    if p is None or p.ndim not in (1, 2) or p.shape[-1:] != (2,):
        raise InputError("parameter points must be numbers of shape (2,) or (N, 2)")
    P = p.reshape(-1, 2)
    if not len(P):
        return np.empty(0)
    final, _, errors, _ = _dopri5_rows(problem.rhs.value_rows, problem.init.value_rows(P), problem.t_final, config)
    err = next((e for e in errors if e is not None), None)
    if err is not None:
        a, b = P[err.row].tolist()
        raise IntegrationError(f"{err} for p = ({a:.17g}, {b:.17g})", time=err.time, row=err.row)
    costs = [float(problem.cost.value(np.concatenate([q, x]))) for q, x in zip(P, final)]
    return np.array(costs) if p.ndim == 2 else costs[0]


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
    """:func:`ode_subgradient` plus the coupled integrations behind its probes, in probe order.

    The four probes are four rows of one lockstep integration.  psi(d) then
    returns its row's value or raises its row's error, so errors come in
    probe order, as from four integrations one after another.
    """
    p = np.asarray(p, dtype=float)
    if p.size != 2:
        raise InputError("the parameter space is two-dimensional")
    basis = np.eye(2)
    directions = probe_directions(basis)
    outcomes = {d.tobytes(): o for d, o in zip(directions, _coupled_rows(problem, p, directions, config))}
    trajectories: list[SensitivityTrajectory] = []

    def psi(d: np.ndarray) -> float:
        trajectories.append(_trajectory(outcomes[d.tobytes()]))
        return _cost_dirderiv(problem, p, trajectories[-1])

    return probe(psi, basis), trajectories


def ode_subgradient(problem: OdeProblem, p,
                    config: IntegrationConfig = IntegrationConfig()) -> CompassResult:
    """Guaranteed subgradient of phi at ``p``: compass difference of psi.

    Four coupled integrations, one per compass direction, as four rows of
    one lockstep integration.
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

    def value_rows(X):
        X = np.asarray(X, dtype=float)
        out = np.empty((X.shape[0], len(exprs)))
        for j, e in enumerate(exprs):
            out[:, j] = ex.eval_value(e, X)
        return out

    def tangent_rows(Z):
        out = []
        for z in np.asarray(Z, dtype=float).tolist():  # the forwards read x = z[:dim_in] from z itself
            pairs = [f(z, z[dim_in:]) for f in forwards]
            out.append([v for v, _ in pairs] + [t for _, t in pairs])
        return np.array(out).reshape(-1, 2 * len(forwards))

    return VectorOracle(value_rows=value_rows, tangent_rows=tangent_rows, dim_in=dim_in, dim_out=len(exprs))


def problem_from_json(source) -> OdeProblem:
    """Build an :class:`OdeProblem` from its JSON description.

    Schema::

        {"n_state": n,
         "rhs_expr":  [expr, ...]   n expressions over the state variables,
         "init_expr": [expr, ...]   n expressions over the two parameters,
         "cost_expr": expr          over the concatenated (p, x) variables,
         "t_final": T}
    """
    data = jsonio.load(source)
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
        rhs=_vector_oracle_from_exprs(rhs_exprs, n),
        init=_vector_oracle_from_exprs(init_exprs, 2),
        cost=ex.as_oracle(cost_expr, 2 + n),
        t_final=float(data["t_final"]),
    )
