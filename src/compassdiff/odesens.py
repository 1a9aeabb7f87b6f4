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
control, written here to keep runs dependency-free and deterministic.
:func:`_dopri5_rows` runs every integration, on the rows of an (N, n)
array, each row with its own t, h, error history and accept/reject
decision, by one of two loops with the same arithmetic.  A batch of at
most :data:`SCALAR_ROWS` rows runs one row after another on Python floats,
where numpy's per-call cost would outweigh its work: the four compass
probes (four coupled state/tangent rows), ``ode --at`` and ``--traj``,
single integrations, and small surfaces.  A larger batch, such as the
``ode --surface`` grid, runs in numpy lockstep, the rhs once per stage on
all rows still running.  Either way a row takes the steps it would take
alone, bit for bit.  The rhs is a point map on lists of floats
(:class:`VectorOracle`); for a problem file it is one generated function
that evaluates every component as flat statements
(:func:`compassdiff.expr.compile_rows`).  The loops are
first-same-as-last: the seventh stage of an accepted step is evaluated at
the new state and becomes the next step's first, so a row costs
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
from .oracle import CompassResult, DirectionalOracle, InputError, VectorOracle, require_integer, require_positive


class IntegrationError(RuntimeError):
    """Adaptive integration failed; carries the failure time and, when the
    failure happened inside a directional probe, the parameter direction, or
    in a state-only batch, the index of the failing row.

    A failing row leaves its batch while the others run on, so a failure
    does not depend on the batch.  It is raised when the caller
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


# Dormand-Prince 5(4) tableau: the stage rows, the fifth-order weights b5,
# and b5 - b4, the weights of the embedded error estimate
_STAGES = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_WEIGHTS = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_ERROR_WEIGHTS = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# the same as column vectors for the lockstep loop, so that ``k[:s] * row`` scales stage j by its coefficient
_A = tuple(np.array(row).reshape(-1, 1) for row in _STAGES)
_B5 = np.array(_WEIGHTS).reshape(-1, 1)
_E = np.array(_ERROR_WEIGHTS).reshape(-1, 1)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER = 5.0

#: Most rows :func:`_dopri5_rows` integrates one after another on Python
#: floats; a larger batch runs in numpy lockstep.  The measured crossover on
#: example46's state rows: below about 20 rows numpy's per-call cost
#: outweighs its per-row gain, above it the lockstep loop is faster.
SCALAR_ROWS = 20


def _rms(v: np.ndarray, scale: np.ndarray):
    """Root mean square of ``v / scale`` over the last axis: one value per row.

    The squares are summed left to right, as :func:`_rms_floats` sums them
    (``np.add.reduce`` sums 8 or more components pairwise).  Finite
    components far beyond their scale overflow it to inf, which the step
    control reads as a rejected step.
    """
    q = v / scale
    return np.sqrt(np.add.accumulate(q * q, axis=-1)[..., -1] / v.shape[-1])


def _rms_floats(v: list, scale: list) -> float:
    """:func:`_rms` of one row on Python floats, bit for bit."""
    s = 0.0
    for a, b in zip(v, scale):
        q = a / b
        s += q * q
    return math.sqrt(s / len(v))


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


def _batch(point_map, points: list, width: int, what: str) -> np.ndarray:
    """``point_map`` at each of ``points`` (lists of floats), as a (len(points), width) array.

    Outputs of another width than ``width`` are an :class:`InputError`, which
    would otherwise be broadcast or truncated in silence, unless their widths
    add up to the expected total.
    """
    out = []
    for x in points:
        out += point_map(x)
    if len(out) != len(points) * width:
        raise InputError(f"{what} returned {len(out)} components for {len(points)} points, expected {width} each")
    return np.array(out).reshape(len(points), width)


def _dopri5_rows(fun, Z0: np.ndarray, t_final: float, cfg: IntegrationConfig, record: bool = False):
    """Integrate dz/dt = fun(z) from 0 to t_final for every row of ``Z0``.

    ``fun`` is a point map: a state, a list of n floats, to its derivative.
    A batch of at most :data:`SCALAR_ROWS` rows runs one row after another
    on Python floats (:func:`_dopri5_floats`); a larger one runs in numpy
    lockstep, with elementwise stage arithmetic and scalar step control per
    row, each row with its own t, h, error history and accept/reject
    decision.  The rhs sees only the rows still running; a row leaves the
    batch when it reaches t_final or fails.  Both paths do the same
    arithmetic in the same order, so a row takes the steps it would take
    alone, bit for bit, whatever its batch.

    A row costs 6 rhs evaluations per attempted step, plus f(z0) and one
    more for the step-size guess.  A row fails on a non-finite derivative at
    t = 0, a non-finite state or error-estimate component, MAX_STEPS
    attempted steps or a step below MIN_STEP; an error norm that overflows
    from finite components only rejects the step.  Overflow is quiet.  An
    rhs output of another width than n is an :class:`InputError`.

    Returns ``(final, stats, errors, trajectories)``: the final states, shape
    (N, n); per row its :class:`StepStats` and its :class:`IntegrationError`
    (``row`` set), one of them None; and with ``record``, per row its
    accepted ``(times, states)`` from t = 0, else None.
    """
    final = np.array(Z0, dtype=float)
    N, n = final.shape
    if N <= SCALAR_ROWS:
        stats, errors, trajectories = [], [], []
        for i, z0 in enumerate(final.tolist()):
            z, row_stats, error, trajectory = _dopri5_floats(fun, z0, t_final, cfg, record, i)
            final[i] = z
            stats.append(row_stats)
            errors.append(error)
            trajectories.append(trajectory)
        return final, stats, errors, trajectories if record else None

    def rhs(Z):
        return _batch(fun, Z.tolist(), n, "the right-hand side")

    stats: list = [None] * N
    errors: list = [None] * N
    log = []  # with record: (rows, t, z, accepted) at t = 0 and after each iteration
    with np.errstate(over="ignore", invalid="ignore"):
        f0 = rhs(final)
        good = np.isfinite(f0).all(axis=1)
        for i in np.flatnonzero(~good).tolist():  # the step-size guess would divide by zero
            errors[i] = IntegrationError("non-finite state derivative at t = 0", time=0.0, row=i)
        rows = np.flatnonzero(good)  # original index of each running row
        z, f0 = final[rows], f0[rows]
        scale = cfg.abs_tol + cfg.rel_tol * np.abs(z)
        d1 = _rms(f0, scale).tolist()
        h0 = [_first_guess(a, b, t_final) for a, b in zip(_rms(z, scale).tolist(), d1)]
        df = _rms(rhs(z + np.array(h0).reshape(-1, 1) * f0) - f0, scale).tolist()
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
                        errors[row] = _limit_error(steps, float(h[i]), float(t[i]), row)
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
                k[s] = rhs(z + hs * _combine(_A[s], flat, terms).reshape(m, n))
            z_new = z + hs * _combine(_B5, flat, terms).reshape(m, n)
            err_vec = hs * _combine(_E, flat, terms).reshape(m, n)
            err = _error_norm(err_vec, z, z_new, cfg)
            ok = err <= 1.0
            bad = False
            # a cheap test first: the sum is non-finite with any non-finite component (and rarely without)
            if not np.isfinite(z_new + err_vec).all():
                bad = ~(np.isfinite(z_new).all(axis=1) & np.isfinite(err_vec).all(axis=1))
                for i in np.flatnonzero(bad).tolist():
                    errors[rows[i]] = _state_error(float(t[i]), int(rows[i]))
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


def _limit_error(steps: int, h: float, t: float, row: int) -> IntegrationError:
    """The error of a row stopped by MAX_STEPS or MIN_STEP."""
    message = f"step limit {MAX_STEPS} exceeded" if steps >= MAX_STEPS else f"step size underflow ({h:.3e})"
    return IntegrationError(f"{message} at t = {t:.6g}", time=t, row=row)


def _state_error(t: float, row: int) -> IntegrationError:
    return IntegrationError(f"non-finite state at t = {t:.6g}", time=t, row=row)


def _dopri5_floats(fun, z0: list, t_final: float, cfg: IntegrationConfig, record: bool, row: int):
    """Row ``row`` of :func:`_dopri5_rows` on Python floats: ``(final, stats, error, trajectory)``.

    Every operation is the lockstep loop's on this row, in the same order:
    the stage sums from +0.0, left to right, with the 0.0 weights of b5 and
    of the error estimate kept (0.0 * inf is NaN); the error norm's squares
    summed left to right, as :func:`_rms` sums them; the guesses and the
    step control by the same functions.  So every state, step and failure is the same bit for bit.
    A failing row's final state is ``z0``; a row failing at t = 0 has an
    empty trajectory.
    """
    n = len(z0)
    atol, rtol, max_steps, min_step = cfg.abs_tol, cfg.rel_tol, MAX_STEPS, MIN_STEP
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65), \
        (a71, a72, a73, a74, a75, a76) = _STAGES[1:]
    b1, b2, b3, b4, b5, b6, b7 = _WEIGHTS
    e1, e2, e3, e4, e5, e6, e7 = _ERROR_WEIGHTS
    z = z0
    k1 = fun(z)
    if len(k1) != n:  # zip would truncate it in silence
        raise InputError(f"the right-hand side returned {len(k1)} components for a point, expected {n}")
    if not all(map(math.isfinite, k1)):  # the step-size guess would divide by zero
        empty = (np.empty(0), np.empty((0, n))) if record else None
        return z0, None, IntegrationError("non-finite state derivative at t = 0", time=0.0, row=row), empty
    scale = [atol + rtol * abs(a) for a in z]
    d1 = _rms_floats(k1, scale)
    h0 = _first_guess(_rms_floats(z, scale), d1, t_final)
    df = _rms_floats([b - a for a, b in zip(k1, fun([a + h0 * b for a, b in zip(z, k1)]))], scale)
    h = _second_guess(h0, d1, df, t_final)
    t, err_prev, steps, accepted = 0.0, 1.0, 0, 0
    times, states = [t], [z]
    error = None
    while True:
        rest = t_final - t
        last = h >= rest
        if last:
            h = rest
        if h < min_step or steps >= max_steps:  # a finished row has h = 0 here
            break
        k2 = fun([a + h * (0.0 + a21 * p1) for a, p1 in zip(z, k1)])
        k3 = fun([a + h * (0.0 + a31 * p1 + a32 * p2) for a, p1, p2 in zip(z, k1, k2)])
        k4 = fun([a + h * (0.0 + a41 * p1 + a42 * p2 + a43 * p3) for a, p1, p2, p3 in zip(z, k1, k2, k3)])
        k5 = fun([a + h * (0.0 + a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4)
                  for a, p1, p2, p3, p4 in zip(z, k1, k2, k3, k4)])
        k6 = fun([a + h * (0.0 + a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4 + a65 * p5)
                  for a, p1, p2, p3, p4, p5 in zip(z, k1, k2, k3, k4, k5)])
        k7 = fun([a + h * (0.0 + a71 * p1 + a72 * p2 + a73 * p3 + a74 * p4 + a75 * p5 + a76 * p6)
                  for a, p1, p2, p3, p4, p5, p6 in zip(z, k1, k2, k3, k4, k5, k6)])
        # z_new, the error estimate's components e and the error norm in one
        # pass; ``x * 0.0`` is zero for finite x and NaN otherwise, so
        # ``nonfinite`` stays zero unless a component of z_new or e is not finite
        z_new = []
        s = nonfinite = 0.0
        for a, p1, p2, p3, p4, p5, p6, p7 in zip(z, k1, k2, k3, k4, k5, k6, k7):
            b = a + h * (0.0 + b1 * p1 + b2 * p2 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6 + b7 * p7)
            e = h * (0.0 + e1 * p1 + e2 * p2 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6 + e7 * p7)
            z_new.append(b)
            nonfinite += b * 0.0 + e * 0.0
            # _error_norm: the scale from the larger magnitude of the old and new state
            old, new = abs(a), abs(b)
            q = e / (atol + rtol * (old if old >= new else new))
            s += q * q
        if nonfinite != 0.0:
            error = _state_error(t, row)
            break
        err = math.sqrt(s / n)
        steps += 1
        if err <= 1.0:
            # land exactly on t_final: t + (t_final - t) can round past it
            t = t_final if last else t + h
            z, k1 = z_new, k7  # the last stage was evaluated at z_new
            accepted += 1
            if record:
                times.append(t)
                states.append(z)
        h, err_prev = _control(h, err, err_prev)
    stats = None
    if error is None and rest <= 0.0:
        stats = StepStats(accepted=accepted, rejected=steps - accepted, rhs_evals=2 + 6 * steps)
    elif error is None:
        error = _limit_error(steps, h, t, row)
    trajectory = (np.array(times), np.array(states).reshape(-1, n)) if record else None
    return (z0 if error is not None else z), stats, error, trajectory


def integrate_state(problem: OdeProblem, p, config: IntegrationConfig = IntegrationConfig()):
    """Integrate the state system alone; returns (times, states, stats)."""
    p = np.asarray(p, dtype=float)
    if p.size != 2:
        raise InputError("the parameter space is two-dimensional")
    x0 = _batch(problem.init.value, [p.tolist()], problem.n_state, "the initial map")
    _, stats, errors, trajectories = _dopri5_rows(problem.rhs.value, x0, problem.t_final, config, record=True)
    if errors[0] is not None:
        raise errors[0]
    times, states = trajectories[0]
    return times, states, stats[0]


def _coupled_rows(problem: OdeProblem, p: np.ndarray, directions: list, config: IntegrationConfig) -> list:
    """One integration of the coupled state/tangent system, one row per direction.

    Returns per direction, in order, its :class:`SensitivityTrajectory` or
    the :class:`IntegrationError` naming that direction.
    """
    n = problem.n_state
    Z0 = _batch(problem.init.tangent, [p.tolist() + d.tolist() for d in directions], 2 * n,
                "the initial map's tangent")
    _, stats, errors, trajectories = _dopri5_rows(problem.rhs.tangent, Z0, problem.t_final, config, record=True)
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
    shape (N, 2), which returns shape (N,) from one integration of all rows
    (:func:`_dopri5_rows`); row i equals ``ode_cost_value(problem,
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
    x0 = _batch(problem.init.value, P.tolist(), problem.n_state, "the initial map")
    final, _, errors, _ = _dopri5_rows(problem.rhs.value, x0, problem.t_final, config)
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

    The four probes are four rows of one integration.  psi(d) then
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
    one integration.
    """
    return _subgradient_and_trajectories(problem, p, config)[0]


# ---------------------------------------------------------------------------
# JSON problem format

def _vector_oracle_from_exprs(exprs: list[ex.NonsmoothExpr], dim_in: int) -> VectorOracle:
    value, tangent = ex.compile_rows(exprs, dim_in)
    return VectorOracle(value=value, tangent=tangent, dim_in=dim_in, dim_out=len(exprs))


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
    n = require_integer("n_state", data["n_state"])
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
