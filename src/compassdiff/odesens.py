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
control, written here to keep runs dependency-free and deterministic, in two
loops with the same arithmetic.  :func:`_dopri5_floats` integrates one
system on Python floats and records its accepted steps; it runs
:func:`integrate_state`, :func:`integrate_coupled` and each compass probe of
:func:`ode_subgradient`, which integrates its own direction when psi is
asked for it.  :func:`ode_cost_value` runs a batch of at most
:data:`SCALAR_ROWS` points on it one after another, and a larger batch,
such as the ``ode --surface`` grid, in numpy lockstep
(:func:`_dopri5_lockstep`).  Either way a row takes the steps it would take
alone, bit for bit.  The rhs is a point map on lists of floats
(:class:`VectorOracle`); for a problem file it is one generated function
that evaluates every component as flat statements
(:func:`compassdiff.expr.compile_rows`).  The loops are
first-same-as-last: the seventh stage of an accepted step is evaluated at
the new state and becomes the next step's first, so a row costs
2 + 6 * (accepted + rejected) right-hand-side evaluations.

Kink crossings.  Where a kink branch of f changes along the solution (x1
changes sign under |x1|), the tangent right-hand side f'(x; y) jumps, and a
step that straddles the crossing loses its order: the step control rejects
dozens of trials around it, and the result keeps an error far above the
tolerance (example46: subgradient errors of about 7e-6 where x1 changes
sign, 4e-9 elsewhere).  So the steps land on crossings.  A problem file's
right-hand side has a switching map (:data:`compassdiff.expr.SwitchMap`):
functions of x, such as the argument of each ``abs``, that change sign
exactly where a branch changes.  When a trial changes the sign of one
strictly, the trial is discarded (it counts as rejected) and the crossing
is located on the trial's continuous extension.  Steps then approach it,
each ending short of it by 1% of the distance left (the last step's secant
gives the distance), until it is within ``rel_tol`` times the step size
from before the crossing; one step that short crosses it, and the step
size and error history from before the crossing come back.  Landing just
past the crossing from farther off would not do: the last stages of such a
step sample the new branch, an error the embedded estimate reads about
eight times too small.  Measured on example46 at 240 seeded points (see
``tools/kink_report.py``), the subgradients where x1 changes sign are as
accurate as elsewhere, median error 4e-9, at a median of 100 attempted
steps per subgradient against 74 elsewhere (256 and 7e-6 when straddling).
A row whose trials change no switching value's sign takes exactly the
steps, and gives exactly the bits, it would take without a switching map,
as does every row of a hand-written :class:`VectorOracle`, which has none.
Zeros and NaN never count as a sign, so a value that stays at zero or only
touches it never fires.  A row locates at most MAX_EVENTS crossings, and
straddles later ones.  In lockstep, a row whose trial crosses leaves the
batch and the float loop takes it over, retaking that trial
(:func:`_steps`), so it ends as it would alone, bit for bit.

The default tolerances (1e-8 absolute and relative) are deliberately tight
so compass differences inherit roughly six accurate digits; they are the
only settings, and the step limits are the constants MAX_STEPS and MIN_STEP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import expr as ex
from . import jsonio
from .compass import probe
from .oracle import (CompassResult, DirectionalOracle, InputError, VectorOracle, require_integer, require_numbers,
                     require_positive)


class IntegrationError(RuntimeError):
    """Adaptive integration failed; carries the failure time and, from
    :func:`integrate_coupled`, the parameter direction, or from
    :func:`ode_cost_value`, the index of the failing point.

    A failure does not depend on the batch: a failing row leaves the
    lockstep batch while the others run on, and ``ode_cost_value`` raises
    the lowest failing row's error.
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
    """Attempted steps of one integration, the rhs evaluations they cost, and
    ``events``, the steps that landed just past a kink crossing."""

    accepted: int
    rejected: int
    rhs_evals: int
    events: int = 0


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
# the weights of the fourth-order continuous extension (Hairer, Norsett and Wanner, Solving ODEs I, II.6)
_DENSE = (-12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072,
          701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423)
# the same as column vectors for the lockstep loop, so that ``k[:s] * row`` scales stage j by its coefficient
_A = tuple(np.array(row).reshape(-1, 1) for row in _STAGES)
_B5 = np.array(_WEIGHTS).reshape(-1, 1)
_E = np.array(_ERROR_WEIGHTS).reshape(-1, 1)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER = 5.0

#: Most kink crossings one row locates; past them its steps straddle kinks.
MAX_EVENTS = 64
# landing on a crossing (see the module docstring): the width of the bracket
# on the continuous extension as a share of its far end and the most
# iterations that narrow it, the share of the distance left that an
# approach step leaves, and the most trials spent on one crossing
_BRACKET = 1e-3
_ITERATIONS = 60
_MARGIN = 1e-2
_TRIES = 16

#: Most points :func:`ode_cost_value` integrates one after another on Python
#: floats; a larger batch runs in numpy lockstep.  The measured crossover on
#: example46's state rows (surface grids over seeded ranges, landing on
#: crossings in both loops): the float loop takes 0.73 of the lockstep
#: loop's time on 10 rows, 1.02 on 17 and 1.17 on 26, so the loops break even
#: at about 17 to 20 rows.
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


def _point(point_map, x: list, width: int, what: str) -> list:
    """``point_map`` at one point ``x``, a list of floats.

    An output of another width than ``width`` is an :class:`InputError`,
    which the loops' zip would otherwise truncate in silence.
    """
    out = point_map(x)
    if len(out) != width:
        raise InputError(f"{what} returned {len(out)} components for a point, expected {width}")
    return out


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


def _dopri5_lockstep(fun, Z0: np.ndarray, t_final: float, cfg: IntegrationConfig, switch=None):
    """:func:`_dopri5_floats` on every row of ``Z0``, in numpy lockstep.

    The stage arithmetic is elementwise on all rows still running, the step
    control scalar per row, each row with its own t, h, error history and
    accept/reject decision; a row leaves the batch when it reaches t_final
    or fails.  Every operation is the float loop's on that row, in the same
    order: the stage sums from +0.0, left to right, with the 0.0 weights of
    b5 and of the error estimate kept (0.0 * inf is NaN); the error norm's
    squares summed left to right; the guesses and the step control by the
    same functions.  So a row ends or fails as it would alone, bit for bit.
    A row whose trial changes the sign of a switching value (``switch``, see
    :func:`_dopri5_floats`) leaves the batch before that trial counts, with
    its own t, state, step size, error history and steps: the float loop
    (:func:`_steps`) takes it from there, so it lands on the crossing as it
    would alone.

    Returns ``(final, errors)``: the final states, shape (N, n), a failing
    row's left at its initial state; and per row its
    :class:`IntegrationError`, or None.
    """
    final = np.array(Z0, dtype=float)
    N, n = final.shape

    def rhs(Z):
        return _batch(fun, Z.tolist(), n, "the right-hand side")

    errors: list = [None] * N
    with np.errstate(over="ignore", invalid="ignore"):
        f0 = rhs(final)
        good = np.isfinite(f0).all(axis=1)
        for i in np.flatnonzero(~good).tolist():  # the step-size guess would divide by zero
            errors[i] = IntegrationError("non-finite state derivative at t = 0", time=0.0)
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
        k = np.empty((7, rows.size, n))
        k[0] = f0
        bad = False  # rows whose last step went non-finite
        terms = np.zeros((8, rows.size * n))
        # per running row: its switching values, its winners (None for a
        # vector without extrema), and whether its last trial crossed one
        if switch is not None:
            columns = getattr(switch, "columns", None)
            marks = [switch(x, None, None) for x in z.tolist()]
            S = np.array([values for values, _, _ in marks]).reshape(rows.size, -1)
            wins = [win for _, win, _ in marks] if marks and marks[0][1] else None
        alone = np.zeros(rows.size, dtype=bool)
        while rows.size:
            rest = t_final - t
            last = h >= rest
            h = np.where(last, rest, h)
            # a finished row (t >= t_final) has h = 0 here
            stop = bad | alone | (h < MIN_STEP) | (steps >= MAX_STEPS)
            if stop.any():  # rows leave the batch, finished, failed or to go alone
                for i in np.flatnonzero(stop).tolist():
                    row = int(rows[i])
                    if alone[i]:  # the float loop takes the row over, and retakes its last trial
                        try:
                            final[row] = _steps(fun, switch, z[i].tolist(), k[0, i].tolist(), float(t[i]), float(h[i]),
                                                float(err_prev[i]), steps - 1, t_final, cfg)[1][-1]
                        except IntegrationError as error:
                            errors[row] = error
                    elif rest[i] <= 0.0:
                        final[row] = z[i]
                    elif errors[row] is None:
                        errors[row] = _limit_error(steps, float(h[i]), float(t[i]))
                keep = ~stop
                rows, z, t, h, last, err_prev, alone = (x[keep] for x in (rows, z, t, h, last, err_prev, alone))
                if switch is not None:
                    S = S[keep]
                    if wins is not None:
                        wins = [win for win, kept in zip(wins, keep.tolist()) if kept]
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
                    errors[rows[i]] = _state_error(float(t[i]))
                ok &= ~bad
            if switch is not None:  # every trial, as the float loop checks it
                if columns is not None:
                    S_new = z_new[:, columns]
                else:
                    points = z_new.tolist()
                    S_new = np.array([switch(x, win, None)[0] for x, win in zip(points, wins or [()] * m)]).reshape(S.shape)
                alone = (((S < 0.0) & (S_new > 0.0)) | ((S > 0.0) & (S_new < 0.0))).any(axis=1) & np.logical_not(bad)
                ok &= ~alone
                if wins is None:
                    S = np.where(ok.reshape(-1, 1), S_new, S)
                else:
                    for i in np.flatnonzero(ok).tolist():
                        values, wins[i], _ = switch(points[i], None, None)
                        S[i] = values
            # land exactly on t_final: t + (t_final - t) can round past it
            t = np.where(ok, np.where(last, t_final, t + h), t)
            steps += 1
            accept = ok.reshape(-1, 1)
            z = np.where(accept, z_new, z)
            np.copyto(k[0], k[6], where=accept)  # the last stage was evaluated at z_new (its row of _A is _B5)
            trial = h, err_prev
            h, err_prev = np.array(list(map(_control, h.tolist(), err.tolist(), err_prev.tolist()))).T
            if alone.any():  # those rows leave with the trial they retake
                h, err_prev = np.where(alone, trial[0], h), np.where(alone, trial[1], err_prev)
    return final, errors


def _limit_error(steps: int, h: float, t: float) -> IntegrationError:
    """The error of a row stopped by MAX_STEPS or MIN_STEP."""
    message = f"step limit {MAX_STEPS} exceeded" if steps >= MAX_STEPS else f"step size underflow ({h:.3e})"
    return IntegrationError(f"{message} at t = {t:.6g}", time=t)


def _state_error(t: float) -> IntegrationError:
    return IntegrationError(f"non-finite state at t = {t:.6g}", time=t)


def _locate(switch, win, s: list, s_new: list, z: list, z_new: list, h: float, ks: tuple) -> tuple[float, float, int]:
    """The earliest crossing in the step ``h`` from ``z`` to ``z_new``: ``(before, past, i)``.

    Every switching value that changes sign over the step is followed on the
    step's continuous extension, from the stages ``ks``, by the Illinois
    variant of regula falsi, down to a bracket of ``_BRACKET`` of its far
    end; ``before`` and ``past`` are the ends of the earliest bracket, as
    times from the start of the step, and ``i`` is its value's index.
    """
    k1, k2, k3, k4, k5, k6, k7 = ks
    d1, d3, d4, d5, d6, d7 = _DENSE
    rows = []
    for a, b, p1, p3, p4, p5, p6, p7 in zip(z, z_new, k1, k3, k4, k5, k6, k7):
        diff = b - a
        spline = h * p1 - diff
        rows.append((a, diff, spline, diff - h * p7 - spline,
                     h * (d1 * p1 + d3 * p3 + d4 * p4 + d5 * p5 + d6 * p6 + d7 * p7)))

    def at(theta):
        rest = 1.0 - theta
        return switch([a + theta * (b + rest * (c + theta * (d + rest * e))) for a, b, c, d, e in rows], win, None)[0]

    found = (0.0, 1.0, 0)
    for i, (a, b) in enumerate(zip(s, s_new)):
        if not (a < 0.0 < b or b < 0.0 < a):
            continue
        sign = 1.0 if a > 0.0 else -1.0
        lo, hi, glo, ghi = 0.0, found[1], a, b
        if hi < 1.0:
            ghi = at(hi)[i]
            if not sign * ghi < 0.0:  # it crosses after the earliest crossing found so far
                continue
        side = 0
        for _ in range(_ITERATIONS):
            if hi - lo <= _BRACKET * hi:
                break
            gap = ghi - glo  # zero once halving underflows
            theta = (lo * ghi - hi * glo) / gap if gap else lo
            if not lo < theta < hi:
                theta = 0.5 * (lo + hi)
            g = at(theta)[i]
            if sign * g > 0.0:  # before the crossing; a zero counts as past
                lo, glo = theta, g
                if side == -1:
                    ghi *= 0.5
                side = -1
            else:
                hi, ghi = theta, g
                if side == 1:
                    glo *= 0.5
                side = 1
        found = (lo, hi, i)
    lo, hi, i = found
    return lo * h, hi * h, i


def _aim(before: float, past: float, close: float) -> tuple[float, bool]:
    """The next trial on a crossing ``before`` to ``past`` ahead, and whether it is meant to cross.

    A crossing within ``close`` (or nearer than an approach step of at
    least MIN_STEP can go) is crossed, by a step just past it; one farther
    off is approached, by a step that leaves ``_MARGIN`` of the distance.
    """
    step = before * (1.0 - _MARGIN)
    if past <= close or step < MIN_STEP:
        return max(past, MIN_STEP), True
    return step, False


def _dopri5_floats(fun, z0: list, t_final: float, cfg: IntegrationConfig, switch=None):
    """Integrate dz/dt = fun(z) from 0 to t_final from ``z0``, a list of n floats.

    ``fun`` is a point map: a state, a list of n floats, to its derivative;
    ``switch``, if given, its switching map (:data:`compassdiff.expr.SwitchMap`).
    A run costs 6 rhs evaluations per attempted step, plus f(z0) and one
    more for the step-size guess.  It raises an :class:`IntegrationError` on
    a non-finite derivative at t = 0, a non-finite state or error-estimate
    component, MAX_STEPS attempted steps or a step below MIN_STEP; an error
    norm that overflows from finite components only rejects the step, and
    overflow is quiet.  An rhs output of another width than n is an
    :class:`InputError`.  Returns ``(times, states, stats)``: the accepted
    steps from t = 0, as two lists, and the :class:`StepStats`.
    """
    n = len(z0)
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    k1 = _point(fun, z0, n, "the right-hand side")
    if not all(map(math.isfinite, k1)):  # the step-size guess would divide by zero
        raise IntegrationError("non-finite state derivative at t = 0", time=0.0)
    scale = [atol + rtol * abs(a) for a in z0]
    d1 = _rms_floats(k1, scale)
    h0 = _first_guess(_rms_floats(z0, scale), d1, t_final)
    df = _rms_floats([b - a for a, b in zip(k1, fun([a + h0 * b for a, b in zip(z0, k1)]))], scale)
    return _steps(fun, switch, z0, k1, 0.0, _second_guess(h0, d1, df, t_final), 1.0, 0, t_final, cfg)


def _steps(fun, switch, z: list, k1: list, t: float, h: float, err_prev: float, steps: int, t_final: float,
           cfg: IntegrationConfig):
    """The step loop of :func:`_dopri5_floats`, from state ``z`` at ``t`` with ``k1`` = fun(z).

    ``h``, ``err_prev`` and ``steps`` are the next step size, the error
    history and the steps attempted so far; the lockstep loop hands a row
    over with its own.  Returns ``(times, states, stats)`` from ``t`` on,
    the stats counting the accepted steps from ``t`` and the attempted ones
    from ``steps``.
    """
    n = len(z)
    atol, rtol, max_steps, min_step = cfg.abs_tol, cfg.rel_tol, MAX_STEPS, MIN_STEP
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65), \
        (a71, a72, a73, a74, a75, a76) = _STAGES[1:]
    b1, b2, b3, b4, b5, b6, b7 = _WEIGHTS
    e1, e2, e3, e4, e5, e6, e7 = _ERROR_WEIGHTS
    times, states = [t], [z]
    if switch is not None:
        s, win, _ = switch(z, None, None)
    located = events = 0
    # while landing on a crossing: the step size and error history to go on
    # with after it, the switching value tracked, whether the trial is meant
    # to cross it, and the trials taken
    resume, track, hop, tries = None, 0, False, 0
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
        q = nonfinite = 0.0
        for a, p1, p2, p3, p4, p5, p6, p7 in zip(z, k1, k2, k3, k4, k5, k6, k7):
            b = a + h * (0.0 + b1 * p1 + b2 * p2 + b3 * p3 + b4 * p4 + b5 * p5 + b6 * p6 + b7 * p7)
            e = h * (0.0 + e1 * p1 + e2 * p2 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6 + e7 * p7)
            z_new.append(b)
            nonfinite += b * 0.0 + e * 0.0
            # _error_norm: the scale from the larger magnitude of the old and new state
            old, new = abs(a), abs(b)
            e /= atol + rtol * (old if old >= new else new)
            q += e * e
        if nonfinite != 0.0:
            raise _state_error(t)
        err = math.sqrt(q / n)
        steps += 1
        landed = False
        if switch is not None:
            s_new, _, crossed = switch(z_new, win, s)
            if crossed and resume is None and located < MAX_EVENTS:
                located += 1
                resume, hop, tries = (h, err_prev), False, 0
            if resume is not None:
                tries += 1
                landed = crossed and hop and err <= 1.0
                if landed:
                    events += 1
                elif tries > _TRIES:  # the trial goes on as any other, and straddles the crossing
                    resume = None
                elif crossed:  # retake it short of the crossing, or just past it if that is close
                    before, past, track = _locate(switch, win, s, s_new, z, z_new, h, (k1, k2, k3, k4, k5, k6, k7))
                    h, hop = _aim(before, past, rtol * resume[0])
                    continue
                elif err > 1.0:  # a stage passed the crossing, or the step was too long
                    h, hop = max(0.5 * h, min_step), False
                    continue
        if err <= 1.0:
            # land exactly on t_final: t + (t_final - t) can round past it
            t = t_final if last else t + h
            z, k1 = z_new, k7  # the last stage was evaluated at z_new
            times.append(t)
            states.append(z)
            if switch is not None:
                start = s[track]
                s, win = switch(z, None, None)[:2] if win else (s_new, win)
                if resume is not None:
                    end = s[track]
                    if landed or not (start and 0.0 < end / start < 1.0):  # landed, or it nears the crossing no more
                        h, err_prev = resume
                        resume = None
                    else:  # short of it: the secant over this step gives the distance left
                        before = h * end / (start - end)
                        h, hop = _aim(before, 2.0 * before, rtol * resume[0])
                    continue
        h, err_prev = _control(h, err, err_prev)
    if rest > 0.0:
        raise _limit_error(steps, h, t)
    accepted = len(times) - 1
    return times, states, StepStats(accepted=accepted, rejected=steps - accepted, rhs_evals=2 + 6 * steps,
                                    events=events)


def integrate_state(problem: OdeProblem, p, config: IntegrationConfig = IntegrationConfig()):
    """Integrate the state system alone; returns (times, states, stats)."""
    p = np.asarray(p, dtype=float)
    if p.size != 2:
        raise InputError("the parameter space is two-dimensional")
    n = problem.n_state
    x0 = _point(problem.init.value, p.tolist(), n, "the initial map")
    times, states, stats = _dopri5_floats(problem.rhs.value, x0, problem.t_final, config, problem.rhs.switch)
    return np.array(times), np.array(states).reshape(-1, n), stats


def integrate_coupled(problem: OdeProblem, p, d,
                      config: IntegrationConfig = IntegrationConfig()) -> SensitivityTrajectory:
    """Integrate state and directional sensitivity together along direction ``d``.

    A failure raises an :class:`IntegrationError` naming ``d``.
    """
    p = np.asarray(p, dtype=float)
    d = np.asarray(d, dtype=float)
    if p.size != 2 or d.size != 2:
        raise InputError("the parameter space is two-dimensional")
    n = problem.n_state
    z0 = _point(problem.init.tangent, p.tolist() + d.tolist(), 2 * n, "the initial map's tangent")
    try:
        times, zs, stats = _dopri5_floats(problem.rhs.tangent, z0, problem.t_final, config, problem.rhs.switch)
    except IntegrationError as error:
        raise IntegrationError(str(error), time=error.time, direction=d) from None
    zs = np.array(zs).reshape(-1, 2 * n)
    return SensitivityTrajectory(times=np.array(times), states=zs[:, :n], sensitivities=zs[:, n:],
                                 direction=d.copy(), stats=stats)


def ode_cost_value(problem: OdeProblem, p, config: IntegrationConfig = IntegrationConfig()):
    """phi(p) = g(p, x(T, p)) by one state integration.

    ``p`` is one point of shape (2,), which returns a float, or a batch of
    shape (N, 2), which returns shape (N,).  A batch of at most
    :data:`SCALAR_ROWS` points is integrated one point after another
    (:func:`_dopri5_floats`), a larger one in one lockstep integration of
    all rows (:func:`_dopri5_lockstep`); row i equals
    ``ode_cost_value(problem, p[i])`` bit for bit either way.  The error of
    the lowest-index failing row is raised, naming its point.
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

    def failure(row: int, error: IntegrationError) -> IntegrationError:
        a, b = P[row].tolist()
        return IntegrationError(f"{error} for p = ({a:.17g}, {b:.17g})", time=error.time, row=row)

    x0 = _batch(problem.init.value, P.tolist(), problem.n_state, "the initial map")
    fun, t_final, switch = problem.rhs.value, problem.t_final, problem.rhs.switch
    if len(P) > SCALAR_ROWS:
        final, errors = _dopri5_lockstep(fun, x0, t_final, config, switch)
        row = next((i for i, error in enumerate(errors) if error is not None), None)
        if row is not None:
            raise failure(row, errors[row])
    else:
        final = []
        for row, z0 in enumerate(x0.tolist()):
            try:
                final.append(_dopri5_floats(fun, z0, t_final, config, switch)[1][-1])
            except IntegrationError as error:
                raise failure(row, error) from None
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

    psi(d) integrates its own direction (:func:`integrate_coupled`) when
    the probe asks for it, so a failure stops the probes at the first
    direction that fails.
    """
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
    value, tangent, switch = ex.compile_rows(exprs, dim_in)
    return VectorOracle(value=value, tangent=tangent, dim_in=dim_in, dim_out=len(exprs), switch=switch)


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
    t_final = require_numbers("t_final", data["t_final"])
    if t_final.ndim:
        raise InputError(f"t_final must be a number, got {data['t_final']!r}")
    return OdeProblem(
        rhs=_vector_oracle_from_exprs(rhs_exprs, n),
        init=_vector_oracle_from_exprs(init_exprs, 2),
        cost=ex.as_oracle(cost_expr, 2 + n),
        t_final=float(t_final),
    )
