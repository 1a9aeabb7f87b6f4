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
control, written here to keep runs dependency-free and deterministic, as one
step loop on Python floats (:func:`_dopri5_floats`) that integrates one
system and records its accepted steps.  It holds the step control, the
landing on kink crossings and the failures; the arithmetic of one trial
step (the six stage sums, the new state, the error estimate and its norm)
is a function generated from one source (:func:`_trial_source`) in two
forms; the new state is the seventh stage's sum, whose row the weights
are.  Every run takes the straight-line form of its state's width,
compiled once per width and process (:func:`_trial_of_width`); on example46
that is width 3 for :func:`integrate_state` and the rows of
:func:`ode_cost_value`, and 6 for :func:`integrate_coupled`, so for each
compass probe of :func:`ode_subgradient`.  The form of any width,
:data:`_trial`, serves only states past MAX_TRIAL_WIDTH = 64 components:
coupled runs with n_state > 32.  Both give the same bits, and so the same steps.
The rhs is a point map on lists of floats (:class:`VectorOracle`); for a
problem file it is one generated function that evaluates every component
as flat statements (:func:`compassdiff.expr.compile_rows`).  The loop is
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
straddles later ones.

The default tolerances (1e-8 absolute and relative) are deliberately tight
so compass differences inherit roughly six accurate digits; they are the
only settings, and the step limits are the constants MAX_STEPS and MIN_STEP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from . import expr as ex
from . import jsonio
from .compass import probe
from .oracle import (CompassResult, DirectionalOracle, InputError, NumericalError, VectorOracle, require_fields,
                     require_integer, require_numbers, require_positive, require_text, shown)


class IntegrationError(NumericalError):
    """Adaptive integration failed; carries the failure time and, from
    :func:`integrate_coupled`, the parameter direction, or from
    :func:`ode_cost_value`, the index of the failing point.

    ``ode_cost_value`` integrates its rows one after another and raises the
    first failing row's error, the one that row raises alone.
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
        return jsonio.csv(header, np.column_stack((self.times, self.states, self.sensitivities)))


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
_WEIGHTS = (*_STAGES[6], 0.0)  # b5 is the seventh stage's row: first same as last
_ERROR_WEIGHTS = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# the weights of the fourth-order continuous extension (Hairer, Norsett and Wanner, Solving ODEs I, II.6)
_DENSE = (-12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072,
          701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER = 5.0
# the step control's exponents: -0.7/p and 0.4/p on err and err_prev, -1/p after a rejection
_ERROR_EXPONENT, _HISTORY_EXPONENT, _REJECT_EXPONENT = -0.7 / _ORDER, 0.4 / _ORDER, -1.0 / _ORDER

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


def _rms_floats(v: list, scale: list) -> float:
    """Root mean square of ``v / scale``, the squares summed left to right from +0.0."""
    s = 0.0
    for a, b in zip(v, scale):
        q = a / b
        s += q * q
    return math.sqrt(s / len(v))


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
    numpy's array ``**`` rounds differently in the last bit.  Each conditional
    expression gives the bits of the builtin it replaces: max(a, b) is
    ``b if b > a else a``, min(a, b) is ``b if b < a else a``.
    """
    if err <= 1.0:
        err = 1e-16 if err < 1e-16 else err
        factor = _SAFETY * err ** _ERROR_EXPONENT * (1e-16 if err_prev < 1e-16 else err_prev) ** _HISTORY_EXPONENT
        factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
        return h * (factor if factor < _MAX_FACTOR else _MAX_FACTOR), err
    factor = _SAFETY * err ** _REJECT_EXPONENT
    return h * (factor if factor > 0.1 else 0.1), err_prev


def _wrong_width(what: str, out, width: int) -> InputError:
    return InputError(f"{what} returned {len(out)} components for a point, expected {width}")


def _finite(values: list) -> list:
    """``values``, the floats of parameter points and directions; one that is NaN or infinite is an :class:`InputError`."""
    if not all(map(math.isfinite, values)):
        raise InputError(f"parameter points and directions must be finite, got {shown(values)}")
    return values


def _point(point_map, x: list, width: int, what: str) -> list:
    """``point_map`` at one point ``x``, a list of floats.

    An output of another width than ``width`` is an :class:`InputError`,
    which a ``zip`` would otherwise truncate in silence.
    """
    out = point_map(x)
    if len(out) != width:
        raise _wrong_width(what, out, width)
    return out


def _trial_source(n: Optional[int]) -> str:
    """The source of ``trial``, one trial step, for states of ``n`` components, or of any width when n is None.

    ``trial(fun, z, k1, h, atol, rtol) -> (z_new, err, ks)`` steps from the
    state ``z`` with ``k1`` = fun(z), lists of floats.  ``z_new`` is the
    fifth-order state after ``h``, ``err`` the error estimate's root mean
    square over ``atol + rtol * max(|z|, |z_new|)``, or NaN when a component
    of z_new or of the error estimate is not finite, and ``ks`` the seven
    stages, the last one at z_new.  Every stage sum starts from +0.0 and runs
    left to right, with each coefficient a literal and the 0.0 weights kept
    (0.0 * inf is NaN).  b5 is the seventh stage's row and a last 0.0, so
    the new state is ``z + h * (s7 + 0.0 * k7)`` from that stage's sums
    ``s7``: the operations of b5's sum, done once.  ``|x|`` in the norm is
    ``x if x >= 0.0 else -x``, -0.0 for -0.0, which ``atol + rtol * |x|``
    with atol > 0 cannot show; the squares are summed left to right.  Both
    forms do these operations in the same order, so they give the same
    bits.  The form of any width runs one comprehension per stage and one
    loop over the components; the form of n components unpacks the state
    and each stage into locals and computes every component as its own
    statement.  An rhs output of another width than the state's is an
    :class:`InputError`.
    """
    def terms(coeffs: tuple, stage) -> str:  # stage(j) names the component of stage j
        return "0.0" + "".join(f" + {c!r} * {stage(j)}" for j, c in enumerate(coeffs, start=1))

    def component(x: str, s7: str, y: str, e: str, stage) -> list[str]:
        """The new state's component ``y`` of ``x``, the error estimate's ``e``, and their shares of the norm."""
        return [f"{y} = {x} + h * ({s7} + {_WEIGHTS[6]!r} * {stage(7)})",
                f"{e} = h * ({terms(_ERROR_WEIGHTS, stage)})",
                f"nonfinite += {y} * 0.0 + {e} * 0.0",  # zero for finite components, NaN otherwise
                f"old, new = ({x} if {x} >= 0.0 else -{x}), ({y} if {y} >= 0.0 else -{y})",
                f"{e} /= atol + rtol * (old if old >= new else new)", f"q += {e} * {e}"]

    lines = ["def trial(fun, z, k1, h, atol, rtol):"]
    if n is None:
        lines.append("n = len(z)")
        for s, row in enumerate(_STAGES[1:], start=2):
            ps, ks = (", ".join(f"{c}{j}" for j in range(1, s)) for c in "pk")
            if s < 7:
                point = f"a + h * ({terms(row, 'p{}'.format)}) for a, {ps} in zip(z, {ks})"
            else:
                lines.append(f"s7 = [{terms(row, 'p{}'.format)} for {ps} in zip({ks})]")
                point = "a + h * s for a, s in zip(z, s7)"
            lines += [f"if len(k{s} := fun([{point}])) != n:", f"    raise wrong(k{s}, n)"]
        lines += ["z_new = []", "q = nonfinite = 0.0",
                  "for a, s, p1, p2, p3, p4, p5, p6, p7 in zip(z, s7, k1, k2, k3, k4, k5, k6, k7):",
                  *(f"    {line}" for line in component("a", "s", "b", "e", "p{}".format)), "    z_new.append(b)"]
        z_new = "z_new"
    else:
        def names(prefix: str) -> str:
            return "".join(f"{prefix}{i}, " for i in range(n))

        lines += [f"{names('x')}= z", f"{names('k1_')}= k1"]
        for s, row in enumerate(_STAGES[1:], start=2):
            if s < 7:
                point = ", ".join(f"x{i} + h * ({terms(row, lambda j: f'k{j}_{i}')})" for i in range(n))
            else:
                lines += [f"s7_{i} = {terms(row, lambda j: f'k{j}_{i}')}" for i in range(n)]
                point = ", ".join(f"x{i} + h * s7_{i}" for i in range(n))
            lines += [f"k{s} = fun([{point}])", "try:", f"    {names(f'k{s}_')}= k{s}", "except ValueError:",
                      f"    raise wrong(k{s}, {n}) from None"]
        lines.append("q = nonfinite = 0.0")
        for i in range(n):
            lines += component(f"x{i}", f"s7_{i}", f"y{i}", f"e{i}", lambda j: f"k{j}_{i}")
        z_new = f"[{names('y')}]"
    width = "n" if n is None else n
    lines.append(f"return {z_new}, sqrt(q / {width}) + nonfinite, (k1, k2, k3, k4, k5, k6, k7)")
    return "\n    ".join(lines)


@lru_cache(maxsize=None)  # None and each width up to MAX_TRIAL_WIDTH: about 4.7 MB if all are used
def _compile_trial(n: Optional[int]):
    namespace = {"sqrt": math.sqrt, "wrong": partial(_wrong_width, "the right-hand side")}
    width = "n" if n is None else n
    exec(compile(_trial_source(n), f"<compassdiff.odesens trial of width {width}>", "exec"), namespace)
    return namespace.pop("trial")


#: One trial step on states of any width (see :func:`_trial_source`).
_trial = _compile_trial(None)

#: Widest state that gets its own trial (:func:`_trial_of_width`); wider
#: states take :data:`_trial` (coupled runs with n_state > 32).  The
#: generated source grows by about 1.2 KB per component, and so do its
#: compile() time and memory.  Measured on CPython 3.11 on a loaded shared
#: 2-vCPU machine, as compile time (the range over five compiles) /
#: tracemalloc peak / time per trial against :data:`_trial`'s (the range
#: over two runs): width 3, 1.9-2.3 ms / 0.38 MB / 0.46-0.49; width 6,
#: 3.3-3.5 ms / 0.61 MB / 0.54-0.56; width 64, 39-40 ms / 5.8 MB /
#: 0.83-0.90; width 512, 347-355 ms / 46 MB / 0.97-1.10.  Past 64
#: components the trial gains little for its compile time and memory.
MAX_TRIAL_WIDTH = 64


def _trial_of_width(n: int):
    """The trial step of states of ``n`` components, compiled on the first call for ``n``.

    It gives the bits :data:`_trial` gives, and calls the right-hand side
    once per stage on a list of floats, as :data:`_trial` does.  Above
    MAX_TRIAL_WIDTH components it is :data:`_trial` itself.
    """
    return _trial if n > MAX_TRIAL_WIDTH else _compile_trial(n)


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
    Each trial step runs on the trial of n components (:func:`_trial_of_width`).
    This loop is the one definition of the step control, the landing on kink
    crossings and the failures.  A run costs 6 rhs evaluations per attempted
    step, plus f(z0) and one more for the step-size guess.  It raises an
    :class:`IntegrationError` on a non-finite derivative at t = 0, a
    non-finite state or error-estimate component, MAX_STEPS attempted steps
    or a step below MIN_STEP; an error norm that overflows from finite
    components only rejects the step, and overflow is quiet.  An rhs output
    of another width than n is an :class:`InputError`.  Returns
    ``(times, states, stats)``: the accepted steps from t = 0, as two lists,
    and the :class:`StepStats`.
    """
    n = len(z0)
    trial, atol, rtol, max_steps, min_step = _trial_of_width(n), cfg.abs_tol, cfg.rel_tol, MAX_STEPS, MIN_STEP
    k1 = _point(fun, z0, n, "the right-hand side")
    if not all(map(math.isfinite, k1)):  # the step-size guess would divide by zero
        raise IntegrationError("non-finite state derivative at t = 0", time=0.0)
    scale = [atol + rtol * abs(a) for a in z0]
    d1 = _rms_floats(k1, scale)
    h0 = _first_guess(_rms_floats(z0, scale), d1, t_final)
    f1 = _point(fun, [a + h0 * b for a, b in zip(z0, k1)], n, "the right-hand side")
    h = _second_guess(h0, d1, _rms_floats([b - a for a, b in zip(k1, f1)], scale), t_final)
    z, t, err_prev, steps = z0, 0.0, 1.0, 0
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
        z_new, err, ks = trial(fun, z, k1, h, atol, rtol)
        if err != err:  # NaN: a component of z_new or of the error estimate is not finite
            raise _state_error(t)
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
                    before, past, track = _locate(switch, win, s, s_new, z, z_new, h, ks)
                    h, hop = _aim(before, past, rtol * resume[0])
                    continue
                elif err > 1.0:  # a stage passed the crossing, or the step was too long
                    h, hop = max(0.5 * h, min_step), False
                    continue
        if err <= 1.0:
            # land exactly on t_final: t + (t_final - t) can round past it
            t = t_final if last else t + h
            z, k1 = z_new, ks[6]  # the last stage was evaluated at z_new
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
    x0 = _point(problem.init.value, _finite(p.tolist()), n, "the initial map")
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
    z0 = _point(problem.init.tangent, _finite(p.tolist() + d.tolist()), 2 * n, "the initial map's tangent")
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
    shape (N, 2), which returns shape (N,).  The rows are integrated one
    after another, so row i equals ``ode_cost_value(problem, p[i])`` bit
    for bit, and takes the steps :func:`integrate_state` takes at p[i].
    The first failing row's error is raised, naming its point and index;
    the rows after it are not integrated.
    """
    try:
        p = np.asarray(p, dtype=float)
    except ValueError:
        p = None
    if p is None or p.ndim not in (1, 2) or p.shape[-1:] != (2,):
        raise InputError("parameter points must be numbers of shape (2,) or (N, 2)")
    P = p.reshape(-1, 2)
    n = problem.n_state
    x0 = [_point(problem.init.value, _finite(q), n, "the initial map") for q in P.tolist()]
    final = []
    for row, z0 in enumerate(x0):
        try:
            final.append(_dopri5_floats(problem.rhs.value, z0, problem.t_final, config, problem.rhs.switch)[1][-1])
        except IntegrationError as error:
            a, b = P[row].tolist()
            raise IntegrationError(f"{error} for p = ({a:.17g}, {b:.17g})", time=error.time, row=row) from None
    costs = [float(problem.cost.value(np.concatenate([q, x]))) for q, x in zip(P, final)]
    return np.array(costs) if p.ndim == 2 else costs[0]


def _cost_dirderiv(problem: OdeProblem, p: np.ndarray, traj: SensitivityTrajectory) -> float:
    point = np.concatenate([p, traj.states[-1]])
    tangent = np.concatenate([traj.direction, traj.sensitivities[-1]])
    return float(problem.cost.dir_deriv(point, tangent))


def ode_cost_dirderiv(problem: OdeProblem, p, d,
                      config: IntegrationConfig = IntegrationConfig()) -> float:
    """psi(d) = g'((p, x(T)); (d, y(T, d))) by one coupled integration.

    :func:`ode_subgradient` builds its own psi; this name stays because the
    traced benchmark (``bench/spans.py``) binds it as a span target.
    """
    p = np.asarray(p, dtype=float)
    return _cost_dirderiv(problem, p, integrate_coupled(problem, p, d, config))


def ode_probes(problem: OdeProblem, p, config: IntegrationConfig = IntegrationConfig()
               ) -> tuple[CompassResult, list[SensitivityTrajectory]]:
    """:func:`ode_subgradient` plus the coupled integrations behind its probes, in probe order.

    psi(d) integrates its own direction (:func:`integrate_coupled`) when
    the probe asks for it, so a failure stops the probes at the first
    direction that fails.
    """
    p = np.asarray(p, dtype=float)
    if p.size != 2:
        raise InputError("the parameter space is two-dimensional")
    _finite(p.tolist())
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
    return ode_probes(problem, p, config)[0]


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
    data = require_fields("ODE problem JSON", jsonio.load(source),
                          ("n_state", "rhs_expr", "init_expr", "cost_expr", "t_final"))
    n = require_integer("n_state", data["n_state"])
    rhs_exprs = [ex.parse_expr(s) for s in require_text("rhs_expr", data["rhs_expr"], many=True)]
    init_exprs = [ex.parse_expr(s) for s in require_text("init_expr", data["init_expr"], many=True)]
    if len(rhs_exprs) != n or len(init_exprs) != n:
        raise InputError(f"need exactly n_state = {shown(n)} rhs and init expressions")
    cost_expr = ex.parse_expr(require_text("cost_expr", data["cost_expr"]))
    t_final = require_numbers("t_final", data["t_final"])
    if t_final.ndim:
        raise InputError(f"t_final must be a number, got {type(data['t_final']).__name__}")
    return OdeProblem(
        rhs=_vector_oracle_from_exprs(rhs_exprs, n),
        init=_vector_oracle_from_exprs(init_exprs, 2),
        cost=ex.as_oracle(cost_expr, 2 + n),
        t_final=float(t_final),
    )
