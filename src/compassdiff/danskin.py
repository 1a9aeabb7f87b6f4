"""Subgradients of optimal-value functions phi(x) = min{f(x, y) : y in C}.

The directional derivative of phi at x-hat is psi(d) = min{<d, grad_x f(x-hat, y)>}
over the inner minimizer set Y, so the compass difference of psi is a
guaranteed subgradient of phi.  No uniqueness of the inner minimizer and no
second-order conditions are required; f only needs a continuous gradient in x.

The exact minimizer set is replaced numerically by an epsilon-active set.
When the inner problem has near-ties this makes psi sensitive to the
activation tolerance; :func:`danskin_report` reports psi under eps and
10 * eps so instability is visible.  Both share one grid or cloud pass and
one refinement per box grid candidate; one gradient call per active set
serves all four compass directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from . import expr as ex
from . import jsonio
from .compass import probe
from .oracle import (UNGUARANTEED, CompassResult, InputError, require_fields, require_integer, require_numbers,
                     require_positive, require_text, shown)


@dataclass(frozen=True)
class FinitePointCloud:
    """Compact feasible set given as an explicit finite list of points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0 or pts.ndim != 2 or not np.isfinite(pts).all():
            raise InputError("point cloud must be a nonempty list of points with finite coordinates")
        object.__setattr__(self, "points", pts)


#: Largest grid a :class:`Box` may enumerate, ``grid ** m`` points; the inner
#: solve evaluates the whole grid as one batch.
MAX_GRID_POINTS = 10**6

#: Largest ``Box.refine_steps``.  Refinement halves a step of at most 2^1024
#: once per round, which reaches 0.0 within 2100 halvings; every round after
#: that moves nothing and still costs 2m objective calls.
MAX_REFINE_STEPS = 2100


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, minimised over a grid with local refinement."""

    lower: np.ndarray
    upper: np.ndarray
    grid: int = 21
    refine_steps: int = 30

    def __post_init__(self):
        object.__setattr__(self, "grid", require_integer("grid", self.grid))
        object.__setattr__(self, "refine_steps", require_integer("refine_steps", self.refine_steps))
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.shape != upper.shape or not np.all(
                (-np.inf < lower) & (lower <= upper) & (upper < np.inf)):
            raise InputError(f"box bounds must be finite with lower <= upper, got {lower.tolist()} and {upper.tolist()}")
        with np.errstate(over="ignore"):
            width = upper - lower
        if not np.isfinite(width).all():  # the grid would hold NaN points
            raise InputError(f"box widths upper - lower must be finite, got {width.tolist()}")
        if self.grid < 2:
            raise InputError("grid resolution must be at least 2 per axis")
        if self.grid ** lower.size > MAX_GRID_POINTS:
            raise InputError(f"grid of {shown(self.grid)}^{lower.size} points exceeds the cap of {MAX_GRID_POINTS}")
        if not 0 <= self.refine_steps <= MAX_REFINE_STEPS:
            raise InputError(f"refine_steps must be between 0 and {MAX_REFINE_STEPS}, got {shown(self.refine_steps)}")


FeasibleSet = Union[FinitePointCloud, Box]


@dataclass(frozen=True)
class OptimalValueProblem:
    """Inner objective, its x-gradient, and the compact feasible set.

    Both callables take the outer point ``x`` of shape (2,) and a batch of
    inner points ``ys`` of shape (N, m): ``objective(x, ys)`` returns the N
    values f(x, y) and ``grad_x(x, ys)`` the N gradients grad_x f(x, y) as an
    (N, 2) array, one row per inner point.  The solver makes one call per
    point cloud, grid or active set (one ``grad_x`` call serves all four
    compass directions), and one-row calls while it refines a box minimizer.
    ``objective`` must be continuously differentiable in x with the supplied
    ``grad_x``; the gradient is user-supplied rather than approximated so the
    reported subgradient carries no hidden differencing error.
    """

    objective: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    feasible: FeasibleSet

    def __post_init__(self):
        if self.m < 1:
            raise InputError("inner dimension must be positive")

    @property
    def m(self) -> int:  # the inner dimension
        feas = self.feasible
        return feas.points.shape[1] if isinstance(feas, FinitePointCloud) else feas.lower.size


@dataclass(frozen=True)
class ActiveSet:
    """Inner minimizers within ``epsilon`` of the optimal value."""

    minimizers: np.ndarray
    optimal_value: float
    epsilon: float

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.minimizers, dtype=float))
        if pts.size == 0:
            raise ValueError("active set must not be empty")
        object.__setattr__(self, "minimizers", pts)


def _default_eps(optimal_value: float) -> float:
    # relative tolerance keeps the active set stable under float noise
    return 1e-8 * (1.0 + abs(optimal_value))


def _rows(what: str, values, ys: np.ndarray, width: Optional[int] = None) -> np.ndarray:
    """``values`` as a float array of one row per inner point, all finite."""
    values = np.asarray(values, dtype=float)
    shape = (ys.shape[0],) if width is None else (ys.shape[0], width)
    if values.shape != shape:
        raise ValueError(f"expected {what}s of shape {shape} for {ys.shape[0]} inner points, got shape {values.shape}")
    finite = np.isfinite(values) if width is None else np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite {what} at feasible point {ys[np.argmin(finite)].tolist()}")
    return values


def _active(ys: np.ndarray, vals: np.ndarray, eps_active: Optional[float]) -> tuple[ActiveSet, np.ndarray]:
    """The points of ``ys`` within the activation tolerance of their least value, and their indices."""
    opt = float(np.min(vals))
    eps = eps_active if eps_active is not None else _default_eps(opt)
    within = np.flatnonzero(vals <= opt + eps)
    return ActiveSet(minimizers=ys[within], optimal_value=opt, epsilon=eps), within


def _refine_in_box(problem: OptimalValueProblem, x_hat: np.ndarray, y: np.ndarray, box: Box) -> np.ndarray:
    # one-row batches: each move depends on the one before it; the first step is the grid spacing
    y = y[np.newaxis, :].copy()
    best = float(problem.objective(x_hat, y)[0])
    step = (box.upper - box.lower) / (box.grid - 1)
    for _ in range(box.refine_steps):
        for j in range(y.shape[1]):
            for sign in (1.0, -1.0):
                cand = y.copy()
                cand[0, j] = min(max(cand[0, j] + sign * step[j], box.lower[j]), box.upper[j])
                v = float(problem.objective(x_hat, cand)[0])
                if v < best:
                    best = v
                    y = cand
        step *= 0.5
    return y[0]


def _dedup(points: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    kept: list[np.ndarray] = []
    for p in points:
        if all(np.max(np.abs(p - q)) > tol for q in kept):
            kept.append(p)
    return np.array(kept)


def _active_sets(problem: OptimalValueProblem, x_hat,
                 eps_active: Optional[float]) -> tuple[ActiveSet, Callable[[float], ActiveSet]]:
    """The active set under ``eps_active``, and the function that gives it under any tolerance."""
    x_hat = np.asarray(x_hat, dtype=float)
    if x_hat.size != 2:
        raise InputError("the outer parameter space is two-dimensional")
    if eps_active is not None:
        require_positive("eps_active", eps_active)
    feas = problem.feasible
    if isinstance(feas, FinitePointCloud):
        ys = feas.points
    else:
        axes = [np.linspace(feas.lower[j], feas.upper[j], feas.grid) for j in range(problem.m)]
        ys = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, problem.m)
    vals = _rows("objective value", problem.objective(x_hat, ys), ys)  # one pass for every tolerance
    refined: dict[int, np.ndarray] = {}  # coordinate descent is deterministic: once per grid candidate

    def active(eps: Optional[float]) -> ActiveSet:
        grid_active, within = _active(ys, vals, eps)
        if isinstance(feas, FinitePointCloud):
            return grid_active
        refined.update({i: _refine_in_box(problem, x_hat, ys[i], feas) for i in within if i not in refined})
        points = _dedup(np.array([refined[i] for i in within]))
        return _active(points, _rows("objective value", problem.objective(x_hat, points), points), eps)[0]

    return active(eps_active), active


def solve_inner(problem: OptimalValueProblem, x_hat, eps_active: Optional[float] = None) -> ActiveSet:
    """Minimise the inner objective over the feasible set at ``x_hat``.

    Point clouds are enumerated exactly.  Boxes are evaluated on the grid;
    grid points within the activation tolerance of the grid minimum are
    refined by fixed-count coordinate descent, deduplicated, and re-filtered
    against the refined minimum.  :func:`danskin_report`'s two tolerances
    share one grid or cloud pass and one refinement per candidate.
    """
    return _active_sets(problem, x_hat, eps_active)[0]


def optimal_value(problem: OptimalValueProblem, x_hat, eps_active: Optional[float] = None) -> float:
    """phi(x_hat), the inner minimum itself."""
    return solve_inner(problem, x_hat, eps_active).optimal_value


def _psi_map(problem: OptimalValueProblem, x_hat: np.ndarray, active: ActiveSet) -> Callable[[np.ndarray], float]:
    """psi on one gradient call over the active set; ``ValueError`` names the first non-finite gradient's point."""
    ys = active.minimizers
    g = _rows("gradient", problem.grad_x(x_hat, ys), ys, width=2)

    def psi_of(d) -> float:
        # each sum starts from +0.0, as ``d @ g`` does, and the first of tied
        # minima wins, as with ``min``: the bits of a per-point loop, signs of
        # zero included
        dots = (0.0 + g[:, 0] * d[0]) + g[:, 1] * d[1]
        return float(dots[np.argmin(dots)])

    return psi_of


def psi(problem: OptimalValueProblem, x_hat, active: ActiveSet, d) -> float:
    """Directional derivative of phi: min of <d, grad_x f(x_hat, y)> over the active set.

    One gradient call; the compass probes share one for their four directions.
    Raises ``ValueError`` naming the first active point whose gradient is not
    finite.
    """
    return _psi_map(problem, np.asarray(x_hat, dtype=float), active)(np.asarray(d, dtype=float))


def _subgradient_from_active(problem: OptimalValueProblem, x_hat: np.ndarray, active: ActiveSet) -> CompassResult:
    result = probe(_psi_map(problem, x_hat, active), np.eye(2))  # one gradient call for the four directions
    if isinstance(problem.feasible, Box):  # a grid plus coordinate descent can miss the global minimum
        result = replace(result, guarantee=UNGUARANTEED)
    return result


def danskin_subgradient(problem: OptimalValueProblem, x_hat,
                        eps_active: Optional[float] = None) -> CompassResult:
    """Subgradient of the optimal-value function at ``x_hat``.

    One inner solve, then the compass difference of psi (four evaluations, one gradient call).
    Guaranteed over a point cloud, which is enumerated exactly; over a box
    the inner minimum is a numerical estimate, so the result is unguaranteed.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    return _subgradient_from_active(problem, x_hat, solve_inner(problem, x_hat, eps_active))


def danskin_report(problem: OptimalValueProblem, x_hat, eps_active: Optional[float] = None) -> dict:
    """The ``danskin`` command's output.

    The :class:`CompassResult` fields, ``optimal_value``, ``active_set_size``
    and ``stability``: psi in the compass directions under eps (the
    subgradient's probes) and 10 * eps, with both active-set sizes.  Both
    tolerances share one grid or cloud pass and one refinement per candidate,
    and the probes too when both active sets have the same bits.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    base, active = _active_sets(problem, x_hat, eps_active)
    result = _subgradient_from_active(problem, x_hat, base)
    if not 10.0 * base.epsilon < math.inf:
        raise InputError(f"eps_active must be positive and finite, and so must 10 * eps, got {shown(base.epsilon)}")
    wide = active(10.0 * base.epsilon)
    same = wide.minimizers.shape == base.minimizers.shape and wide.minimizers.tobytes() == base.minimizers.tobytes()
    wide_probes = result.probes if same else _subgradient_from_active(problem, x_hat, wide).probes
    report = result.to_json_dict()
    report["optimal_value"] = base.optimal_value
    report["active_set_size"] = int(base.minimizers.shape[0])
    report["stability"] = {
        "eps_active": base.epsilon,
        "active_size": report["active_set_size"],
        "active_size_10eps": int(wide.minimizers.shape[0]),
        "psi": [p.value for p in result.probes],
        "psi_10eps": [p.value for p in wide_probes],
    }
    return report


def stability_probe(problem: OptimalValueProblem, x_hat, eps_active: Optional[float] = None) -> dict:
    """psi in the compass directions under eps and 10 * eps activation.

    Large differences flag near-ties in the inner problem, where the reported
    subgradient depends on the activation tolerance.  :func:`danskin_report`'s
    ``stability``.
    """
    return danskin_report(problem, x_hat, eps_active)["stability"]


# ---------------------------------------------------------------------------
# JSON problem format

def problem_from_json(source) -> OptimalValueProblem:
    """Build an :class:`OptimalValueProblem` from its JSON description.

    The objective and the two gradient components are expressions over the
    concatenated (x, y) variables: indices 0..1 are x, indices 2..m+1 are y.
    A batch of inner points is evaluated as one (N, 2 + m) array of rows
    ``[x | y]``.
    The feasible set is either ``{"cloud": [[...], ...]}`` or
    ``{"box": {"lower": [...], "upper": [...], "grid": k, "refine_steps": r}}``.
    """
    data = require_fields("optimal-value problem JSON", jsonio.load(source), ("objective", "grad_x", "feasible"))
    feas_data = require_fields("feasible", data["feasible"], ())
    if "cloud" in feas_data:
        feasible: FeasibleSet = FinitePointCloud(points=require_numbers("cloud", feas_data["cloud"]))
        m = feasible.points.shape[1]
    elif "box" in feas_data:
        b = require_fields("box", feas_data["box"], ("lower", "upper"))
        feasible = Box(
            lower=require_numbers("box lower", b["lower"]),
            upper=require_numbers("box upper", b["upper"]),
            grid=b.get("grid", 21),
            refine_steps=b.get("refine_steps", 30),
        )
        m = feasible.lower.size
    else:
        raise InputError("feasible set must be a 'cloud' or a 'box'")

    obj_expr = ex.parse_expr(require_text("objective", data["objective"]))
    grad_exprs = [ex.parse_expr(s) for s in require_text("grad_x", data["grad_x"], many=True)]
    if len(grad_exprs) != 2:
        raise InputError("grad_x needs exactly two expressions (the outer space is two-dimensional)")
    if any(ex.dimension(e) > 2 + m for e in (obj_expr, *grad_exprs)):
        raise InputError("expression uses variables beyond the concatenated (x, y) dimension")

    def _stack(x, ys) -> np.ndarray:
        z = np.empty((len(ys), 2 + m))
        z[:, :2] = x
        z[:, 2:] = ys
        return z

    def objective(x, ys):
        return ex.eval_value(obj_expr, _stack(x, ys))

    def grad_x(x, ys):
        z = _stack(x, ys)
        return np.column_stack([ex.eval_value(g, z) for g in grad_exprs])

    return OptimalValueProblem(objective=objective, grad_x=grad_x, feasible=feasible)
