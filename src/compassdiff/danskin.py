"""Subgradients of optimal-value functions phi(x) = min{f(x, y) : y in C}.

The directional derivative of phi at x-hat is psi(d) = min{<d, grad_x f(x-hat, y)>}
over the inner minimizer set Y, so the compass difference of psi is a
guaranteed subgradient of phi.  No uniqueness of the inner minimizer and no
second-order conditions are required; f only needs a continuous gradient in x.

The exact minimizer set is replaced numerically by an epsilon-active set.
When the inner problem has near-ties this makes psi sensitive to the
activation tolerance; :func:`stability_probe` reports psi under eps and
10 * eps so instability is visible.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import expr as ex
from .compass import compass_from_psi
from .oracle import CompassResult


@dataclass(frozen=True)
class FinitePointCloud:
    """Compact feasible set given as an explicit finite list of points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise ValueError("point cloud must not be empty")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, minimised over a grid with local refinement."""

    lower: np.ndarray
    upper: np.ndarray
    grid: int = 21
    refine_steps: int = 30

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or np.any(lower > upper):
            raise ValueError("invalid box bounds")
        if self.grid < 2:
            raise ValueError("grid resolution must be at least 2 per axis")
        if self.refine_steps < 0:
            raise ValueError("refine_steps must be nonnegative")


FeasibleSet = Union[FinitePointCloud, Box]


@dataclass(frozen=True)
class OptimalValueProblem:
    """Inner objective, its x-gradient, and the compact feasible set.

    ``objective(x, y)`` must be continuously differentiable with the supplied
    ``grad_x(x, y)``; the gradient is user-supplied rather than approximated
    so the reported subgradient carries no hidden differencing error.
    """

    objective: Callable[[np.ndarray, np.ndarray], float]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    feasible: FeasibleSet
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("inner dimension must be positive")


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


def _evaluate(problem: OptimalValueProblem, x_hat: np.ndarray, ys: np.ndarray) -> np.ndarray:
    vals = np.empty(ys.shape[0])
    for i, y in enumerate(ys):
        v = float(problem.objective(x_hat, y))
        if not math.isfinite(v):
            raise ValueError(f"non-finite objective value at feasible point {y.tolist()}")
        vals[i] = v
    return vals


def _refine_in_box(problem: OptimalValueProblem, x_hat: np.ndarray, y: np.ndarray, box: Box,
                   step0: np.ndarray) -> np.ndarray:
    y = y.copy()
    best = float(problem.objective(x_hat, y))
    step = step0.copy()
    for _ in range(box.refine_steps):
        for j in range(y.size):
            for sign in (1.0, -1.0):
                cand = y.copy()
                cand[j] = min(max(cand[j] + sign * step[j], box.lower[j]), box.upper[j])
                v = float(problem.objective(x_hat, cand))
                if v < best:
                    best = v
                    y = cand
        step *= 0.5
    return y


def _dedup(points: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    kept: list[np.ndarray] = []
    for p in points:
        if all(np.max(np.abs(p - q)) > tol for q in kept):
            kept.append(p)
    return np.array(kept)


def solve_inner(problem: OptimalValueProblem, x_hat, eps_active: Optional[float] = None) -> ActiveSet:
    """Minimise the inner objective over the feasible set at ``x_hat``.

    Point clouds are enumerated exactly.  Boxes are evaluated on the grid;
    grid points within the activation tolerance of the grid minimum are
    refined by fixed-count coordinate descent, deduplicated, and re-filtered
    against the refined minimum.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    if eps_active is not None and eps_active <= 0:
        raise ValueError("eps_active must be positive")
    feas = problem.feasible
    if isinstance(feas, FinitePointCloud):
        ys = feas.points
        vals = _evaluate(problem, x_hat, ys)
        opt = float(np.min(vals))
        eps = eps_active if eps_active is not None else _default_eps(opt)
        keep = ys[vals <= opt + eps]
        return ActiveSet(minimizers=keep, optimal_value=opt, epsilon=eps)

    axes = [np.linspace(feas.lower[j], feas.upper[j], feas.grid) for j in range(problem.m)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, problem.m)
    vals = _evaluate(problem, x_hat, mesh)
    grid_opt = float(np.min(vals))
    eps = eps_active if eps_active is not None else _default_eps(grid_opt)
    candidates = mesh[vals <= grid_opt + eps]
    spacing = (feas.upper - feas.lower) / (feas.grid - 1)
    refined = np.array([_refine_in_box(problem, x_hat, y, feas, spacing) for y in candidates])
    refined = _dedup(refined)
    vals = _evaluate(problem, x_hat, refined)
    opt = float(np.min(vals))
    eps = eps_active if eps_active is not None else _default_eps(opt)
    keep = refined[vals <= opt + eps]
    return ActiveSet(minimizers=keep, optimal_value=opt, epsilon=eps)


def optimal_value(problem: OptimalValueProblem, x_hat, eps_active: Optional[float] = None) -> float:
    """phi(x_hat), the inner minimum itself."""
    return solve_inner(problem, x_hat, eps_active).optimal_value


def psi(problem: OptimalValueProblem, x_hat, active: ActiveSet, d) -> float:
    """Directional derivative of phi: min of <d, grad_x f(x_hat, y)> over the active set."""
    x_hat = np.asarray(x_hat, dtype=float)
    d = np.asarray(d, dtype=float)
    best = math.inf
    for y in active.minimizers:
        g = np.asarray(problem.grad_x(x_hat, y), dtype=float)
        best = min(best, float(d @ g))
    return best


def danskin_subgradient(problem: OptimalValueProblem, x_hat,
                        eps_active: Optional[float] = None) -> CompassResult:
    """Guaranteed subgradient of the optimal-value function at ``x_hat``.

    One inner solve, then the compass difference of psi (four evaluations).
    """
    x_hat = np.asarray(x_hat, dtype=float)
    if x_hat.size != 2:
        raise ValueError("the outer parameter space is two-dimensional")
    active = solve_inner(problem, x_hat, eps_active)
    return compass_from_psi(lambda d: psi(problem, x_hat, active, d), dim=2)


def stability_probe(problem: OptimalValueProblem, x_hat, eps_active: Optional[float] = None) -> dict:
    """psi in the compass directions under eps and 10 * eps activation.

    Large differences flag near-ties in the inner problem, where the reported
    subgradient depends on the activation tolerance.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    base = solve_inner(problem, x_hat, eps_active)
    wide = solve_inner(problem, x_hat, 10.0 * base.epsilon)
    dirs = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, -1.0])]
    return {
        "eps_active": base.epsilon,
        "active_size": int(base.minimizers.shape[0]),
        "active_size_10eps": int(wide.minimizers.shape[0]),
        "psi": [psi(problem, x_hat, base, d) for d in dirs],
        "psi_10eps": [psi(problem, x_hat, wide, d) for d in dirs],
    }


# ---------------------------------------------------------------------------
# JSON problem format

def problem_from_json(source) -> OptimalValueProblem:
    """Build an :class:`OptimalValueProblem` from its JSON description.

    The objective and the two gradient components are expressions over the
    concatenated (x, y) variables: indices 0..1 are x, indices 2..m+1 are y.
    The feasible set is either ``{"cloud": [[...], ...]}`` or
    ``{"box": {"lower": [...], "upper": [...], "grid": k, "refine_steps": r}}``.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            data = json.load(fh)
    else:
        data = source
    for key in ("objective", "grad_x", "feasible"):
        if key not in data:
            raise ValueError(f"optimal-value problem JSON is missing {key!r}")
    feas_data = data["feasible"]
    if "cloud" in feas_data:
        feasible: FeasibleSet = FinitePointCloud(points=np.asarray(feas_data["cloud"], dtype=float))
        m = feasible.points.shape[1]
    elif "box" in feas_data:
        b = feas_data["box"]
        feasible = Box(
            lower=np.asarray(b["lower"], dtype=float),
            upper=np.asarray(b["upper"], dtype=float),
            grid=int(b.get("grid", 21)),
            refine_steps=int(b.get("refine_steps", 30)),
        )
        m = feasible.lower.size
    else:
        raise ValueError("feasible set must be a 'cloud' or a 'box'")

    obj_expr = ex.parse_expr(data["objective"])
    grad_exprs = [ex.parse_expr(s) for s in data["grad_x"]]
    if len(grad_exprs) != 2:
        raise ValueError("grad_x needs exactly two expressions (the outer space is two-dimensional)")
    total = 2 + m
    compiled = [ex.compile_expr(e) for e in (obj_expr, *grad_exprs)]
    if any(c.dim > total for c in compiled):
        raise ValueError("expression uses variables beyond the concatenated (x, y) dimension")
    obj, *grads = (c.forward for c in compiled)

    def _point(x, y) -> list[float]:
        return np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)]).tolist()

    def objective(x, y):
        z = _point(x, y)
        return obj(z, z)[0]

    def grad_x(x, y):
        z = _point(x, y)
        return np.array([g(z, z)[0] for g in grads])

    return OptimalValueProblem(objective=objective, grad_x=grad_x, feasible=feasible, m=m)
