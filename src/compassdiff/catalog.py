"""Test-function catalog with exact oracles and known Clarke generalized gradients.

Each entry pairs an expression with a ``clarke_hull`` map giving, at any
point, a finite generator set (or a ball rule) whose convex hull is the Clarke
generalized gradient there.  The formulas are hand-derived piecewise
descriptions and serve as the independent reference for membership testing,
which is exact: the ball rule, or :func:`hulls.separation` on the generators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import expr as ex
from .hulls import separation
from .oracle import DirectionalOracle, require_positive
from .sampling import unit_directions


@dataclass(frozen=True)
class GradientHull:
    """The Clarke generalized gradient at one point, as hull generators.

    Either a finite generator list (``generators``), or the closed ball of
    radius ``ball_radius`` (used for the Euclidean norm at the origin, whose
    subdifferential has no finite generating set).  A ball entry may still
    carry sampled generators for support-inequality style checks.
    """

    generators: Optional[np.ndarray] = None
    ball_radius: Optional[float] = None

    def __post_init__(self):
        if self.generators is None and self.ball_radius is None:
            raise ValueError("need generators, a ball radius, or both")
        if self.generators is not None:
            object.__setattr__(self, "generators", np.atleast_2d(np.asarray(self.generators, dtype=float)))

    @property
    def is_singleton(self) -> bool:
        return self.ball_radius is None and self.generators.shape[0] == 1


def singleton(g) -> GradientHull:
    return GradientHull(generators=np.atleast_2d(np.asarray(g, dtype=float)))


@dataclass(frozen=True)
class CatalogEntry:
    """A named test function with oracle, convexity flag, and gradient data."""

    name: str
    dim: int
    expr: ex.NonsmoothExpr
    convex: bool
    clarke_hull: Callable[[np.ndarray], GradientHull]
    kink_points: tuple = ()
    f_star: Optional[float] = None
    curvature: Optional[float] = None  # sup Hessian norm of the smooth part; None if unbounded
    oracle: DirectionalOracle = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "oracle", ex.as_oracle(self.expr, self.dim))


def clarke_membership_check(s, hull: GradientHull, tol: float = 1e-9) -> bool:
    """Is ``s`` in the convex hull described by ``hull``, within ``tol``?

    For a ball rule this is ``||s|| <= radius + tol``.  For finite generators
    it is the exact test :func:`hulls.separation`: no direction separates
    ``s`` from the generators by more than ``tol``.
    """
    require_positive("tol", tol, zero_ok=True)
    s = np.asarray(s, dtype=float).ravel()
    if hull.ball_radius is not None:
        return bool(np.linalg.norm(s) <= hull.ball_radius + tol)
    return separation(s, hull.generators)[0] <= tol


def sample_limiting_gradients(entry_or_expr, x) -> np.ndarray:
    """Brute-force essentially-active gradients near ``x``, by perturbed probing.

    Samples 64 points on the sphere of radius 1e-3 around ``x``, keeps those
    where the function is (numerically) differentiable, reads the gradient
    off the coordinate directional derivatives, and drops repeats within 1e-6
    (max norm).  For piecewise functions the result spans the Clarke
    generalized gradient at ``x`` and is independent of any hand-derived formula.
    """
    e = entry_or_expr.expr if isinstance(entry_or_expr, CatalogEntry) else entry_or_expr
    x = np.asarray(x, dtype=float)
    n = x.size
    grads: list[np.ndarray] = []
    for u in unit_directions(64, n):
        p = x + 1e-3 * u
        g = np.empty(n)
        smooth = True
        for i in range(n):
            d = np.zeros(n)
            d[i] = 1.0
            plus = ex.eval_dir_deriv(e, p, d)
            minus = ex.eval_dir_deriv(e, p, -d)
            if abs(plus + minus) > 1e-9 * (1.0 + abs(plus)):
                smooth = False
                break
            g[i] = plus
        if not smooth:
            continue
        if all(np.max(np.abs(g - h)) > 1e-6 for h in grads):
            grads.append(g)
    return np.array(grads)


# ---------------------------------------------------------------------------
# entries

def _sign(t: float) -> float:
    return 1.0 if t > 0 else (-1.0 if t < 0 else 0.0)


def _hull_euclid_norm(x):
    x = np.asarray(x, dtype=float)
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        circle = unit_directions(64, x.size)
        return GradientHull(generators=circle, ball_radius=1.0)
    return singleton(x / nx)


def _hull_neg_abs_x1(x):
    if x[0] > 0:
        return singleton([-1.0, 0.0])
    if x[0] < 0:
        return singleton([1.0, 0.0])
    return GradientHull(generators=[[-1.0, 0.0], [1.0, 0.0]])


def _hull_max0_min(x):
    m = min(x[0], x[1])
    if m < 0:
        return singleton([0.0, 0.0])
    if m > 0:
        if x[0] < x[1]:
            return singleton([1.0, 0.0])
        if x[1] < x[0]:
            return singleton([0.0, 1.0])
        return GradientHull(generators=[[1.0, 0.0], [0.0, 1.0]])
    # min(x1, x2) = 0
    if x[0] == 0.0 and x[1] == 0.0:
        return GradientHull(generators=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    if x[0] == 0.0:
        return GradientHull(generators=[[0.0, 0.0], [1.0, 0.0]])
    return GradientHull(generators=[[0.0, 0.0], [0.0, 1.0]])


def _hull_maxx1_0(x):
    if x[0] > 0:
        return singleton([1.0, 0.0])
    if x[0] < 0:
        return singleton([0.0, 0.0])
    return GradientHull(generators=[[0.0, 0.0], [1.0, 0.0]])


def _hull_abs_sum(x):
    parts = [[_sign(t)] if t != 0.0 else [-1.0, 1.0] for t in x]
    gens = [[a, b] for a in parts[0] for b in parts[1]]
    return GradientHull(generators=gens)


def _hull_smooth_quad(x):
    return singleton([2.0 * x[0], 2.0 * x[1]])


def _hull_quad_plus_abs(x):
    base = np.array([2.0 * x[0], 2.0 * x[1]])
    if x[0] > 0:
        return singleton(base + [1.0, 0.0])
    if x[0] < 0:
        return singleton(base + [-1.0, 0.0])
    return GradientHull(generators=[base + [-1.0, 0.0], base + [1.0, 0.0]])


def _hull_max_plus_quad(x):
    base = np.array([0.25 * x[0], 0.25 * x[1]])
    if x[0] > 0:
        return singleton(base + [1.0, 0.0])
    if x[0] < 0:
        return singleton(base)
    return GradientHull(generators=[base, base + [1.0, 0.0]])


def _hull_abs_univariate(x):
    t = float(np.atleast_1d(x)[0])
    if t != 0.0:
        return singleton([_sign(t)])
    return GradientHull(generators=[[-1.0], [1.0]])


def _pl_max_hull(rows):
    rows = np.asarray(rows, dtype=float)

    def hull(x):
        x = np.asarray(x, dtype=float)
        vals = rows @ x
        top = np.max(vals)
        active = rows[vals == top]
        return GradientHull(generators=active)

    return hull


_EX43_F_ROWS = [[1.0, 1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0]]
_EX43_PHI_ROWS = [[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]


def _linear_comb(row) -> ex.NonsmoothExpr:
    terms = []
    for i, c in enumerate(row):
        if c == 1.0:
            terms.append(ex.var(i))
        elif c == -1.0:
            terms.append(ex.neg(ex.var(i)))
        elif c != 0.0:
            terms.append(ex.scale(c, ex.var(i)))
    return ex.add(*terms)


def _pl_max_expr(rows) -> ex.NonsmoothExpr:
    return ex.max_(*[_linear_comb(r) for r in rows])


def catalog() -> list[CatalogEntry]:
    """The full test-function catalog: a fresh list of the shared, frozen entries."""
    return list(_entries())


def catalog_entry(name: str) -> CatalogEntry:
    for entry in _entries():
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog entry named {name!r}")


@functools.cache
def _entries() -> tuple[CatalogEntry, ...]:
    # built on first use, not at import, and once: each entry compiles its oracle
    x0, x1 = ex.var(0), ex.var(1)
    quad = ex.add(ex.mul(x0, x0), ex.mul(x1, x1))
    entries = [
        CatalogEntry(
            name="euclid_norm_2d",
            dim=2,
            expr=ex.norm(x0, x1),
            convex=True,
            clarke_hull=_hull_euclid_norm,
            kink_points=((0.0, 0.0),),
            f_star=0.0,
            curvature=None,  # unbounded near the origin
        ),
        CatalogEntry(
            name="neg_abs_x1",
            dim=2,
            expr=ex.neg(ex.abs_(x0)),
            convex=False,
            clarke_hull=_hull_neg_abs_x1,
            kink_points=((0.0, 0.0), (0.0, 1.5), (0.0, -2.0)),
            curvature=0.0,
        ),
        CatalogEntry(
            name="max0_min",
            dim=2,
            expr=ex.max_(ex.const(0.0), ex.min_(x0, x1)),
            convex=False,
            clarke_hull=_hull_max0_min,
            kink_points=((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (2.0, 2.0), (-1.0, -1.0)),
            curvature=0.0,
        ),
        CatalogEntry(
            name="maxx1_0",
            dim=2,
            expr=ex.max_(x0, ex.const(0.0)),
            convex=True,
            clarke_hull=_hull_maxx1_0,
            kink_points=((0.0, 0.0), (0.0, -1.0), (0.0, 2.0)),
            f_star=0.0,
            curvature=0.0,
        ),
        CatalogEntry(
            name="abs_sum",
            dim=2,
            expr=ex.add(ex.abs_(x0), ex.abs_(x1)),
            convex=True,
            clarke_hull=_hull_abs_sum,
            kink_points=((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (-0.5, 0.0)),
            f_star=0.0,
            curvature=0.0,
        ),
        CatalogEntry(
            name="smooth_quad",
            dim=2,
            expr=quad,
            convex=True,
            clarke_hull=_hull_smooth_quad,
            f_star=0.0,
            curvature=2.0,
        ),
        CatalogEntry(
            name="quad_plus_abs",
            dim=2,
            expr=ex.add(quad, ex.abs_(x0)),
            convex=True,
            clarke_hull=_hull_quad_plus_abs,
            kink_points=((0.0, 0.0), (0.0, 1.0), (0.0, -1.0)),
            f_star=0.0,
            curvature=2.0,
        ),
        CatalogEntry(
            # max(x1, 0) plus a small quadratic; the 1/8 coefficient keeps all
            # catalog arithmetic exact in binary floating point
            name="max_plus_quad",
            dim=2,
            expr=ex.add(ex.max_(x0, ex.const(0.0)), ex.scale(0.125, quad)),
            convex=True,
            clarke_hull=_hull_max_plus_quad,
            kink_points=((0.0, 0.0), (0.0, 1.0), (0.0, -0.5)),
            f_star=0.0,
            curvature=0.25,
        ),
        CatalogEntry(
            name="abs_univariate",
            dim=1,
            expr=ex.abs_(x0),
            convex=True,
            clarke_hull=_hull_abs_univariate,
            kink_points=((0.0,),),
            f_star=0.0,
            curvature=0.0,
        ),
        CatalogEntry(
            name="example43_f",
            dim=3,
            expr=_pl_max_expr(_EX43_F_ROWS),
            convex=True,
            clarke_hull=_pl_max_hull(_EX43_F_ROWS),
            kink_points=((0.0, 0.0, 0.0),),
            curvature=0.0,
        ),
        CatalogEntry(
            name="example43_phi",
            dim=3,
            expr=_pl_max_expr(_EX43_PHI_ROWS),
            convex=True,
            clarke_hull=_pl_max_hull(_EX43_PHI_ROWS),
            kink_points=((0.0, 0.0, 0.0),),
            curvature=0.0,
        ),
    ]
    return tuple(entries)
