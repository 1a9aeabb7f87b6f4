"""Exact membership in the convex hull of finitely many points.

:func:`separation` is the one membership decision.  On the line and in the
plane it tests the outward edge normals of :func:`convex_hull_2d` and the
coordinate directions.  In higher dimensions its direction points from the
nearest point of the hull, found by Wolfe's algorithm, to the point.  That
direction stands only when its gap, recomputed from the vertices, certifies
it; otherwise membership is undecided and a :class:`NumericalError` is
raised.  No LP is solved.  :func:`hull_distance`, the l-inf distance by an
LP, is the tests' independent reference and alone imports scipy.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .oracle import InputError, NumericalError

# Point and vertices are scaled into [-1, 1] first (_scaled).  A convex
# combination of the vertices this close to the point puts it in the hull up
# to rounding; Wolfe's algorithm gives up after this many minor cycles.
_ROUNDING = 2.0 ** -40
_MAX_WOLFE_STEPS = 500


def _as_point_and_generators(point, generators) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(point, dtype=float).ravel()
    g = np.atleast_2d(np.asarray(generators, dtype=float))
    if g.size == 0:
        raise InputError("empty generator list")
    if p.size != g.shape[1]:
        raise InputError(f"point dimension {p.size} does not match generators ({g.shape[1]})")
    return p, g


def _scaled(p: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """p and g times the power of two 2**-e that brings their largest magnitude into [0.5, 1), and e.

    The gap and the LP distance are positively homogeneous, so both are
    computed on the scaled coordinates and multiplied back by 2**e.  Scaling
    by a power of two is exact, and edge normals and LP coefficients then
    neither overflow nor underflow.
    """
    e = math.frexp(max(np.abs(p).max(), np.abs(g).max()))[1]
    return np.ldexp(p, -e), np.ldexp(g, -e), e


def _unscaled(value: float, e: int) -> float:
    try:
        return math.ldexp(value, e)
    except OverflowError:  # a distance beyond the largest float
        return math.copysign(math.inf, value)


def hull_distance(point, generators) -> float:
    """l-inf distance from ``point`` to the convex hull of ``generators``, by a HiGHS LP.

    The tests' independent reference for :func:`separation`; it needs scipy,
    which only the ``dev`` extra installs.  It stays in the package because
    the traced benchmark (``bench/spans.py``) binds it as a span target.
    Not ground truth on nearly flat sets: there it can be off by about 1e-8
    of the coordinates even at HiGHS's smallest tolerances, where
    ``highs-ipm`` and Wolfe's weights read 0.
    """
    from scipy.optimize import linprog

    p, g = _as_point_and_generators(point, generators)
    p, g, e = _scaled(p, g)
    k, n = g.shape
    # variables: lambda_1..lambda_k, t;  minimize t
    # s.t.  sum_j lambda_j g_j  - p  in [-t, t]^n,  sum lambda = 1, lambda >= 0
    c = np.zeros(k + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * n, k + 1))
    a_ub[:n, :k] = g.T
    a_ub[:n, -1] = -1.0
    a_ub[n:, :k] = -g.T
    a_ub[n:, -1] = -1.0
    b_ub = np.concatenate([p, -p])
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    # HiGHS's default feasibility tolerances, 1e-7, would place points up to
    # 1e-7 of the largest coordinate in the hull; 1e-10 is its smallest
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=[(0, None)] * (k + 1), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError(f"hull distance LP failed: {res.message}")
    return _unscaled(res.fun, e)


def _affine_nearest(qs: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Weights summing to 1 of the point of aff(rows of qs) nearest the origin, and that point.

    The point is the first row less its projection onto the span of the
    edges from it, projected out twice: its part in that span, where
    rounding would turn the direction, is then rounding of its own length.
    None if the rows are affinely dependent to rounding.
    """
    base = qs[0]
    if qs.shape[0] == 1:
        return np.ones(1), base
    q, r = np.linalg.qr((qs[1:] - base).T)
    try:
        lam = np.linalg.solve(r, -(q.T @ base))
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(lam)):
        return None
    x = base - q @ (q.T @ base)
    x -= q @ (q.T @ x)
    return np.concatenate([[1.0 - lam.sum()], lam]), x


def _nearest_point(q: np.ndarray) -> Optional[tuple[np.ndarray, float]]:
    """The point of conv(rows of q) nearest the origin by Wolfe's algorithm, and a bound on its norm.

    Wolfe (1976), *Finding the nearest point in a polytope*, Math.
    Programming 11.  The point is the nearest point of its support's affine
    hull, which gives its direction; the bound is the norm of the convex
    combination of the support by the final weights, so the distance of
    conv(q) from the origin is at most the bound whatever the rounding.  The
    algorithm stops where it makes no more progress, and gives None after
    _MAX_WOLFE_STEPS minor cycles.
    """
    s = [int(np.argmin(np.einsum("ij,ij->i", q, q)))]
    w = np.ones(1)
    x = q[s[0]]
    steps = 0
    while True:
        # major cycle: the vertex furthest along -x joins the support
        xx = float(x @ x)
        dots = q @ x
        j = int(np.argmin(dots))
        if xx <= _ROUNDING ** 2 or dots[j] >= xx * (1.0 - 1e-12) or j in s:
            break
        support, weights = s + [j], np.append(w, 0.0)
        while True:
            # minor cycle: the nearest point of the support's affine hull, or
            # the furthest step towards it that keeps every weight >= 0
            steps += 1
            if steps > _MAX_WOLFE_STEPS:
                return None
            found = _affine_nearest(q[support])
            if found is None or np.all(found[0] > 0.0):
                break
            u = found[0]
            out = u <= 0.0
            ratios = weights[out] / np.maximum(weights[out] - u[out], np.finfo(float).tiny)
            weights = weights + float(np.min(ratios)) * (u - weights)
            weights[np.flatnonzero(out)[int(np.argmin(ratios))]] = 0.0
            keep = weights > 0.0
            support = [i for i, k in zip(support, keep) if k]
            weights = weights[keep] / weights[keep].sum()
        if found is None or float(found[1] @ found[1]) >= xx:
            break
        s, (w, x) = support, found
    return x, float(np.linalg.norm(w @ q[s]))


def _nearest_direction(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Unit rows that separate p from conv(g) by at least 1/sqrt(2) of the Euclidean distance.

    The direction from the nearest point stands if its explicit gap is at
    least ``1/sqrt(2)`` of the bound on the distance: the bound is the norm
    of a convex combination of the vertices, the gap of any unit direction a
    lower bound.  With the bound at rounding level p is in the hull and no
    row is needed.  Otherwise membership is undecided: a
    :class:`NumericalError`.
    """
    found = _nearest_point(g - p)
    if found is not None:
        x, bound = found
        if bound <= _ROUNDING:
            return np.empty((0, p.size))
        norm = float(np.linalg.norm(x))
        if norm > 0.0:
            d = -x / norm
            if float(d @ p) - float(np.max(g @ d)) >= bound / math.sqrt(2.0):
                return d[None, :]
    raise NumericalError("membership undecided: Wolfe's nearest point gave no certified separating direction")


def separation(point, generators) -> tuple[float, np.ndarray]:
    """The largest gap ``<d, p> - max_g <d, g>`` over a complete set of unit ``d``, and that ``d``.

    ``point`` is in the hull iff the gap is at most the caller's tolerance.  A
    positive gap lies between ``1/sqrt(2)`` times the l-inf distance to the
    hull and the Euclidean distance, and ``d`` separates by it.  In three and
    more dimensions ``d`` comes from the nearest point of the hull, certified
    from the vertices; where that certificate fails, a
    :class:`NumericalError` says that membership is undecided.  Distances
    below about ``1e-12`` of the largest coordinate are rounding.
    """
    p, g = _as_point_and_generators(point, generators)
    p, g, e = _scaled(p, g)
    n = p.size
    dirs = [np.eye(n), -np.eye(n)]
    if n == 2:
        v = convex_hull_2d(g)
        if v.shape[0] > 1:
            # outward edge normals; with the +-e_i no ray of a vertex's normal
            # cone is more than 45 degrees from a tested direction
            edges = np.roll(v, -1, axis=0) - v
            normals = np.column_stack([edges[:, 1], -edges[:, 0]])
            # each scaled by a power of two, exactly: a normal 1e-200 long
            # would square to zero
            normals = np.ldexp(normals, -np.frexp(np.abs(normals).max(axis=1, keepdims=True))[1])
            dirs.insert(0, normals / np.linalg.norm(normals, axis=1, keepdims=True))
    elif n > 2 and g.shape[0] > 1:
        dirs.insert(0, _nearest_direction(p, g))
    dirs = np.vstack(dirs)
    gaps = dirs @ p - np.max(dirs @ g.T, axis=1)
    best = int(np.argmax(gaps))
    return _unscaled(gaps[best], e), dirs[best]


def convex_hull_2d(points) -> np.ndarray:
    """Convex hull of 2-D points via the monotone chain, counter-clockwise.

    Collinear inputs collapse to the two extreme points.
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if pts.shape[0] <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    # the chain on Python floats: the same double arithmetic as on numpy
    # scalars, at a fraction of the cost per operation
    pts = pts[order].tolist()

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[list[float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[list[float]] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])
