"""Exact membership tests for convex hulls of finitely many points.

The workhorse is a small linear program: a point lies in conv{g_1, ..., g_k}
iff some convex combination of the generators reproduces it, and the LP below
computes the l-inf distance to the hull (zero inside).  This is robust to
degenerate generator sets (collinear points, repeated points) in any
dimension, which facet-enumeration tests are not.
"""

from __future__ import annotations

import numpy as np


def hull_distance(point, generators) -> float:
    """l-inf distance from ``point`` to the convex hull of ``generators``."""
    p = np.asarray(point, dtype=float).ravel()
    g = np.atleast_2d(np.asarray(generators, dtype=float))
    if g.size == 0:
        raise ValueError("empty generator list")
    k, n = g.shape
    if p.size != n:
        raise ValueError(f"point dimension {p.size} does not match generators ({n})")
    if k == 1:
        return float(np.max(np.abs(g[0] - p)))
    # imported here: importing scipy takes longer than most commands, and only the LP needs it
    from scipy.optimize import linprog

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
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=[(0, None)] * (k + 1), method="highs")
    if not res.success:
        raise RuntimeError(f"hull distance LP failed: {res.message}")
    return float(res.fun)


def point_in_hull(point, generators, tol: float = 1e-9) -> bool:
    return hull_distance(point, generators) <= tol


def convex_hull_2d(points) -> np.ndarray:
    """Convex hull of 2-D points via the monotone chain, counter-clockwise.

    Collinear inputs collapse to the two extreme points.
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if pts.shape[0] <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def point_in_convex_polygon(point, vertices_ccw, tol: float = 1e-9) -> bool:
    """Membership in a counter-clockwise convex polygon, boundary inclusive.

    ``tol`` is an absolute slack on the cross products, scaled by edge length,
    so points within ``tol`` of the boundary count as inside.
    """
    p = np.asarray(point, dtype=float)
    v = np.asarray(vertices_ccw, dtype=float)
    m = v.shape[0]
    if m == 1:
        return bool(np.max(np.abs(p - v[0])) <= tol)
    if m == 2:
        # degenerate polygon: a segment
        return hull_distance(p, v) <= tol
    for i in range(m):
        a = v[i]
        b = v[(i + 1) % m]
        edge = b - a
        cross = edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0])
        if cross < -tol * max(1.0, float(np.linalg.norm(edge))):
            return False
    return True
