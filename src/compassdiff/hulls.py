"""Exact membership in the convex hull of finitely many points.

:func:`separation` is the one membership decision.  On the line and in the
plane it tests the outward edge normals of :func:`convex_hull_2d` and the
coordinate directions, with no linear program.  In higher dimensions its
direction is the dual solution of the LP behind :func:`hull_distance`, the
l-inf distance to the hull, which is robust to degenerate generator sets.
"""

from __future__ import annotations

import numpy as np

from .oracle import InputError


def _as_point_and_generators(point, generators) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(point, dtype=float).ravel()
    g = np.atleast_2d(np.asarray(generators, dtype=float))
    if g.size == 0:
        raise InputError("empty generator list")
    if p.size != g.shape[1]:
        raise InputError(f"point dimension {p.size} does not match generators ({g.shape[1]})")
    return p, g


def _hull_lp(p: np.ndarray, g: np.ndarray) -> tuple[float, np.ndarray]:
    """The l-inf distance t* from p to conv(g), and a dual direction d (l1 norm 1) separating by t* > 0."""
    # imported here: importing scipy takes longer than most commands, and only the LP needs it
    from scipy.optimize import linprog

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
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=[(0, None)] * (k + 1), method="highs")
    if not res.success:
        raise RuntimeError(f"hull distance LP failed: {res.message}")
    y = res.ineqlin.marginals
    return float(res.fun), y[:n] - y[n:]


def hull_distance(point, generators) -> float:
    """l-inf distance from ``point`` to the convex hull of ``generators``."""
    p, g = _as_point_and_generators(point, generators)
    return _hull_lp(p, g)[0]


def separation(point, generators) -> tuple[float, np.ndarray]:
    """The largest gap ``<d, p> - max_g <d, g>`` over a complete set of unit ``d``, and that ``d``.

    ``point`` is in the hull iff the gap is at most the caller's tolerance.  A
    positive gap lies between ``1/sqrt(2)`` times the l-inf distance to the
    hull and the Euclidean distance, and ``d`` separates by it.
    """
    p, g = _as_point_and_generators(point, generators)
    n = p.size
    dirs = [np.eye(n), -np.eye(n)]
    if n == 2:
        v = convex_hull_2d(g)
        if v.shape[0] > 1:
            # outward edge normals; with the +-e_i no ray of a vertex's normal
            # cone is more than 45 degrees from a tested direction
            edges = np.roll(v, -1, axis=0) - v
            normals = np.column_stack([edges[:, 1], -edges[:, 0]])
            dirs.insert(0, normals / np.linalg.norm(normals, axis=1, keepdims=True))
    elif n > 2 and g.shape[0] > 1:
        d = _hull_lp(p, g)[1]
        norm = float(np.linalg.norm(d))
        if norm > 0.0:
            dirs.insert(0, d[None, :] / norm)
    dirs = np.vstack(dirs)
    gaps = dirs @ p - np.max(dirs @ g.T, axis=1)
    best = int(np.argmax(gaps))
    return float(gaps[best]), dirs[best]


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
