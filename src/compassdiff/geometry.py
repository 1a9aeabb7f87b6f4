"""Support-function probing of compact convex sets.

A compact convex set is presented only through its support function
sigma(d) = max{<d, x> : x in C}.  Probing sigma in the 2n coordinate
directions yields the set's interval hull; in two dimensions the hull's
midpoint is guaranteed to belong to the set, which locates an element with
four support evaluations.  Three evaluations are never enough, and the
guarantee fails in three dimensions; both facts are reproducible here
(:func:`three_probe_ambiguity` and the bundled three-dimensional polytopes).
Membership in a polytope is decided exactly from its vertices; an oracle
known through sigma alone, such as the ball, is tested on sampled directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import jsonio
from .compass import probe
from .hulls import separation
from .oracle import InputError, guarantee_for_dim, require_integer, require_numbers, require_positive
from .sampling import unit_directions

#: Unit directions an oracle known through sigma alone is tested on.
SAMPLED_DIRECTIONS = 360


@dataclass(frozen=True)
class SupportOracle:
    """Evaluator of a compact convex set's support function."""

    dim: int
    sigma: Callable[[np.ndarray], float]
    description: str = ""
    vertices: Optional[np.ndarray] = None   # a polytope's generators; None when only sigma is known

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("support oracle dimension must be positive")


@dataclass(frozen=True)
class IntervalHull:
    """Smallest axis-aligned box containing the set: lower <= x <= upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or np.any(lower > upper):
            raise ValueError("interval hull bounds out of order")


@dataclass(frozen=True)
class MidpointResult:
    point: np.ndarray
    guarantee: str
    hull: IntervalHull


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    witness: Optional[np.ndarray]   # separating direction when member is False
    max_gap: float                  # largest <d, p> - sigma(d) seen
    n_directions: Optional[int]     # sampled directions; None for the exact vertex test

    def message(self) -> str:
        exact = " (exact test)" if self.n_directions is None else ""
        if not self.member:
            return f"separated by direction {self.witness.tolist()} with gap {self.max_gap:.6g}{exact}"
        if exact:
            return "in the convex hull of the vertices" + exact
        return f"no separation found among {self.n_directions} directions"


@dataclass(frozen=True)
class AmbiguityCertificate:
    """Three support probes admit three mutually exclusive consistent sets.

    ``vertices`` are the corners of the triangle cut out by the probe
    half-planes; ``edges`` are its three sides, each a compact convex set
    reproducing all three probed support values; their triple intersection is
    empty, so the probes cannot pin down a set element.
    """

    probes: np.ndarray              # (3, 2)
    vertices: np.ndarray            # (3, 2): a, b, c
    edges: tuple                    # three (2, 2) arrays: conv{a,b}, conv{b,c}, conv{a,c}
    support_values: np.ndarray      # (3 edges, 3 probes)
    max_support_error: float
    intersection_empty: bool
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "probes": self.probes.tolist(),
            "vertices": self.vertices.tolist(),
            "edges": [e.tolist() for e in self.edges],
            "support_values": self.support_values.tolist(),
            "max_support_error": self.max_support_error,
            "intersection_empty": self.intersection_empty,
            "passed": self.passed,
        }


def polytope_support(vertices, description: str = "") -> SupportOracle:
    """Support oracle of the convex hull of finitely many points."""
    v = np.atleast_2d(np.asarray(vertices, dtype=float))
    if v.size == 0 or not np.isfinite(v).all():
        raise InputError("vertex list must be nonempty, with finite coordinates")
    dim = v.shape[1]

    def sigma(d):
        d = np.asarray(d, dtype=float)
        if d.size != dim:
            raise ValueError(f"direction dimension {d.size} does not match polytope ({dim})")
        return float(np.max(v @ d))

    return SupportOracle(dim=dim, sigma=sigma, description=description or f"polytope with {v.shape[0]} vertices",
                         vertices=v)


def ball_support(radius: float = 1.0, dim: int = 2) -> SupportOracle:
    def sigma(d):
        return radius * float(np.linalg.norm(d))

    return SupportOracle(dim=dim, sigma=sigma, description=f"ball of radius {radius}")


def load_polytope_json(source) -> SupportOracle:
    """Load a polytope oracle from ``{"dim": n, "vertices": [[...], ...], "description": text}``.

    ``dim`` and ``description`` are optional.
    """
    data = jsonio.load(source)
    if "vertices" not in data:
        raise InputError("polytope JSON needs a 'vertices' field")
    vertices = require_numbers("vertices", data["vertices"])
    if vertices.ndim != 2:
        raise InputError("vertices must be a list of points")
    dim = require_integer("dim", data.get("dim", vertices.shape[1]))
    if vertices.shape[1] != dim:
        raise InputError(f"vertices must be a list of {dim}-dimensional points")
    description = data.get("description", "")
    if not isinstance(description, str):
        raise InputError(f"description must be a string, got {description!r}")
    return polytope_support(vertices, description=description)


def _probe_support(oracle: SupportOracle) -> tuple[IntervalHull, np.ndarray]:
    """The interval hull and its midpoint from the 2 * dim compass probes of sigma.

    upper_i = sigma(e_i) and lower_i = -sigma(-e_i); the compass difference
    of sigma, (sigma(e_i) - sigma(-e_i)) / 2, is the midpoint, the dual of
    the subgradient result.
    """

    def sigma(d: np.ndarray) -> float:
        value = float(oracle.sigma(d))
        if not math.isfinite(value):
            raise ValueError(f"unbounded or empty set: support value along direction {d.tolist()} is not finite")
        return value

    result = probe(sigma, np.eye(oracle.dim))
    values = [p.value for p in result.probes]
    return IntervalHull(lower=-np.array(values[1::2]), upper=np.array(values[0::2])), result.subgradient


def interval_hull(oracle: SupportOracle) -> IntervalHull:
    """Interval hull from 2 * dim support evaluations.

    lower_i = -sigma(-e_i) and upper_i = sigma(e_i).
    """
    return _probe_support(oracle)[0]


def midpoint_element(oracle: SupportOracle) -> MidpointResult:
    """Midpoint of the interval hull, with its membership guarantee flag.

    For a compact convex set on the line or in the plane the midpoint always
    belongs to the set; in three dimensions and up it is returned but
    flagged unguaranteed (the bundled three-dimensional demo refutes it).
    A set that is not closed shares its closure's support function, and may
    miss it (``example44``).
    """
    hull, point = _probe_support(oracle)
    return MidpointResult(
        point=point,
        guarantee=guarantee_for_dim(oracle.dim),
        hull=hull,
    )


def membership_check(oracle: SupportOracle, p, tol: float = 1e-9) -> MembershipReport:
    """Separation test: is <d, p> <= sigma(d) + tol for all unit d?

    With a vertex list the verdict is exact (:func:`hulls.separation`, no
    sigma call).  Otherwise SAMPLED_DIRECTIONS fixed unit vectors are tested: a
    separating witness is still a certificate, but ``member=True`` only
    reports that no sampled direction separates.
    """
    require_positive("tol", tol, zero_ok=True)
    p = np.asarray(p, dtype=float)
    if oracle.vertices is not None:
        max_gap, witness = separation(p, oracle.vertices)
        n_directions = None
    else:
        max_gap = -math.inf
        witness = None
        for d in unit_directions(SAMPLED_DIRECTIONS, oracle.dim):
            gap = float(p @ d) - float(oracle.sigma(d))
            if gap > max_gap:
                max_gap = gap
                witness = d
        n_directions = SAMPLED_DIRECTIONS
    member = max_gap <= tol
    return MembershipReport(
        member=member,
        witness=None if member else witness,
        max_gap=max_gap,
        n_directions=n_directions,
    )


def _line_intersection(u, cu, v, cv) -> np.ndarray:
    # point with <u, x> = cu and <v, x> = cv
    A = np.array([u, v], dtype=float)
    return np.linalg.solve(A, np.array([cu, cv], dtype=float))


def three_probe_ambiguity(u, v, w) -> AmbiguityCertificate:
    """Certificate that three support probes cannot determine a set element.

    The probes u, v, w (values normalised to 1) bound a triangle T; each of
    T's three edges is a compact convex set with the same three support
    values, yet the edges share no common point.  Raises when the probes fail
    to bound a triangle.
    """
    probes = np.array([np.asarray(q, dtype=float) for q in (u, v, w)])
    if probes.shape != (3, 2):
        raise ValueError("three_probe_ambiguity needs three 2-D probe directions")
    if np.any(np.linalg.norm(probes, axis=1) == 0.0):
        raise ValueError("probe directions must be nonzero")
    # T = {x : <q, x> <= 1} is bounded iff the probe directions positively
    # span the plane, i.e. no angular gap of pi or more between them.  This
    # also rejects parallel and anti-parallel probe pairs.
    angles = np.sort(np.arctan2(probes[:, 1], probes[:, 0]))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
    if np.max(gaps) >= np.pi - 1e-12:
        raise ValueError("probes do not bound a triangle")

    a = _line_intersection(probes[0], 1.0, probes[1], 1.0)
    b = _line_intersection(probes[1], 1.0, probes[2], 1.0)
    c = _line_intersection(probes[2], 1.0, probes[0], 1.0)
    vertices = np.array([a, b, c])
    edges = (np.array([a, b]), np.array([b, c]), np.array([a, c]))

    support_values = np.empty((3, 3))
    for i, edge in enumerate(edges):
        for j in range(3):
            support_values[i, j] = float(np.max(edge @ probes[j]))
    max_support_error = float(np.max(np.abs(support_values - 1.0)))

    scale = float(np.max(np.abs(vertices))) + 1.0
    pairwise = [np.linalg.norm(vertices[i] - vertices[j]) for i in range(3) for j in range(i + 1, 3)]
    intersection_empty = min(pairwise) > 1e-9 * scale

    return AmbiguityCertificate(
        probes=probes,
        vertices=vertices,
        edges=edges,
        support_values=support_values,
        max_support_error=max_support_error,
        intersection_empty=intersection_empty,
        passed=(max_support_error <= 1e-10 and intersection_empty),
    )
