"""Built-in demonstrations of the limits and guarantees of compass probing.

Each demo runs a self-contained construction, asserts its headline facts, and
returns a JSON-friendly report.  The names are fixture identifiers used by
the CLI:

* ``example41``   bivariate concave kink: the compass difference lands inside
  the Clarke generalized gradient but outside the two-point set of limiting
  gradients, so it is not a limiting/B-subdifferential element.
* ``example42``   three support probes of the unit disc admit three mutually
  exclusive consistent sets (the edges of the probe triangle), so three
  probes never determine a set element.
* ``example43``   two disjoint compact convex sets in three dimensions share
  the interval hull [-1, 1]^3: the midpoint guarantee and the compass
  guarantee both fail beyond the plane.
* ``example44``   a non-closed planar convex set whose interval-hull midpoint
  escapes it: closedness is essential, and a support oracle cannot see it.
* ``footnote1``   the directional derivative of max(0, min(x1, x2)) at the
  origin is nonconvex in the direction, so oracles assuming convexity in d
  do not apply to it.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from . import expr as ex
from .catalog import catalog_entry, clarke_membership_check
from .compass import compass_difference
from .geometry import (
    interval_hull,
    load_polytope_json,
    membership_check,
    midpoint_element,
    three_probe_ambiguity,
)
from .hulls import separation
from .oracle import UNGUARANTEED

DEMO_NAMES = ("example41", "example42", "example43", "example44", "footnote1")


def paper_fixture_path(name: str):
    """Path of a bundled JSON fixture (``paper/<name>``)."""
    return resources.files("compassdiff") / "paper" / name


def _check(checks: list, name: str, passed: bool, detail: str = ""):
    checks.append({"name": name, "passed": bool(passed), "detail": detail})


def demo_example41() -> dict:
    entry = catalog_entry("neg_abs_x1")
    result = compass_difference(entry.oracle, np.zeros(2))
    limiting = np.array([[-1.0, 0.0], [1.0, 0.0]])
    checks: list = []
    _check(checks, "compass difference is (0, 0)", np.array_equal(result.subgradient, np.zeros(2)),
           f"got {result.subgradient.tolist()}")
    _check(checks, "member of the Clarke generalized gradient",
           clarke_membership_check(result.subgradient, entry.clarke_hull(np.zeros(2)), tol=1e-12))
    dist_to_limiting = min(float(np.linalg.norm(result.subgradient - g)) for g in limiting)
    _check(checks, "not in the two-point limiting-gradient set", dist_to_limiting > 0.5,
           f"distance {dist_to_limiting}")
    return _report("example41", checks, compass=result.to_json_dict())


def demo_example42() -> dict:
    theta = np.deg2rad(np.array([90.0, 210.0, 330.0]))
    probes = np.column_stack([np.cos(theta), np.sin(theta)])
    cert = three_probe_ambiguity(*probes)
    checks: list = []
    _check(checks, "all nine edge support values equal 1", cert.max_support_error <= 1e-10,
           f"max deviation {cert.max_support_error:.3e}")
    _check(checks, "triple edge intersection is empty", cert.intersection_empty)
    # with probes on the unit circle, each edge is a valid guess for the disc itself
    disc_support = np.linalg.norm(probes, axis=1)
    _check(checks, "probes normalised to the unit disc", bool(np.max(np.abs(disc_support - 1.0)) <= 1e-12))
    return _report("example42", checks, certificate=cert.to_json_dict())


def demo_example43() -> dict:
    c1 = load_polytope_json(paper_fixture_path("example43_c1.json"))
    c2 = load_polytope_json(paper_fixture_path("example43_c2.json"))
    checks: list = []
    hulls = {}
    for label, oracle in (("C1", c1), ("C2", c2)):
        hull = interval_hull(oracle)
        hulls[label] = {"lower": hull.lower.tolist(), "upper": hull.upper.tolist()}
        _check(checks, f"interval hull of {label} is [-1, 1]^3",
               np.array_equal(hull.lower, -np.ones(3)) and np.array_equal(hull.upper, np.ones(3)))
    mid1 = midpoint_element(c1)
    _check(checks, "midpoint is the origin and is flagged unguaranteed",
           np.array_equal(mid1.point, np.zeros(3)) and mid1.guarantee == UNGUARANTEED)
    for label, oracle in (("C1", c1), ("C2", c2)):
        report = membership_check(oracle, np.zeros(3), tol=1e-9)
        _check(checks, f"midpoint is not a member of {label}", not report.member, report.message())
    e = np.ones(3)
    sep_hi = float(c2.sigma(e))
    sep_lo = -float(c1.sigma(-e))
    _check(checks, "direction (1,1,1) separates C1 from C2", sep_hi < sep_lo,
           f"sigma_C2(e) = {sep_hi} < {sep_lo} = -sigma_C1(-e)")

    deriv_table = {}
    compasses = {}
    for name in ("example43_f", "example43_phi"):
        entry = catalog_entry(name)
        derivs = []
        for i in range(3):
            for s in (1.0, -1.0):
                d = np.zeros(3)
                d[i] = s
                derivs.append(ex.eval_dir_deriv(entry.expr, np.zeros(3), d))
        deriv_table[name] = derivs
        _check(checks, f"{name}: all six axis directional derivatives equal 1",
               all(v == 1.0 for v in derivs), f"got {derivs}")
        result = compass_difference(entry.oracle, np.zeros(3))
        compasses[name] = result.to_json_dict()
        _check(checks, f"{name}: compass difference is zero and unguaranteed",
               np.array_equal(result.subgradient, np.zeros(3)) and result.guarantee == UNGUARANTEED)
        gens = entry.clarke_hull(np.zeros(3)).generators
        _check(checks, f"{name}: zero vector is outside the generalized gradient",
               separation(np.zeros(3), gens)[0] > 1e-3)
    gens_f = catalog_entry("example43_f").clarke_hull(np.zeros(3)).generators
    gens_phi = catalog_entry("example43_phi").clarke_hull(np.zeros(3)).generators
    _check(checks, "the two generalized gradients are disjoint (separated by (1,1,1))",
           float(np.min(gens_f @ e)) > float(np.max(gens_phi @ e)))
    return _report("example43", checks, hulls=hulls, compasses=compasses,
                   separation={"direction": e.tolist(), "sigma_C2": sep_hi, "minus_sigma_C1_neg": sep_lo},
                   axis_derivatives=deriv_table)


def demo_example44() -> dict:
    # the open set {-1 < x1, x2 < 1, x1 < x2}; its closure is the triangle below
    closure = load_polytope_json(paper_fixture_path("example44_closure.json"))
    midpoint = midpoint_element(closure)
    hull, mid = midpoint.hull, midpoint.point
    checks: list = []
    _check(checks, "interval hull is [-1, 1]^2",
           np.array_equal(hull.lower, -np.ones(2)) and np.array_equal(hull.upper, np.ones(2)))
    _check(checks, "midpoint is the origin", np.array_equal(mid, np.zeros(2)))

    def strictly_inside(p) -> bool:
        return -1.0 < p[0] and p[1] < 1.0 and p[0] < p[1]

    _check(checks, "midpoint violates the strict inequality x1 < x2", not strictly_inside(mid),
           f"x1 = {mid[0]}, x2 = {mid[1]}")
    closure_report = membership_check(closure, mid, tol=1e-9)
    _check(checks, "support oracle of the closure cannot exclude the midpoint", closure_report.member,
           "open sets share their closure's support function")
    return _report("example44", checks, midpoint=mid.tolist())


def demo_footnote1() -> dict:
    entry = catalog_entry("max0_min")
    origin = np.zeros(2)
    d1 = np.array([1.0, 0.0])
    d2 = np.array([0.0, 1.0])
    f1 = ex.eval_dir_deriv(entry.expr, origin, d1)
    f2 = ex.eval_dir_deriv(entry.expr, origin, d2)
    f12 = ex.eval_dir_deriv(entry.expr, origin, d1 + d2)
    checks: list = []
    _check(checks, "f'(0; e1) = f'(0; e2) = 0", f1 == 0.0 and f2 == 0.0, f"got {f1}, {f2}")
    _check(checks, "f'(0; e1 + e2) = 1 exceeds f'(0; e1) + f'(0; e2)", f12 == 1.0 and f12 > f1 + f2,
           "the directional derivative is nonconvex in the direction")
    result = compass_difference(entry.oracle, origin)
    _check(checks, "compass difference (0, 0) is still a Clarke subgradient",
           np.array_equal(result.subgradient, np.zeros(2))
           and clarke_membership_check(result.subgradient, entry.clarke_hull(origin), tol=1e-12))
    return _report("footnote1", checks,
                   directional_values={"d1": f1, "d2": f2, "d1_plus_d2": f12},
                   compass=result.to_json_dict())


_DEMOS = {
    "example41": demo_example41,
    "example42": demo_example42,
    "example43": demo_example43,
    "example44": demo_example44,
    "footnote1": demo_footnote1,
}


def _report(name: str, checks: list, **payload) -> dict:
    report = {"demo": name, "passed": all(c["passed"] for c in checks), "checks": checks}
    report.update(payload)
    return report


def run_demo(name: str) -> dict:
    if name not in _DEMOS:
        raise KeyError(f"unknown demo {name!r}; available: {', '.join(DEMO_NAMES)}")
    return _DEMOS[name]()
