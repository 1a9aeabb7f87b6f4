import numpy as np
import pytest

from conftest import ball_support
from compassdiff import expr as ex
from compassdiff.compass import compass_difference
from compassdiff.demos import paper_fixture_path
from compassdiff.geometry import (
    interval_hull,
    load_polytope_json,
    membership_check,
    midpoint_element,
    polytope_support,
    three_probe_ambiguity,
)
from compassdiff.hulls import convex_hull_2d, separation
from compassdiff.oracle import GUARANTEED, UNGUARANTEED
from compassdiff.sampling import unit_directions

C1_VERTICES = np.array([[1, 1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, 1]], dtype=float)
C2_VERTICES = np.array([[1, -1, -1], [-1, 1, -1], [-1, -1, 1], [-1, -1, -1]], dtype=float)


# ---------------------------------------------------------------------------
# polytope_support

def test_polytope_support_values():
    c1 = polytope_support(C1_VERTICES)
    assert c1.sigma(np.ones(3)) == 3.0
    square = polytope_support([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    assert square.sigma([1.0, 0.0]) == 1.0
    single = polytope_support([[2.0, -3.0]])
    d = np.array([0.25, -1.5])
    assert single.sigma(d) == d @ np.array([2.0, -3.0])


def test_polytope_support_rejects_bad_input():
    with pytest.raises(ValueError):
        polytope_support([])
    oracle = polytope_support([[1.0, 0.0]])
    with pytest.raises(ValueError):
        oracle.sigma([1.0, 0.0, 0.0])


def test_support_homogeneity_and_subadditivity_sampled():
    rng = np.random.default_rng(6)
    oracles = [polytope_support(C1_VERTICES), polytope_support(rng.uniform(-5, 5, (7, 2))), ball_support(2.0)]
    for oracle in oracles:
        n = oracle.dim
        for _ in range(1000):
            d1 = rng.uniform(-1, 1, n)
            d2 = rng.uniform(-1, 1, n)
            t = rng.uniform(0.1, 3.0)
            assert oracle.sigma(t * d1) == pytest.approx(t * oracle.sigma(d1), rel=1e-12, abs=1e-12)
            assert oracle.sigma(d1 + d2) <= oracle.sigma(d1) + oracle.sigma(d2) + 1e-12


# ---------------------------------------------------------------------------
# interval_hull / midpoint_element

def test_interval_hull_examples():
    ball = ball_support(1.0, dim=2)
    hull = interval_hull(ball)
    assert np.array_equal(hull.lower, [-1.0, -1.0]) and np.array_equal(hull.upper, [1.0, 1.0])

    c1 = polytope_support(C1_VERTICES)
    hull = interval_hull(c1)
    assert np.array_equal(hull.lower, -np.ones(3)) and np.array_equal(hull.upper, np.ones(3))

    tri = polytope_support([[0, 0], [2, 0], [0, 2]])
    hull = interval_hull(tri)
    assert np.array_equal(hull.lower, [0.0, 0.0]) and np.array_equal(hull.upper, [2.0, 2.0])


def test_interval_hull_equals_vertex_minmax_exactly():
    rng = np.random.default_rng(14)
    for _ in range(50):
        vertices = rng.uniform(-10, 10, size=(int(rng.integers(1, 9)), int(rng.integers(1, 4))))
        hull = interval_hull(polytope_support(vertices))
        assert np.array_equal(hull.lower, vertices.min(axis=0))
        assert np.array_equal(hull.upper, vertices.max(axis=0))


def test_interval_hull_detects_unbounded_set():
    bad = lambda d: float("inf") if d[0] > 0 else 1.0
    from compassdiff.geometry import SupportOracle

    with pytest.raises(ValueError, match="unbounded or empty"):
        interval_hull(SupportOracle(dim=2, sigma=bad))


def test_midpoint_examples():
    ball = ball_support(1.0, dim=2)
    res = midpoint_element(ball)
    assert np.array_equal(res.point, np.zeros(2)) and res.guarantee == GUARANTEED

    tri = polytope_support([[0, 0], [2, 0], [0, 2]])
    res = midpoint_element(tri)
    assert np.array_equal(res.point, [1.0, 1.0]) and res.guarantee == GUARANTEED
    # (1, 1) sits on the hypotenuse, hence inside the set
    assert membership_check(tri, res.point, tol=1e-9).member

    c1 = polytope_support(C1_VERTICES)
    res = midpoint_element(c1)
    assert np.array_equal(res.point, np.zeros(3)) and res.guarantee == UNGUARANTEED
    assert not membership_check(c1, res.point, tol=1e-9).member

    # the midpoint of a compact interval always lies in it, as compass.probe labels dimension 1
    segment = polytope_support([[3.0], [-1.0], [0.5]])
    res = midpoint_element(segment)
    assert res.hull.lower.tolist() == [-1.0] and res.hull.upper.tolist() == [3.0]
    assert res.point.tolist() == [1.0] and res.guarantee == GUARANTEED
    assert membership_check(segment, res.point, tol=0.0).member


# ---------------------------------------------------------------------------
# membership_check

def test_membership_examples():
    c1 = polytope_support(C1_VERTICES)
    report = membership_check(c1, np.zeros(3))
    assert not report.member
    # witness should point roughly opposite (1,1,1)
    e = np.ones(3) / np.sqrt(3.0)
    assert report.witness @ e < -0.8
    assert "separated" in report.message()

    ball = ball_support(1.0, dim=2)
    assert membership_check(ball, np.zeros(2)).member
    outside = membership_check(ball, [1.01, 0.0], tol=1e-6)
    assert not outside.member
    assert outside.witness @ np.array([1.0, 0.0]) > 0.99


def test_membership_inside_reports_no_separation():
    ball = ball_support(1.0, dim=2)
    report = membership_check(ball, [0.2, -0.1])
    assert report.member and report.witness is None
    assert report.message() == "no separation found among 360 directions"


def test_membership_deterministic_given_seed():
    # the ball is known through sigma alone, so it is tested on sampled directions
    ball = ball_support(1.0, dim=2)
    a = membership_check(ball, [1.01, 0.3])
    b = membership_check(ball, [1.01, 0.3])
    assert not a.member and a.n_directions == 360
    assert a.max_gap == b.max_gap and np.array_equal(a.witness, b.witness)


# ---------------------------------------------------------------------------
# three_probe_ambiguity

def test_three_probe_symmetric_circumscribed_triangle():
    theta = np.deg2rad([90.0, 210.0, 330.0])
    probes = np.column_stack([np.cos(theta), np.sin(theta)])
    cert = three_probe_ambiguity(*probes)
    assert cert.passed
    assert cert.max_support_error <= 1e-12
    assert cert.intersection_empty
    # equilateral triangle circumscribing the unit disc: vertices at radius 2
    assert np.linalg.norm(cert.vertices, axis=1) == pytest.approx([2.0, 2.0, 2.0])


def test_three_probe_generic_triangle():
    cert = three_probe_ambiguity([1.0, 0.0], [0.0, 1.0], [-1.0 / np.sqrt(2), -1.0 / np.sqrt(2)])
    assert cert.passed
    assert cert.support_values == pytest.approx(np.ones((3, 3)), abs=1e-12)


def test_three_probe_unbounded_region_raises():
    with pytest.raises(ValueError, match="do not bound a triangle"):
        three_probe_ambiguity([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="do not bound a triangle"):
        three_probe_ambiguity([1.0, 0.0], [2.0, 0.0], [0.0, 1.0])


# ---------------------------------------------------------------------------
# random polygon property (the planar midpoint guarantee, dually)

def test_random_polygon_midpoints_are_members():
    rng = np.random.default_rng(42)
    built = 0
    while built < 50:
        pts = rng.uniform(-10, 10, size=(int(rng.integers(3, 13)) + 6, 2))
        hull = convex_hull_2d(pts)
        if not (3 <= hull.shape[0] <= 12):
            continue
        built += 1
        oracle = polytope_support(hull)
        mid = midpoint_element(oracle)
        assert mid.guarantee == GUARANTEED
        assert separation(mid.point, hull)[0] <= 1e-9
        assert membership_check(oracle, mid.point, tol=1e-9).member


def _support_expr(vertices):
    """max_i <v_i, x> as an expression tree: the support function of the polygon, in x."""
    return ex.max_(*[ex.add(ex.scale(a, ex.var(0)), ex.scale(b, ex.var(1))) for a, b in vertices.tolist()])


@pytest.mark.parametrize("seed", range(40))
def test_compass_difference_of_the_support_expression_is_the_midpoint(seed):
    # the paper's dual result through two front ends: the expression oracle's compass difference of sigma at
    # x = 0, where every vertex ties, and the support front end's interval-hull midpoint.  Measured over 1000
    # seeded polygons like these, zero columns and all-negative ones included, the two agreed exactly as floats
    # (and in their bits), so the tolerance is zero
    rng = np.random.default_rng(seed)
    vertices = rng.normal(size=(int(rng.integers(1, 12)), 2)) * [1e-3, 1.0, 1e3][seed % 3]
    if seed % 4 == 1:
        vertices[:, seed % 2] = 0.0
    if seed % 5 == 2:
        vertices = -np.abs(vertices)
    result = compass_difference(ex.as_oracle(_support_expr(vertices), 2), [0.0, 0.0])
    mid = midpoint_element(polytope_support(vertices))
    assert result.subgradient.tolist() == mid.point.tolist()
    assert [p.value for p in result.probes[0::2]] == mid.hull.upper.tolist()
    assert [-p.value for p in result.probes[1::2]] == mid.hull.lower.tolist()


# ---------------------------------------------------------------------------
# JSON loading

def test_load_polytope_json_fixture():
    oracle = load_polytope_json(paper_fixture_path("example43_c1.json"))
    assert oracle.dim == 3
    assert oracle.sigma(np.ones(3)) == 3.0


def test_load_polytope_json_validates():
    with pytest.raises(ValueError):
        load_polytope_json({"dim": 3, "vertices": [[1.0, 2.0]]})
    with pytest.raises(ValueError):
        load_polytope_json({"dim": 2})


def test_sphere_directions_cover_dimension_three():
    dirs = unit_directions(360, 3)
    assert np.linalg.norm(dirs, axis=1) == pytest.approx(np.ones(360))
    # reasonable coverage: every open octant is hit
    signs = {tuple(np.sign(d).astype(int)) for d in dirs if np.all(d != 0.0)}
    assert len(signs) == 8
