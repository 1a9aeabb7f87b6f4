"""The exact membership decision ``hulls.separation`` and what is built on it.

The property tests check ``membership_check`` (through a polytope's vertex
list) and ``clarke_membership_check`` against the LP distance
``hull_distance``.  In the plane the points lie a distance delta, far above
the tolerance, inside and outside the edges and vertices of random convex
polygons.  In three to six dimensions they lie from 1e-8 to 1 of the scale
inside and outside random generator sets, where the direction comes from
Wolfe's nearest point.  Collinear, repeated and single-point sets are drawn
in both, coplanar ones in space, with coordinates scaled from 1e-3 to 1e3
and to 1e-150 and 1e150 in space.  Every non-member witness must separate,
its gap recomputed from the vertices and at least 1/sqrt(2) of the LP's
l-inf distance.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ball_support
from compassdiff import cli, geometry, hulls, sampling
from compassdiff.catalog import GradientHull, catalog_entry, clarke_membership_check
from compassdiff.cli import main
from compassdiff.demos import DEMO_NAMES, paper_fixture_path
from compassdiff.geometry import membership_check, polytope_support
from compassdiff.hulls import convex_hull_2d, hull_distance, separation
from compassdiff.oracle import NumericalError

TOL = 1e-9


def _generators(rng, kind: str, scale: float, n: int = 2) -> np.ndarray:
    center = rng.uniform(-2.0, 2.0, n) * scale
    if kind == "single":
        return np.repeat(center[None, :], int(rng.integers(1, 4)), axis=0)
    if kind == "collinear":
        a, b = rng.uniform(-1.0, 1.0, (2, n)) * scale
        t = rng.uniform(0.0, 1.0, int(rng.integers(2, 7)))
        return center + a + t[:, None] * (b - a)
    if kind == "needle":
        # a triangle whose tip angle is far below tol / delta
        tip, base = rng.uniform(-1.0, 1.0, (2, 2)) * scale
        side = 1e-7 * np.array([base[1] - tip[1], tip[0] - base[0]])
        return center + np.array([tip, base + side, base - side])
    if kind == "coplanar":
        plane = rng.uniform(-1.0, 1.0, (2, n))
        return center + rng.uniform(-1.0, 1.0, (int(rng.integers(3, 11)), 2)) @ plane * scale
    pts = center + rng.uniform(-1.0, 1.0, (int(rng.integers(3, 11)), n)) * scale
    if kind == "repeated":
        pts = np.vstack([pts, pts[rng.integers(0, len(pts), 3)]])
    return pts


def _planar_probe_points(gens: np.ndarray, delta: float, rng) -> list:
    """Points delta inside and outside each edge midpoint and each vertex of the hull."""
    v = convex_hull_2d(gens)
    if v.shape[0] == 1:
        return [v[0]] + [v[0] + delta * u for u in sampling.unit_directions(8, 2, seed=int(rng.integers(100)))]
    edges = np.roll(v, -1, axis=0) - v
    u = edges / np.linalg.norm(edges, axis=1, keepdims=True)
    normals = np.column_stack([u[:, 1], -u[:, 0]])
    corners = np.roll(u, 1, axis=0) - u
    corners /= np.linalg.norm(corners, axis=1, keepdims=True)
    points = []
    for s in (1.0, -1.0):
        points += list(v + 0.5 * edges + s * delta * normals)
        points += list(v + s * delta * corners)
    return points


def _check_against_lp(points, gens, delta, tol):
    oracle = polytope_support(gens)
    hull = GradientHull(generators=gens)
    decided = 0
    for p in points:
        dist = hull_distance(p, gens)
        if tol / 10 < dist < 10 * tol:
            continue  # within reach of the tolerance: the two metrics may differ there
        want = dist <= tol
        report = membership_check(oracle, p, tol=tol)
        assert report.member == want, (gens.tolist(), p.tolist(), dist, report.max_gap)
        assert clarke_membership_check(p, hull, tol=tol) == want
        assert report.n_directions is None
        if not want:
            d = report.witness
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
            gap = float(d @ p) - float(np.max(gens @ d))
            assert gap > tol
            assert gap == pytest.approx(report.max_gap, rel=1e-9, abs=1e-12 * delta)
            assert report.max_gap >= dist / math.sqrt(2.0) * (1.0 - 1e-6)
        else:
            assert report.witness is None
        decided += 1
    return decided


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["generic", "repeated", "collinear", "single", "needle"]),
       scale=st.sampled_from([1e-3, 1e-2, 1.0, 10.0, 1e3]))
def test_planar_separation_agrees_with_the_lp(seed, kind, scale):
    rng = np.random.default_rng(seed)
    gens = _generators(rng, kind, scale)
    # delta and tol scale with the coordinates: the LP reference is accurate
    # to a fixed fraction of them, not to an absolute 1e-9
    delta = 1e-3 * scale
    assert _check_against_lp(_planar_probe_points(gens, delta, rng), gens, delta, TOL * scale) > 0


def _spatial_probe_points(gens: np.ndarray, scale: float, rng) -> list:
    """Points from 1e-8 to 1 of the scale beyond the furthest generator, near others, and inside."""
    center = gens.mean(axis=0)
    far = gens[int(np.argmax(np.linalg.norm(gens - center, axis=1)))]
    out = far - center
    norm = np.linalg.norm(out)
    out = out / norm if norm > 0.0 else np.eye(gens.shape[1])[0]
    points = [center]
    for rel in 10.0 ** rng.uniform(-8.0, 0.0, 3):
        u = rng.standard_normal(gens.shape[1])
        v = gens[rng.integers(len(gens))]
        # beyond a supporting hyperplane at the furthest generator, near
        # another in a random direction, and on the way in from it
        points += [far + rel * scale * out, v + rel * scale * u / np.linalg.norm(u), v + rel * (center - v)]
    return points


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 6),
       kind=st.sampled_from(["generic", "repeated", "collinear", "coplanar", "single"]),
       scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]))
def test_spatial_separation_agrees_with_the_lp(seed, n, kind, scale):
    rng = np.random.default_rng(seed)
    gens = _generators(rng, kind, scale, n)
    _check_against_lp(_spatial_probe_points(gens, scale, rng), gens, scale, TOL * scale)


def test_a_sliver_keeps_its_nearest_point_direction():
    # a triangle 1e-12 to 1e-6 wide, turned and moved at random, and a point
    # delta above its plane over the middle line: the distance is delta.  The
    # direction comes from the nearest point of the affine hull of two or
    # three vertices, whose part along the sliver must not be rounding
    rng = np.random.default_rng(1)
    for _ in range(6):
        rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        shift = rng.uniform(-1.0, 1.0, 3)
        for width in (1e-6, 1e-9, 1e-12):
            sliver = np.array([[0.0, 0.0, 0.0], [1.0, width, 0.0], [1.0, -width, 0.0]]) @ rot.T + shift
            for s in (0.1, 0.5, 0.9):
                for delta in (1e-5, 1e-7, 1e-9):
                    gap, _ = separation(rot @ [s, 0.0, delta] + shift, sliver)
                    assert delta / math.sqrt(2.0) <= gap <= delta * (1.0 + 1e-6)


def _example43_sets() -> list:
    return [np.array(json.loads(paper_fixture_path(f"example43_c{i}.json").read_text())["vertices"], dtype=float)
            for i in (1, 2)] + [catalog_entry(name).clarke_hull(np.zeros(3)).generators
                                for name in ("example43_f", "example43_phi")]


def test_the_example43_sets_are_decided_by_the_nearest_point():
    for gens in _example43_sets():
        assert separation(np.zeros(3), gens)[0] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
        assert separation(gens.mean(axis=0), gens)[0] < 0.0
        for p in sampling.unit_directions(20, 3, seed=4):
            separation(p, gens)
    for argv in (["demo", "example43"], ["hull", "--polytope", "example43_c1.json", "--midpoint"],
                 ["hull", "--polytope", "example43_c2.json", "--midpoint"]):
        assert main(argv) == 0


def test_an_uncertified_direction_leaves_membership_undecided(monkeypatch, capsys):
    # no drawn set gets here; with no step allowed, Wolfe's algorithm gives
    # up at its first minor cycle, and no other direction is sought
    monkeypatch.setattr(hulls, "_MAX_WOLFE_STEPS", 0)
    with pytest.raises(NumericalError, match="^membership undecided"):
        separation([0.0, 0.0, 0.0], _example43_sets()[0])
    assert main(["hull", "--polytope", "example43_c1.json", "--point", "0,0,0"]) == cli.EXIT_NUMERIC == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: membership undecided") and err.count("\n") == 1
    assert "Traceback" not in err


_C1 = [[1.0, 1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, 1.0]]


@pytest.mark.parametrize("caller", [
    lambda: membership_check(polytope_support(_C1), [0.0, 0.0, 0.0]),
    lambda: clarke_membership_check([0.0, 0.0, 0.0], GradientHull(generators=np.array(_C1))),
], ids=["membership_check", "clarke_membership_check"])
def test_an_undecided_membership_reaches_the_library_caller(monkeypatch, caller):
    # no verdict is made up from an uncertified direction: the caller sees the error
    monkeypatch.setattr(hulls, "_MAX_WOLFE_STEPS", 0)
    with pytest.raises(NumericalError, match="^membership undecided"):
        caller()


def test_an_undecided_membership_makes_demo_example43_exit_4(monkeypatch, capsys):
    monkeypatch.setattr(hulls, "_MAX_WOLFE_STEPS", 0)
    assert main(["demo", "example43"]) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical failure: membership undecided") and err.count("\n") == 1


def test_separation_of_degenerate_sets():
    # a single point: the coordinate directions give the l-inf distance
    gap, d = separation([1.0, 3.0], [[0.0, 0.0]])
    assert gap == 3.0 and d.tolist() == [0.0, 1.0]
    # a segment: beyond its end, and beside it
    segment = [[0.0, 0.0], [1.0, 1.0]]
    assert separation([0.5, 0.5], segment)[0] <= TOL
    assert separation([2.0, 2.0], segment) == (1.0, pytest.approx([1.0, 0.0]))  # distance sqrt(2)
    assert separation([1.0, 0.0], segment)[0] == pytest.approx(math.sqrt(0.5))
    # the line
    assert separation([0.5], [[-1.0], [1.0]])[0] == -0.5
    assert separation([1.5], [[-1.0], [1.0]]) == (0.5, pytest.approx([1.0]))
    # a gap beyond the largest float
    assert separation([1e308], [[-1e308]]) == (math.inf, pytest.approx([1.0]))
    with pytest.raises(ValueError, match="empty"):
        separation([0.0, 0.0], np.zeros((0, 2)))
    with pytest.raises(ValueError, match="dimension"):
        separation([0.0, 0.0, 0.0], [[0.0, 0.0]])


@pytest.mark.parametrize("gens, point", [
    ([[0.0, 0.0], [3.0, 0.0], [0.0, 1.0]], [1.5, 0.6]),
    ([[1.0, 1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, 1.0]], [0.0, 0.1, 0.2]),
])
def test_separation_scales_exactly_by_powers_of_two(gens, point):
    # point and generators are scaled into [-1, 1] by a power of two first,
    # so no edge normal or LP coefficient overflows or underflows
    gap, d = separation(point, gens)
    dist = hull_distance(point, gens)
    for k in (-1000, -500, 50, 500, 1000):
        s = 2.0 ** k
        scaled_gap, scaled_d = separation(np.multiply(point, s), np.multiply(gens, s))
        assert scaled_gap == gap * s and scaled_d.tolist() == d.tolist()
        assert hull_distance(np.multiply(point, s), np.multiply(gens, s)) == pytest.approx(dist * s, rel=1e-12)


def test_a_needle_tip_is_not_widened_by_the_tolerance():
    # the edge normals of a needle are almost orthogonal to its tip, but a
    # coordinate direction lies within 45 degrees of the tip's bisector: a
    # point 1e-4 beyond the tip keeps a gap of at least 1e-4 / sqrt(2)
    for angle in np.linspace(0.0, 2.0 * np.pi, 37):
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        needle = np.array([[0.0, 0.0], [1.0, 1e-7], [1.0, -1e-7]]) @ rot.T
        gap, d = separation(rot @ [-1e-4, 0.0], needle)
        assert 1e-4 / math.sqrt(2.0) * (1 - 1e-6) <= gap <= 1e-4 * (1 + 1e-6)
        assert d @ (rot @ [-1.0, 0.0]) >= math.sqrt(0.5) - 1e-9


def test_membership_check_verdicts_say_how_they_were_reached():
    tri = polytope_support([[0, 0], [2, 0], [0, 2]])
    inside = membership_check(tri, [1.0, 1.0])
    assert inside.member and inside.message() == "in the convex hull of the vertices (exact test)"
    outside = membership_check(tri, [1.5, 1.5])
    assert not outside.member and outside.message().endswith("(exact test)")
    sampled = membership_check(ball_support(), [0.0, 0.0])
    assert sampled.message() == "no separation found among 360 directions"


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_library_membership_rejects_a_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol"):
        membership_check(polytope_support([[0.0, 0.0]]), [0.0, 0.0], tol=tol)
    with pytest.raises(ValueError, match="tol"):
        clarke_membership_check([0.0, 0.0], GradientHull(generators=[[0.0, 0.0]]), tol=tol)


# ---------------------------------------------------------------------------
# the hull command

def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_hull_excludes_a_point_just_outside_the_hypotenuse(capsys, tmp_path):
    # the sampled test reported this point, 1e-3 outside the hypotenuse, as a member
    vertices = [[0, 0], [3, 0], [0, 1]]
    path = tmp_path / "tri2.json"
    path.write_text(json.dumps({"dim": 2, "vertices": vertices}))
    point = [1.5003162277660168, 0.50094868329805051]
    code, out, _ = _run(capsys, "hull", "--polytope", str(path), "--point", ",".join(map(repr, point)))
    assert code == 0
    got = json.loads(out)["membership"]
    assert got["member"] is False
    d = np.array(got["witness"])
    gap = float(d @ point) - float(np.max(np.array(vertices, dtype=float) @ d))
    assert gap == pytest.approx(1e-3, rel=1e-9) and got["max_gap"] == pytest.approx(gap, rel=1e-12)
    assert got["detail"].endswith("(exact test)")


@pytest.mark.parametrize("vertices, point, gap", [
    # the edge normals overflowed to inf, then nan: "member": true
    ([[0, 0], [1e160, 0], [0, 1e160]], [6e159, 6e159], 2e159 / math.sqrt(2.0)),
    # they underflowed to zero: a nan gap and exit 3
    ([[0, 0], [1e-170, 0], [0, 1e-170]], [2e-171, 2e-171], None),
    # an edge 1e-300 of the largest coordinate: its normal squares to zero
    ([[0, 0], [1e300, 0], [0, 1]], [-1, 0.5], 1.0),
    # HiGHS refused the coefficients: a RuntimeError traceback, exit 1
    ([[0, 0, 0], [1e15, 0, 0], [0, 1e15, 0], [0, 0, 1e15]], [1e15, 1e15, 1e15], 2e15 / math.sqrt(3.0)),
    ([[0, 0, 0], [1e15, 0, 0], [0, 1e15, 0], [0, 0, 1e15]], [1e14, 1e14, 1e14], None),
], ids=["1e160", "1e-170", "1e300 and 1", "1e15 outside", "1e15 inside"])
def test_cli_hull_at_extreme_coordinate_scales(capsys, tmp_path, vertices, point, gap):
    path = tmp_path / "polytope.json"
    path.write_text(json.dumps({"dim": len(point), "vertices": vertices}))
    code, out, err = _run(capsys, "hull", "--polytope", str(path), "--point=" + ",".join(map(repr, point)))
    assert code == 0, err
    got = json.loads(out)["membership"]
    assert got["member"] is (gap is None)
    if gap is not None:
        # the Euclidean distance, with the witness recomputed from the vertices
        d = np.array(got["witness"])
        assert float(d @ point) - float(np.max(np.array(vertices, dtype=float) @ d)) == pytest.approx(gap, rel=1e-12)
        assert got["max_gap"] == pytest.approx(gap, rel=1e-12)
    assert hull_distance(point, vertices) >= 0.0


@pytest.mark.parametrize("extra", [["--seed", "3"], ["--directions", "720"]])
def test_cli_sampling_options_are_gone(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["hull", "--polytope", "triangle.json", "--point", "0,0", *extra])
    assert exc.value.code == 2


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_cli_hull_tolerance_must_be_finite_and_nonnegative(capsys, tol):
    code, out, err = _run(capsys, "hull", "--polytope", "triangle.json", "--point", "0,0", f"--tol={tol}")
    assert code == 2 and out == ""
    assert "tol must be nonnegative and finite" in err


def test_cli_hull_probes_sigma_four_times(capsys, monkeypatch):
    calls = []
    real = geometry.polytope_support

    def counting(vertices, description=""):
        oracle = real(vertices, description)

        def sigma(d):
            calls.append(np.asarray(d).tolist())
            return oracle.sigma(d)

        return geometry.SupportOracle(dim=oracle.dim, sigma=sigma, description=oracle.description,
                                      vertices=oracle.vertices)

    monkeypatch.setattr(geometry, "polytope_support", counting)
    code, out, _ = _run(capsys, "hull", "--polytope", "triangle.json", "--midpoint", "--point", "1.5,1.5")
    assert code == 0
    assert calls == [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    payload = json.loads(out)
    assert payload["hull"] == {"lower": [0.0, 0.0], "upper": [2.0, 2.0]}
    assert payload["midpoint"]["member"] is True and payload["membership"]["member"] is False


def test_hull_and_demos_sample_no_directions(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("unit_directions called")

    for name, module in list(sys.modules.items()):
        if name.startswith("compassdiff.") and hasattr(module, "unit_directions"):
            monkeypatch.setattr(module, "unit_directions", refuse)
    for argv in (["hull", "--polytope", "triangle.json", "--midpoint", "--point", "3,3"],
                 ["hull", "--polytope", "example43_c1.json", "--midpoint"],
                 *(["demo", name] for name in DEMO_NAMES)):
        code, _, err = _run(capsys, *argv)
        assert code == 0, (argv, err)


@pytest.mark.parametrize("name, argv", [
    ("surface.csv", ["ode", "--problem", "example46.json", "--at", "0,0", "--surface=-1:1:3"]),
    # the demo printed its whole report before the write failed
    ("demo_example42.json", ["demo", "example42"]),
])
def test_cli_unwritable_output_file_exits_2(capsys, tmp_path, name, argv):
    (tmp_path / name).mkdir()  # a directory where the file should go
    code, out, err = _run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "cannot write" in err and "Traceback" not in err


def test_cli_write_file_maps_oserror_to_input_error(tmp_path):
    with pytest.raises(cli.InputError, match="cannot write"):
        cli._write_file(str(tmp_path / "missing"), "trace.csv", "x\n")
