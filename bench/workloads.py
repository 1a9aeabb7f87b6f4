"""The four workloads: seeded op lists, how each op runs and how it is checked.

A workload is a sequence of rounds and each round a list of ops.  Every round of
a workload has the same mix of op kinds, and the timed loop only stops
between rounds, so the mix of ops measured never depends on how fast the
code is.  Ops with equal ``key`` must produce equal outputs; each distinct
key is checked once against an independent reference.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Optional

import numpy as np

import exact
import gen

ODE_PROBLEM = "example46.json"
CLOUDS = ("danskin_circle.json", "danskin_sqdist.json")
AXES = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))

# Closed-form subgradient of the example46 cost at the origin.
E = math.e
ODE_ORIGIN_SUBGRADIENT = (E + math.cosh(1.0) / 2.0, (E - math.sinh(1.0)) / 2.0)


@dataclass
class Op:
    kind: str
    key: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when correct, else the reason
    argv: Optional[list] = None  # the same op as a command line, for fresh-process runs


@dataclass
class Workload:
    rounds: object        # indexable by round number, with a len()
    cold_argv: list       # the command line timed in fresh interpreters
    trace_rounds: int     # rounds in one pass of the traced run


class FreshRounds:
    """Round r built on first use from (seed, r) alone: inputs never repeat.

    Building a round ahead of a run would cost set-up time in proportion to
    the longest run; building on first use keeps every input fresh however
    fast the code gets.
    """

    def __init__(self, build, count: int = 1_000_000):
        self._build = build
        self._count = count
        self._cache: dict = {}

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, r: int) -> list:
        if r not in self._cache:
            self._cache[r] = self._build(r)
        return self._cache[r]


class Context:
    """The package modules and fixtures the ops run against."""

    def __init__(self, tmpdir: str):
        # by module path: the package re-exports a function named ``catalog``
        self.cli, self.danskin, self.odesens, self.catalog, demos = (
            import_module(f"compassdiff.{name}") for name in ("cli", "danskin", "odesens", "catalog", "demos"))
        self.tmpdir = tmpdir
        self.demo_names = demos.DEMO_NAMES
        self.fixture = lambda name: str(demos.paper_fixture_path(name))
        self.ode_problem = self.odesens.problem_from_json(self._load(ODE_PROBLEM))
        self.clouds = {name: self.danskin.problem_from_json(self._load(name)) for name in CLOUDS}
        self.entries = {e.name: e for e in self.catalog.catalog() if e.dim == 2}
        self.entry_trees = {name: tree_from_expr(e.expr) for name, e in self.entries.items()}
        self._ode_refs: dict = {}
        self._danskin_refs: dict = {}

    def _load(self, name: str) -> dict:
        with open(self.fixture(name)) as fh:
            return json.load(fh)

    def path(self, *parts: str) -> str:
        return os.path.join(self.tmpdir, *parts)

    def write_json(self, name: str, data: dict) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    # -- references shared by several workloads, cached per input ----------

    def ode_reference_error(self, p, s) -> float:
        """Largest relative gap between ``s`` and the reference subgradient at ``p``.

        The reference is the compass difference of the exact example46 cost;
        at the origin it is the closed form.
        """
        key = tuple(p)
        if key == (0.0, 0.0):
            ref = ODE_ORIGIN_SUBGRADIENT
        else:
            if key not in self._ode_refs:
                self._ode_refs[key] = exact.compass_of(exact.example46_cost, key)
            ref = self._ode_refs[key]
        return max(abs(a - b) / (1.0 + abs(b)) for a, b in zip(s, ref))

    def danskin_reference(self, problem_key: str, problem, x):
        """Centered differences of the optimal value at ``x`` (cached)."""
        key = (problem_key, tuple(x))
        if key not in self._danskin_refs:
            h = 1e-6
            value = self.danskin.optimal_value
            out = []
            for i in range(2):
                hi = [x[0], x[1]]
                lo = [x[0], x[1]]
                hi[i] += h
                lo[i] -= h
                out.append((value(problem, hi) - value(problem, lo)) / (2.0 * h))
            self._danskin_refs[key] = out
        return self._danskin_refs[key]


# The package integrates at 1e-8 tolerances; where x1 changes sign during
# the integration its subgradients drift from the exact ones by up to about
# 6e-6 (relative), measured over 2000 points of [-1, 1]^2.
ODE_TOL = 5e-5
# Cost values carry the whole kink-crossing error of one state integration,
# not a difference of four: up to 5.4e-5 (relative) over 50000 points of
# [-1.5, 1.5]^2.  The package's own tests compare ode_cost_value with slack
# 1e-4, "matched to the integrator tolerance"; surface rows get the same.
ODE_VALUE_TOL = 1e-4
ODE_CLOSED_TOL = 1e-6  # at the origin, as the package's acceptance test demands
DANSKIN_FD_TOL = 1e-6


def ode_tolerance(p) -> float:
    return ODE_CLOSED_TOL if tuple(p) == (0.0, 0.0) else ODE_TOL


def tree_from_expr(e):
    """The benchmark's tuple form of a package expression (catalog fixtures)."""
    if e.kind == "var":
        return ("var", e.index)
    if e.kind == "const":
        return ("const", e.coeff)
    if e.kind == "scale":
        return ("scale", e.coeff, tree_from_expr(e.children[0]))
    return (e.kind, *(tree_from_expr(c) for c in e.children))


# ---------------------------------------------------------------------------
# running a command line in-process

class CliExit(RuntimeError):
    """The command exited with a code other than 0."""


def run_cli(ctx: Context, argv: list) -> str:
    """``cli.main(argv)`` with stdout captured; raises :class:`CliExit` unless it exits 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ctx.cli.main(argv)
        except SystemExit as stop:  # argparse rejects input by exiting
            code = stop.code
    if code != 0:
        raise CliExit(f"exit code {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def parse_stdout(stdout: str):
    """The JSON document of a command's stdout, or the reason there is none.

    Without ``--json``, ``demo`` and ``optimize`` print human-readable lines
    first; the document starts at the first line that opens with ``{``.
    """
    start = 0 if stdout.startswith("{") else stdout.find("\n{") + 1
    try:
        return json.loads(stdout[start:]), None
    except json.JSONDecodeError as err:
        return None, f"stdout is not JSON: {err}"


def _cli_op(ctx: Context, kind: str, argv: list, check_payload) -> Op:
    def check(stdout) -> Optional[str]:
        payload, reason = parse_stdout(stdout)
        return reason or check_payload(payload)

    return Op(kind=kind, key=json.dumps(argv), run=lambda: run_cli(ctx, argv), check=check, argv=argv)


# ---------------------------------------------------------------------------
# independent checks

def _add(x, d, t):
    return (x[0] + t * d[0], x[1] + t * d[1])


def quotient_error(f, x, d, v) -> float:
    """Smallest relative gap between ``v`` and one-sided quotients of f at x along d.

    Plain quotients (f(x + t d) - f(x)) / t and their Richardson extrapolants
    over a ladder of steps; the best one is compared, so round-off at small
    steps and curvature at large ones cannot both spoil the check.
    """
    fx = f(x)
    best = math.inf
    for k in range(2, 10):
        t = 10.0 ** -k
        q1 = (f(_add(x, d, t)) - fx) / t
        q2 = (f(_add(x, d, t / 2)) - fx) / (t / 2)
        best = min(best, abs(q1 - v), abs(2.0 * q2 - q1 - v))
    return best / (1.0 + abs(v))


QUOTIENT_TOL = 1e-6


def check_probes(tree, x, probes, directions) -> Optional[str]:
    if len(probes) != len(directions):
        return f"expected {len(directions)} probes, got {len(probes)}"
    for probe, d in zip(probes, directions):
        if any(abs(a - b) > 1e-12 for a, b in zip(probe["direction"], d)):
            return f"probe direction {probe['direction']} != {list(d)}"
        err = quotient_error(lambda y: gen.ref_value(tree, y), x, d, probe["value"])
        if err > QUOTIENT_TOL:
            return f"probe along {list(d)} off its difference quotients by {err:.3g}"
    return None


def check_halves(payload, basis=None) -> Optional[str]:
    """The subgradient solves basis^T s = ((psi(v_i) - psi(-v_i)) / 2)_i."""
    values = [p["value"] for p in payload["probes"]]
    half = [0.5 * (values[0] - values[1]), 0.5 * (values[2] - values[3])]
    s = payload["subgradient"]
    cols = basis or ((1.0, 0.0), (0.0, 1.0))
    for i in range(2):
        lhs = cols[i][0] * s[0] + cols[i][1] * s[1]
        if abs(lhs - half[i]) > 1e-9 * (1.0 + abs(half[i])):
            return f"subgradient {s} does not reproduce the probe halves {half}"
    if payload["guarantee"] != "guaranteed":
        return f"planar result flagged {payload['guarantee']!r}"
    return None


def inside_polygon(p, vertices, tol=1e-9) -> bool:
    n = len(vertices)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross < -tol:
            return False
    return True


# ---------------------------------------------------------------------------
# cli_tour

def _compass_tree_op(ctx, rng, kind, kinked, basis=False, fd=False) -> Op:
    size = gen.tree_size_draw(rng)
    x = gen.random_point(rng)
    tree = gen.kinked_tree(rng, size, x) if kinked else gen.random_tree(rng, size)
    argv = ["compass", "--expr", gen.format_tree(tree), f"--at={gen.fmt_point(x)}"]
    if basis:
        V = gen.random_basis(rng)
        argv.append("--basis=" + ";".join(gen.fmt_point(row) for row in V))
        cols = ((V[0][0], V[1][0]), (V[0][1], V[1][1]))
        dirs = [cols[0], (-cols[0][0], -cols[0][1]), cols[1], (-cols[1][0], -cols[1][1])]
    else:
        cols = None
        dirs = list(AXES)
    if fd:
        delta = rng.choice((1e-3, 1e-4, 1e-5))
        argv.append(f"--fd={delta!r}")

        def check_fd(payload):
            f = lambda y: gen.ref_value(tree, y)
            for i, probe in enumerate(payload["probes"]):
                want = f(_add(x, AXES[i], delta))
                if abs(probe["value"] - want) > 1e-12 * (1.0 + abs(want)):
                    return f"sample value {probe['value']} != f = {want}"
            vals = [p["value"] for p in payload["probes"]]
            for i in range(2):
                want = (vals[2 * i] - vals[2 * i + 1]) / (2.0 * delta)
                if abs(payload["subgradient"][i] - want) > 1e-12 * (1.0 + abs(want)):
                    return f"centered difference {payload['subgradient'][i]} != {want}"
            return None

        return _cli_op(ctx, kind, argv, check_fd)

    def check(payload):
        return check_probes(tree, x, payload["probes"], dirs) or check_halves(payload, cols)

    return _cli_op(ctx, kind, argv, check)


def _compass_catalog_op(ctx, rng, kind, kinked, basis=False) -> Op:
    name = rng.choice(sorted(ctx.entries))
    entry = ctx.entries[name]
    if kinked and entry.kink_points:
        x = tuple(float(v) for v in rng.choice(entry.kink_points))
    else:
        x = gen.random_point(rng)
    argv = ["compass", "--expr", gen.format_tree(ctx.entry_trees[name]), f"--at={gen.fmt_point(x)}"]
    cols = None
    if basis:
        V = gen.random_basis(rng)
        argv.append("--basis=" + ";".join(gen.fmt_point(row) for row in V))
        cols = ((V[0][0], V[1][0]), (V[0][1], V[1][1]))

    def check(payload):
        hull = entry.clarke_hull(np.array(x))
        if not ctx.catalog.clarke_membership_check(payload["subgradient"], hull, tol=1e-9):
            return f"{name}: {payload['subgradient']} outside the Clarke gradient at {x}"
        return check_halves(payload, cols)

    return _cli_op(ctx, kind, argv, check)


def _triangle_op(ctx) -> Op:
    vertices = ctx._load("triangle.json")["vertices"]
    return _cli_op(ctx, "hull", ["hull", "--polytope", ctx.fixture("triangle.json"), "--midpoint"],
                   lambda payload: _check_hull(payload, vertices, None, None))


def _polygon_ops(ctx, rng, tag) -> list:
    """A random polygon with a point inside (and its midpoint), another with a point outside."""
    ops = []
    for mode in ("inside", "outside"):
        vertices = gen.convex_polygon(rng)
        path = ctx.write_json(f"polygon_{tag}_{mode}.json", {"dim": 2, "vertices": vertices})
        n = len(vertices)
        cx = sum(v[0] for v in vertices) / n
        cy = sum(v[1] for v in vertices) / n
        if mode == "inside":
            v = rng.choice(vertices)
            point, member = (cx + 0.5 * (v[0] - cx), cy + 0.5 * (v[1] - cy)), True
        else:
            # beyond the corner with the widest normal cone (at least 2 pi / n wide),
            # so the sampled separation test finds a separating direction
            k = max(range(n), key=lambda i: _exterior_angle(vertices, i))
            v = vertices[k]
            point, member = (cx + 1.5 * (v[0] - cx), cy + 1.5 * (v[1] - cy)), False
        argv = ["hull", "--polytope", path, f"--point={gen.fmt_point(point)}"]
        if mode == "inside":
            argv.append("--midpoint")
        ops.append(_cli_op(ctx, "hull", argv,
                           lambda payload, vs=vertices, pt=point, m=member: _check_hull(payload, vs, pt, m)))
    return ops


def _exterior_angle(vertices, i) -> float:
    n = len(vertices)
    a, b, c = vertices[i - 1], vertices[i], vertices[(i + 1) % n]
    u = (b[0] - a[0], b[1] - a[1])
    w = (c[0] - b[0], c[1] - b[1])
    return abs(math.atan2(u[0] * w[1] - u[1] * w[0], u[0] * w[0] + u[1] * w[1]))


def _check_hull(payload, vertices, point, member) -> Optional[str]:
    lower = [min(v[i] for v in vertices) for i in range(2)]
    upper = [max(v[i] for v in vertices) for i in range(2)]
    if payload["hull"] != {"lower": [float(v) for v in lower], "upper": [float(v) for v in upper]}:
        return f"interval hull {payload['hull']} != {lower}, {upper}"
    if "midpoint" in payload:
        mid = payload["midpoint"]
        want = [0.5 * (lower[i] + upper[i]) for i in range(2)]
        if mid["point"] != want or not mid["member"] or mid["guarantee"] != "guaranteed":
            return f"midpoint {mid} (want {want}, a guaranteed member)"
        if not inside_polygon(want, vertices):
            return f"midpoint {want} outside the polygon"
    if point is not None:
        got = payload["membership"]
        if got["member"] != member:
            return f"membership of {point} reported {got['member']}, want {member}"
        if not member:
            d = got["witness"]
            gap = d[0] * point[0] + d[1] * point[1] - max(d[0] * v[0] + d[1] * v[1] for v in vertices)
            if gap <= 0:
                return f"witness {d} does not separate {point}"
    return None


def _ode_at_op(ctx, p, traj_dir=None) -> Op:
    argv = ["ode", "--problem", ctx.fixture(ODE_PROBLEM), f"--at={gen.fmt_point(p)}"]
    if traj_dir is not None:
        argv += ["--traj", "--out", traj_dir]

    def check(payload):
        err = ctx.ode_reference_error(p, payload["subgradient"])
        if err > ode_tolerance(p):
            return f"ode subgradient {payload['subgradient']} at {p} off the reference by {err:.3g}"
        if traj_dir is not None:
            if len(payload.get("files", [])) != 4:
                return "expected four trajectory files"
            for path in payload["files"]:
                with open(path) as fh:
                    rows = list(csv.reader(fh))
                if rows[0][0] != "t" or float(rows[1][0]) != 0.0 or float(rows[-1][0]) != 1.0:
                    return f"trajectory {path} does not run from t = 0 to 1"
        return check_halves(payload)

    return _cli_op(ctx, "ode_traj" if traj_dir else "ode", argv, check)


def _danskin_cli_op(ctx, name, x) -> Op:
    problem = ctx.clouds[name]
    argv = ["danskin", "--problem", ctx.fixture(name), f"--at={gen.fmt_point(x)}"]

    def check(payload):
        return _check_danskin(ctx, name, problem, x, payload["subgradient"], payload["stability"])

    return _cli_op(ctx, "danskin", argv, check)


def _check_danskin(ctx, name, problem, x, s, stability) -> Optional[str]:
    ref = ctx.danskin_reference(name, problem, x)
    err = max(abs(a - b) / (1.0 + abs(b)) for a, b in zip(s, ref))
    if err > DANSKIN_FD_TOL:
        return f"{name} subgradient {list(s)} at {x} off the optimal-value differences {ref} by {err:.3g}"
    psi = stability["psi"]
    for i in range(2):
        if abs(0.5 * (psi[2 * i] - psi[2 * i + 1]) - s[i]) > 1e-12:
            return f"stability probes {psi} disagree with the subgradient {list(s)}"
    if stability["active_size"] < 1 or stability["active_size_10eps"] < stability["active_size"]:
        return f"active-set sizes {stability['active_size']}, {stability['active_size_10eps']}"
    return None


def _optimize_op(ctx, rng, rule) -> Op:
    x0 = gen.random_point(rng, -3.0, 3.0)
    if rule == "polyak":
        name = rng.choice(sorted(n for n, e in ctx.entries.items() if e.convex and e.f_star == 0.0))
        tree = ctx.entry_trees[name]
        flag = ["--polyak", "0"]
    else:
        tree = gen.random_tree(rng, gen.tree_size_draw(rng, 3, 60), gen.LIPSCHITZ_OPS)
        flag = [f"--{rule}", repr(round(rng.uniform(0.01, 0.5), 3))]
    argv = ["optimize", "--expr", gen.format_tree(tree), f"--from={gen.fmt_point(x0)}", *flag]
    f = lambda y: gen.ref_value(tree, y)

    def check(payload):
        best, at = payload["best_value"], payload["best_point"]
        if payload["iterations"] < 1:
            return "no iterations recorded"
        if abs(f(at) - best) > 1e-9 * (1.0 + abs(best)):
            return f"best value {best} != f(best point) = {f(at)}"
        if best > f(x0) + 1e-12 * (1.0 + abs(best)):
            return f"best value {best} above the start value {f(x0)}"
        if rule == "polyak" and best < -1e-12:
            return f"best value {best} below the known minimum 0"
        return None

    return _cli_op(ctx, "optimize", argv, check)


def _demo_op(ctx, name) -> Op:
    def check(payload):
        return None if payload.get("passed") is True else f"demo {name} reported failed checks"

    return _cli_op(ctx, "demo", ["demo", name], check)


def _ode_point(rng, r: int):
    """The origin every sixth round, a point on a kink line every third, else random."""
    if r % 6 == 0:
        return (0.0, 0.0)
    p = gen.random_point(rng, -1.0, 1.0)
    if r % 3 == 1:
        return (0.0, p[1]) if rng.random() < 0.5 else (p[0], 0.0)
    return p


def cli_tour(ctx: Context, seed: int) -> Workload:
    """The README tour, every subcommand, fresh seeded inputs in every round."""
    # a small pool of Danskin points keeps their (costly) references to a
    # handful of inputs; every other input is fresh
    pool = random.Random(f"cli_tour:{seed}")
    cloud_points = [gen.random_point(pool, -1.5, 1.5) for _ in range(6)]

    def build(r: int) -> list:
        rng = random.Random(f"cli_tour:{seed}:{r}")
        # about a third of the ops are quick compass runs, a third demos and
        # hull tests of a few ms, a third slower commands; the median then
        # sits inside the middle group rather than between two groups
        ops = [
            _compass_catalog_op(ctx, rng, "compass", kinked=False),
            _compass_tree_op(ctx, rng, "compass", kinked=True),
            _compass_catalog_op(ctx, rng, "compass_basis", kinked=True, basis=True),
            _compass_tree_op(ctx, rng, "compass_basis", kinked=True, basis=True),
            _compass_tree_op(ctx, rng, "compass_fd", kinked=True, fd=True),
            _compass_tree_op(ctx, rng, "compass_fd", kinked=False, fd=True),
            *(_demo_op(ctx, name) for name in ctx.demo_names),
            _triangle_op(ctx),
            *_polygon_ops(ctx, rng, f"{r}a"),
            *_polygon_ops(ctx, rng, f"{r}b"),
            _ode_at_op(ctx, _ode_point(rng, r)),
            _ode_at_op(ctx, _ode_point(rng, r + 1), traj_dir=ctx.path(f"traj_{r}")),
            # every fourth round one cloud sits at the origin, where all 360 points tie
            _danskin_cli_op(ctx, CLOUDS[r % 2], (0.0, 0.0) if r % 4 == 0 else cloud_points[r % 3]),
            _danskin_cli_op(ctx, CLOUDS[(r + 1) % 2], cloud_points[3 + r % 3]),
            _optimize_op(ctx, rng, "polyak"),
            _optimize_op(ctx, rng, "constant"),
            _optimize_op(ctx, rng, "diminishing"),
        ]
        rng.shuffle(ops)
        return ops

    rounds = FreshRounds(build)
    cold = next(op.argv for op in rounds[0] if op.kind == "compass")  # the README's first command
    return Workload(rounds, cold_argv=cold, trace_rounds=2)


# ---------------------------------------------------------------------------
# ode_sens

def _ode_sens_op(ctx, p) -> Op:
    def run():
        result = ctx.odesens.ode_subgradient(ctx.ode_problem, p)
        return tuple(result.subgradient.tolist()), tuple(pr.value for pr in result.probes)

    def check(output):
        s, probes = output
        err = ctx.ode_reference_error(p, s)
        if err > ode_tolerance(p):
            return f"subgradient {list(s)} at {p} off the reference by {err:.3g}"
        if any(abs(0.5 * (probes[2 * i] - probes[2 * i + 1]) - s[i]) > 1e-12 for i in range(2)):
            return "subgradient does not match its probes"
        return None

    argv = ["ode", "--problem", ctx.fixture(ODE_PROBLEM), f"--at={gen.fmt_point(p)}"]
    return Op(kind="ode_subgradient", key=repr(p), run=run, check=check, argv=argv)


def ode_sens(ctx: Context, seed: int) -> Workload:
    """ode_subgradient on example46 over a lattice of p in [-1, 1]^2 plus kink points."""
    rng = random.Random(f"ode_sens:{seed}")
    lattice = gen.lattice_points(rng, 377)
    kinks = [(0.0, 0.0)]
    kinks += [(0.0, round(rng.uniform(-1, 1), 6)) for _ in range(7)]
    kinks += [(round(rng.uniform(-1, 1), 6), 0.0) for _ in range(8)]
    # sixteen interleaved sub-lattices, each spread over the whole square,
    # plus one kink point per round
    rounds = []
    for j in range(16):
        pts = lattice[j::16] + [kinks[j]]
        rng.shuffle(pts)
        rounds.append([_ode_sens_op(ctx, p) for p in pts])
    return Workload(rounds, cold_argv=rounds[0][0].argv, trace_rounds=1)


# ---------------------------------------------------------------------------
# ode_surface

def _surface_op(ctx, p, lo, hi, count, out_dir) -> Op:
    argv = ["ode", "--problem", ctx.fixture(ODE_PROBLEM), f"--at={gen.fmt_point(p)}",
            f"--surface={lo!r}:{hi!r}:{count}", "--out", out_dir]

    def check_payload(payload):
        s = payload["subgradient"]
        err = ctx.ode_reference_error(p, s)
        if err > ode_tolerance(p):
            return f"subgradient {s} at {p} off the reference by {err:.3g}"
        with open(payload["files"][0]) as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["p1", "p2", "phi", "affine"] or len(rows) != 1 + count * count:
            return f"surface file has {len(rows) - 1} rows, want {count * count}"
        grid = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
        phi0 = None
        for row in rows[1:]:
            q1, q2, phi, affine = (float(v) for v in row)
            if min(abs(q1 - g) for g in grid) > 1e-12 or min(abs(q2 - g) for g in grid) > 1e-12:
                return f"surface point ({q1}, {q2}) is off the grid"
            want = exact.example46_cost(q1, q2)
            if abs(phi - want) > ODE_VALUE_TOL * (1.0 + abs(want)):
                return f"phi({q1}, {q2}) = {phi}, exact {want}"
            base = affine - (s[0] * (q1 - p[0]) + s[1] * (q2 - p[1]))
            if phi0 is None:
                phi0 = base
            if abs(base - phi0) > 1e-9 * (1.0 + abs(phi0)):
                return "affine column is not one affine function of the grid point"
        return None

    return _cli_op(ctx, "ode_surface", argv, check_payload)


def ode_surface(ctx: Context, seed: int) -> Workload:
    """CLI ode --surface: K^2 + 1 state-only integrations against four tangent ones."""

    def build(r: int) -> list:
        rng = random.Random(f"ode_surface:{seed}:{r}")
        counts = [2, 3, 4, 5, 6]
        rng.shuffle(counts)
        ops = []
        for i, count in enumerate(counts):
            p = gen.random_point(rng, -1.0, 1.0)
            if i == 0:  # one point per round on a kink line
                p = (0.0, p[1]) if rng.random() < 0.5 else (p[0], 0.0)
            # a seeded range: how many grid points cross a kink, and so the
            # cost of an op, then varies smoothly rather than in K steps
            lo, hi = round(rng.uniform(-1.5, -0.5), 3), round(rng.uniform(0.5, 1.5), 3)
            ops.append(_surface_op(ctx, p, lo, hi, count, ctx.path(f"surface_{r}_{i}")))
        rng.shuffle(ops)
        return ops

    rounds = FreshRounds(build)
    cold = next(op.argv for op in rounds[0] if op.argv[4].endswith(":3"))  # the K = 3 surface
    return Workload(rounds, cold_argv=cold, trace_rounds=1)


# ---------------------------------------------------------------------------
# danskin

def _box_problem(rng, grid) -> dict:
    """Weighted squared distance to x over a seeded box (m = 2)."""
    a, b = round(rng.uniform(0.5, 2.0), 3), round(rng.uniform(0.5, 2.0), 3)
    lower = [round(rng.uniform(-1.5, -0.5), 3), round(rng.uniform(-1.5, -0.5), 3)]
    upper = [round(rng.uniform(0.5, 1.5), 3), round(rng.uniform(0.5, 1.5), 3)]
    d0, d1 = "(sub (var 2) (var 0))", "(sub (var 3) (var 1))"
    return {
        "objective": f"(add (scale {a!r} (mul {d0} {d0})) (scale {b!r} (mul {d1} {d1})))",
        "grad_x": [f"(scale {-2 * a!r} {d0})", f"(scale {-2 * b!r} {d1})"],
        "feasible": {"box": {"lower": lower, "upper": upper, "grid": grid, "refine_steps": 30}},
    }


def _danskin_op(ctx, name, problem, x) -> Op:
    def run():
        dk = ctx.danskin
        result = dk.danskin_subgradient(problem, x)
        stability = dk.stability_probe(problem, x)
        return tuple(result.subgradient.tolist()), stability

    def check(output):
        s, stability = output
        return _check_danskin(ctx, name, problem, x, s, stability)

    return Op(kind="danskin", key=f"{name}@{x!r}", run=run, check=check,
              argv=["danskin", "--problem", ctx.fixture(name) if name in CLOUDS else name,
                    f"--at={gen.fmt_point(x)}"])


def danskin(ctx: Context, seed: int, distinct_rounds: int = 3, rounds: int = 30) -> Workload:
    """danskin_subgradient + stability_probe over both clouds and seeded boxes."""
    rng = random.Random(f"danskin:{seed}")
    pool = []
    cold = None  # fresh-process runs: the first circle-cloud op off the origin
    for r in range(distinct_rounds):
        ops = []
        # per round: 4 circle ops (1 at the origin, where all 360 points tie),
        # 5 squared-distance ops (2 at the origin) and 11 box problems whose
        # grids spread their cost from below the cloud ops to above the
        # circle ties.  The median and the 90th percentile then fall among
        # ops of graded cost, so they move smoothly when the machine's speed
        # shifts during a run instead of jumping between two op kinds.
        for name, count, ties in ((CLOUDS[0], 4, 1), (CLOUDS[1], 5, 2)):
            for i in range(count):
                x = (0.0, 0.0) if i < ties else gen.random_point(rng, -1.5, 1.5)
                ops.append(_danskin_op(ctx, name, ctx.clouds[name], x))
                if cold is None and i == ties:
                    cold = ops[-1].argv
        for grid in (5, 7, 9, 11, 13, 15, 18, 21, 24, 27, 30):
            data = _box_problem(rng, grid)
            path = ctx.write_json(f"box_{r}_{grid}.json", data)
            problem = ctx.danskin.problem_from_json(data)
            ops.append(_danskin_op(ctx, path, problem, gen.random_point(rng, -2.0, 2.0)))
        pool.append(ops)
    out = []
    for r in range(rounds):
        ops = list(pool[r % distinct_rounds])
        rng.shuffle(ops)
        out.append(ops)
    return Workload(out, cold_argv=cold, trace_rounds=1)


BUILDERS = {
    "cli_tour": cli_tour,
    "ode_sens": ode_sens,
    "ode_surface": ode_surface,
    "danskin": danskin,
}
