"""The row-batched inner solver against the per-point loops it replaced.

The reference below is the solver as it was when the objective and the
gradient were called once per feasible point: ``_evaluate``, the box
refinement and ``psi`` as loops over points, with ``<d, g>`` taken by
``d @ g`` and the minimum by ``min``.  Its problems are built from the same
JSON with one compiled closure per expression, called on one point at a
time.  The batched solver must agree with it bit for bit, signs of zero
included.
"""

import json
import math
import os
import shlex
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compassdiff import danskin as dk
from compassdiff import expr as ex
from compassdiff.cli import main
from compassdiff.compass import compass_from_psi
from compassdiff.demos import DEMO_NAMES, paper_fixture_path

# ---------------------------------------------------------------------------
# reference: the per-point solver


def point_problem(data) -> dk.OptimalValueProblem:
    feasible = dk.problem_from_json(data).feasible
    obj, g0, g1 = (ex.compile_expr(ex.parse_expr(s)).forward for s in (data["objective"], *data["grad_x"]))

    def point(x, y):
        return np.concatenate([np.asarray(x, dtype=float), np.asarray(y, dtype=float)]).tolist()

    def objective(x, y):
        z = point(x, y)
        return obj(z, z)[0]

    def grad_x(x, y):
        z = point(x, y)
        return np.array([g0(z, z)[0], g1(z, z)[0]])

    return dk.OptimalValueProblem(objective=objective, grad_x=grad_x, feasible=feasible)


def ref_evaluate(problem, x_hat, ys):
    vals = np.empty(ys.shape[0])
    for i, y in enumerate(ys):
        v = float(problem.objective(x_hat, y))
        if not math.isfinite(v):
            raise ValueError(f"non-finite objective value at feasible point {y.tolist()}")
        vals[i] = v
    return vals


def ref_refine(problem, x_hat, y, box, step0):
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


def ref_solve_inner(problem, x_hat, eps_active=None):
    x_hat = np.asarray(x_hat, dtype=float)
    feas = problem.feasible
    if isinstance(feas, dk.FinitePointCloud):
        ys = feas.points
        vals = ref_evaluate(problem, x_hat, ys)
        opt = float(np.min(vals))
        eps = eps_active if eps_active is not None else dk._default_eps(opt)
        return dk.ActiveSet(minimizers=ys[vals <= opt + eps], optimal_value=opt, epsilon=eps)
    axes = [np.linspace(feas.lower[j], feas.upper[j], feas.grid) for j in range(problem.m)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, problem.m)
    vals = ref_evaluate(problem, x_hat, mesh)
    grid_opt = float(np.min(vals))
    eps = eps_active if eps_active is not None else dk._default_eps(grid_opt)
    candidates = mesh[vals <= grid_opt + eps]
    spacing = (feas.upper - feas.lower) / (feas.grid - 1)
    refined = dk._dedup(np.array([ref_refine(problem, x_hat, y, feas, spacing) for y in candidates]))
    vals = ref_evaluate(problem, x_hat, refined)
    opt = float(np.min(vals))
    eps = eps_active if eps_active is not None else dk._default_eps(opt)
    return dk.ActiveSet(minimizers=refined[vals <= opt + eps], optimal_value=opt, epsilon=eps)


def ref_psi(problem, x_hat, active, d):
    x_hat = np.asarray(x_hat, dtype=float)
    d = np.asarray(d, dtype=float)
    best = math.inf
    for y in active.minimizers:
        g = np.asarray(problem.grad_x(x_hat, y), dtype=float)
        best = min(best, float(d @ g))
    return best


def ref_subgradient(problem, x_hat, eps_active=None):
    x_hat = np.asarray(x_hat, dtype=float)
    active = ref_solve_inner(problem, x_hat, eps_active)
    return compass_from_psi(lambda d: ref_psi(problem, x_hat, active, d))


def ref_stability(problem, x_hat, eps_active=None):
    x_hat = np.asarray(x_hat, dtype=float)
    base = ref_solve_inner(problem, x_hat, eps_active)
    wide = ref_solve_inner(problem, x_hat, 10.0 * base.epsilon)
    dirs = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, -1.0])]
    return {
        "eps_active": base.epsilon,
        "active_size": int(base.minimizers.shape[0]),
        "active_size_10eps": int(wide.minimizers.shape[0]),
        "psi": [ref_psi(problem, x_hat, base, d) for d in dirs],
        "psi_10eps": [ref_psi(problem, x_hat, wide, d) for d in dirs],
    }


# ---------------------------------------------------------------------------
# batched against reference

def bits(v) -> str:
    return struct.pack("<d", float(v)).hex()


def array_bits(a) -> tuple:
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def stability_bits(report: dict) -> dict:
    return {k: [bits(v) for v in val] if isinstance(val, list) else (val if isinstance(val, int) else bits(val))
            for k, val in report.items()}


# objectives over z = (x0, x1, y...), with exact x-gradients
_OBJECTIVES = [
    ("(add (mul (var 0) (var 2)) (mul (var 1) (var 3)))", ["(var 2)", "(var 3)"], 2),
    ("(add (scale 1.3 (mul (sub (var 2) (var 0)) (sub (var 2) (var 0))))"
     " (scale 0.7 (mul (sub (var 3) (var 1)) (sub (var 3) (var 1)))))",
     ["(scale -2.6 (sub (var 2) (var 0)))", "(scale -1.4 (sub (var 3) (var 1)))"], 2),
    ("(add (mul (var 0) (max (var 2) (var 3))) (mul (var 1) (abs (sub (var 2) (var 3)))))",
     ["(max (var 2) (var 3))", "(abs (sub (var 2) (var 3)))"], 2),
    # nonconvex in y, with a concave kink on the diagonal
    ("(add (mul (var 0) (var 2)) (mul (var 1) (var 3)) (neg (abs (sub (var 2) (var 3)))) (mul (var 2) (var 3)))",
     ["(var 2)", "(var 3)"], 2),
    ("(mul (sub (var 2) (var 0)) (sub (var 2) (var 1)))",
     ["(neg (sub (var 2) (var 1)))", "(neg (sub (var 2) (var 0)))"], 1),
]
_TIE_COORDS = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0]
_COORD = st.one_of(st.sampled_from(_TIE_COORDS), st.floats(-1.5, 1.5, allow_nan=False))


@st.composite
def _problems(draw):
    objective, grad_x, m = draw(st.sampled_from(_OBJECTIVES))
    kind = draw(st.sampled_from(["cloud", "circle", "box"]))
    if kind == "circle" and m == 2:
        name = draw(st.sampled_from(["danskin_circle.json", "danskin_sqdist.json"]))
        with open(paper_fixture_path(name)) as fh:
            feasible = json.load(fh)["feasible"]
    elif kind in ("cloud", "circle"):
        points = draw(st.lists(st.lists(_COORD, min_size=m, max_size=m), min_size=1, max_size=30))
        feasible = {"cloud": points}
    else:
        lower = draw(st.lists(st.sampled_from([-1.5, -1.0, -0.5, 0.0]), min_size=m, max_size=m))
        upper = [lo + w for lo, w in zip(lower, draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 2.25]),
                                                                 min_size=m, max_size=m)))]
        feasible = {"box": {"lower": lower, "upper": upper, "grid": draw(st.integers(2, 12)),
                            "refine_steps": draw(st.integers(0, 12))}}
    return {"objective": objective, "grad_x": grad_x, "feasible": feasible}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_problems(), st.tuples(_COORD, _COORD), st.sampled_from([None, 1e-3, 0.5]))
def test_batched_solver_matches_per_point_reference(data, x, eps):
    batched, reference = dk.problem_from_json(data), point_problem(data)

    active, ref_active = dk.solve_inner(batched, x, eps), ref_solve_inner(reference, x, eps)
    assert array_bits(active.minimizers) == array_bits(ref_active.minimizers)
    assert bits(active.optimal_value) == bits(ref_active.optimal_value)
    assert bits(active.epsilon) == bits(ref_active.epsilon)

    result, ref_result = dk.danskin_subgradient(batched, x, eps), ref_subgradient(reference, x, eps)
    assert array_bits(result.subgradient) == array_bits(ref_result.subgradient)
    assert [bits(p.value) for p in result.probes] == [bits(p.value) for p in ref_result.probes]

    report, ref_report = dk.danskin_report(batched, x, eps), ref_stability(reference, x, eps)
    assert [bits(v) for v in report["subgradient"]] == [bits(v) for v in ref_result.subgradient]
    assert [bits(p["value"]) for p in report["probes"]] == [bits(p.value) for p in ref_result.probes]
    assert bits(report["optimal_value"]) == bits(ref_active.optimal_value)
    assert report["active_set_size"] == ref_active.minimizers.shape[0]
    assert stability_bits(report["stability"]) == stability_bits(ref_report)
    assert stability_bits(dk.stability_probe(batched, x, eps)) == stability_bits(report["stability"])


# subgradient and probe values of the bundled clouds, taken from the per-point solver
_PINNED = {
    ("danskin_circle.json", (0.0, 0.0)): (["0x0.0p+0", "0x0.0p+0"], ["-0x1.0000000000000p+0"] * 4),
    ("danskin_circle.json", (1.0, 0.0)): (
        ["-0x1.0000000000000p+0", "0x1.1a62633145c07p-53"],
        ["-0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.1a62633145c07p-53", "-0x1.1a62633145c07p-53"]),
    ("danskin_sqdist.json", (0.0, 0.0)): (["0x0.0p+0", "0x0.0p+0"], ["-0x1.0000000000000p+1"] * 4),
    ("danskin_sqdist.json", (1.0, 0.0)): (["0x0.0p+0", "0x0.0p+0"], ["0x0.0p+0"] * 4),
}


@pytest.mark.parametrize("name,x", list(_PINNED))
def test_cloud_subgradients_are_pinned(name, x):
    result = dk.danskin_subgradient(dk.problem_from_json(paper_fixture_path(name)), x)
    subgradient, probes = _PINNED[(name, x)]
    assert [v.hex() for v in result.subgradient.tolist()] == subgradient
    assert [p.value.hex() for p in result.probes] == probes


# ---------------------------------------------------------------------------
# non-finite gradients

# the first gradient component is min(1, y0 * inf): NaN at y0 = 0, 1 at y0 = 1
_NAN_GRADIENT = {"objective": "(const 0)", "grad_x": ["(min (const 1) (mul (var 2) (const inf)))", "(const 0)"]}


@pytest.mark.parametrize("cloud", [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
def test_nonfinite_gradient_is_an_error_in_either_order(cloud, tmp_path, capsys):
    data = dict(_NAN_GRADIENT, feasible={"cloud": cloud})
    problem = dk.problem_from_json(data)
    active = dk.solve_inner(problem, [0.0, 0.0])
    assert active.minimizers.shape[0] == 2
    with pytest.raises(ValueError, match=r"non-finite gradient at feasible point \[0\.0, 0\.0\]"):
        dk.psi(problem, [0.0, 0.0], active, [1.0, 0.0])
    path = tmp_path / "nan_gradient.json"
    path.write_text(json.dumps(data))
    assert main(["danskin", "--problem", str(path), "--at", "0,0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite gradient at feasible point [0.0, 0.0]" in captured.err


def test_objective_and_gradient_shapes_are_checked():
    problem = dk.OptimalValueProblem(
        objective=lambda x, ys: float(x @ ys[0]),
        grad_x=lambda x, ys: np.asarray(ys[0], dtype=float),
        feasible=dk.FinitePointCloud(points=np.eye(2)),
    )
    with pytest.raises(ValueError, match=r"objective values of shape \(2,\)"):
        dk.solve_inner(problem, [1.0, 0.0])
    active = dk.ActiveSet(minimizers=np.eye(2), optimal_value=0.0, epsilon=1e-8)
    with pytest.raises(ValueError, match=r"gradients of shape \(2, 2\)"):
        dk.psi(problem, [1.0, 0.0], active, [1.0, 0.0])


# ---------------------------------------------------------------------------
# input checks

@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
def test_bad_activation_tolerance_is_rejected(eps, capsys):
    problem = dk.problem_from_json(paper_fixture_path("danskin_circle.json"))
    with pytest.raises(ValueError, match="eps_active must be positive and finite"):
        dk.solve_inner(problem, [0.0, 0.0], eps)
    code = main(["danskin", "--problem", "danskin_circle.json", "--at", "0,0", "--eps-active", repr(eps)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "eps_active must be positive and finite" in captured.err


def test_activation_tolerance_must_stay_finite_when_widened(capsys):
    # the stability report solves again with 10 * eps, which overflows here
    code = main(["danskin", "--problem", "danskin_circle.json", "--at", "0,0", "--eps-active", "1e308"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "10 * eps" in captured.err


def test_box_grid_is_capped():
    # constructing a Box enumerates nothing, so the cap is checked before any allocation
    dk.Box(lower=[0.0, 0.0], upper=[1.0, 1.0], grid=1000)
    with pytest.raises(ValueError, match="exceeds the cap"):
        dk.Box(lower=[0.0, 0.0], upper=[1.0, 1.0], grid=1001)
    with pytest.raises(ValueError, match="exceeds the cap"):
        dk.Box(lower=np.zeros(3), upper=np.ones(3), grid=101)
    with pytest.raises(ValueError, match="exceeds the cap"):
        dk.Box(lower=[0.0, 0.0], upper=[1.0, 1.0], grid=10**9)


def test_cli_rejects_an_oversized_box_with_exit_2(tmp_path, capsys):
    path = tmp_path / "huge_box.json"
    path.write_text(json.dumps({
        "objective": "(add (mul (var 0) (var 2)) (mul (var 1) (var 3)))",
        "grad_x": ["(var 2)", "(var 3)"],
        "feasible": {"box": {"lower": [-1, -1], "upper": [1, 1], "grid": 100000}},
    }))
    code = main(["danskin", "--problem", str(path), "--at", "0,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "exceeds the cap" in captured.err


# ---------------------------------------------------------------------------
# the CLI's inner solves

def test_cli_danskin_solves_the_inner_problem_twice(monkeypatch, capsys):
    calls = []
    solve = dk.solve_inner

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(dk, "solve_inner", counting)
    assert main(["danskin", "--problem", "danskin_sqdist.json", "--at", "0.25,-0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(calls) == 2  # the base active set, then the stability report's 10 * eps one
    problem = dk.problem_from_json(paper_fixture_path("danskin_sqdist.json"))
    assert payload["subgradient"] == dk.danskin_subgradient(problem, [0.25, -0.5]).subgradient.tolist()


# ---------------------------------------------------------------------------
# no command needs scipy

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _tour() -> list:
    """The argv of each ``compassdiff`` line of the README's command line tour."""
    with open(README) as f:
        text = f.read().split("## Command line tour", 1)[1]
    return [shlex.split(line, comments=True)[1:] for line in text.splitlines() if line.startswith("compassdiff ")]


def test_no_command_needs_scipy(tmp_path):
    # importing the CLI loads no scipy module; then, with every scipy import
    # made to fail, each command of the tour still exits 0, its whole stdout
    # one JSON document
    tour = _tour()
    assert len(tour) == 14 and [["demo", name] for name in DEMO_NAMES] == [a for a in tour if a[0] == "demo"]
    assert ["ode", "--problem", "example46.json", "--at", "0,0", "--traj", "--surface=-1:1:21", "--out",
            "results"] in tour
    script = (
        "import contextlib, io, json, sys\n"
        "import compassdiff.cli as cli\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "sys.modules['scipy'] = None\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    assert isinstance(json.loads(out.getvalue()), dict), argv\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(tour)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert sorted(os.listdir(tmp_path / "results")) == ["surface.csv", "traj_minus_e1.csv", "traj_minus_e2.csv",
                                                        "traj_plus_e1.csv", "traj_plus_e2.csv"]


def test_every_module_imports_without_scipy():
    # scipy is a test dependency: only hulls.hull_distance imports it, when called
    package = os.path.join(os.path.dirname(README), "src", "compassdiff")
    modules = sorted(name[:-3] for name in os.listdir(package) if name.endswith(".py"))
    assert "hulls" in modules and "cli" in modules
    script = ("import importlib, sys\n"
              "sys.modules['scipy'] = None\n"
              "for name in sys.argv[1:]:\n"
              "    importlib.import_module('compassdiff.' + name if name != '__init__' else 'compassdiff')\n")
    src = os.path.dirname(package)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *modules], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(README), "pyproject.toml"), "rb") as f:
        project = tomllib.load(f)["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["dev"])
