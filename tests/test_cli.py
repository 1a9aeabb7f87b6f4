import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OVERFLOW_PROBLEM, WIDE_PROBLEM
from compassdiff import jsonio
from compassdiff.cli import main
from compassdiff.demos import paper_fixture_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out: str) -> dict:
    # payload is the trailing JSON object; human-readable lines precede it
    start = out.index("{")
    return json.loads(out[start:])


# ---------------------------------------------------------------------------
# compass

def test_cli_compass_neg_abs(capsys):
    code, out, err = run_cli(capsys, "compass", "--expr", "(neg (abs (var 0)))", "--at", "0,0")
    assert code == 0
    payload = last_json(out)
    assert payload["subgradient"] == [0.0, 0.0]
    assert payload["guarantee"] == "guaranteed"
    assert len(payload["probes"]) == 4


def test_cli_compass_three_variables_warns(capsys):
    expr = "(max (add (var 0) (var 1) (neg (var 2))) (add (var 1) (var 2) (neg (var 0))) (add (var 2) (var 0) (neg (var 1))))"
    code, out, err = run_cli(capsys, "compass", "--expr", expr, "--at", "0,0,0")
    assert code == 0
    payload = last_json(out)
    assert payload["subgradient"] == [0.0, 0.0, 0.0]
    assert payload["guarantee"] == "unguaranteed"
    assert "warning" in err


def test_cli_compass_finite_difference(capsys):
    code, out, _ = run_cli(capsys, "compass", "--expr", "(norm (var 0) (var 1))",
                           "--at", "3,4", "--fd", "1e-5")
    assert code == 0
    payload = last_json(out)
    assert payload["subgradient"] == pytest.approx([0.6, 0.8], abs=1e-5)
    assert payload["delta"] == 1e-5


def test_cli_compass_with_basis(capsys):
    code, out, _ = run_cli(capsys, "compass", "--expr", "(max (var 0) (const 0))",
                           "--at", "0,0", "--basis", "0,-1;1,0")
    assert code == 0
    assert last_json(out)["subgradient"] == [0.5, 0.0]


def test_cli_compass_expression_from_file(capsys, tmp_path):
    source = tmp_path / "fn.expr"
    source.write_text("(add (abs (var 0)) (abs (var 1)))\n")
    code, out, _ = run_cli(capsys, "compass", "--expr-file", str(source), "--at", "1,-2")
    assert code == 0
    assert last_json(out)["subgradient"] == [1.0, -1.0]


def test_cli_ode_bad_tolerance_exits_2(capsys):
    code, _, _ = run_cli(capsys, "ode", "--problem", "example46.json", "--at", "0,0",
                         "--abstol", "-1")
    assert code == 2


def test_cli_compass_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "compass", "--expr", "(bogus (var 0))", "--at", "0,0")
    assert code == 2
    assert "position" in err


def test_cli_compass_dimension_error_exits_2(capsys):
    code, _, _ = run_cli(capsys, "compass", "--expr", "(var 3)", "--at", "0,0,0,0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("compass", "--expr", "(abs (var 0))", "--at", "nan,1"),
    ("optimize", "--expr", "(abs (var 0))", "--from", "nan,1", "--constant", "1"),
    ("ode", "--problem", "example46.json", "--at=inf,0"),
])
def test_cli_nonfinite_coordinates_exit_2(capsys, argv):
    # NaN used to fall into the abs kink branch (a "guaranteed" [0, 0]) or
    # crash optimize with an AttributeError traceback
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be finite" in err
    assert "Traceback" not in err


def test_cli_compass_evaluation_error_exits_3(capsys):
    # norm of four variables at a 4-point is rejected as input; a singular
    # basis on a valid expression is an evaluation failure
    code, _, err = run_cli(capsys, "compass", "--expr", "(abs (var 0))", "--at", "0,0",
                           "--basis", "1,1;1,1")
    assert code == 3
    assert "basis not invertible" in err


def test_cli_output_is_byte_identical_across_runs(capsys):
    argv = ("compass", "--expr", "(norm (var 0) (var 1))", "--at", "0.3,1.7")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# demo

@pytest.mark.parametrize("name", ["example41", "example42", "example43", "example44", "footnote1"])
def test_cli_demo_passes(capsys, name):
    code, out, _ = run_cli(capsys, "demo", name)
    assert code == 0
    assert "all checks passed" in out
    payload = last_json(out)
    assert payload["passed"] is True


def test_cli_demo_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo", "example99"])
    assert exc.value.code == 2  # rejected by argument parsing


def test_cli_demo_writes_certificate(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "demo", "example42", "--out", str(tmp_path), "--json")
    assert code == 0
    written = json.loads((tmp_path / "demo_example42.json").read_text())
    assert written["passed"] is True


# ---------------------------------------------------------------------------
# hull

def test_cli_hull_midpoint(capsys):
    code, out, _ = run_cli(capsys, "hull", "--polytope", "triangle.json", "--midpoint")
    assert code == 0
    payload = last_json(out)
    assert payload["hull"] == {"lower": [0.0, 0.0], "upper": [2.0, 2.0]}
    assert payload["midpoint"]["point"] == [1.0, 1.0]
    assert payload["midpoint"]["member"] is True
    assert payload["midpoint"]["guarantee"] == "guaranteed"


def test_cli_hull_membership_point(capsys):
    code, out, _ = run_cli(capsys, "hull", "--polytope", "example43_c1.json",
                           "--point", "0,0,0")
    assert code == 0
    payload = last_json(out)
    assert payload["membership"]["member"] is False
    assert payload["membership"]["witness"] is not None


def test_cli_hull_escapes_control_characters(capsys, tmp_path):
    description = "tab\there, \x01 and a \"quote\" \\ ok"
    path = tmp_path / "tabbed.json"
    path.write_text(json.dumps({"dim": 2, "description": description, "vertices": [[0, 0], [2, 0], [0, 2]]}))
    code, out, _ = run_cli(capsys, "hull", "--polytope", str(path), "--json")
    assert code == 0
    assert "\t" not in out and "\x01" not in out
    assert json.loads(out)["description"] == description


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.text(alphabet=st.characters(blacklist_characters=[chr(i) for i in range(32) if chr(i) != "\n"])))
def test_json_strings_without_control_characters_keep_their_old_form(text):
    old = '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'
    assert jsonio.dumps(text) == old


def test_cli_hull_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "hull", "--polytope", "missing.json")
    assert code == 2
    assert "no such file" in err


# ---------------------------------------------------------------------------
# ode

def test_cli_ode_bundled_problem(capsys):
    code, out, _ = run_cli(capsys, "ode", "--problem", "example46.json", "--at", "0,0")
    assert code == 0
    payload = last_json(out)
    assert payload["subgradient"] == pytest.approx([3.489822, 0.771540], abs=1e-5)
    assert payload["guarantee"] == "guaranteed"


def test_cli_ode_on_a_wide_problem_file(capsys, tmp_path):
    # three 5000-child nodes compile to flat statements, with no deep expression for the compiler
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(WIDE_PROBLEM))
    code, out, err = run_cli(capsys, "ode", "--problem", str(wide), "--at", "0.3,-0.2")
    assert code == 0, err
    assert "Traceback" not in err
    assert last_json(out)["guarantee"] == "guaranteed"


def test_cli_ode_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "ode", "--problem", str(bad), "--at", "0,0")
    assert code == 2
    assert "malformed JSON" in err


def test_cli_ode_integration_failure_exits_4(capsys, tmp_path):
    blowup = tmp_path / "blowup.json"
    blowup.write_text(json.dumps({
        "n_state": 1,
        "rhs_expr": ["(mul (var 0) (var 0))"],
        "init_expr": ["(add (const 1) (mul (const 0) (var 0)))"],
        "cost_expr": "(var 2)",
        "t_final": 2.0,
    }))
    code, _, err = run_cli(capsys, "ode", "--problem", str(blowup), "--at", "0,0")
    assert code == 4
    assert "numerical failure" in err


def test_cli_surface_failure_names_the_grid_point(capsys, tmp_path):
    # dx/dt = x^2 from x(0) = p1 blows up at t = 1 / p1: the three rows with
    # p1 = 2 fail in the same iteration and the lowest-index one is named
    blowup = tmp_path / "blowup.json"
    blowup.write_text(json.dumps({
        "n_state": 1,
        "rhs_expr": ["(mul (var 0) (var 0))"],
        "init_expr": ["(var 0)"],
        "cost_expr": "(var 2)",
        "t_final": 1.0,
    }))
    code, out, err = run_cli(capsys, "ode", "--problem", str(blowup), "--at", "0,0",
                             "--surface=-2:2:3", "--out", str(tmp_path))
    assert code == 4 and out == ""
    assert err.startswith("numerical failure: ") and err.endswith(" at t = 0.5 for p = (2, -2)\n"), err


def test_cli_surface_failure_names_the_lowest_failing_row(capsys, tmp_path):
    # p1 = 2 blows up at t = 0.5, in an earlier lockstep iteration than
    # p1 = 1.25 at t = 0.8; the lower-index point is named all the same
    blowup = tmp_path / "blowup.json"
    blowup.write_text(json.dumps({
        "n_state": 1,
        "rhs_expr": ["(mul (var 0) (var 0))"],
        "init_expr": ["(var 0)"],
        "cost_expr": "(var 2)",
        "t_final": 1.0,
    }))
    code, out, err = run_cli(capsys, "ode", "--problem", str(blowup), "--at", "0,0",
                             "--surface=1.25:2:2", "--out", str(tmp_path))
    assert code == 4 and out == ""
    assert err.startswith("numerical failure: ") and err.endswith(" at t = 0.8 for p = (1.25, 1.25)\n"), err


def test_cli_probe_failure_comes_in_probe_order(capsys, tmp_path):
    # the tangent along e2 overflows first, but e1 is probed first, so it is named
    overflow = tmp_path / "overflow.json"
    overflow.write_text(json.dumps(OVERFLOW_PROBLEM))
    code, out, err = run_cli(capsys, "ode", "--problem", str(overflow), "--at", "0,0")
    assert (code, out) == (4, "")
    assert err == "numerical failure: non-finite state at t = 16.5561 while probing direction [1.0, 0.0]\n"


def test_cli_ode_tiny_tolerances_fail_truthfully(capsys):
    # the scaled error of a finite state overflows its norm: every step is
    # rejected until the step size underflows, without numpy warnings
    code, out, err = run_cli(capsys, "ode", "--problem", "example46.json", "--at", "0.3,0.2",
                             "--abstol", "1e-300", "--reltol", "1e-300")
    assert (code, out) == (4, "")
    assert err.startswith("numerical failure: step size underflow (") and "non-finite" not in err, err
    assert err.endswith(" at t = 0 while probing direction [1.0, 0.0]\n"), err


@pytest.mark.parametrize("extra", [[], ["--surface=-1:1:3"]])
def test_cli_ode_huge_tolerances_are_quiet(capsys, tmp_path, extra):
    # abs_tol + rel_tol * |x| overflows to inf; the step control reads that
    # as a zero error, without numpy warnings on stderr
    code, out, err = run_cli(capsys, "ode", "--problem", "example46.json", "--at", "0.3,0.2",
                             "--abstol", "1e308", "--reltol", "1e308", "--out", str(tmp_path), *extra)
    assert code == 0 and err == ""
    assert last_json(out)["guarantee"] == "guaranteed"


def test_cli_ode_trajectories_and_surface(capsys, tmp_path, monkeypatch):
    from compassdiff import odesens

    recorded = []  # (initial state, times, states) of each run of the row integrator
    dopri5_floats = odesens._dopri5_floats

    def recording(fun, z0, t_final, cfg, switch=None):
        result = dopri5_floats(fun, z0, t_final, cfg, switch)
        recorded.append((z0, *result[:2]))
        return result

    monkeypatch.setattr(odesens, "_dopri5_floats", recording)
    # '=' form needed for a grid starting at a negative bound
    code, out, _ = run_cli(capsys, "ode", "--problem", "example46.json", "--at", "0,0",
                           "--traj", "--surface=-1:1:5", "--out", str(tmp_path))
    assert code == 0
    # the trajectories written are the subgradient's own four probes, in probe
    # order: four coupled integrations that start at x0 and init'(p; d), and
    # no others (the surface's 26 rows run in lockstep, and the float loop
    # takes over a row that crosses a kink where it crosses)
    problem = odesens.problem_from_json(paper_fixture_path("example46.json"))
    directions = [[1.0, 0.0], [-1.0, -0.0], [0.0, 1.0], [-0.0, -1.0]]
    assert [z0 for z0, _, _ in recorded] == [[0.0] * 3 + problem.init.tangent([0.0, 0.0, *d])[3:]
                                             for d in directions]
    for label, (_, times, states) in zip(("plus_e1", "minus_e1", "plus_e2", "minus_e2"), recorded):
        rows = (tmp_path / f"traj_{label}.csv").read_text().strip().split("\n")[1:]
        assert [float(row.split(",")[0]) for row in rows] == times
        assert [[float(v) for v in row.split(",")[1:]] for row in rows] == states
    payload = last_json(out)
    assert len(payload["files"]) == 5
    surface = (tmp_path / "surface.csv").read_text().strip().split("\n")
    assert surface[0] == "p1,p2,phi,affine"
    assert len(surface) == 26  # header + 5x5 grid
    for line in surface[1:]:
        p1, p2, phi, affine = map(float, line.split(","))
        assert phi >= affine - 1e-4  # the affine map underestimates the cost
    traj = (tmp_path / "traj_plus_e1.csv").read_text().split("\n")
    assert traj[0] == "t,x1,x2,x3,y1,y2,y3"


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_cli_unusable_out_dir_exits_2(capsys, tmp_path, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    code, stdout, err = run_cli(capsys, "compass", "--expr", "(abs (var 0))", "--at", "1,2", "--out", out)
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: cannot create output directory {out}")


def test_cli_ode_bad_gridspec_exits_2(capsys):
    code, _, _ = run_cli(capsys, "ode", "--problem", "example46.json", "--at", "0,0",
                         "--surface", "1:0:5")
    assert code == 2


# ---------------------------------------------------------------------------
# danskin

def test_cli_danskin_circle(capsys):
    code, out, _ = run_cli(capsys, "danskin", "--problem", "danskin_circle.json", "--at", "0,0")
    assert code == 0
    payload = last_json(out)
    assert payload["subgradient"] == pytest.approx([0.0, 0.0], abs=1e-3)
    assert payload["active_set_size"] == 360
    assert payload["optimal_value"] == pytest.approx(0.0, abs=1e-12)
    assert len(payload["stability"]["psi"]) == 4


def test_cli_danskin_offset_point(capsys):
    code, out, _ = run_cli(capsys, "danskin", "--problem", "danskin_circle.json", "--at", "1,0")
    assert code == 0
    assert last_json(out)["subgradient"] == pytest.approx([-1.0, 0.0], abs=1e-3)
    assert last_json(out)["guarantee"] == "guaranteed"


def test_cli_danskin_box_is_unguaranteed(capsys, tmp_path):
    # the grid and coordinate descent stop in the wide basin at y = -1 (value
    # 0.2); the true minimum is 0.015 in the narrow well at y = 0.05, so the
    # gradient is (0.05, 0), not the reported (-1, 0)
    well = tmp_path / "well.json"
    well.write_text(json.dumps({
        "objective": "(add (mul (var 0) (var 2)) (min (const 0.5) (scale 50 (abs (sub (var 2) (const 0.05))))))",
        "grad_x": ["(var 2)", "(const 0)"],
        "feasible": {"box": {"lower": [-1], "upper": [1], "grid": 21, "refine_steps": 30}}}))
    code, out, _ = run_cli(capsys, "danskin", "--problem", str(well), "--at", "0.3,0")
    assert code == 0
    payload = last_json(out)
    assert payload["guarantee"] == "unguaranteed"
    assert payload["subgradient"] == [-1.0, 0.0] and payload["optimal_value"] == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# optimize

def test_cli_optimize_polyak_one_step(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "optimize", "--expr", "(norm (var 0) (var 1))",
                           "--from", "3,4", "--polyak", "0", "--out", str(tmp_path))
    assert code == 0
    payload = last_json(out)
    assert payload["best_value"] == 0.0
    assert payload["best_point"] == [0.0, 0.0]
    assert payload["iterations"] == 2
    trace = (tmp_path / "trace.csv").read_text().strip().split("\n")
    assert trace[0] == "iter,x1,x2,f,g1,g2,step"
    assert len(trace) == 3


def test_cli_optimize_requires_one_rule(capsys):
    code, _, err = run_cli(capsys, "optimize", "--expr", "(abs (var 0))", "--from", "1,1")
    assert code == 2
    assert "choose exactly one" in err
