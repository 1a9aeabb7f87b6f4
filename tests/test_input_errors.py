"""Input errors: one ``InputError`` type, raised by the library check that owns each rule.

The CLI answers every ``InputError`` with exit code 2, whether it parsed the
value itself or forwarded it to the library; evaluation failures keep exit 3
and numerical failures exit 4.  The tables below pin the rules, and a
property test draws hostile argv for every subcommand.
"""

import copy
import functools
import json
import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import compassdiff
from conftest import OVERFLOW_PROBLEM
from compassdiff import cli, expr as ex, oracle
from compassdiff.compass import (
    basis_compass_difference,
    compass_difference,
    finite_difference_probes,
)
from compassdiff.danskin import (
    MAX_REFINE_STEPS,
    Box,
    FinitePointCloud,
    problem_from_json as danskin_from_json,
    solve_inner,
    stability_probe,
)
from compassdiff.demos import DEMO_NAMES, paper_fixture_path
from compassdiff.geometry import load_polytope_json, membership_check, polytope_support
from compassdiff.hulls import separation
from compassdiff.odesens import (
    IntegrationConfig,
    IntegrationError,
    OdeProblem,
    integrate_coupled,
    integrate_state,
    ode_cost_value,
    ode_probes,
    ode_subgradient,
    problem_from_json as ode_from_json,
)
from compassdiff.optimize import Constant, Diminishing, Polyak, subgradient_method
from compassdiff.oracle import InputError, VectorOracle

_NORM = ex.as_oracle(ex.parse_expr("(norm (var 0) (var 1))"), 2)
_TRIANGLE = polytope_support([[0, 0], [2, 0], [0, 2]])
_CIRCLE = danskin_from_json(paper_fixture_path("danskin_circle.json"))
_EXAMPLE46 = json.loads(paper_fixture_path("example46.json").read_text())
_ONE_STATE = {"n_state": 1, "rhs_expr": ["(neg (var 0))"], "init_expr": ["(var 0)"], "cost_expr": "(var 2)",
              "t_final": 1.0}
# one node more than a problem file's vector may hold: an add of MAX_NODES leaves
_OVER_NODE_CAP = dict(_ONE_STATE, rhs_expr=["(add" + " (var 0)" * ex.MAX_NODES + ")"])

# two states from x0 = p with cost x2(T), and maps that return a component too
# few: numpy broadcast this right-hand side, dx/dt = -x1, to both states, and
# phi(1, 2) read 1 + 1/e with no error
_NARROW_RHS = OdeProblem(rhs=VectorOracle(value=lambda x: [-x[0]], tangent=lambda z: [-z[0], -z[2], -z[2]],
                                          dim_in=2, dim_out=2),
                         init=VectorOracle(value=list, tangent=list, dim_in=2, dim_out=2),
                         cost=ex.as_oracle(ex.parse_expr("(var 3)"), 4), t_final=1.0)
_NARROW_INIT = OdeProblem(rhs=VectorOracle(value=lambda x: [-x[0], -x[0]],
                                           tangent=lambda z: [-z[0], -z[0], -z[2], -z[2]], dim_in=2, dim_out=2),
                          init=VectorOracle(value=lambda p: p[:1], tangent=lambda z: z[:3], dim_in=2, dim_out=2),
                          cost=_NARROW_RHS.cost, t_final=1.0)


_HUGE = 10**400  # a JSON integer beyond float range
_LONG = 10**5000  # an integer past Python's 4300 digits for str(), so with no repr
_DEEP_ARRAY = "[" * 100000 + "]" * 100000


def _box_problem(**box):
    return {"objective": "(var 2)", "grad_x": ["(const 0)", "(const 0)"],
            "feasible": {"box": {"lower": [0], "upper": [1], **box}}}


LIBRARY_CASES = {
    "abs_tol nan": lambda: IntegrationConfig(abs_tol=math.nan),
    "rel_tol inf": lambda: IntegrationConfig(rel_tol=math.inf),
    "t_final nan": lambda: ode_from_json(dict(_EXAMPLE46, t_final=math.nan)),
    "integrate_state point size": lambda: integrate_state(ode_from_json(_EXAMPLE46), [0.3, 0.2, 99.0]),
    "n_state 0": lambda: ode_from_json({"n_state": 0, "rhs_expr": [], "init_expr": [],
                                        "cost_expr": "(var 0)", "t_final": 1.0}),
    # counts that are not integers used to be truncated or read as 1
    "n_state 1.9": lambda: ode_from_json(dict(_ONE_STATE, n_state=1.9)),
    "n_state true": lambda: ode_from_json(dict(_ONE_STATE, n_state=True)),
    "box grid 2.9": lambda: danskin_from_json(_box_problem(grid=2.9)),
    "box refine_steps 3.7": lambda: danskin_from_json(_box_problem(refine_steps=3.7)),
    "rhs variable beyond n_state": lambda: ode_from_json(dict(_ONE_STATE, rhs_expr=["(var 1)"])),
    "init variable beyond p": lambda: ode_from_json(dict(_ONE_STATE, init_expr=["(var 2)"])),
    "rhs over MAX_NODES": lambda: ode_from_json(_OVER_NODE_CAP),
    # numbers in problem files are JSON numbers: np.asarray(..., dtype=float) parsed "1" and read true as 1.0
    "t_final string": lambda: ode_from_json(dict(_ONE_STATE, t_final="1")),
    "t_final true": lambda: ode_from_json(dict(_ONE_STATE, t_final=True)),
    "t_final list": lambda: ode_from_json(dict(_ONE_STATE, t_final=[1.0])),
    "cloud strings": lambda: danskin_from_json({"objective": "(var 2)", "grad_x": ["(const 0)", "(const 0)"],
                                                "feasible": {"cloud": [["0", "1"], ["1", "0"]]}}),
    "box bounds not numbers": lambda: danskin_from_json({"objective": "(var 2)", "grad_x": ["(const 0)", "(const 0)"],
                                                         "feasible": {"box": {"lower": ["-1", False],
                                                                              "upper": [1, 1]}}}),
    "vertices strings": lambda: load_polytope_json({"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}),
    "vertices bools": lambda: load_polytope_json({"vertices": [[True, False], [False, True]]}),
    "vertices ragged": lambda: load_polytope_json({"vertices": [[0, 0], [1]]}),
    "polytope dim 2.7": lambda: load_polytope_json({"dim": 2.7, "vertices": [[0, 0], [1, 0], [0, 1]]}),
    "polytope dim true": lambda: load_polytope_json({"dim": True, "vertices": [[0], [1]]}),
    "polytope description 5": lambda: load_polytope_json({"vertices": [[0, 0], [1, 0]], "description": 5}),
    # an integer with no repr, in a decoded document: the messages used to raise ValueError making one
    "polytope description 10**5000": lambda: load_polytope_json({"vertices": [[0, 0], [1, 0]],
                                                                 "description": _LONG}),
    "vertex [10**5000]": lambda: load_polytope_json({"vertices": [[0, [_LONG]], [1, 0]]}),
    "polytope dim 10**5000": lambda: load_polytope_json({"dim": _LONG, "vertices": [[0, 0], [1, 0]]}),
    "require_integer [10**5000]": lambda: oracle.require_integer("grid", [_LONG]),
    "require_positive -10**5000": lambda: oracle.require_positive("t_final", -_LONG),
    "n_state 10**5000": lambda: ode_from_json(dict(_ONE_STATE, n_state=_LONG)),
    "box grid 10**5000": lambda: danskin_from_json(_box_problem(grid=_LONG)),
    "box refine_steps 10**5000": lambda: danskin_from_json(_box_problem(refine_steps=_LONG)),
    # a map's output width, for one point and for a batch
    "rhs value width": lambda: ode_cost_value(_NARROW_RHS, [1.0, 2.0]),
    "rhs value width, batch": lambda: ode_cost_value(_NARROW_RHS, [[1.0, 2.0]] * 40),
    "rhs tangent width": lambda: ode_subgradient(_NARROW_RHS, [1.0, 2.0]),
    "rhs value width, integrate_state": lambda: integrate_state(_NARROW_RHS, [1.0, 2.0]),
    "init value width": lambda: ode_cost_value(_NARROW_INIT, [1.0, 2.0]),
    "init tangent width": lambda: integrate_coupled(_NARROW_INIT, [1.0, 2.0], [1.0, 0.0]),
    "init value width, integrate_state": lambda: integrate_state(_NARROW_INIT, [1.0, 2.0]),
    # a point or direction that is not finite: each used to fail its integration at t = 0 (exit 4)
    "integrate_state nan point": lambda: integrate_state(ode_from_json(_EXAMPLE46), [math.nan, 0.0]),
    "integrate_coupled nan direction": lambda: integrate_coupled(ode_from_json(_EXAMPLE46), [0.3, 0.2],
                                                                 [math.nan, 0.0]),
    "ode_probes inf point": lambda: ode_probes(ode_from_json(_EXAMPLE46), [0.3, -math.inf]),
    "ode_subgradient nan point": lambda: ode_subgradient(ode_from_json(_EXAMPLE46), [math.nan, 0.0]),
    "ode_cost_value inf point": lambda: ode_cost_value(ode_from_json(_EXAMPLE46), [math.inf, 0.0]),
    "ode_cost_value inf row": lambda: ode_cost_value(ode_from_json(_EXAMPLE46), [[0.3, 0.2], [0.0, math.inf]]),
    "delta nan": lambda: finite_difference_probes(lambda p: 0.0, [0.0, 0.0], math.nan),
    "delta inf": lambda: finite_difference_probes(lambda p: 0.0, [0.0, 0.0], math.inf),
    "tol inf": lambda: membership_check(_TRIANGLE, [0.0, 0.0], tol=math.inf),
    "vertex nan": lambda: polytope_support([[0.0, 0.0], [math.nan, 1.0]]),
    "separation point size": lambda: separation([0.0, 0.0, 0.0], [[0.0, 0.0]]),
    "eps_active nan": lambda: solve_inner(_CIRCLE, [0.0, 0.0], math.nan),
    # an integer beyond float range compares below inf, then fails to become a float
    "eps_active 10**400": lambda: solve_inner(_CIRCLE, [0.0, 0.0], 10**400),
    "stability eps_active 10**400": lambda: stability_probe(_CIRCLE, [0.5, 0.0], 10**400),
    "abs_tol 10**400": lambda: ode_subgradient(ode_from_json(_EXAMPLE46), [0.0, 0.0],
                                               IntegrationConfig(abs_tol=10**400)),
    "outer point size": lambda: solve_inner(_CIRCLE, [0.0, 0.0, 0.0]),
    "cloud inf": lambda: FinitePointCloud(points=[[0.0, 1.0], [math.inf, 0.0]]),
    "box nan": lambda: Box(lower=[0.0, math.nan], upper=[1.0, 1.0]),
    "box inf": lambda: Box(lower=[0.0, 0.0], upper=[1.0, math.inf]),
    "refine_steps above cap": lambda: Box(lower=[0.0], upper=[1.0], refine_steps=MAX_REFINE_STEPS + 1),
    "box width overflows": lambda: Box(lower=[-1e308], upper=[1e308]),
    "constant inf": lambda: Constant(gamma=math.inf),
    "constant -1": lambda: Constant(gamma=-1.0),
    "diminishing nan": lambda: Diminishing(gamma0=math.nan),
    "polyak nan": lambda: Polyak(f_star=math.nan),
    "max_iters -1": lambda: subgradient_method(_NORM, [3.0, 4.0], Constant(1.0), max_iters=-1),
    "max_iters -10**5000": lambda: subgradient_method(_NORM, [3.0, 4.0], Constant(1.0), max_iters=-_LONG),
    "stop_tol nan": lambda: subgradient_method(_NORM, [3.0, 4.0], Constant(1.0), max_iters=5, stop_tol=math.nan),
    "start size": lambda: subgradient_method(_NORM, [3.0, 4.0, 5.0], Constant(1.0), max_iters=5),
    "compass point size": lambda: compass_difference(_NORM, [1.0]),
    "basis point size": lambda: basis_compass_difference(_NORM, [1.0], np.eye(2)),
    "basis shape": lambda: basis_compass_difference(_NORM, [1.0, 2.0], np.eye(3)),
    "eval_value size": lambda: ex.eval_value(ex.var(2), [1.0, 2.0]),
    "eval_dir_deriv size": lambda: ex.eval_dir_deriv(ex.var(2), [1.0, 2.0], [1.0, 0.0]),
    "as_oracle dimension": lambda: ex.as_oracle(ex.var(2), 2),
    "unknown operator": lambda: ex.parse_expr("(bogus (var 0))"),
}


@pytest.mark.parametrize("call", LIBRARY_CASES.values(), ids=LIBRARY_CASES.keys())
def test_library_rejects_a_bad_argument_with_input_error(call):
    with pytest.raises(InputError):
        call()


def test_messages_show_a_bounded_repr():
    assert oracle.shown(2.5) == "2.5" and oracle.shown("x" * 100) == "'" + "x" * 56 + "..."
    assert oracle.shown(_LONG) == "<int too long to show>" and oracle.shown([0, _LONG]) == "<list too long to show>"
    with pytest.raises(InputError, match=r"^description must be a string, got int$"):
        load_polytope_json({"vertices": [[0, 0], [1, 0]], "description": _LONG})
    with pytest.raises(InputError, match=r"^vertices must hold JSON numbers, got <list too long to show>$"):
        load_polytope_json({"vertices": [[0, [_LONG]], [1, 0]]})


def test_one_input_error_type():
    assert cli.InputError is oracle.InputError
    assert compassdiff.InputError is InputError
    assert issubclass(InputError, ValueError) and issubclass(ex.ExprParseError, InputError)


def test_one_numerical_error_type():
    # the CLI's exit code 4 answers this one class: integration failures and an undecided membership
    assert cli.NumericalError is oracle.NumericalError and compassdiff.NumericalError is oracle.NumericalError
    assert issubclass(IntegrationError, oracle.NumericalError) and not issubclass(oracle.NumericalError, ValueError)


def test_finite_means_at_most_the_largest_float():
    for value in (sys.float_info.max, int(sys.float_info.max), 5e-324):
        oracle.require_positive("x", value)
    with pytest.raises(InputError, match="must be positive and finite"):
        oracle.require_positive("x", 2 * int(sys.float_info.max))
    with pytest.raises(InputError, match="must be nonnegative and finite"):
        oracle.require_positive("x", 10**400, zero_ok=True)


def test_a_singular_basis_is_an_evaluation_error_not_an_input_error():
    with pytest.raises(ValueError, match="basis not invertible") as err:
        basis_compass_difference(_NORM, [1.0, 2.0], np.ones((2, 2)))
    assert not isinstance(err.value, InputError)


# ---------------------------------------------------------------------------
# the command line

def _run(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_DEEP = "(abs " * ex.MAX_DEPTH + "(var 0)" + ")" * ex.MAX_DEPTH  # one level past the cap
_NORM_EXPR = "--expr=(norm (var 0) (var 1))"

ACCEPTANCE_ARGV = [
    ["compass", _NORM_EXPR, "--at=1,2", "--fd=nan"],
    ["compass", _NORM_EXPR, "--at=1,2", "--basis=1,0;0"],
    ["compass", _NORM_EXPR, "--at=1,2", "--basis=nan,0;0,1"],
    ["compass", _NORM_EXPR, "--at=1,2", "--fd=0.1", "--basis=1,0;0,1"],
    ["compass", _NORM_EXPR, "--at=1,2", "--basis=1,0,0;0,1,0;0,0,1"],
    ["compass", _NORM_EXPR, "--at=1"],
    ["compass", _NORM_EXPR, "--at=1,,2"],
    ["compass", "--expr=(abs (var 0))", "--at=1,"],  # (1) alone is a valid point
    ["compass", _NORM_EXPR, "--at=1,2", "--basis=1,,0;0,1"],
    ["compass", f"--expr={_DEEP}", "--at=1"],
    ["ode", "--problem=example46.json", "--at=0.3,0.2", "--abstol=nan"],
    ["ode", "--problem=example46.json", "--at=0.3,0.2", "--reltol=nan"],
    ["ode", "--problem=example46.json", "--at=0.3,0.2", "--surface=0:1:100000000"],
    ["ode", "--problem=example46.json", "--at=0.3,0.2", "--surface=nan:1:3"],
    ["ode", "--problem=example46.json", "--at=0.3,0.2,1"],
    ["optimize", _NORM_EXPR, "--from=3,4", "--polyak=nan"],
    ["optimize", _NORM_EXPR, "--from=3,4", "--diminishing=nan"],
    ["optimize", _NORM_EXPR, "--from=3,4", "--constant=inf"],
    ["optimize", _NORM_EXPR, "--from=3,4", "--constant=-1"],
    ["optimize", _NORM_EXPR, "--from=3,4", "--constant=1", "--max-iters=-1"],
    ["optimize", _NORM_EXPR, "--from=3,4", "--constant=1", "--stop-tol=nan"],
    ["optimize", _NORM_EXPR, "--from=3,4,5", "--constant=1"],
    ["hull", "--polytope=triangle.json", "--point=1,2,3"],
    ["hull", "--polytope=triangle.json", "--point=0.5,,0.5"],
    ["danskin", "--problem=danskin_circle.json", "--at=1,2,3"],
    ["danskin", "--problem=refine_above_cap.json", "--at=0.3,0"],
    ["danskin", "--problem=wide_box.json", "--at=0.3,0"],
]

# problem files of the table, written to the working directory
_TABLE_FILES = {
    "refine_above_cap.json": {"objective": "(var 2)", "grad_x": ["(const 0)", "(const 0)"],
                              "feasible": {"box": {"lower": [0], "upper": [1], "grid": 2,
                                                   "refine_steps": 100000000}}},
    # finite bounds whose width overflows
    "wide_box.json": {"objective": "(var 2)", "grad_x": ["(const 0)", "(const 0)"],
                      "feasible": {"box": {"lower": [-1e308], "upper": [1e308]}}},
}


@pytest.mark.parametrize("argv", ACCEPTANCE_ARGV, ids=[" ".join(a)[:60] for a in ACCEPTANCE_ARGV])
def test_cli_input_errors_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, data in _TABLE_FILES.items():
        (tmp_path / name).write_text(json.dumps(data))
    code, out, err = _run(capsys, argv)
    assert code == 2, err
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, expected", [
    (["compass", "--expr=(abs (var 0))", "--at=0,0", "--basis=1,1;1,1"], 3),
    (["optimize", "--expr=(const nan)", "--from=0,0", "--constant=1e-3"], 3),
    (["ode", "--problem=example46.json", "--at=1e308,1e308"], 4),
])
def test_cli_evaluation_failures_keep_their_codes(capsys, argv, expected):
    # the last two ended in an AttributeError and a ZeroDivisionError traceback
    code, out, err = _run(capsys, argv)
    assert code == expected, err
    assert out == "" and "Traceback" not in err


_NAN_FILES = {
    "ode": ("--problem", dict(_EXAMPLE46, t_final=math.nan), ["--at=0.3,0.2"]),
    "hull": ("--polytope", {"dim": 2, "vertices": [[0, 0], [math.nan, 1], [1, 0]]}, ["--midpoint"]),
    "danskin cloud": ("--problem", {"objective": "(var 2)", "grad_x": ["(const 0)", "(const 0)"],
                                    "feasible": {"cloud": [[0.0], [math.nan]]}}, ["--at=0,0"]),
    "danskin box": ("--problem", {"objective": "(var 2)", "grad_x": ["(const 0)", "(const 0)"],
                                  "feasible": {"box": {"lower": [0], "upper": [math.inf]}}}, ["--at=0,0"]),
}


@pytest.mark.parametrize("kind", _NAN_FILES)
def test_cli_non_finite_numbers_in_problem_files_exit_2(capsys, tmp_path, kind):
    # json.load accepts the NaN and Infinity literals; a NaN t_final used to
    # give a "guaranteed" [1, 0] at (0.3, 0.2), where the subgradient is about [5.44, 2.72]
    option, data, rest = _NAN_FILES[kind]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    code, out, err = _run(capsys, [kind.split()[0], f"{option}={path}", *rest])
    assert code == 2, err
    assert out == "" and "finite" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, data", [
    (["ode", "--at=0,0", "--problem"], {"n_state": 1, "rhs_expr": 5, "init_expr": [], "cost_expr": "(var 0)",
                                        "t_final": 1.0}),
    (["danskin", "--at=0,0", "--problem"], {"objective": "(var 2)", "grad_x": ["(const 0)", "(const 0)"],
                                            "feasible": {"box": {"upper": [1]}}}),
    (["hull", "--polytope"], {"vertices": [1, 2]}),
    (["ode", "--at=0,0", "--problem"], dict(_ONE_STATE, n_state=True)),
    (["ode", "--at=0,0", "--problem"], _OVER_NODE_CAP),
    # each ran: dim 2.7 as dimension 2, dim true as dimension 1, description 5 echoed as a number
    (["hull", "--polytope"], {"dim": 2.7, "vertices": [[0, 0], [1, 0], [0, 1]]}),
    (["hull", "--polytope"], {"dim": True, "vertices": [[0], [1]]}),
    (["hull", "--polytope"], {"vertices": [[0, 0], [1, 0], [0, 1]], "description": 5}),
    # strings and bools where a problem file needs numbers, one file per loader
    (["ode", "--at=0,0", "--problem"], dict(_ONE_STATE, t_final="1")),
    (["ode", "--at=0,0", "--problem"], dict(_ONE_STATE, t_final=True)),
    (["hull", "--polytope"], {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}),
    (["hull", "--polytope"], {"vertices": [[True, False], [False, True]]}),
    (["danskin", "--at=0,0", "--problem"], {"objective": "(var 2)", "grad_x": ["(const 0)", "(const 0)"],
                                            "feasible": {"cloud": [["0", "1"], ["1", "0"]]}}),
    (["danskin", "--at=0,0", "--problem"], {"objective": "(var 2)", "grad_x": ["(const 0)", "(const 0)"],
                                            "feasible": {"box": {"lower": ["-1", False], "upper": [1, 1]}}}),
    # integers beyond float range, one per loader and number field
    (["ode", "--at=0,0", "--problem"], dict(_ONE_STATE, t_final=_HUGE)),
    (["hull", "--polytope"], {"vertices": [[0, 0], [_HUGE, 0], [0, 1]]}),
    (["danskin", "--at=0,0", "--problem"], {"objective": "(var 2)", "grad_x": ["(const 0)", "(const 0)"],
                                            "feasible": {"cloud": [[_HUGE], [0]]}}),
    (["danskin", "--at=0,0", "--problem"], _box_problem(lower=[-_HUGE])),
    # a list or null where an expression string belongs
    (["ode", "--at=0,0", "--problem"], dict(_ONE_STATE, cost_expr=[["(var 2)"]])),
    (["danskin", "--at=0,0", "--problem"], {"objective": "(var 2)", "grad_x": [None, "(const 0)"],
                                            "feasible": {"cloud": [[0], [1]]}}),
    # nesting too deep to decode, as file text
    *(pytest.param(argv, _DEEP_ARRAY, id=f"{argv[0]}-deep-array")
      for argv in (["ode", "--at=0,0", "--problem"], ["hull", "--polytope"], ["danskin", "--at=0,0", "--problem"])),
])
def test_cli_malformed_problem_files_exit_2(capsys, tmp_path, argv, data):
    # a mistyped value, a missing box bound and a flat vertex list used to end
    # in a traceback, an "n_state": true used to run as n_state 1, and a
    # vector wider than MAX_NODES would take the compiler gigabytes; a huge
    # integer, a list for an expression and a deep array ended in an
    # OverflowError, an AttributeError and a RecursionError traceback
    path = tmp_path / "problem.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    code, out, err = _run(capsys, [*argv, str(path)])
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# each loader owns its document's shape

_KEYS = ("n_state", "rhs_expr", "cost_expr", "t_final", "feasible", "cloud", "box", "lower", "upper", "grid",
         "vertices", "dim")
# _LONG comes from a function: hypothesis labels a sampled_from by its elements' reprs
_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.sampled_from([_HUGE, -_HUGE, 0, 1, 2, 3])
                | st.builds(lambda: _LONG) | st.floats() | st.text(max_size=8)
                | st.sampled_from(["(var 0)", "(var 1)", "(var 9)", "(const 1)", "(abs (var 2))", "(var"]))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4),
                                                                inner, max_size=4),
    max_leaves=12)

_LOADER_DOCS = {
    "ode": (ode_from_json, _EXAMPLE46),
    "cloud": (danskin_from_json, {"objective": "(norm (sub (var 2) (var 0)) (sub (var 3) (var 1)))",
                                  "grad_x": ["(var 0)", "(neg (var 1))"],
                                  "feasible": {"cloud": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]}}),
    "box": (danskin_from_json, _box_problem(grid=3, refine_steps=2)),
    "polytope": (load_polytope_json, json.loads(paper_fixture_path("triangle.json").read_text())),
}


def _paths(doc, prefix=()):
    """The path to every object member and list item of ``doc``, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated(draw, doc):
    """``doc`` with one member or item replaced by an arbitrary JSON value or removed, or a whole new document."""
    action = draw(st.sampled_from(["replace", "remove", "whole"]))
    if action == "whole":
        return draw(_JSON_VALUES)
    doc = copy.deepcopy(doc)
    *outer, key = draw(st.sampled_from(list(_paths(doc))))
    parent = functools.reduce(operator.getitem, outer, doc)
    if action == "remove":
        del parent[key]
    else:
        parent[key] = draw(_JSON_VALUES)
    return doc


@pytest.mark.parametrize("kind", _LOADER_DOCS)
@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_each_loader_loads_or_raises_input_error(tmp_path, monkeypatch, kind, data):
    # the CLI hands every problem file to its loader and answers InputError with
    # exit 2; any other exception would be a traceback (a string document is a
    # path, read relative to an empty directory here)
    monkeypatch.chdir(tmp_path)
    loader, doc = _LOADER_DOCS[kind]
    try:
        loader(data.draw(_mutated(doc)))
    except InputError:
        pass


def test_every_coordinate_field_is_a_number():
    assert cli._parse_point(" 1 , -2 ").tolist() == [1.0, -2.0]  # surrounding spaces stay accepted
    for bad in ("1,,2", "1,", ",1", "", " , "):
        with pytest.raises(InputError, match="bad point"):
            cli._parse_point(bad)


def test_surface_count_is_capped():
    assert cli._parse_gridspec(f"0:1:{cli.MAX_SURFACE_COUNT}") == (0.0, 1.0, cli.MAX_SURFACE_COUNT)
    assert cli._parse_gridspec("-1:1:2") == (-1.0, 1.0, 2)
    for bad in (f"0:1:{cli.MAX_SURFACE_COUNT + 1}", "0:1:1", "1:0:3", "0:inf:3", "nan:1:3", "0:1"):
        with pytest.raises(InputError, match="grid spec"):
            cli._parse_gridspec(bad)


# ---------------------------------------------------------------------------
# the CLI contract under hostile argv

# (valid, hostile) pools; three draws in four are valid, so every subcommand
# also reaches its evaluation and its output
_NUMBERS = (["1e-3", "0.5", "2"], ["nan", "inf", "-1", "0", "1e308", "1e-300", ""])
_POINTS = (["0,0", "0.3,0.2", "1,-2", "3,4"],
           ["0", "1,2,3", "", "nan,1", "inf,0", "1e308,1e308", "a,b", "1,,2", "1,"])
_MATRICES = (["1,0;0,1", "0,-1;1,0", "2,1;1,1"],
             ["1,1;1,1", "1,0;0", "nan,0;0,1", "1,0,0;0,1,0;0,0,1", ";"])
_GRIDS = (["-1:1:2", "0:1:3"], ["1:0:3", "0:1:1", f"0:1:{cli.MAX_SURFACE_COUNT + 1}", "0:1:100000000",
                                "nan:1:3", "0:inf:3", "a:b:c", "0:1"])
_EXPRS = (["(norm (var 0) (var 1))", "(abs (var 0))", "(max (var 0) (const 0))", "(neg (abs (var 1)))",
           "(max (add (var 0) (var 1) (neg (var 2))) (var 2))", _DEEP[5:-1]],
          ["(var 3)", "(bogus (var 0))", "", "(abs (var 0)", "(const nan)", "(mul (var 0) (const 1e308))", _DEEP])


def _pick(draw, pool):
    valid, hostile = pool
    return draw(st.sampled_from(hostile if draw(st.integers(0, 3)) == 3 else valid))


def _opt(draw, name, pool):
    return [f"--{name}={_pick(draw, pool)}"] if draw(st.booleans()) else []


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["compass", "demo", "hull", "ode", "danskin", "optimize"]))
    argv = [command]
    if command == "compass":
        argv += [f"--expr={_pick(draw, _EXPRS)}", f"--at={_pick(draw, _POINTS)}"]
        argv += _opt(draw, "basis", _MATRICES) + _opt(draw, "fd", _NUMBERS)
    elif command == "demo":
        argv.append(_pick(draw, (DEMO_NAMES, ["example99"])))
    elif command == "hull":
        argv.append(f"--polytope={_pick(draw, (['triangle.json', 'example43_c1.json'], ['missing.json']))}")
        argv += (["--midpoint"] if draw(st.booleans()) else []) + _opt(draw, "point", _POINTS)
        argv += _opt(draw, "tol", _NUMBERS)
    elif command == "ode":
        argv += [f"--problem={_pick(draw, (['example46.json'], ['triangle.json', 'overflow.json']))}",
                 f"--at={_pick(draw, _POINTS)}"]
        argv += _opt(draw, "abstol", _NUMBERS) + _opt(draw, "reltol", _NUMBERS) + _opt(draw, "surface", _GRIDS)
        argv += ["--traj"] if draw(st.booleans()) else []
    elif command == "danskin":
        fixtures = (["danskin_circle.json", "danskin_sqdist.json"], ["example46.json"])
        argv += [f"--problem={_pick(draw, fixtures)}", f"--at={_pick(draw, _POINTS)}"]
        argv += _opt(draw, "eps-active", _NUMBERS)
    else:
        argv += [f"--expr={_pick(draw, _EXPRS)}", f"--from={_pick(draw, _POINTS)}"]
        rules = _pick(draw, ([["constant"], ["diminishing"], ["polyak"]], [[], ["constant", "polyak"]]))
        argv += [f"--{rule}={_pick(draw, _NUMBERS)}" for rule in rules]
        argv += _opt(draw, "max-iters", (["1", "5"], ["-1", "0", "1e308"])) + _opt(draw, "stop-tol", _NUMBERS)
    return argv


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
@example(["ode", "--problem=overflow.json", "--at=0,0"])
@example(["ode", "--problem=example46.json", "--at=0.3,0.2", "--abstol=1e-300", "--reltol=1e-300"])
def test_cli_exits_only_with_documented_codes(capsys, tmp_path, monkeypatch, argv):
    # a numpy warning escapes cli.main as an exception (pyproject's filterwarnings)
    monkeypatch.chdir(tmp_path)  # --traj and --surface write into the working directory
    (tmp_path / "overflow.json").write_text(json.dumps(OVERFLOW_PROBLEM))
    code, out, err = _run(capsys, argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, argv
    assert out == "" or isinstance(json.loads(out), dict), (argv, out)  # the whole of stdout is one document
