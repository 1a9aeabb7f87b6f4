"""Command-line front end.

Subcommands:

* ``compass``   compass difference of a user expression at a point
* ``demo``      run a bundled demonstration and verify its claims
* ``hull``      interval hull / midpoint / exact membership of a polytope
* ``ode``       subgradient of a parametric ODE cost, trajectories, surface
* ``danskin``   subgradient of an optimal-value function
* ``optimize``  subgradient method on a user expression

Exit codes: 0 success, 2 input error (any :class:`InputError`: the library
checks each argument it uses, this module only what it parses itself), 3
evaluation error, 4 numerical failure.  stdout carries one JSON document and
nothing else; the summaries of ``demo`` and ``optimize`` and the 3-D
``compass`` warning go to stderr.  All JSON output is deterministic (fixed
float formatting), so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import expr as ex
from . import jsonio
from .compass import (
    basis_compass_difference,
    compass_difference,
    finite_difference_probes,
)
from .danskin import danskin_report, problem_from_json as danskin_from_json
from .demos import DEMO_NAMES, paper_fixture_path, run_demo
from .geometry import load_polytope_json, membership_check, midpoint_element
from .odesens import IntegrationConfig, ode_cost_value, ode_probes, problem_from_json as ode_from_json
from .optimize import Constant, Diminishing, Polyak, rule_label, subgradient_method
from .oracle import CompassResult, InputError, NumericalError, OracleError, UNGUARANTEED

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EVAL = 3
EXIT_NUMERIC = 4

#: Largest ``ode --surface`` count: the surface is one ``ode_cost_value``
#: batch of count ** 2 + 1 points, integrated one after another, at about
#: 0.15 to 0.21 ms per state row of example46 on -1:1:51 (2602 rows in
#: 0.39 to 0.54 s on a shared, loaded 2-vCPU machine,
#: ``tools/surface_report.py``).
MAX_SURFACE_COUNT = 100


def _parse_point(text: str, what: str = "point") -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as err:
        raise InputError(f"bad {what} {text!r}: {err}") from None
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"bad {what} {text!r}: coordinates must be finite")
    return np.array(values)


def _parse_matrix(text: str) -> np.ndarray:
    rows = [_parse_point(row, "matrix row") for row in text.split(";")]
    if any(row.size != len(rows) for row in rows):
        raise InputError(f"bad matrix {text!r}: must be square, rows separated by ';'")
    return np.array(rows)


def _parse_gridspec(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"bad grid spec {text!r}: expected lo:hi:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as err:
        raise InputError(f"bad grid spec {text!r}: {err}") from None
    if not (-math.inf < lo < hi < math.inf and 2 <= count <= MAX_SURFACE_COUNT):
        raise InputError(f"bad grid spec {text!r}: need finite lo < hi and 2 <= count <= {MAX_SURFACE_COUNT}")
    return lo, hi, count


def _load_expression(args) -> ex.NonsmoothExpr:
    if args.expr is not None:
        return ex.parse_expr(args.expr)
    try:
        with open(args.expr_file) as fh:
            return ex.parse_expr(fh.read())
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read expression file: {err}") from None


def _resolve_input_path(path: str) -> str:
    if os.path.exists(path):
        return path
    bundled = paper_fixture_path(os.path.basename(path))
    if bundled.is_file():
        return str(bundled)
    raise InputError(f"no such file: {path} (and no bundled fixture of that name)")


def _prepare_out_dir(out_dir: str):
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise InputError(f"cannot create output directory {out_dir}: {err}") from None
    if not os.access(out_dir, os.W_OK):
        raise InputError(f"output directory not writable: {out_dir}")


def _emit(payload: dict, human_lines=()):
    for line in human_lines:
        print(line, file=sys.stderr)
    print(jsonio.dumps(payload))


def _write_file(out_dir: str, name: str, content: str) -> str:
    path = os.path.join(out_dir, name)
    try:
        with open(path, "w") as fh:
            fh.write(content)
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}") from None
    return path


# ---------------------------------------------------------------------------
# subcommands

def _cmd_compass(args) -> int:
    expression = _load_expression(args)
    x = _parse_point(args.at)
    dim = max(x.size, ex.dimension(expression))
    if dim not in (1, 2, 3):
        raise InputError(f"dimension must be 1, 2, or 3; expression/point imply {dim}")
    oracle = ex.as_oracle(expression, dim)
    if args.fd is not None:
        approx, probes = finite_difference_probes(oracle.value, x, args.fd)
        payload = CompassResult(approx, probes, None, "approximate (centered finite differences)").to_json_dict()
        payload["delta"] = args.fd
        _emit(payload)
        return EXIT_OK
    if args.basis is not None:
        result = basis_compass_difference(oracle, x, _parse_matrix(args.basis))
    else:
        result = compass_difference(oracle, x)
    if result.guarantee == UNGUARANTEED:
        print(
            "warning: in dimension 3 and up the compass difference carries no "
            "membership guarantee (the example43 demo shows it can fail)",
            file=sys.stderr,
        )
    _emit(result.to_json_dict())
    return EXIT_OK


def _cmd_demo(args) -> int:
    report = run_demo(args.name)
    human = [f"demo {args.name}: {'all checks passed' if report['passed'] else 'CHECKS FAILED'}"]
    for check in report["checks"]:
        mark = "ok " if check["passed"] else "FAIL"
        detail = f"  [{check['detail']}]" if check["detail"] else ""
        human.append(f"  [{mark}] {check['name']}{detail}")
    if args.out:
        _write_file(args.out, f"demo_{args.name}.json", jsonio.dumps(report) + "\n")
    _emit(report, human)
    return EXIT_OK if report["passed"] else EXIT_EVAL


def _cmd_hull(args) -> int:
    oracle = load_polytope_json(_resolve_input_path(args.polytope))
    mid = midpoint_element(oracle)
    payload: dict = {
        "description": oracle.description,
        "hull": {"lower": mid.hull.lower.tolist(), "upper": mid.hull.upper.tolist()},
    }
    if args.midpoint:
        member = membership_check(oracle, mid.point, tol=args.tol)
        payload["midpoint"] = {
            "point": mid.point.tolist(),
            "guarantee": mid.guarantee,
            "member": member.member,
            "detail": member.message(),
        }
    if args.point is not None:
        p = _parse_point(args.point)
        member = membership_check(oracle, p, tol=args.tol)
        payload["membership"] = {
            "point": p.tolist(),
            "member": member.member,
            "max_gap": member.max_gap,
            "witness": None if member.witness is None else member.witness.tolist(),
            "detail": member.message(),
        }
    _emit(payload)
    return EXIT_OK


def _cmd_ode(args) -> int:
    problem = ode_from_json(_resolve_input_path(args.problem))
    p = _parse_point(args.at, "parameter point")
    config = IntegrationConfig(abs_tol=args.abstol, rel_tol=args.reltol)
    grid = None if args.surface is None else np.linspace(*_parse_gridspec(args.surface))
    result, trajectories = ode_probes(problem, p, config)
    payload = result.to_json_dict()
    payload["parameters"] = p.tolist()
    payload["tolerances"] = {"abs": args.abstol, "rel": args.reltol}
    written = []
    out_dir = args.out or "."
    if args.traj:
        for label, traj in zip(("plus_e1", "minus_e1", "plus_e2", "minus_e2"), trajectories):
            written.append(_write_file(out_dir, f"traj_{label}.csv", traj.to_csv()))
    if grid is not None:
        points = np.array([[a, b] for a in grid for b in grid])
        # one integration of all rows: p, then the grid
        phi0, *phis = ode_cost_value(problem, np.vstack([p, points]), config).tolist()
        s = result.subgradient
        rows = ((*q, phi, phi0 + float(s @ (q - p))) for q, phi in zip(points, phis))
        written.append(_write_file(out_dir, "surface.csv", jsonio.csv(("p1", "p2", "phi", "affine"), rows)))
    if written:
        payload["files"] = written
    _emit(payload)
    return EXIT_OK


def _cmd_danskin(args) -> int:
    problem = danskin_from_json(_resolve_input_path(args.problem))
    _emit(danskin_report(problem, _parse_point(args.at), args.eps_active))
    return EXIT_OK


def _cmd_optimize(args) -> int:
    expression = _load_expression(args)
    x0 = _parse_point(getattr(args, "from"))
    oracle = ex.as_oracle(expression, 2)
    if args.polyak is not None:
        rule = Polyak(f_star=args.polyak)
    elif args.constant is not None:
        rule = Constant(gamma=args.constant)
    else:
        rule = Diminishing(gamma0=args.diminishing)
    trace = subgradient_method(oracle, x0, rule, max_iters=args.max_iters, stop_tol=args.stop_tol)
    payload = {
        "rule": rule_label(rule),
        "iterations": len(trace.iterates),
        "best_value": trace.best_value,
        "best_point": trace.best_point.tolist(),
        "stop_reason": trace.stop_reason,
    }
    human = [
        f"{rule_label(rule)}: best value {trace.best_value:.6g} at "
        f"{np.array2string(trace.best_point, precision=6)} after {len(trace.iterates)} iterates "
        f"({trace.stop_reason})"
    ]
    if args.out:
        payload["trace_file"] = _write_file(args.out, "trace.csv", trace.to_csv())
    _emit(payload, human)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compassdiff",
        description="Subgradients of nonsmooth bivariate functions from four directional derivatives.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="", help="directory for CSV/JSON artifacts")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compass", parents=[common], help="compass difference of an expression at a point")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="expression in prefix syntax, e.g. '(neg (abs (var 0)))'")
    group.add_argument("--expr-file", help="file containing the expression")
    p.add_argument("--at", required=True, help="evaluation point, comma separated")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--basis", help="probe basis as 'a,b;c,d' (columns are probe directions)")
    group.add_argument("--fd", type=float, help="use centered finite differences with this step")
    p.set_defaults(handler=_cmd_compass)

    p = sub.add_parser("demo", parents=[common], help="run a bundled demonstration")
    p.add_argument("name", choices=DEMO_NAMES)
    p.set_defaults(handler=_cmd_demo)

    p = sub.add_parser("hull", parents=[common], help="interval hull and membership of a polytope")
    p.add_argument("--polytope", required=True, help="polytope JSON file")
    p.add_argument("--midpoint", action="store_true", help="also locate the interval-hull midpoint")
    p.add_argument("--point", help="check membership of this point")
    p.add_argument("--tol", type=float, default=1e-9, help="membership slack: the largest separating gap still inside")
    p.set_defaults(handler=_cmd_hull)

    p = sub.add_parser("ode", parents=[common], help="subgradient of a parametric ODE cost")
    p.add_argument("--problem", required=True, help="ODE problem JSON file (or bundled fixture name)")
    p.add_argument("--at", required=True, help="parameter point p1,p2")
    p.add_argument("--abstol", type=float, default=1e-8)
    p.add_argument("--reltol", type=float, default=1e-8)
    p.add_argument("--traj", action="store_true", help="write the four probe trajectories as CSV")
    p.add_argument("--surface", help="grid spec lo:hi:count; write the cost surface and its affine underestimate")
    p.set_defaults(handler=_cmd_ode)

    p = sub.add_parser("danskin", parents=[common], help="subgradient of an optimal-value function")
    p.add_argument("--problem", required=True, help="problem JSON file (or bundled fixture name)")
    p.add_argument("--at", required=True, help="outer point x1,x2")
    p.add_argument("--eps-active", type=float, default=None, help="activation tolerance for the inner minimizer set")
    p.set_defaults(handler=_cmd_danskin)

    p = sub.add_parser("optimize", parents=[common], help="run the subgradient method on an expression")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr")
    group.add_argument("--expr-file")
    p.add_argument("--from", required=True, help="starting point x1,x2")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--polyak", type=float, help="Polyak steps towards this known optimal value")
    group.add_argument("--constant", type=float, help="constant step length")
    group.add_argument("--diminishing", type=float, help="gamma0 for steps gamma0/sqrt(k+1)")
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--stop-tol", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_optimize)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main call, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if args.out:
            _prepare_out_dir(args.out)
        return args.handler(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as err:
        direction = "" if err.direction is None else f" while probing direction {err.direction.tolist()}"
        print(f"numerical failure: {err}{direction}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OracleError, ValueError) as err:
        print(f"evaluation error: {err}", file=sys.stderr)
        return EXIT_EVAL


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
