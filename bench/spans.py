"""Span recorder for the traced run, and the per-layer metrics read from it.

Tracing wraps public functions of the package from outside: each wrapper is
bound at the function's module attribute and at every ``from ... import``
binding of it in the package's modules.  A span is (name, parent, start,
end); spans stay in memory until :meth:`Recorder.write`.  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# Traced functions per module.  Recursive helpers (``expr.dimension``,
# ``format_expr``) are left out: a span per tree node would swamp the
# timings they are meant to explain.
TARGETS = {
    "cli": ("main", "build_parser"),
    "jsonio": ("dumps",),
    "expr": ("parse_expr", "eval_value", "eval_dir_deriv"),
    "compass": ("compass_difference", "basis_compass_difference", "compass_from_psi",
                "finite_difference_probes"),
    "odesens": ("ode_subgradient", "ode_cost_dirderiv", "ode_cost_value", "integrate_coupled",
                "integrate_state", "problem_from_json"),
    "danskin": ("danskin_subgradient", "stability_probe", "solve_inner", "optimal_value", "psi",
                "problem_from_json"),
    "catalog": ("catalog", "catalog_entry", "clarke_membership_check"),
    "hulls": ("hull_distance",),
    "geometry": ("interval_hull", "midpoint_element", "membership_check", "load_polytope_json"),
    "sampling": ("unit_directions",),
    "demos": ("run_demo",),
    "optimize": ("subgradient_method",),
}

SUBGRADIENT_SPANS = ("compass.compass_difference", "compass.basis_compass_difference",
                     "compass.compass_from_psi")
DIR_DERIV_SPANS = ("expr.eval_dir_deriv", "odesens.ode_cost_dirderiv", "danskin.psi")


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.stack: list[int] = []
        self.counts: dict = defaultdict(int)
        self.planar: set = set()  # spans of subgradients in the plane
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        rec = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.names)
            rec.names.append(name)
            rec.parents.append(rec.stack[-1] if rec.stack else -1)
            rec.starts.append(clock())
            rec.ends.append(0)
            rec.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[idx] = clock()
                rec.stack.pop()
            if after is not None:
                after(rec, idx, result)
            return result

        return traced

    def install(self):
        """Bind the wrappers in every loaded module of the package; undone by :meth:`uninstall`."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "compassdiff" or n.startswith("compassdiff."))]
        for short, names in TARGETS.items():
            home = sys.modules[f"compassdiff.{short}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{short}.{attr}", original, _AFTER.get(f"{short}.{attr}"))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patches.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path: str):
        """All spans as JSON lines: name, parent index, start and end in ns."""
        with open(path, "w") as fh:
            for row in zip(self.names, self.parents, self.starts, self.ends):
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")

    def totals(self):
        """Per span name: calls, total ns, self ns."""
        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        calls: dict = defaultdict(int)
        total: dict = defaultdict(int)
        own: dict = defaultdict(int)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child_ns[i]
        return calls, total, own


def _count_bytes(rec, idx, text):
    rec.counts["jsonio.bytes"] += len(text.encode("utf-8"))


def _count_steps(rec, idx, result):
    stats = result.stats if hasattr(result, "stats") else result[2]
    rec.counts["odesens.rhs_evals"] += stats.rhs_evals
    rec.counts["odesens.accepted"] += stats.accepted
    rec.counts["odesens.rejected"] += stats.rejected


def _count_active(rec, idx, active):
    rec.counts["danskin.active_points"] += int(active.minimizers.shape[0])


def _count_iterations(rec, idx, trace):
    rec.counts["optimize.iterations"] += len(trace.iterates)


def _note_planar(rec, idx, result):
    if result.subgradient.shape[0] == 2:
        rec.planar.add(idx)


_AFTER = {
    "jsonio.dumps": _count_bytes,
    "odesens.integrate_coupled": _count_steps,
    "odesens.integrate_state": _count_steps,
    "danskin.solve_inner": _count_active,
    "optimize.subgradient_method": _count_iterations,
    **{name: _note_planar for name in SUBGRADIENT_SPANS},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, ops: int, overhead: list, imports: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from one recorder."""
    calls, total, own = rec.totals()
    ms, us = 1e-6, 1e-3

    def per_call(name, scale):
        return _ratio(total[name] * scale, calls[name])

    planar = rec.planar
    probes = sum(1 for i, p in enumerate(rec.parents) if p in planar and rec.names[i] in DIR_DERIV_SPANS)
    subgrad_self = sum(own[n] for n in SUBGRADIENT_SPANS)
    subgrad_calls = sum(calls[n] for n in SUBGRADIENT_SPANS)
    inner_evals = sum(1 for i, p in enumerate(rec.parents)
                      if p >= 0 and rec.names[p] == "danskin.solve_inner" and rec.names[i] == "expr.eval_value")
    odesens_self = sum(v for n, v in own.items() if n.startswith("odesens."))
    steps = rec.counts["odesens.accepted"] + rec.counts["odesens.rejected"]
    return {
        "cli.build_parser.ms_per_op": total["cli.build_parser"] * ms / ops,
        "cli.main.self_ms_per_op": own["cli.main"] * ms / ops,
        "import.compassdiff_ms": imports["compassdiff"],
        "import.scipy_optimize_ms": imports["scipy.optimize"],
        "jsonio.dumps.ms_per_call": per_call("jsonio.dumps", ms),
        "jsonio.bytes_per_op": rec.counts["jsonio.bytes"] / ops,
        "expr.parse_expr.us_per_call": per_call("expr.parse_expr", us),
        "expr.eval_value.calls_per_op": calls["expr.eval_value"] / ops,
        "expr.eval_value.us_per_call": per_call("expr.eval_value", us),
        "expr.eval_dir_deriv.calls_per_op": calls["expr.eval_dir_deriv"] / ops,
        "expr.eval_dir_deriv.us_per_call": per_call("expr.eval_dir_deriv", us),
        "compass.dir_derivs_per_subgradient": _ratio(probes, len(planar)),
        "compass.self_us_per_subgradient": _ratio(subgrad_self * us, subgrad_calls),
        "odesens.integrate_coupled.calls_per_op": calls["odesens.integrate_coupled"] / ops,
        "odesens.integrate_state.calls_per_op": calls["odesens.integrate_state"] / ops,
        "odesens.rhs_evals_per_op": rec.counts["odesens.rhs_evals"] / ops,
        "odesens.rhs_evals_per_accepted_step": _ratio(rec.counts["odesens.rhs_evals"], rec.counts["odesens.accepted"]),
        "odesens.step_accept_ratio": _ratio(rec.counts["odesens.accepted"], steps),
        "odesens.self_ms_per_op": odesens_self * ms / ops,
        "danskin.solve_inner.calls_per_op": calls["danskin.solve_inner"] / ops,
        "danskin.solve_inner.ms_per_call": per_call("danskin.solve_inner", ms),
        "danskin.active_set_size.mean": _ratio(rec.counts["danskin.active_points"], calls["danskin.solve_inner"]),
        "danskin.psi.calls_per_op": calls["danskin.psi"] / ops,
        "danskin.objective_evals_per_solve": _ratio(inner_evals, calls["danskin.solve_inner"]),
        "catalog.catalog.calls_per_op": calls["catalog.catalog"] / ops,
        "catalog.clarke_membership_check.ms_per_call": per_call("catalog.clarke_membership_check", ms),
        "hulls.hull_distance.calls_per_op": calls["hulls.hull_distance"] / ops,
        "hulls.hull_distance.ms_per_call": per_call("hulls.hull_distance", ms),
        "geometry.membership_check.ms_per_call": per_call("geometry.membership_check", ms),
        "sampling.unit_directions.ms_per_call": per_call("sampling.unit_directions", ms),
        "demos.run_demo.ms_per_call": per_call("demos.run_demo", ms),
        "optimize.us_per_iteration": _ratio(total["optimize.subgradient_method"] * us,
                                            rec.counts["optimize.iterations"]),
        "trace.overhead_share": statistics.median(overhead),
    }


def parse_importtime(stderr: str) -> dict:
    """Cumulative import times (ms) from ``python -X importtime`` output.

    ``compassdiff`` sums the top-level package imports; ``scipy.optimize`` is
    its cumulative time wherever it is imported, 0 when it is not.
    """
    out = {"compassdiff": 0.0, "scipy.optimize": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        value = int(cumulative) / 1000.0
        if name.startswith(" compassdiff"):
            out["compassdiff"] += value
        elif name.strip() == "scipy.optimize":
            out["scipy.optimize"] = value
    return out
