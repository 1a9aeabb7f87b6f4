"""Alternating A/B pairs of ``bench/run.py`` between two checkouts.

    python3 tools/ab_pairs.py --parent ../parent --change . --workload ode_surface \\
        --pairs 10 --seconds 22 --seed 1

runs ``python3 bench/run.py --workload W --seconds S --seed K --trace 0`` in
each tree, one fresh process per run.  Pair ``i`` runs the parent first when
``i`` is even and the change first when it is odd, so neither side always
runs on a machine warmed (or tired) by the other.  For each end-to-end metric
in the change tree's ``BENCHMARK.json`` it prints the median and quartiles
per side, the ratio of the medians (change / parent), and the pairs the
change won (ties count for neither side), then the ops attempted and failed
per side.  A metric whose median is worse than the parent's by more than
its ``bound`` (a share of the parent's median, in the metric's ``better``
direction) is marked ``BEYOND``.  The exit code is 1 if any run was not
``correct``, else 3 if any metric is beyond its bound, and 2 if a run could
not be read.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_result(stdout: str) -> dict:
    """The result object ``bench/run.py`` prints as its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"last line is not a result: {lines[-1][:200]}")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), by linear interpolation between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per-metric comparison of ``(parent, change)`` result pairs.

    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``: each
    names a metric, whether ``"lower"`` or ``"higher"`` is better, and its
    ``bound``.
    """
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        got = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs]
        parent, change = quartiles([p for p, _ in got]), quartiles([c for _, c in got])
        wins = sum(c < p if lower else c > p for p, c in got)
        ratio = change[1] / parent[1] if parent[1] else float("nan")
        beyond = ratio > 1.0 + m["bound"] if lower else ratio < 1.0 - m["bound"]
        rows.append({"name": name, "unit": m["unit"], "better": m["better"], "parent": parent,
                     "change": change, "ratio": ratio, "wins": wins, "bound": m["bound"], "beyond": beyond})
    summary = {"pairs": len(pairs), "metrics": rows}
    for k, label in enumerate(("parent", "change")):
        runs = [pair[k] for pair in pairs]
        summary[label] = {"attempted": sum(r["attempted"] for r in runs), "failed": sum(r["failed"] for r in runs),
                          "incorrect": sum(not r["correct"] for r in runs)}
    return summary


def format_summary(workload: str, summary: dict) -> str:
    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    n = summary["pairs"]
    lines = ["| workload | metric | better | parent median [q1, q3] | change median [q1, q3] | ratio | change won "
             "| bound |",
             "|---|---|---|---|---|---|---|---|"]
    for r in summary["metrics"]:
        lines.append(f"| {workload} | {r['name']} [{r['unit']}] | {r['better']} | {cell(r['parent'])} | "
                     f"{cell(r['change'])} | {r['ratio']:.3f} | {r['wins']}/{n} | {r['bound']:g}"
                     f"{' BEYOND' if r['beyond'] else ''} |")
    for label in ("parent", "change"):
        s = summary[label]
        lines.append(f"{label}: {s['attempted']} ops attempted, {s['failed']} failed, "
                     f"{s['incorrect']} of {n} runs not correct")
    return "\n".join(lines)


def run_once(tree: str, workload: str, seconds: float, seed: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
            "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return parse_result(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    pairs = []
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {side: run_once(getattr(args, side), args.workload, args.seconds, args.seed) for side in order}
            pairs.append((got["parent"], got["change"]))
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first): ops/s parent "
                  f"{got['parent']['metrics']['ops_per_s']['value']:.1f}, change "
                  f"{got['change']['metrics']['ops_per_s']['value']:.1f}", file=sys.stderr, flush=True)
    except (RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    summary = summarize(pairs, metrics)
    print(format_summary(args.workload, summary))
    if summary["parent"]["incorrect"] or summary["change"]["incorrect"]:
        return 1
    return 3 if any(r["beyond"] for r in summary["metrics"]) else 0


if __name__ == "__main__":
    sys.exit(main())
