"""Time and accuracy of ``ode_cost_value`` on ``ode --surface`` grids of example46.

    PYTHONPATH=src python3 tools/surface_report.py --counts 6,9,21,51 --runs 5 --seed 1

For each count K it draws a seeded range [lo, hi], with lo in [-1.5, -0.5]
and hi in [0.5, 1.5] as the ``ode_surface`` benchmark workload draws them,
and a seeded point p in [-1, 1]^2.  The batch is p and the K x K grid over
[lo, hi]^2, the K^2 + 1 rows that ``ode --surface`` integrates, of the
bundled ``example46.json``.  It times one ``ode_cost_value`` call on the
batch in process, the minimum over ``--runs`` calls after one untimed call,
and prints per K the rows, that time, the time per row and the largest
absolute error of the values against ``bench/exact.py``'s
``example46_cost``.  It reads ``bench/exact.py`` and writes nothing, so
pointing ``PYTHONPATH`` at another checkout's ``src`` compares two versions
on the same grids.
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import sys
import time
from pathlib import Path

import numpy as np

from compassdiff.demos import paper_fixture_path
from compassdiff.odesens import ode_cost_value, problem_from_json

_spec = importlib.util.spec_from_file_location("exact", Path(__file__).resolve().parent.parent / "bench" / "exact.py")
exact = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(exact)


def seeded_batch(count: int, seed: int) -> np.ndarray:
    """p, then the count x count grid over a seeded range: shape (count ** 2 + 1, 2)."""
    rng = random.Random(f"surface_report:{seed}:{count}")
    lo, hi = round(rng.uniform(-1.5, -0.5), 3), round(rng.uniform(0.5, 1.5), 3)
    p = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]
    grid = np.linspace(lo, hi, count)
    return np.array([p] + [[a, b] for a in grid for b in grid])


def measure(counts: list[int], runs: int, seed: int) -> list[dict]:
    """One record per count: the rows, the best time of ``runs`` calls in seconds, and the largest error."""
    problem = problem_from_json(paper_fixture_path("example46.json"))
    out = []
    for count in counts:
        P = seeded_batch(count, seed)
        phi = ode_cost_value(problem, P)
        best = float("inf")
        for _ in range(runs):
            t0 = time.perf_counter()
            ode_cost_value(problem, P)
            best = min(best, time.perf_counter() - t0)
        error = max(abs(v - exact.example46_cost(a, b)) for (a, b), v in zip(P.tolist(), phi.tolist()))
        out.append({"count": count, "rows": len(P), "seconds": best, "error": error})
    return out


def table(records: list[dict]) -> str:
    lines = ["| K | rows | best ms | us per row | max abs error |", "| --- | --- | --- | --- | --- |"]
    for r in records:
        per_row = 1e6 * r["seconds"] / r["rows"]
        lines.append(f"| {r['count']} | {r['rows']} | {1e3 * r['seconds']:.1f} | {per_row:.0f} | {r['error']:.2g} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--counts", default="6,9,21,51", help="comma-separated grid counts K")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    counts = [int(k) for k in args.counts.split(",")]
    if args.runs < 1 or min(counts) < 2:
        parser.error("--runs must be at least 1 and every count at least 2")
    print(table(measure(counts, args.runs, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
