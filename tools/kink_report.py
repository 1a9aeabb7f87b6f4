"""Steps, landed crossings and accuracy of ``ode_subgradient`` on kink-crossing rows.

    PYTHONPATH=src python3 tools/kink_report.py --points 400 --seed 1

draws seeded points p uniformly in [-1.5, 1.5]^2 and computes the
subgradient of the bundled ``example46.json`` at each.  A point "crosses"
when x1 changes sign strictly between two accepted states of its
``integrate_state`` trajectory.  A third row draws KINK_POINTS = 20 seeded
points on the kink line p1 = 0 (p2 != 0), where x1(0) = 0 and every probe
starts on the kink of |x1|.  For crossing, other and p1 = 0 points it
prints the median and max of the attempted steps per subgradient (accepted
and rejected, over its four probes), of the landed crossings
(``StepStats.events``, 0 where the package has none) and of the absolute
error against ``bench/exact.py``'s ``compass_of`` (largest component), and
the time the subgradients took.  It reads ``bench/exact.py`` and writes
nothing, so pointing ``PYTHONPATH`` at another checkout's ``src`` compares
two versions on the same points (any version with ``odesens.ode_probes``).
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import statistics
import sys
import time
from pathlib import Path

from compassdiff.demos import paper_fixture_path
from compassdiff.odesens import IntegrationConfig, integrate_state, ode_probes, problem_from_json

#: Seeded points of the p1 = 0 row.
KINK_POINTS = 20

_spec = importlib.util.spec_from_file_location("exact", Path(__file__).resolve().parent.parent / "bench" / "exact.py")
exact = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(exact)


def crosses(problem, p) -> bool:
    """Whether x1 changes sign strictly between two accepted states at ``p``."""
    x1 = integrate_state(problem, p)[1][:, 0].tolist()
    return any(a < 0.0 < b or b < 0.0 < a for a, b in zip(x1, x1[1:]))


def measure(points: list) -> list[dict]:
    """One record per point: whether it crosses, steps, events, error and seconds."""
    problem = problem_from_json(paper_fixture_path("example46.json"))
    config = IntegrationConfig()
    out = []
    for p in points:
        t0 = time.perf_counter()
        result, trajectories = ode_probes(problem, p, config)
        seconds = time.perf_counter() - t0
        ref = exact.compass_of(exact.example46_cost, p)
        out.append({
            "crosses": crosses(problem, p),
            "steps": sum(tr.stats.accepted + tr.stats.rejected for tr in trajectories),
            "events": sum(getattr(tr.stats, "events", 0) for tr in trajectories),
            "error": max(abs(a - b) for a, b in zip(result.subgradient.tolist(), ref)),
            "seconds": seconds,
        })
    return out


def table(records: list[dict], on_kink: list[dict]) -> str:
    """The rows of ``records`` that cross, the others, and ``on_kink``, the records of points on p1 = 0."""
    lines = ["| points | n | steps median / max | events median / max | abs error median / max | ms in all |",
             "| --- | --- | --- | --- | --- | --- |"]
    groups = (("crossing", [r for r in records if r["crosses"]]), ("other", [r for r in records if not r["crosses"]]),
              ("p1 = 0", on_kink))
    for label, rows in groups:
        if not rows:
            lines.append(f"| {label} | 0 | - | - | - | - |")
            continue

        def pair(key, fmt):
            values = [r[key] for r in rows]
            return f"{format(statistics.median(values), fmt)} / {format(max(values), fmt)}"

        lines.append(f"| {label} | {len(rows)} | {pair('steps', 'g')} | {pair('events', 'g')} | "
                     f"{pair('error', '.2g')} | {1e3 * sum(r['seconds'] for r in rows):.1f} |")
    return "\n".join(lines)


def seeded_points(count: int, seed: int) -> list[tuple[float, float]]:
    rng = random.Random(f"kink_report:{seed}")
    return [(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(count)]


def on_kink_points(count: int, seed: int) -> list[tuple[float, float]]:
    """Seeded points on the kink line p1 = 0, with p2 uniform in [-1.5, 1.5] and never 0."""
    rng = random.Random(f"kink_report:p1=0:{seed}")
    return [(0.0, rng.uniform(-1.5, 1.5) or 1.0) for _ in range(count)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", type=int, default=400)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(table(measure(seeded_points(args.points, args.seed)), measure(on_kink_points(KINK_POINTS, args.seed))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
