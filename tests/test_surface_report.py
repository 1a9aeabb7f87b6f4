import importlib.util
from pathlib import Path

import pytest

from compassdiff.demos import paper_fixture_path
from compassdiff.odesens import ode_cost_value, problem_from_json

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("surface_report", ROOT / "tools" / "surface_report.py")
surface_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(surface_report)


def test_report_on_tiny_grids(capsys):
    assert surface_report.main(["--counts", "2,3", "--runs", "1", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "| K | rows | best ms | us per row | max abs error |" and len(lines) == 4
    assert [line.split(" | ")[:2] for line in lines[2:]] == [["| 2", "5"], ["| 3", "10"]]
    records = surface_report.measure([3], 1, 1)
    assert [sorted(r) for r in records] == [["count", "error", "rows", "seconds"]]
    # landing on the crossings keeps every value within a few 1e-9 of the exact cost
    assert records[0]["rows"] == 10 and records[0]["error"] < 1e-7


def test_batches_are_p_and_the_grid_and_repeat_per_seed():
    P = surface_report.seeded_batch(4, 7)
    assert P.shape == (17, 2) and P.tolist() == surface_report.seeded_batch(4, 7).tolist()
    lo, hi = P[1:, 0].min(), P[1:, 0].max()
    assert -1.5 <= lo <= -0.5 and 0.5 <= hi <= 1.5 and sorted(set(P[1:, 1].tolist())) == sorted(set(P[1:, 0].tolist()))
    assert P.tolist() != surface_report.seeded_batch(4, 8).tolist()
    problem = problem_from_json(paper_fixture_path("example46.json"))
    assert ode_cost_value(problem, P[0]) == ode_cost_value(problem, P)[0]


def test_bad_arguments_exit_2():
    for argv in (["--runs", "0"], ["--counts", "1"]):
        with pytest.raises(SystemExit) as exit_:
            surface_report.main(argv)
        assert exit_.value.code == 2
