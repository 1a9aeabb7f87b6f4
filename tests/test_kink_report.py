import importlib.util
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("kink_report", ROOT / "tools" / "kink_report.py")
kink_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kink_report)


def test_report_on_five_points(capsys):
    assert kink_report.main(["--points", "5", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("| points | n | steps median / max |") and len(lines) == 5
    assert [line.split(" | ")[0] for line in lines[2:]] == ["| crossing", "| other", "| p1 = 0"]
    assert int(lines[4].split(" | ")[1]) == kink_report.KINK_POINTS
    assert sum(int(line.split(" | ")[1]) for line in lines[2:4]) == 5
    assert all(p1 == 0.0 and p2 != 0.0 for p1, p2 in kink_report.on_kink_points(50, 1))
    records = kink_report.measure(kink_report.seeded_points(5, 1))
    assert [sorted(r) for r in records] == [["crosses", "error", "events", "seconds", "steps"]] * 5


def test_subgradients_across_kink_crossings_are_as_accurate_as_elsewhere():
    # 240 seeded points of [-1.5, 1.5]^2 on example46 against the exact
    # reference: where x1 changes sign (about one point in seven) the
    # steps land on the crossing, one landing per probe, and the error is
    # that of the other points, where straddling the kink left it about
    # 1000 times larger; the attempted steps fall from about 3.4 times the
    # other points' to under 1.5 times
    records = kink_report.measure(kink_report.seeded_points(240, 7))
    crossing = [r for r in records if r["crosses"]]
    other = [r for r in records if not r["crosses"]]
    assert len(crossing) >= 20 and len(other) >= 150

    def stat(rows, key, f):
        return f(r[key] for r in rows)

    for f in (statistics.median, max):
        assert stat(crossing, "error", f) <= 10.0 * stat(other, "error", f)
    assert stat(crossing, "steps", statistics.median) <= 1.5 * stat(other, "steps", statistics.median)
    assert all(r["events"] >= 4 for r in crossing) and stat(other, "events", max) == 0
