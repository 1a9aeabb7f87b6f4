import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _stdout(ops_per_s, p90, correct=True, attempted=100, failed=0, rss=40.0):
    """What bench/run.py prints: progress lines, then the result object."""
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {
        "setup_s": {"value": 0.125, "unit": "s"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "latency_ms.p50": {"value": 1.0, "unit": "ms"},
        "latency_ms.p90": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }}
    return "ode_surface seed 1: 100 ops in 22.00 s\nsummary {\"failed_share\": 0.0}\n" + json.dumps(result) + "\n"


def test_summary_of_canned_result_lines():
    parent = [ab_pairs.parse_result(_stdout(v, p90)) for v, p90 in [(150, 9.0), (160, 8.0), (155, 8.5), (170, 7.0)]]
    change = [ab_pairs.parse_result(_stdout(v, p90, attempted=110, failed=f))
              for (v, p90), f in zip([(165, 8.0), (150, 8.0), (170, 9.0), (180, 6.0)], [0, 1, 0, 0])]
    summary = ab_pairs.summarize(list(zip(parent, change)), METRICS)
    rows = {r["name"]: r for r in summary["metrics"]}
    assert [r["name"] for r in summary["metrics"]] == [m["name"] for m in METRICS]
    ops = rows["ops_per_s"]
    assert ops["parent"] == (153.75, 157.5, 162.5) and ops["change"] == (161.25, 167.5, 172.5)
    assert ops["ratio"] == pytest.approx(167.5 / 157.5) and ops["wins"] == 3  # higher is better
    p90 = rows["latency_ms.p90"]
    assert p90["wins"] == 2  # lower is better; the 8.0 = 8.0 tie counts for neither side
    assert rows["setup_s"]["wins"] == 0 and rows["setup_s"]["ratio"] == 1.0
    assert summary["parent"] == {"attempted": 400, "failed": 0, "incorrect": 0}
    assert summary["change"] == {"attempted": 440, "failed": 1, "incorrect": 0}
    table = ab_pairs.format_summary("ode_surface", summary)
    assert "| ode_surface | ops_per_s [1/s] | higher | 157.5 [153.8, 162.5] | 167.5 [161.2, 172.5] | 1.063 | 3/4 |" in table
    assert "change: 440 ops attempted, 1 failed, 0 of 4 runs not correct" in table


def test_summary_counts_incorrect_runs_and_takes_one_pair():
    pair = (ab_pairs.parse_result(_stdout(100, 5.0)), ab_pairs.parse_result(_stdout(90, 5.0, correct=False)))
    summary = ab_pairs.summarize([pair], METRICS)
    ops = next(r for r in summary["metrics"] if r["name"] == "ops_per_s")
    assert ops["parent"] == (100, 100, 100) and ops["wins"] == 0 and math.isclose(ops["ratio"], 0.9)
    assert summary["parent"]["incorrect"] == 0 and summary["change"]["incorrect"] == 1


@pytest.mark.parametrize("stdout", ["", "no result here\n", "[1, 2]\n"])
def test_unreadable_output_is_an_error(stdout):
    with pytest.raises(ValueError):
        ab_pairs.parse_result(stdout)


def _bound(name):
    return next(m["bound"] for m in METRICS if m["name"] == name)


def test_metrics_beyond_their_bound_are_marked_and_exit_3(monkeypatch, capsys):
    # peak RSS 10.5% up against a 0.1 bound (lower is better), ops/s 20% down
    # against 0.25 (higher is better): one beyond its bound, one inside it
    assert _bound("peak_rss_mb") == 0.1 and _bound("ops_per_s") == 0.25
    parent, change = _stdout(100, 5.0, rss=40.0), _stdout(80, 5.0, rss=44.2)
    summary = ab_pairs.summarize([(ab_pairs.parse_result(parent), ab_pairs.parse_result(change))], METRICS)
    rows = {r["name"]: r for r in summary["metrics"]}
    assert rows["peak_rss_mb"]["beyond"] and not rows["ops_per_s"]["beyond"]
    assert [r["name"] for r in summary["metrics"] if r["beyond"]] == ["peak_rss_mb"]
    table = ab_pairs.format_summary("ode_sens", summary)
    assert "| 1.105 | 0/1 | 0.1 BEYOND |" in table and "| 0.800 | 0/1 | 0.25 |" in table
    # main on the same lines, the change tree being this checkout (for its BENCHMARK.json)
    outputs = {"parent": parent, str(ROOT): change}
    monkeypatch.setattr(ab_pairs, "run_once", lambda tree, *args: ab_pairs.parse_result(outputs[tree]))
    argv = ["--parent", "parent", "--change", str(ROOT), "--workload", "ode_sens", "--pairs", "2"]
    assert ab_pairs.main(argv) == 3
    outputs[str(ROOT)] = _stdout(80, 5.0, rss=43.9)  # 9.75% up: inside the bound
    assert ab_pairs.main(argv) == 0
    outputs[str(ROOT)] = _stdout(80, 5.0, rss=44.2, correct=False)  # an incorrect run comes first
    assert ab_pairs.main(argv) == 1
    capsys.readouterr()


def test_a_first_run_bias_shows_per_order_and_cancels_in_the_balanced_ratio():
    # the same tree on both sides, and whichever side runs first reads about 4% more ops/s: pairs 0 and 2 ran
    # the parent first, pairs 1 and 3 the change first
    values = [(104, 100), (100, 104), (106, 102), (102, 106)]
    pairs = [(ab_pairs.parse_result(_stdout(p, 5.0)), ab_pairs.parse_result(_stdout(c, 5.0 + k % 2)))
             for k, (p, c) in enumerate(values)]
    summary = ab_pairs.summarize(pairs, METRICS)
    assert summary["by_order"] == (2, 2)
    rows = {r["name"]: r for r in summary["metrics"]}
    ops = rows["ops_per_s"]
    assert ops["ratio"] == 1.0 and ops["wins"] == 2
    (parent_first, won_pf), (change_first, won_cf) = ops["by_order"]
    assert parent_first == pytest.approx(101 / 105) and change_first == pytest.approx(105 / 101)
    assert (won_pf, won_cf) == (0, 2)
    assert ops["balanced_ratio"] == pytest.approx(1.0, abs=1e-15)
    p90 = rows["latency_ms.p90"]  # the change-first runs read 6.0 ms against 5.0: lower is better
    assert p90["by_order"] == [(1.0, 0), (1.2, 0)] and p90["balanced_ratio"] == pytest.approx(math.sqrt(1.2))
    table = ab_pairs.format_summary("cli_tour", summary)
    assert "| 1.000 | 2/4 | 0.25 | 0.962 (0/2) | 1.040 (2/2) | 1.000 |" in table
    assert "| 0.25 | 1.000 (0/2) | 1.200 (0/2) | 1.095 |" in table


def test_one_pair_has_no_change_first_order_and_no_balanced_ratio():
    pair = (ab_pairs.parse_result(_stdout(100, 5.0)), ab_pairs.parse_result(_stdout(110, 5.0)))
    summary = ab_pairs.summarize([pair], METRICS)
    ops = next(r for r in summary["metrics"] if r["name"] == "ops_per_s")
    assert summary["by_order"] == (1, 0) and ops["by_order"][0] == (1.1, 1)
    assert math.isnan(ops["by_order"][1][0]) and math.isnan(ops["balanced_ratio"])
    assert "| 1.100 (1/1) | nan (0/0) | nan |" in ab_pairs.format_summary("danskin", summary)
