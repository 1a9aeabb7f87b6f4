"""One gradient call per active set against the per-direction psi it replaced.

The reference below is psi as it was when each of the four compass
directions called ``grad_x`` over the whole active set again, and the
``danskin`` report as it was when the 10 * eps probes were always taken
anew.  The library must agree with it as ``repr`` does, signs of zero
included, while calling ``grad_x`` once per distinct active set.
"""

import json
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from test_danskin_batched import _WIDENING_BOX
from compassdiff import danskin as dk
from compassdiff.compass import probe
from compassdiff.demos import paper_fixture_path
from compassdiff.oracle import UNGUARANTEED


def old_psi(problem, x_hat, active, d) -> float:
    x_hat = np.asarray(x_hat, dtype=float)
    d = np.asarray(d, dtype=float)
    ys = active.minimizers
    g = dk._rows("gradient", problem.grad_x(x_hat, ys), ys, width=2)
    dots = (0.0 + g[:, 0] * d[0]) + g[:, 1] * d[1]
    return float(dots[np.argmin(dots)])


def old_subgradient(problem, x_hat, active):
    result = probe(lambda d: old_psi(problem, x_hat, active, d), np.eye(2))
    if isinstance(problem.feasible, dk.Box):
        result = replace(result, guarantee=UNGUARANTEED)
    return result


def old_report(problem, x_hat, eps_active=None) -> dict:
    x_hat = np.asarray(x_hat, dtype=float)
    base = dk.solve_inner(problem, x_hat, eps_active)
    wide = dk.solve_inner(problem, x_hat, 10.0 * base.epsilon)
    result = old_subgradient(problem, x_hat, base)
    report = result.to_json_dict()
    report["optimal_value"] = base.optimal_value
    report["active_set_size"] = int(base.minimizers.shape[0])
    report["stability"] = {
        "eps_active": base.epsilon,
        "active_size": report["active_set_size"],
        "active_size_10eps": int(wide.minimizers.shape[0]),
        "psi": [p.value for p in result.probes],
        "psi_10eps": [p.value for p in old_subgradient(problem, x_hat, wide).probes],
    }
    return report


def counting(problem) -> tuple:
    """``problem`` with a ``grad_x`` that records the row count of each call, and that record."""
    calls = []

    def grad_x(x, ys):
        calls.append(len(ys))
        return problem.grad_x(x, ys)

    return dk.OptimalValueProblem(objective=problem.objective, grad_x=grad_x, feasible=problem.feasible), calls


# ---------------------------------------------------------------------------
# problems

_INNER_PRODUCT = {"objective": "(add (mul (var 0) (var 2)) (mul (var 1) (var 3)))", "grad_x": ["(var 2)", "(var 3)"]}
_CLOUDS = ("danskin_circle.json", "danskin_sqdist.json")


def _fixture(name) -> dict:
    with open(paper_fixture_path(name)) as fh:
        return json.load(fh)


def _near_tie_cloud(seed: int) -> dict:
    """Points (-1 + t, s) whose values <(1, 0), y> = -1 + t sit within a few 1e-8 of the minimum -1."""
    rng = random.Random(seed)
    gaps = [0.0, 0.0, 5e-9, 1.5e-8, 2.5e-8, 5e-8, 1.5e-7, 3e-7]
    points = [[-1.0 + rng.choice(gaps), rng.choice([0.0, -0.0, 0.5, -0.5, rng.uniform(-1.0, 1.0)])]
              for _ in range(rng.randint(1, 12))]
    return dict(_INNER_PRODUCT, feasible={"cloud": points})


def _seeded_box(seed: int) -> dict:
    """Weighted squared distance to x over a seeded box, as the ``danskin`` workload draws them, on small grids."""
    rng = random.Random(seed)
    a, b = round(rng.uniform(0.5, 2.0), 3), round(rng.uniform(0.5, 2.0), 3)
    lower = [round(rng.uniform(-1.5, -0.5), 3), round(rng.uniform(-1.5, -0.5), 3)]
    upper = [round(rng.uniform(0.5, 1.5), 3), round(rng.uniform(0.5, 1.5), 3)]
    d0, d1 = "(sub (var 2) (var 0))", "(sub (var 3) (var 1))"
    return {
        "objective": f"(add (scale {a!r} (mul {d0} {d0})) (scale {b!r} (mul {d1} {d1})))",
        "grad_x": [f"(scale {-2 * a!r} {d0})", f"(scale {-2 * b!r} {d1})"],
        "feasible": {"box": {"lower": lower, "upper": upper, "grid": rng.randint(2, 9),
                             "refine_steps": rng.randint(0, 12)}},
    }


_COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1.5, 1.5, allow_nan=False))


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(["cloud", "origin", "near tie", "box"]))
    if kind in ("cloud", "origin"):  # at the origin every point of the circle ties
        data = _fixture(draw(st.sampled_from(_CLOUDS)))
        x = (0.0, 0.0) if kind == "origin" else draw(st.tuples(_COORD, _COORD))
    elif kind == "near tie":
        data, x = _near_tie_cloud(draw(st.integers(0, 10**6))), (1.0, 0.0)
    else:
        data, x = _seeded_box(draw(st.integers(0, 10**6))), draw(st.tuples(_COORD, _COORD))
    return data, x, draw(st.sampled_from([None, 1e-8, 1e-3]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_cases())
@example((_fixture("danskin_circle.json"), (0.0, 0.0), None))
@example((_near_tie_cloud(0), (1.0, 0.0), None))
def test_one_gradient_call_per_active_set_keeps_every_bit(case):
    data, x, eps = case
    problem, calls = counting(dk.problem_from_json(data))
    base = dk.solve_inner(problem, x, eps)
    wide = dk.solve_inner(problem, x, 10.0 * base.epsilon)

    calls.clear()
    result = dk.danskin_subgradient(problem, x, eps)
    assert calls == [base.minimizers.shape[0]]
    assert repr(result.to_json_dict()) == repr(old_subgradient(problem, x, base).to_json_dict())

    calls.clear()
    report = dk.danskin_report(problem, x, eps)
    expected = [base.minimizers.shape[0]]
    if base.minimizers.shape != wide.minimizers.shape or base.minimizers.tobytes() != wide.minimizers.tobytes():
        expected.append(wide.minimizers.shape[0])
    event(f"{next(iter(data['feasible']))}: {len(expected)} gradient call(s) in the report")
    assert calls == expected
    assert repr(report) == repr(old_report(problem, x, eps))


def test_the_report_calls_grad_x_once_when_both_tolerances_agree():
    problem, calls = counting(dk.problem_from_json(paper_fixture_path("danskin_circle.json")))
    report = dk.danskin_report(problem, [0.0, 0.0])
    assert calls == [360] and report["stability"]["psi_10eps"] == report["stability"]["psi"]
    calls.clear()
    dk.danskin_report(problem, [0.3, -0.7])
    assert calls == [1]
    calls.clear()
    dk.danskin_subgradient(problem, [0.3, -0.7])
    assert calls == [1]


# at x = (1, 0) the values are -1 and -1 + 5e-8, and the default eps is 2e-8: the second point is active
# only under 10 * eps, and its gradient (-1 + 5e-8, 1) moves psi(-e1) and psi(-e2)
_NEAR_TIE = dict(_INNER_PRODUCT, feasible={"cloud": [[-1.0, 0.0], [-1.0 + 5e-8, 1.0]]})


def test_a_near_tie_gives_its_own_10eps_probes():
    problem, calls = counting(dk.problem_from_json(_NEAR_TIE))
    stability = dk.danskin_report(problem, [1.0, 0.0])["stability"]
    assert calls == [1, 2]
    assert (stability["active_size"], stability["active_size_10eps"]) == (1, 2)
    assert repr(stability["psi"]) == repr([-1.0, 1.0, 0.0, 0.0])
    assert repr(stability["psi_10eps"]) == repr([-1.0, 1.0 - 5e-8, 0.0, -1.0])
    assert stability == old_report(problem, [1.0, 0.0])["stability"]


def test_the_widening_box_takes_a_second_gradient_call():
    data, x, eps = _WIDENING_BOX  # the refined point near 0.5 joins only the wider active set
    problem, calls = counting(dk.problem_from_json(data))
    report = dk.danskin_report(problem, x, eps)
    assert calls == [1, 2]
    assert repr(report) == repr(old_report(problem, x, eps))
    assert report["stability"]["psi_10eps"] != report["stability"]["psi"]


def test_an_active_set_of_the_same_size_but_other_bits_is_probed_again():
    # over a grid of spacing 0.1 the least value of (y - 0.36)^2 is at 0.4; 10 * eps adds 0.3, which refines
    # to a point within the deduplication tolerance of 0.4's but about 1e-16 away, and comes first
    c = "(const 0.36)"
    data = {"objective": f"(mul (sub (var 2) {c}) (sub (var 2) {c}))", "grad_x": ["(var 2)", "(const 0)"],
            "feasible": {"box": {"lower": [-1.0], "upper": [1.0], "grid": 21, "refine_steps": 30}}}
    problem, calls = counting(dk.problem_from_json(data))
    base, wide = dk.solve_inner(problem, [0.0, 0.0], 1e-3), dk.solve_inner(problem, [0.0, 0.0], 1e-2)
    assert base.minimizers.shape == wide.minimizers.shape == (1, 1)
    assert 0.0 < abs(float(base.minimizers[0, 0] - wide.minimizers[0, 0])) < 1e-6
    calls.clear()
    report = dk.danskin_report(problem, [0.0, 0.0], 1e-3)
    assert calls == [1, 1]
    assert report["stability"]["psi_10eps"] != report["stability"]["psi"]
    assert repr(report) == repr(old_report(problem, [0.0, 0.0], 1e-3))


@pytest.mark.parametrize("d", [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.6, -0.8]])
def test_public_psi_is_the_probes_formula(d):
    problem, calls = counting(dk.problem_from_json(paper_fixture_path("danskin_sqdist.json")))
    active = dk.solve_inner(problem, [0.0, 0.0])
    assert repr(dk.psi(problem, [0.0, 0.0], active, d)) == repr(old_psi(problem, [0.0, 0.0], active, d))
    assert calls == [360, 360]
