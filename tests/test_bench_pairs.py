"""The statistics of ``scripts/bench_pairs.py``: quartiles, wins and ties
over the pairs, the nine-in-ten rule, and the sorting of traced runs'
check failures and counts."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent, change):
    return [{"parent": {"m": a}, "change": {"m": b}} for a, b in zip(parent, change)]


def test_compare_counts_wins_and_ties_and_inclusive_quartiles(bench_pairs):
    parent = [4.0, 4.2, 4.1, 4.3, 5.0]
    change = [3.0, 4.2, 3.5, 4.4, 3.1]
    r = bench_pairs.compare(parent, change, lower_is_better=True)
    assert (r["change_wins"], r["ties"], r["pairs"]) == (3, 1, 5)
    assert r["parent"] == {"q1": 4.1, "median": 4.2, "q3": 4.3}
    assert r["median_gap"] == pytest.approx(4.2 - 3.5)
    assert r["parent_iqr"] == pytest.approx(0.2)
    assert r["median_gap_exceeds_parent_iqr"]
    # for a metric where higher is better the roles of the sides swap
    flipped = bench_pairs.compare(parent, change, lower_is_better=False)
    assert flipped["change_wins"] == 1
    assert not flipped["median_gap_exceeds_parent_iqr"]


@pytest.mark.parametrize("wins, met", [(10, True), (9, True), (8, False)])
def test_claim_needs_nine_wins_in_ten(bench_pairs, wins, met):
    parent = [4.0 + 0.01 * i for i in range(10)]
    change = [3.0] * wins + [5.0] * (10 - wins)
    verdict = bench_pairs.claim(_runs(parent, change), "m", lower_is_better=True)
    assert verdict["first_ten_pairs"]["change_wins"] == wins
    assert verdict["first_ten_pairs"]["met"] is met
    assert verdict["all_pairs"] == verdict["first_ten_pairs"]


def test_claim_needs_the_median_gap_to_exceed_the_parent_spread(bench_pairs):
    # every pair won, but by less than the spread of the parent's own runs
    parent = [4.0, 4.5, 5.0, 5.5, 6.0, 4.0, 4.5, 5.0, 5.5, 6.0]
    change = [p - 0.1 for p in parent]
    verdict = bench_pairs.claim(_runs(parent, change), "m", lower_is_better=True)
    assert verdict["all_pairs"]["change_wins"] == 10
    assert not verdict["all_pairs"]["met"]


def _bench_output(errors, **counts):
    """A canned ``bench`` output: its check failures and count metrics, plus
    one timing that the count comparison must ignore."""
    metrics = {k.replace("__", "."): {"value": v, "unit": "count"} for k, v in counts.items()}
    metrics["simcli.self_ms"] = {"value": 12.5 * len(errors), "unit": "ms"}
    return {"errors": errors, "metrics": metrics}


def test_traced_check_tells_host_faults_from_program_faults(bench_pairs):
    clock = "traced pass 1: span wall 43052977 ns, clock 43494175 ns"
    got = {
        "parent": _bench_output(
            [clock], simcli__steps_over_dt=2, krylov__gmres__calls=40, bench__calls=7
        ),
        "change": _bench_output(
            ["traced outcomes differ from the untraced ones", "traced pass 2: span wall 5 ns"],
            simcli__steps_over_dt=0, krylov__gmres__calls=40, bench__calls=8,
        ),
    }
    check = bench_pairs.traced_check(5, got)
    assert check == {
        "seed": 5,
        "host_clock_errors": {"parent": [clock], "change": []},
        # a line that only starts like the clock check is a program fault
        "errors": {
            "parent": [],
            "change": ["traced outcomes differ from the untraced ones",
                       "traced pass 2: span wall 5 ns"],
        },
        "simcli.steps_over_dt": {"parent": 2, "change": 0},
        "counts_differ": {"bench.calls": [7, 8]},
    }
    quiet = bench_pairs.traced_check(6, {side: _bench_output([], bench__calls=7)
                                         for side in ("parent", "change")})
    assert bench_pairs.failure_counts([check, quiet, check]) == {
        "host_clock_errors": {"parent": 2, "change": 0},
        "errors": {"parent": 0, "change": 4},
    }
