"""Pin of the closed-loop outcomes on the benchmark's panel.

Cases 1-4 run at N = 10 on ``perfbench/workloads.scenarios(3, 21)``, the
canonical constants plus 21 feasible draws, through ``workloads.run_loop``,
the operation the ``loop_plain`` (case 1) and ``loop_precond`` (case 2)
workloads time.  Every draw's ``(ok, reason)`` is pinned, the way
``CASE_DIGESTS`` pins the canonical CSV bytes: a change that moves an
outcome restates this pin and says why.

The pinned failures: four N = 10 cold starts stall in every case (the
horizon ladder starts at N = 20), and the preconditioned loops fire the
``p <= dt`` arrival rule away from the target (0.16-1.0 away in case 2) on
panel-4, -5, -12 and -15, case 2 also on panel-16.  Two outcomes moved when
the preconditioned steps began to solve on the assembled Jacobian block
instead of the matrix-free difference operator: case 3's panel-16 now
arrives, and case 4's panel-5 is now a false arrival.  Cases 1 and 2 did not
move.

Cases 1 and 2 are also pinned at N = 40, the same operation with the preset's
horizon raised.  Two cold starts stall there, panel-17 and -20: the ladder
climbs from a 10-stage rung, where both stall too, and a stalled rung hands
the next one only the guess.  Case 1 has no other failure.  Case 2 also
false-arrives on nine draws, the shifted canonical constants among them.
The unshifted canonical constants at N = 40 are pinned apart: cases 1, 3
and 4 arrive within criterion 1's band, and case 2 ends on a negative
time-to-go, the overshoot that the ``p <= dt`` rule reads as an arrival.
"""

from pathlib import Path

import pytest

from cnmpc import simcli
from cnmpc.simcli import PRESETS, SimConfig, run_simulation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

STALLS = {label: "cold_start" for label in ("panel-13", "panel-17", "panel-19", "panel-20")}
FALSE_ARRIVALS = {
    label: "false_arrival" for label in ("panel-4", "panel-5", "panel-12", "panel-15")
}
OFF_TARGET = {
    1: STALLS,
    2: {**STALLS, **FALSE_ARRIVALS, "panel-16": "false_arrival"},
    3: {**STALLS, **FALSE_ARRIVALS},
    4: {**STALLS, **FALSE_ARRIVALS},
}

LONG_STALLS = {label: "cold_start" for label in ("panel-17", "panel-20")}
LONG_FALSE_ARRIVALS = {
    label: "false_arrival"
    for label in (
        "canonical", "panel-3", "panel-4", "panel-5", "panel-11",
        "panel-12", "panel-15", "panel-16", "panel-19",
    )
}
OFF_TARGET_N40 = {1: LONG_STALLS, 2: {**LONG_STALLS, **LONG_FALSE_ARRIVALS}}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


def _assert_pinned(workloads, tmp_path, case, N, off):
    scenarios = workloads.scenarios(3, 21)
    assert len(scenarios) == 22
    outcomes = {}
    for index, scenario in enumerate(scenarios):
        op = workloads.run_loop(case, index, scenario, tmp_path / f"{scenario.label}.csv")
        assert op.N == N
        assert op.check_error is None
        outcomes[scenario.label] = (op.ok, op.reason)
    assert outcomes == {s.label: (s.label not in off, off.get(s.label)) for s in scenarios}


@pytest.mark.parametrize("case", sorted(OFF_TARGET))
def test_panel_outcomes_are_pinned(workloads, tmp_path, case):
    _assert_pinned(workloads, tmp_path, case, 10, OFF_TARGET[case])


@pytest.mark.parametrize("case", sorted(OFF_TARGET_N40))
def test_long_horizon_panel_outcomes_are_pinned(workloads, tmp_path, monkeypatch, case):
    monkeypatch.setitem(simcli.PRESETS, case, {**simcli.PRESETS[case], "n_steps": 40})
    _assert_pinned(workloads, tmp_path, case, 40, OFF_TARGET_N40[case])


def test_canonical_cases_at_long_horizon():
    runs = {
        case: run_simulation(SimConfig(case_preset=case, **PRESETS[case], n_steps=40))
        for case in sorted(PRESETS)
    }
    for case in (1, 3, 4):
        arrival = runs[case].arrival_time
        assert arrival is not None and abs(arrival - 0.96) <= 0.06, (case, arrival)
    # case 2 passes 0.015 from the target and stops on p = -0.026
    assert runs[2].records[-1].p < 0.0
