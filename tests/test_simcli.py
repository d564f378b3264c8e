import dataclasses
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cnmpc
from cnmpc import continuation, precond, simcli
from cnmpc.continuation import ColdStartError, TrajectoryDivergedError
from cnmpc.precond import StalePreconditionerWarning
from cnmpc.mintime import MinTimeConstants
from cnmpc.simcli import (
    CSV_HEADER,
    PRESETS,
    SimConfig,
    SimResult,
    StepRecord,
    compare_runs,
    load_config_file,
    main,
    parse_cli,
    run_simulation,
    write_csv,
)


def test_presets_match_documented_cases():
    assert PRESETS[1] == {"k_max": 10}
    assert PRESETS[2] == {"t_p": 0.2, "k_max": 1}
    assert PRESETS[3] == {"t_p": 0.4, "k_max": 2}
    assert PRESETS[4] == {"t_p": 0.4, "k_max": 10}


def test_config_defaults():
    cfg = SimConfig()
    assert cfg.t_p is None  # no preconditioner
    assert cfg.dt == 0.02
    assert cfg.n_steps == 10
    assert cfg.h == 1e-5
    assert cfg.tol == 1e-5
    assert cfg.stop_radius == 1e-2
    assert cfg.t_end == 2.0


# ---------------------------------------------------------------------------
# CLI parsing


def test_parse_cli_case_two_maps_preset():
    cfg = parse_cli(["--case", "2"])
    assert cfg.case_preset == 2
    assert cfg.t_p == 0.2
    assert cfg.k_max == 1


def test_parse_cli_no_args_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_cli([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_parse_cli_flag_overrides_preset():
    cfg = parse_cli(["--case", "1", "--kmax", "5"])
    assert cfg.case_preset == 1
    assert cfg.k_max == 5
    assert cfg.t_p is None


def test_parse_cli_rejects_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        parse_cli(["--case", "1", "--bogus", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--case", "5"],
        ["--case", "1", "--kmax", "0"],
        ["--case", "1", "--dt", "-0.1"],
        ["--case", "1", "--h", "0"],
        ["--case", "1", "--tol", "-1"],
        ["--case", "1", "--solver", "cg"],
        ["--case", "1", "--tp", "maybe"],
        ["--case", "2", "--tp", "0"],
        # non-finite values: NaN passes every ordering check, so each is named
        ["--case", "1", "--dt", "nan"],
        ["--case", "1", "--h", "inf"],
        ["--case", "1", "--tol", "nan"],
        ["--case", "2", "--tp", "nan"],
        ["--case", "2", "--tp", "inf"],
        ["--case", "1", "--tmax", "nan"],
        ["--case", "1", "--tmax", "inf"],
    ],
)
def test_parse_cli_out_of_range_values(argv):
    with pytest.raises(SystemExit) as exc:
        parse_cli(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--case", "3", "--solver", "minres"],
        ["--case", "1", "--solver", "minres", "--tp", "0.2"],
        ["--case", "2", "--solver", "minres"],
    ],
)
def test_parse_cli_rejects_minres_with_preconditioner(argv, capsys):
    # the LU preconditioner is not SPD, so MINRES would degrade every step
    with pytest.raises(SystemExit) as exc:
        parse_cli(argv)
    assert exc.value.code == 2
    assert "minres" in capsys.readouterr().err


def test_parse_cli_accepts_minres_with_the_preconditioner_off():
    cfg = parse_cli(["--case", "2", "--solver", "minres", "--tp", "off"])
    assert (cfg.solver, cfg.t_p, cfg.k_max) == ("minres", None, 1)


def test_tp_off_runs_without_a_preconditioner(tmp_path):
    # "off" is the one spelling of no preconditioner, as a flag and as a key
    assert parse_cli(["--case", "2", "--tp", "off"]).t_p is None
    path = tmp_path / "run.cfg"
    path.write_text("case = 4\ntp = off\n")
    assert parse_cli(["--config", str(path)]).t_p is None
    assert parse_cli(["--case", "1", "--tp", "0.3"]).t_p == 0.3


@pytest.mark.parametrize("given", ["flag", "key"])
def test_precond_setting_is_gone(tmp_path, given, capsys):
    # the preconditioner is switched by tp alone
    path = tmp_path / "run.cfg"
    path.write_text("case = 1\nprecond = on\n")
    argv = ["--case", "1", "--precond", "on"] if given == "flag" else ["--config", str(path)]
    with pytest.raises(SystemExit) as exc:
        parse_cli(argv)
    assert exc.value.code == 2
    assert "precond" in capsys.readouterr().err


def test_parse_cli_collects_remaining_flags(tmp_path):
    out = tmp_path / "run.csv"
    cfg = parse_cli(
        ["--case", "3", "--solver", "minres", "--dt", "0.01", "--N", "20", "--h", "1e-6",
         "--tol", "1e-4", "--tmax", "1.5", "--tp", "off", "--out", str(out)]
    )
    assert cfg.solver == "minres"
    assert cfg.dt == 0.01
    assert cfg.n_steps == 20
    assert cfg.h == 1e-6
    assert cfg.tol == 1e-4
    assert cfg.t_end == 1.5
    assert cfg.t_p is None
    assert cfg.out_path == out


# ---------------------------------------------------------------------------
# config file


def test_load_config_file_grammar(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment line\ncase = 2\nkmax = 7   # trailing comment\n\ncu = 0.7\n")
    values = load_config_file(path)
    assert values == {"case": "2", "kmax": "7", "cu": "0.7"}


def test_config_file_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("case = 2\nkmax = 7\n")
    # file overrides preset
    cfg = parse_cli(["--config", str(path)])
    assert cfg.case_preset == 2
    assert cfg.k_max == 7
    assert cfg.t_p == 0.2
    # explicit flag overrides file
    cfg = parse_cli(["--config", str(path), "--kmax", "3"])
    assert cfg.k_max == 3
    # explicit case flag wins over the file's case for preset selection
    cfg = parse_cli(["--case", "4", "--config", str(path)])
    assert cfg.case_preset == 4
    assert cfg.k_max == 7  # file still overrides the preset's kmax


def test_config_file_constants_override(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("case = 1\ncu = 0.7\nru = 0.3\nxf = 2.0\n")
    cfg = parse_cli(["--config", str(path)])
    assert cfg.constants.c_u == 0.7
    assert cfg.constants.r_u == 0.3
    assert cfg.constants.x_f == 2.0


# the documented constant keys, one per MinTimeConstants field
CONSTANT_KEYS = {
    "A": "A", "B": "B", "cu": "c_u", "ru": "r_u", "wd": "w_d",
    "x0": "x0", "y0": "y0", "t0": "t0", "xf": "x_f", "yf": "y_f",
}


def test_config_constant_keys_cover_every_field():
    assert sorted(CONSTANT_KEYS.values()) == sorted(
        f.name for f in dataclasses.fields(MinTimeConstants)
    )


@pytest.mark.parametrize("key", CONSTANT_KEYS)
def test_config_file_key_sets_its_constant(tmp_path, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"case = 1\n{key} = 0.123\n")  # 0.123 passes every check
    cfg = parse_cli(["--config", str(path)])
    assert cfg.constants == dataclasses.replace(MinTimeConstants(), **{CONSTANT_KEYS[key]: 0.123})


# a bad setting or constant in a config file -> the usage error it gives
_BAD_SETTINGS = {
    "tp = inf": "tp must be positive and finite, got inf",
    "stop_radius = nan": "stop_radius must be positive and finite, got nan",
    "cu = nan": "config key cu: c_u must be finite, got nan",
    "x0 = inf": "config key x0: x0 must be finite, got inf",
    "cu = abc": "config key cu: could not convert string to float: 'abc'",
    "ru = 0": "config key ru: band radius r_u must be positive",
}


@pytest.mark.parametrize("setting", _BAD_SETTINGS)
def test_config_file_non_finite_value_is_usage_error(tmp_path, capsys, setting):
    # a non-finite or invalid setting or constant is rejected before the
    # cold start, and a bad constant names the key that set it
    path = tmp_path / "run.cfg"
    path.write_text(f"case = 2\n{setting}\n")
    with pytest.raises(SystemExit) as exc:
        parse_cli(["--config", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(f"error: {_BAD_SETTINGS[setting]}")


@pytest.mark.parametrize(
    "value, message",
    [
        ("abc", "invalid literal for int() with base 10: 'abc'"),
        ("2.5", "invalid literal for int() with base 10: '2.5'"),
        ("7", "case must be one of [1, 2, 3, 4], got 7"),
    ],
)
def test_config_file_bad_case_names_its_key(tmp_path, capsys, value, message):
    path = tmp_path / "run.cfg"
    path.write_text(f"case = {value}\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(f"error: config key case: {message}")


def test_config_file_unknown_key_or_malformed(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("case = 1\nwhatever = 12\n")
    with pytest.raises(SystemExit) as exc:
        parse_cli(["--config", str(bad)])
    assert exc.value.code == 2
    bad.write_text("case 1\n")
    with pytest.raises(SystemExit) as exc:
        parse_cli(["--config", str(bad)])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_header_is_the_step_record_fields():
    assert CSV_HEADER.split(",") == [f.name for f in dataclasses.fields(StepRecord)]


def test_write_csv_empty_result(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(SimResult([], None), path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_write_csv_single_record(tmp_path, preset_results):
    path = tmp_path / "one.csv"
    one = SimResult(preset_results[1].records[:1], None)
    write_csv(one, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert path.read_text().endswith("\n")


def test_csv_round_trip_exact(tmp_path, preset_results):
    path = tmp_path / "case1.csv"
    write_csv(preset_results[1], path)
    header, *rows = path.read_text(encoding="ascii").splitlines()
    assert header == CSV_HEADER
    records = preset_results[1].records
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        fields = dict(zip(header.split(","), row.split(",")))
        assert len(fields) == 11
        assert int(fields["step"]) == rec.step
        for name in ("t", "x", "y", "u", "u_d", "p", "norm_F", "krylov_residual"):
            assert float(fields[name]) == getattr(rec, name), name
        assert int(fields["iterations"]) == rec.iterations
        assert fields["rebuilt"] == str(int(rec.rebuilt))


def test_write_csv_io_error(tmp_path):
    with pytest.raises(OSError, match="missing"):
        write_csv(SimResult([], None), tmp_path / "missing" / "x.csv")


def test_main_rejects_out_in_missing_directory_before_the_run(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("ran the simulation")

    monkeypatch.setattr(simcli, "run_simulation", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["--case", "1", "--out", str(tmp_path / "missing" / "x.csv")])
    assert exc.value.code == 2
    assert "does not exist" in capsys.readouterr().err


def test_main_rejects_out_naming_a_directory_before_the_run(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("ran the simulation")

    monkeypatch.setattr(simcli, "run_simulation", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["--case", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"--out: {tmp_path} is a directory" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulation behaviour


def test_zero_time_cap_gives_empty_run():
    cfg = SimConfig(case_preset=1, **PRESETS[1])
    cfg.t_end = 0.0
    result = run_simulation(cfg)
    assert result.records == []
    assert result.arrival_time is None


def test_runs_are_deterministic(preset_results):
    again = run_simulation(SimConfig(case_preset=2, **PRESETS[2]))
    assert again.records == preset_results[2].records
    assert again.arrival_time == preset_results[2].arrival_time


def test_measurement_hook_overrides_prediction(consts):
    cfg = SimConfig(case_preset=1, **PRESETS[1])
    cfg.t_end = 0.1
    seen = []

    def freeze(step, t, x_pred):
        seen.append(step)
        return consts.start  # state pinned at the origin

    result = run_simulation(cfg, measure=freeze)
    assert seen  # hook used
    assert all(r.x == consts.start[0] and r.y == consts.start[1] for r in result.records)


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_control_band_property(preset_results, case):
    c_lo, c_hi = 0.8 - 0.2 - 1e-2, 0.8 + 0.2 + 1e-2
    for r in preset_results[case].records[3:]:
        assert c_lo <= r.u <= c_hi


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_time_to_go_decreases(preset_results, case):
    records = preset_results[case].records
    for a, b in zip(records, records[1:]):
        assert b.p <= a.p + 1e-2
    anchor = records[0].p + records[0].t
    for r in records:
        assert abs(r.p + r.t - anchor) <= 0.15 * anchor


@pytest.mark.parametrize("case", [1, 2, 3, 4])
def test_iterations_capped_and_grid_uniform(preset_results, case):
    cfg = SimConfig(case_preset=case, **PRESETS[case])
    records = preset_results[case].records
    for r in records:
        assert r.iterations <= cfg.k_max
    for i, r in enumerate(records):
        assert r.t == i * cfg.dt


def test_minres_solver_closed_loop(consts):
    cfg = SimConfig(case_preset=1, **PRESETS[1])
    cfg.solver = "minres"
    cfg.t_end = 0.2
    result = run_simulation(cfg)
    assert len(result.records) == 10
    assert all(np.isfinite(r.norm_F) for r in result.records)


def test_run_without_precond_never_consults_schedule(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("preconditioner used with precond off")

    for name in ("should_rebuild", "rebuild", "apply", "update"):
        monkeypatch.setattr(precond, name, refuse)
    cfg = SimConfig(case_preset=1, **PRESETS[1])
    cfg.t_end = 0.1
    result = run_simulation(cfg)
    assert len(result.records) == 5
    assert not any(r.rebuilt for r in result.records)


@pytest.mark.parametrize(
    "case, solver",
    [(1, "gmres"), (2, "gmres"), (3, "gmres"), (4, "gmres"), (1, "minres")],
    ids=["1", "2", "3", "4", "minres"],
)
def test_kernel_calls_per_loop_step(monkeypatch, case, solver):
    # block_residual calls per loop step: every step scores F and the
    # Jacobian in one block and solves on it, and a due rebuild inverts that
    # same block, so with no stale rebuild the LU count is the rebuild count
    calls = []
    marks = []
    factored = []
    kernel = continuation.block_residual
    cold_start = simcli.initial_solve
    lu_factor = precond.lu_factor

    def spy(*args):
        calls.append(1)
        return kernel(*args)

    def marked_cold_start(*args, **kwargs):
        out = cold_start(*args, **kwargs)
        marks.append(len(calls))
        return out

    def mark(i, t, x):
        marks.append(len(calls))
        return x

    def spy_lu_factor(A):
        factored.append(1)
        return lu_factor(A)

    monkeypatch.setattr(continuation, "block_residual", spy)
    monkeypatch.setattr(simcli, "initial_solve", marked_cold_start)
    monkeypatch.setattr(precond, "lu_factor", spy_lu_factor)
    cfg = SimConfig(case_preset=case, **PRESETS[case])
    cfg.solver = solver
    if solver == "minres":
        cfg.t_end = 0.2
    with warnings.catch_warnings():
        warnings.simplefilter("error", StalePreconditionerWarning)
        records = run_simulation(cfg, measure=mark).records
    per_step = [b - a for a, b in zip(marks, marks[1:])]
    assert len(per_step) == len(records)
    assert per_step == [1] * len(records)
    assert len(factored) == sum(r.rebuilt for r in records)
    if case == 1:
        assert len(factored) == 0
        assert all(r.iterations == 10 for r in records)
    else:
        assert len(factored) > 1
        assert all(0 < r.iterations for r in records)


@settings(deadline=None, max_examples=12)
@given(
    case=st.sampled_from([1, 2]),
    step=st.integers(min_value=1, max_value=45),
    p=st.sampled_from([math.inf, -math.inf, math.nan]),
)
@example(case=1, step=5, p=-math.inf)
@example(case=2, step=5, p=-math.inf)
@example(case=2, step=10, p=math.inf)
def test_non_finite_time_to_go_is_no_arrival(case, step, p):
    # the continuation step's call number ``step`` returns the time-to-go p;
    # the loop must not count that as an arrival, and the next step's state
    # recursion diverges on it (through a stale rebuild when one is due)
    original = simcli.continuation_step
    calls = []

    def exploding(*args, **kwargs):
        U, norm_F, result = original(*args, **kwargs)
        calls.append(1)
        if len(calls) == step:
            U.p()[:] = p
        return U, norm_F, result

    cfg = SimConfig(case_preset=case, **PRESETS[case])
    with mock.patch.object(simcli, "continuation_step", exploding):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrajectoryDivergedError) as exc_info:
                run_simulation(cfg)
    assert (exc_info.value.kind, exc_info.value.step) == ("state", 1)
    assert len(calls) == step
    rebuild_next = cfg.t_p is not None and step % round(cfg.t_p / cfg.dt) == 0
    assert [type(w.message) for w in caught] == [StalePreconditionerWarning] * rebuild_next


def test_cold_start_failure_raises_with_residual():
    cfg = SimConfig(case_preset=1, **PRESETS[1])
    cfg.constants = type(cfg.constants)(x_f=-1.0, y_f=0.0)
    with pytest.raises(ColdStartError, match="residual"):
        run_simulation(cfg)


# ---------------------------------------------------------------------------
# comparison reports


def test_compare_identical_runs_all_ratios_one(preset_results):
    report = compare_runs(preset_results[1], preset_results[1])
    assert report.steps_compared == len(preset_results[1].records)
    assert not report.warnings
    for base, cand, ratio in report.metrics.values():
        assert ratio == 1.0


def test_compare_disjoint_grids_empty_with_warning(preset_results):
    empty = SimResult([], None)
    report = compare_runs(preset_results[1], empty)
    assert report.steps_compared == 0
    assert report.metrics == {}
    assert report.warnings == ["step grids are disjoint; nothing to compare"]


def test_compare_mismatched_grids_common_prefix(preset_results):
    truncated = SimResult(preset_results[1].records[:20], None)
    report = compare_runs(preset_results[1], truncated)
    assert report.steps_compared == 20
    assert any("common prefix" in w for w in report.warnings)


def test_compare_runs_of_different_length_on_one_grid(preset_results):
    # cases 1 and 2 share the sampling grid and stop at different steps
    base, cand = preset_results[1], preset_results[2]
    assert len(base.records) != len(cand.records)
    report = compare_runs(base, cand)
    n = min(len(base.records), len(cand.records))
    assert report.steps_compared == n
    assert report.warnings == [
        f"runs have {len(base.records)} and {len(cand.records)} steps on the same grid; "
        f"comparing the common prefix of {n} steps"
    ]


def test_compare_step_times_that_part(preset_results):
    records = preset_results[1].records
    shifted = records[:5] + [dataclasses.replace(r, t=r.t + 0.01) for r in records[5:]]
    report = compare_runs(preset_results[1], SimResult(shifted, None))
    assert report.steps_compared == 5
    assert report.warnings == ["step grids differ from step 5; comparing the common prefix of 5 steps"]


def test_compare_report_formats(preset_results):
    report = compare_runs(preset_results[1], preset_results[3])
    text = report.to_text()
    csv = report.to_csv()
    assert "iterations_total" in text
    assert csv.splitlines()[0] == "metric,baseline,candidate,ratio"
    assert len(csv.splitlines()) == 1 + len(report.metrics)


def test_compare_reports_exactly_four_metrics(preset_results):
    report = compare_runs(preset_results[1], preset_results[2])
    assert list(report.metrics) == [
        "iterations_total",
        "rebuilds_total",
        "norm_F_max",
        "norm_F_median",
    ]


def test_compare_iteration_reduction(preset_results):
    report = compare_runs(preset_results[1], preset_results[3])
    assert report.metrics["iterations_total"][2] <= 0.25


# ---------------------------------------------------------------------------
# CLI entry point


def test_main_writes_csv_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "case1.csv"
    code = main(["--case", "1", "--out", str(out)])
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "arrival" in captured.out


def test_case_four_with_tp_off_writes_case_one_csv(tmp_path, capsys):
    # both are unpreconditioned runs with k_max = 10
    plain, off = tmp_path / "case1.csv", tmp_path / "case4_off.csv"
    assert main(["--case", "1", "--out", str(plain)]) == 0
    assert main(["--case", "4", "--tp", "off", "--out", str(off)]) == 0
    assert off.read_bytes() == plain.read_bytes()
    assert "preconditioner rebuilds: 0" in capsys.readouterr().out


def test_main_summary_totals_are_the_csv_sums(tmp_path, capsys):
    # the printed totals are the sums of the logged rows' Krylov iterations
    # and preconditioner rebuilds
    out = tmp_path / "case2.csv"
    assert main(["--case", "2", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    header = CSV_HEADER.split(",")
    iterations = sum(int(row[header.index("iterations")]) for row in rows)
    rebuilds = sum(int(row[header.index("rebuilt")]) for row in rows)
    assert rebuilds > 0
    summary = f"solver iterations: {iterations}, preconditioner rebuilds: {rebuilds}"
    assert summary in capsys.readouterr().out.splitlines()


def test_main_cold_start_failure_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("case = 1\nxf = -1.0\nyf = 0.0\n")
    code = main(["--config", str(cfg_file)])
    assert code == 3
    assert "residual" in capsys.readouterr().err


def test_main_long_horizon_cold_start_arrives(capsys):
    # N = 40 cold-starts up the rungs 10, 20 and 40; a Newton solve on the
    # one horizon stalls at residual norm 3.5e-5
    assert main(["--case", "1", "--N", "40"]) == 0
    assert "arrival time: 0.98 s" in capsys.readouterr().out.splitlines()


def test_main_coarse_rung_failure_exit_code(tmp_path, capsys):
    # the guess's trajectory overflows on the coarsest rung of N = 20
    cfg_file = tmp_path / "extreme.cfg"
    cfg_file.write_text("case = 1\nA = 1e300\nN = 20\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["--config", str(cfg_file)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: non-finite trajectory of the guess")
    assert err.rstrip().endswith("on the rung N = 10 of the horizon ladder to N = 20")


@pytest.mark.parametrize(
    "setting",
    [
        "A = 1e300",  # the guess's trajectory overflows at the first residual
        "wd = 1e300",  # the Jacobian is singular and its norm overflows
    ],
)
def test_main_cold_start_breakdown_exit_code(tmp_path, capsys, setting):
    cfg_file = tmp_path / "extreme.cfg"
    cfg_file.write_text(f"case = 1\n{setting}\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["--config", str(cfg_file)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "setting, finite_norm",
    [
        ("A = 1e300", False),  # the guess diverges: no residual, infinite norm
        ("wd = 1e300", True),  # a finite residual whose plain norm overflows
    ],
    ids=["A = 1e300", "wd = 1e300"],
)
def test_cli_cold_start_breakdown_prints_only_the_error(tmp_path, setting, finite_norm):
    # the overflows behind these breakdowns are checked explicitly, so no
    # numpy RuntimeWarning may reach stderr ahead of the error line, and the
    # line names the residual norm of the best iterate
    cfg_file = tmp_path / "extreme.cfg"
    cfg_file.write_text(f"case = 1\n{setting}\n")
    src = str(Path(cnmpc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "cnmpc.simcli", "--config", str(cfg_file)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": ""},
        timeout=60,
    )
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: ")
    norm = float(re.search(r"residual norm (\S+)\)", lines[0]).group(1))
    assert math.isfinite(norm) == finite_norm


def test_module_entry_point_usage_error_without_warning():
    # the package __init__ must not import simcli, or ``python -m`` warns
    # that the module was found in sys.modules before it ran
    src = str(Path(cnmpc.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "cnmpc.simcli", "--case", "3", "--solver", "minres"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": ""},
        timeout=60,
    )
    assert proc.returncode == 2
    assert "minres" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
