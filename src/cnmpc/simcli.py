"""Closed-loop receding-horizon simulator and command-line front end.

Runs the minimum-time benchmark under four canonical solver configurations
(unpreconditioned baseline and three preconditioned variants), logging
per-step diagnostics to CSV and supporting run-to-run comparison reports.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, ClassVar, Optional

import numpy as np

from . import precond
from .continuation import (
    ColdStartError,
    TrajectoryDivergedError,
    assemble_jacobian,
    continuation_step,
    initial_solve,
)
from .mintime import MinTimeConstants, initial_guess, plant_rate, problem_spec

__all__ = [
    "PRESETS",
    "SimConfig",
    "StepRecord",
    "SimResult",
    "RunComparison",
    "run_simulation",
    "write_csv",
    "compare_runs",
    "parse_cli",
    "main",
]

# Canonical experiment cases: an unpreconditioned baseline saturating its
# iteration budget, and three preconditioned variants trading rebuild
# frequency against the per-step iteration cap.
PRESETS: dict[int, dict] = {
    1: {"k_max": 10},
    2: {"t_p": 0.2, "k_max": 1},
    3: {"t_p": 0.4, "k_max": 2},
    4: {"t_p": 0.4, "k_max": 10},
}

EXIT_COLD_START = 3


@dataclass
class SimConfig:
    """Simulation settings; presets fill the solver-related fields.

    ``t_p`` is the preconditioner's rebuild period; None runs without a
    preconditioner.  The cold-start tolerance and Newton cap are class
    constants, not fields: no preset, config key or flag sets them.
    """

    case_preset: Optional[int] = None
    dt: float = 0.02
    n_steps: int = 10
    h: float = 1e-5
    tol: float = 1e-5
    k_max: int = 10
    t_p: Optional[float] = None
    solver: str = "gmres"
    t_end: float = 2.0
    stop_radius: float = 1e-2
    constants: MinTimeConstants = field(default_factory=MinTimeConstants)
    out_path: Optional[Path] = None
    cold_start_tol: ClassVar[float] = 1e-6
    cold_start_max_newton: ClassVar[int] = 50

    def validate(self) -> None:
        if self.case_preset is not None and self.case_preset not in PRESETS:
            raise ValueError(f"case must be one of {sorted(PRESETS)}, got {self.case_preset}")
        # the chained comparisons reject NaN and infinities too
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"N must be at least 1, got {self.n_steps}")
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"h must be positive and finite, got {self.h}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.k_max < 1:
            raise ValueError(f"kmax must be at least 1, got {self.k_max}")
        if self.t_p is not None and not 0.0 < self.t_p < math.inf:
            raise ValueError(f"tp must be positive and finite, got {self.t_p}")
        if not 0.0 <= self.t_end < math.inf:
            raise ValueError(f"tmax must be nonnegative and finite, got {self.t_end}")
        if not 0.0 < self.stop_radius < math.inf:
            raise ValueError(f"stop_radius must be positive and finite, got {self.stop_radius}")
        if self.solver not in ("gmres", "minres"):
            raise ValueError(f"solver must be gmres or minres, got {self.solver}")
        if self.solver == "minres" and self.t_p is not None:
            # MINRES needs an SPD preconditioner; the LU inverse of the
            # non-symmetric Jacobian is not one, so every step would degrade.
            raise ValueError("solver minres requires tp off: the LU preconditioner is not SPD")


@dataclass(frozen=True)
class StepRecord:
    """One CSV row: system step, state before the step, applied input, and
    solver diagnostics for that step."""

    step: int
    t: float
    x: float
    y: float
    u: float
    u_d: float
    p: float
    norm_F: float
    krylov_residual: float
    iterations: int
    rebuilt: bool


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# The CSV columns are StepRecord's fields in order; a float cell has 17
# significant digits (enough to round-trip), an int is decimal, a bool 0/1.
_CSV_CELL = {"float": _fmt, "int": str, "bool": lambda v: str(int(v))}
_CSV_COLUMNS = tuple((f.name, _CSV_CELL[f.type]) for f in fields(StepRecord))
CSV_HEADER = ",".join(name for name, _ in _CSV_COLUMNS)


@dataclass
class SimResult:
    records: list[StepRecord]
    arrival_time: Optional[float]


def run_simulation(
    cfg: SimConfig,
    measure: Optional[Callable[[int, float, np.ndarray], np.ndarray]] = None,
) -> SimResult:
    """Cold start at t0, then the receding-horizon loop.

    Each pass assembles the difference Jacobian at the current point in one
    block, inverts that block when a preconditioner rebuild is due, advances
    the tracked solution by one Krylov step on it, updates the
    preconditioner from the step's secant pairs, records diagnostics, and
    propagates the state with a model Euler step (or the ``measure`` hook
    when supplied, for externally sourced states).  The run stops at target arrival: either the
    distance to the goal falls below ``stop_radius`` or a finite time-to-go
    drops below one sampling period; ``t_end`` is a safety cap with no
    arrival.
    Identical configs produce identical outputs.
    """
    cfg.validate()
    consts = cfg.constants
    spec = problem_spec(consts, cfg.n_steps)

    init = initial_solve(
        spec,
        consts.start,
        consts.t0,
        initial_guess(consts, cfg.n_steps),
        tol_init=cfg.cold_start_tol,
        max_newton=cfg.cold_start_max_newton,
        fd_step=cfg.h,
    )
    if init.residual_norm > cfg.cold_start_tol:
        raise ColdStartError(
            f"cold start stalled at residual norm {init.residual_norm:.6e} "
            f"(target {cfg.cold_start_tol:g})"
        )

    U = init.U
    pstate = precond.PrecondState()

    records: list[StepRecord] = []
    arrival: Optional[float] = None
    x = consts.start
    i = 0
    while True:
        t = consts.t0 + i * cfg.dt
        if t >= cfg.t_end:
            break
        if math.hypot(x[0] - consts.x_f, x[1] - consts.y_f) <= cfg.stop_radius:
            arrival = t
            break
        # one block per step: a due rebuild inverts its Jacobian and the
        # step solves on it; for a block that diverged (None) the rebuild
        # goes stale and the step scores F alone
        try:
            R = assemble_jacobian(spec, U, x, cfg.h)
        except TrajectoryDivergedError:
            R = None
        rebuilt = cfg.t_p is not None and precond.should_rebuild(pstate, t, cfg.t_p, cfg.dt)
        if rebuilt:
            pstate = precond.rebuild(R, t, prev=pstate)
        U, norm_F, result = continuation_step(
            spec, U, x, R, fd_step=cfg.h, k_max=cfg.k_max, tol=cfg.tol, solver=cfg.solver,
            precond=pstate.inverse,
        )
        if pstate.inverse is not None and result is not None and result.pairs is not None:
            # the products GMRES formed keep the inverse current
            pstate = precond.update(pstate, *result.pairs)
        u_applied = U.u(0)
        records.append(
            StepRecord(
                step=i,
                t=t,
                x=float(x[0]),
                y=float(x[1]),
                u=float(u_applied[0]),
                u_d=float(u_applied[1]),
                p=float(U.p()[0]),
                norm_F=norm_F,
                # a degraded step (no result) made no progress
                krylov_residual=math.inf if result is None else result.relative_residual,
                iterations=0 if result is None else result.iterations,
                rebuilt=rebuilt,
            )
        )
        x_next = x + cfg.dt * plant_rate(consts, x, u_applied)
        x = measure(i, t + cfg.dt, x_next) if measure is not None else x_next
        if -math.inf < float(U.p()[0]) <= cfg.dt:
            # Horizon shorter than one sampling period: the goal is reached
            # within the next step.  A non-finite time-to-go is no arrival:
            # the next step's state recursion diverges on it.
            arrival = t + cfg.dt
            break
        i += 1
    return SimResult(records=records, arrival_time=arrival)


def write_csv(result: SimResult, path) -> None:
    """Write the ``CSV_HEADER`` line, then one diagnostics row per step."""
    path = Path(path)
    try:
        with path.open("w", encoding="ascii", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in result.records:
                fh.write(",".join(cell(getattr(r, name)) for name, cell in _CSV_COLUMNS) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


@dataclass
class RunComparison:
    """Candidate-over-baseline ratios on the aligned step prefix."""

    steps_compared: int
    metrics: dict[str, tuple[float, float, float]]
    warnings: list[str]

    def to_text(self) -> str:
        lines = [f"steps compared: {self.steps_compared}"]
        for w in self.warnings:
            lines.append(f"warning: {w}")
        for name, (base, cand, ratio) in self.metrics.items():
            lines.append(f"{name}: baseline={base:.6g} candidate={cand:.6g} ratio={ratio:.6g}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["metric,baseline,candidate,ratio"]
        for name, (base, cand, ratio) in self.metrics.items():
            lines.append(f"{name},{_fmt(base)},{_fmt(cand)},{_fmt(ratio)}")
        return "\n".join(lines) + "\n"


def _ratio(base: float, cand: float) -> float:
    if base == 0.0:
        return 1.0 if cand == 0.0 else float("inf")
    return cand / base


def compare_runs(baseline: SimResult, candidate: SimResult) -> RunComparison:
    """Efficiency and quality ratios over the common step prefix.

    Reports total solver iterations, total preconditioner rebuilds, and
    max/median residual norms.  Runs on disjoint grids yield an empty report
    with a warning; runs of different lengths, or whose step times part, are
    aligned on their common prefix with a warning that says which.
    """
    warnings_list: list[str] = []
    n_base, n_cand = len(baseline.records), len(candidate.records)
    n = min(n_base, n_cand)
    common = 0
    for i in range(n):
        if baseline.records[i].t != candidate.records[i].t:
            break
        common += 1
    if common == 0:
        warnings_list.append("step grids are disjoint; nothing to compare")
        return RunComparison(steps_compared=0, metrics={}, warnings=warnings_list)
    if common < n:
        warnings_list.append(
            f"step grids differ from step {common}; comparing the common prefix of {common} steps"
        )
    elif n_base != n_cand:
        warnings_list.append(
            f"runs have {n_base} and {n_cand} steps on the same grid; "
            f"comparing the common prefix of {common} steps"
        )

    base = baseline.records[:common]
    cand = candidate.records[:common]

    b_it = float(sum(r.iterations for r in base))
    c_it = float(sum(r.iterations for r in cand))
    b_rb = float(sum(r.rebuilt for r in base))
    c_rb = float(sum(r.rebuilt for r in cand))
    b_max = max(r.norm_F for r in base)
    c_max = max(r.norm_F for r in cand)
    b_med = statistics.median(r.norm_F for r in base)
    c_med = statistics.median(r.norm_F for r in cand)
    metrics = {
        "iterations_total": (b_it, c_it, _ratio(b_it, c_it)),
        "rebuilds_total": (b_rb, c_rb, _ratio(b_rb, c_rb)),
        "norm_F_max": (b_max, c_max, _ratio(b_max, c_max)),
        "norm_F_median": (b_med, c_med, _ratio(b_med, c_med)),
    }
    return RunComparison(steps_compared=common, metrics=metrics, warnings=warnings_list)


# Config-file key -> MinTimeConstants field: the field name without underscores.
_CONFIG_CONSTANT_KEYS = {f.name.replace("_", ""): f.name for f in fields(MinTimeConstants)}


def _parse_tp(token: str) -> Optional[float]:
    """A rebuild period, or None for ``off``: no preconditioner."""
    return None if token == "off" else float(token)


# Solver settings: config-file key -> (SimConfig field, parser, flag help).
# A key with help text is also the command-line flag --<key>; flag values
# arrive as strings and go through the same parser as file values.
_SETTINGS: dict[str, tuple[str, Callable[[str], object], Optional[str]]] = {
    "kmax": ("k_max", int, "max Krylov iterations per step"),
    "tp": ("t_p", _parse_tp, "preconditioner rebuild period (s), or off for none"),
    "solver": ("solver", str, "Krylov solver: gmres or minres"),
    "dt": ("dt", float, "system sampling period (s)"),
    "N": ("n_steps", int, "horizon step count"),
    "h": ("h", float, "forward-difference step"),
    "tol": ("tol", float, "Krylov relative tolerance"),
    "tmax": ("t_end", float, "simulation time cap (s)"),
    "stop_radius": ("stop_radius", float, None),
}


def load_config_file(path) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        values[key] = value
    return values


def _config_from_sources(
    file_values: dict[str, str], args: argparse.Namespace
) -> SimConfig:
    """Merge defaults < preset < config file < explicit flags."""
    case: Optional[int] = args.case  # the flag's choices are the presets
    if case is None and "case" in file_values:
        try:
            case = int(file_values["case"])
            if case not in PRESETS:
                raise ValueError(f"case must be one of {sorted(PRESETS)}, got {case}")
        except ValueError as exc:
            raise ValueError(f"config key case: {exc}") from exc
    kwargs: dict = {}
    if case is not None:
        kwargs.update(PRESETS[case])
        kwargs["case_preset"] = case

    given = [(f"config key {key}", key, value) for key, value in file_values.items()]
    given += [
        (f"--{key}", key, getattr(args, key))
        for key, (_, _, flag_help) in _SETTINGS.items()
        if flag_help is not None and getattr(args, key) is not None
    ]
    for origin, key, value in given:
        if key == "case":
            continue
        if key not in _SETTINGS and key not in _CONFIG_CONSTANT_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        # Every constant check is on one field, so a constant is checked as
        # it is read and its error names the key that set it.
        try:
            if key in _SETTINGS:
                name, conv, _ = _SETTINGS[key]
                kwargs[name] = conv(value)
            else:
                field_value = {_CONFIG_CONSTANT_KEYS[key]: float(value)}
                kwargs["constants"] = replace(
                    kwargs.get("constants", MinTimeConstants()), **field_value
                )
        except ValueError as exc:
            raise ValueError(f"{origin}: {exc}") from exc
    if args.out is not None:
        kwargs["out_path"] = Path(args.out)
    return SimConfig(**kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnmpc-sim",
        description=(
            "Closed-loop minimum-time benchmark for the continuation NMPC solver. "
            "Precedence: explicit flags override config-file values, the file "
            "overrides the case preset, and the preset overrides defaults."
        ),
    )
    parser.add_argument("--case", type=int, choices=sorted(PRESETS), help="experiment preset")
    for key, (_, _, flag_help) in _SETTINGS.items():
        if flag_help is not None:
            parser.add_argument(f"--{key}", help=flag_help)
    parser.add_argument("--out", type=Path, help="write per-step diagnostics CSV here")
    parser.add_argument("--config", type=Path, help="key = value settings file")
    return parser


def parse_cli(argv: list[str]) -> SimConfig:
    """Build a validated configuration from CLI arguments.

    Usage problems (unknown flags, out-of-range or non-finite values, missing
    inputs, an ``--out`` path that is a directory or lies in a directory
    that does not exist) exit with status 2 through the argparse error
    channel, before any run.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.case is None and args.config is None:
        parser.error("provide --case or --config")
    try:
        file_values = load_config_file(args.config) if args.config is not None else {}
        cfg = _config_from_sources(file_values, args)
        cfg.validate()
        if cfg.out_path is not None and cfg.out_path.is_dir():
            raise ValueError(f"--out: {cfg.out_path} is a directory")
        if cfg.out_path is not None and not cfg.out_path.parent.is_dir():
            raise ValueError(f"--out: directory {cfg.out_path.parent} does not exist")
    except (ValueError, TypeError) as exc:
        parser.error(str(exc))
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    cfg = parse_cli(sys.argv[1:] if argv is None else argv)
    try:
        result = run_simulation(cfg)
    except ColdStartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLD_START
    if cfg.out_path is not None:
        write_csv(result, cfg.out_path)
    label = f"case {cfg.case_preset}" if cfg.case_preset is not None else "custom run"
    print(f"{label}: {len(result.records)} steps")
    if result.arrival_time is not None:
        print(f"arrival time: {result.arrival_time:.6g} s")
    else:
        print("no arrival (time cap reached)")
    iterations = sum(r.iterations for r in result.records)
    rebuilds = sum(r.rebuilt for r in result.records)
    print(f"solver iterations: {iterations}, preconditioner rebuilds: {rebuilds}")
    if cfg.out_path is not None:
        print(f"records written to {cfg.out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
