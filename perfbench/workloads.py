"""Workloads, seeded scenarios and the operations the benchmark times.

Every workload runs one *pass*: a fixed list of operations built from the
seed.  An operation is one closed loop (``run_simulation`` plus
``write_csv``) or one cold start (``problem_spec`` plus ``initial_solve``).
The program is always called through its module attributes, so the traced
run sees the same calls through its wrappers.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from cnmpc import continuation, mintime, simcli
# Imported directly, so the benchmark's own checks stay outside the trace.
from cnmpc.continuation import ColdStartError, optimality_residual
from cnmpc.mintime import MinTimeConstants, plant_rate

SIM_DEFAULTS = simcli.SimConfig()

# The panel of feasible draws comes from a fixed stream, so every run meets
# the same scenarios and the same known failures.  fail_frac is a ratio of a
# few binary outcomes: with draws taken from the seed instead, one extra
# stalled draw moved it by a quarter or more between seeds.  The seed moves
# every scenario by one vertical offset instead.  The problem is invariant
# under that shift (the speed depends on x alone), so every operation
# succeeds or fails as on the panel while every input number changes with
# the seed; only rounding, and so the path of a stalled Newton solve, moves.
PANEL_STREAM = 1
SEED_STREAM = 2
SEED_OFFSET_RANGE = 1.0

# Terminal-miss tolerance, in sampling periods of travel at the target.  The
# ``p <= dt`` arrival rule promises a miss of about one period of travel;
# twice that separates an arrival from a false one.
MISS_TOL_PERIODS = 2.0

# Horizons of the cold-start grid; the traced run splits its layers by them.
HORIZONS = (10, 20, 40)

# Open-loop check of a cold-start plan: Euler substeps per horizon interval.
PLAN_SUBSTEPS = 16


@dataclass(frozen=True)
class Scenario:
    label: str
    constants: MinTimeConstants

    def describe(self) -> dict:
        c = self.constants
        return {
            "label": self.label,
            "c_u": c.c_u,
            "x0": c.x0,
            "y0": c.y0,
            "x_f": c.x_f,
            "y_f": c.y_f,
            "bearing_minus_c_u": math.atan2(c.y_f - c.y0, c.x_f - c.x0) - c.c_u,
            "distance": math.hypot(c.x_f - c.x0, c.y_f - c.y0),
        }


def feasible_draw(rng: np.random.Generator) -> MinTimeConstants:
    """One target inside the heading band: c_u in [0.6, 1.0], bearing within
    0.15 rad of c_u (the band radius is 0.2), distance in [1, 2]."""
    c_u = float(rng.uniform(0.6, 1.0))
    bearing = c_u + float(rng.uniform(-0.15, 0.15))
    distance = float(rng.uniform(1.0, 2.0))
    return MinTimeConstants(
        c_u=c_u, x_f=distance * math.cos(bearing), y_f=distance * math.sin(bearing)
    )


def scenarios(seed: int, n_panel: int) -> list[Scenario]:
    """Canonical constants first, then the panel, all shifted by the seed's offset."""
    panel = np.random.default_rng([PANEL_STREAM, 0])
    dy = float(np.random.default_rng([SEED_STREAM, seed]).uniform(-SEED_OFFSET_RANGE, SEED_OFFSET_RANGE))
    base = [("canonical", MinTimeConstants())]
    base += [(f"panel-{i}", feasible_draw(panel)) for i in range(n_panel)]
    return [Scenario(label, replace(c, y0=c.y0 + dy, y_f=c.y_f + dy)) for label, c in base]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    case: Optional[int]  # simulator preset for closed loops; None for cold starts
    horizons: tuple[int, ...]
    n_panel: int
    min_passes: int  # repetitions that the slowest-of statistics need; see slowest()
    trace_scenarios: int  # leading scenarios that the traced run covers

    def scenarios(self, seed: int) -> list[Scenario]:
        return scenarios(seed, self.n_panel)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="loop_plain",
            why=(
                "case-1 closed loops: about 11 residual evaluations through GMRES per "
                "step and no preconditioner; the control for preconditioner changes"
            ),
            case=1,
            horizons=(SIM_DEFAULTS.n_steps,),
            n_panel=21,
            min_passes=3,
            trace_scenarios=6,
        ),
        Workload(
            name="loop_precond",
            why=(
                "case-2 closed loops: every tenth step rebuilds the LU preconditioner "
                "(sets p99), the others apply it (sets p50)"
            ),
            case=2,
            horizons=(SIM_DEFAULTS.n_steps,),
            n_panel=21,
            min_passes=3,
            trace_scenarios=6,
        ),
        Workload(
            name="coldstart_horizon",
            why=(
                "cold starts alone at N = 10, 20, 40: dense Jacobian assembly and the "
                "Newton stalls at longer horizons, with no loop"
            ),
            case=None,
            horizons=HORIZONS,
            n_panel=1,
            # Cold starts last seconds and average over both clocks; two
            # passes are what fits the time budget.
            min_passes=2,
            trace_scenarios=1,
        ),
    )
}


@dataclass
class OpResult:
    """Outcome of one operation; ``signature`` must repeat exactly."""

    kind: str
    scenario: int
    N: int
    ok: bool
    reason: Optional[str]
    seconds: float
    setup_s: Optional[float] = None
    step_ms: list[float] = field(default_factory=list)
    miss: Optional[float] = None
    miss_tol: Optional[float] = None
    arrival: Optional[float] = None
    csv_sha256: Optional[str] = None
    csv_rows: Optional[int] = None
    residual: Optional[float] = None
    newton_iters: Optional[int] = None
    check_error: Optional[str] = None

    def signature(self) -> tuple:
        return (
            self.kind, self.scenario, self.N, self.ok, self.reason, self.miss,
            self.arrival, self.csv_sha256, self.residual, self.newton_iters,
        )

    def report(self) -> dict:
        out = {k: v for k, v in vars(self).items() if k != "step_ms"}
        out["steps"] = len(self.step_ms)
        return out


def miss_tolerance(c: MinTimeConstants) -> float:
    """Twice the distance travelled in one sampling period at the target."""
    return MISS_TOL_PERIODS * SIM_DEFAULTS.dt * (c.A * c.x_f + c.B)


def run_loop(case: int, index: int, scenario: Scenario, csv_path: Path) -> OpResult:
    """One closed loop under a simulator preset, then its CSV."""
    c = scenario.constants
    cfg = simcli.SimConfig(case_preset=case, constants=c, **simcli.PRESETS[case])
    ticks: list[float] = []
    final = [c.start]

    def measure(i: int, t: float, x: np.ndarray) -> np.ndarray:
        ticks.append(time.perf_counter())
        final[0] = x
        return x

    start = time.perf_counter()
    try:
        result = simcli.run_simulation(cfg, measure)
    except ColdStartError:
        return OpResult("loop", index, cfg.n_steps, False, "cold_start", time.perf_counter() - start)
    except Exception as exc:  # any escape from the loop is a failed operation
        reason = f"exception:{type(exc).__name__}"
        return OpResult("loop", index, cfg.n_steps, False, reason, time.perf_counter() - start)
    simcli.write_csv(result, csv_path)
    seconds = time.perf_counter() - start
    data = csv_path.read_bytes()
    x = final[0]
    miss = math.hypot(float(x[0]) - c.x_f, float(x[1]) - c.y_f)
    tol = miss_tolerance(c)
    if result.arrival_time is None:
        ok, reason = False, "no_arrival"
    elif miss > tol:
        ok, reason = False, "false_arrival"
    else:
        ok, reason = True, None
    rows = data.count(b"\n") - 1
    check_error = None
    if rows != len(ticks) or rows != len(result.records):
        check_error = f"CSV has {rows} rows for {len(ticks)} measured steps"
    return OpResult(
        "loop", index, cfg.n_steps, ok, reason, seconds,
        setup_s=ticks[0] - start if ticks else None,
        step_ms=[1e3 * (b - a) for a, b in zip(ticks, ticks[1:])],
        miss=miss, miss_tol=tol, arrival=result.arrival_time,
        csv_sha256=hashlib.sha256(data).hexdigest(), csv_rows=rows, check_error=check_error,
    )


def plan_miss(c: MinTimeConstants, U: continuation.DecisionVector) -> float:
    """Distance to the target after applying the plan's headings open loop to
    the plant over the planned time-to-go, with fine Euler substeps."""
    N = U.dims.N
    h = float(U.p()[0]) / (N * PLAN_SUBSTEPS)
    x = c.start
    for i in range(N):
        u = U.u(i)
        for _ in range(PLAN_SUBSTEPS):
            x = x + h * plant_rate(c, x, u)
    return math.hypot(float(x[0]) - c.x_f, float(x[1]) - c.y_f)


def run_cold_start(index: int, scenario: Scenario, N: int) -> OpResult:
    """One cold start with the simulator's settings, checked independently."""
    c = scenario.constants
    tol = SIM_DEFAULTS.cold_start_tol
    start = time.perf_counter()
    try:
        spec = mintime.problem_spec(c, N)
        init = continuation.initial_solve(
            spec, c.start, c.t0, mintime.initial_guess(c, N),
            tol_init=tol, max_newton=SIM_DEFAULTS.cold_start_max_newton,
            fd_step=SIM_DEFAULTS.h,
        )
    except ColdStartError:
        return OpResult("coldstart", index, N, False, "cold_start", time.perf_counter() - start)
    except Exception as exc:
        reason = f"exception:{type(exc).__name__}"
        return OpResult("coldstart", index, N, False, reason, time.perf_counter() - start)
    seconds = time.perf_counter() - start
    ok = init.residual_norm <= tol
    op = OpResult(
        "coldstart", index, N, ok, None if ok else "stalled", seconds, setup_s=seconds,
        residual=init.residual_norm, newton_iters=init.newton_iterations,
    )
    if init.newton_iterations:
        op.step_ms = [1e3 * seconds / init.newton_iterations]
    if ok:
        # The reported residual must be the residual of the returned iterate.
        check = float(np.linalg.norm(optimality_residual(spec, init.U, c.start, c.t0)))
        if check != init.residual_norm or check > tol:
            op.check_error = f"residual {check!r} vs reported {init.residual_norm!r}"
        op.miss = plan_miss(c, init.U)
    return op


@dataclass
class PassResult:
    ops: list[OpResult]
    wall_s: float


def run_pass(wl: Workload, scens: list[Scenario], workdir: Path, tracer=None) -> PassResult:
    """Every operation of the workload over ``scens``; with a tracer, each
    operation is a span tagged with its horizon."""
    ops: list[OpResult] = []
    start = time.perf_counter()
    for i, s in enumerate(scens):
        for N in wl.horizons:
            with tracer.span("bench.op", tag=N) if tracer else nullcontext():
                if wl.case is not None:
                    ops.append(run_loop(wl.case, i, s, workdir / f"{wl.name}-{i}.csv"))
                else:
                    ops.append(run_cold_start(i, s, N))
    return PassResult(ops, time.perf_counter() - start)


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def slowest(passes: list[PassResult]) -> list[OpResult]:
    """Each operation with its slowest time and set-up and, step by step,
    its slowest step over the passes.

    The passes repeat identical work (their signatures are checked), so they
    differ only by the host.  A shared host switches every few seconds
    between a fast and a slow clock, about 1.8 times apart, and the share of
    fast time drifts over minutes.  The slow state shows up in every run and
    the fast one does not, so the slowest repetition measures the program at
    one clock.  It is also the state a real-time budget has to hold in.
    """
    worst = []
    for reps in zip(*(p.ops for p in passes)):
        setups = [op.setup_s for op in reps if op.setup_s is not None]
        worst.append(replace(
            reps[0],
            seconds=max(op.seconds for op in reps),
            setup_s=max(setups) if setups else None,
            step_ms=[max(col) for col in zip(*(op.step_ms for op in reps))],
        ))
    return worst


def end_to_end(passes: list[PassResult], peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the statistics over every sample as
    information.

    ``setup_s``, ``step_p50_ms`` and ``wall_s`` come from each operation's
    slowest repetition.  ``step_p99_ms`` pools every step of every pass: the
    top one per cent of all steps already comes from the slow clock, while
    per-step maxima would also stack up every rare stall of the host.
    """
    ops = slowest(passes)
    setups = [op.setup_s for op in ops if op.setup_s is not None]
    steps = [ms for op in ops for ms in op.step_ms]
    every_step = [ms for p in passes for op in p.ops for ms in op.step_ms]
    misses = [op.miss for op in ops if op.ok and op.miss is not None]
    failed = sum(not op.ok for op in ops)
    metrics = {
        "setup_s": (statistics.median(setups) if setups else float("nan"), "s"),
        "step_p50_ms": (percentile(steps, 50), "ms"),
        "step_p99_ms": (percentile(every_step, 99), "ms"),
        "wall_s": (sum(op.seconds for op in ops), "s"),
        "fail_frac": (failed / len(ops), "frac"),
        "miss_p50": (statistics.median(misses) if misses else float("nan"), "length"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    every_setup = [op.setup_s for p in passes for op in p.ops if op.setup_s is not None]
    budget_ms = 1e3 * SIM_DEFAULTS.dt
    info = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "operations_per_pass": len(ops),
        "failed_per_pass": failed,
        "failures_by_reason": _count(op.reason for op in ops if not op.ok),
        "setup_samples": len(setups),
        "step_samples": len(steps),
        "every_pass_step_samples": len(every_step),
        "every_pass_samples_beyond_p99": sum(ms > metrics["step_p99_ms"][0] for ms in every_step),
        "miss_samples": len(misses),
        "every_pass_setup_median_s": statistics.median(every_setup) if every_setup else None,
        "every_pass_step_p50_ms": percentile(every_step, 50),
        "every_pass_step_max_ms": max(every_step) if every_step else None,
        "every_pass_deadline_miss_frac": (
            sum(ms > budget_ms for ms in every_step) / len(every_step) if every_step else 0.0),
        "median_pass_wall_s": statistics.median(p.wall_s for p in passes),
    }
    return metrics, info


def _count(items) -> dict:
    out: dict = {}
    for item in items:
        out[item] = out.get(item, 0) + 1
    return out
