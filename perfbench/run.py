#!/usr/bin/env python3
"""Closed-loop step latency and cold-start benchmark for cnmpc.

    python3 perfbench/run.py --workload loop_plain --seed 1 --seconds 40 --trace 0

Run from the repository root.  With ``--trace 0`` it repeats passes over the
workload for about ``--seconds`` seconds (at least one pass) and reports the
end-to-end metrics; with ``--trace 1`` it runs the leading scenarios once
untraced and twice traced and reports the per-layer metrics.  Every metric
is printed with its unit, a detailed report is written under
``perfbench/.work/``, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One process, no threads: pin BLAS before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = Path(__file__).resolve().parent / ".work"
EXIT_SETUP = 2


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(EXIT_SETUP)


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cnmpc  # noqa: F401
        import tracing
        import workloads
    except ImportError as exc:
        _fail(f"cannot import the cnmpc package from {ROOT / 'src'}: {exc}")
    return tracing, workloads


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30, check=False,
    )
    return done.stdout.strip() or None


def environment(seed: int) -> dict:
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check(reference: list, passes: list[list], label: str) -> list[str]:
    """Check errors of every operation, and passes that do not repeat the
    reference outcomes, arrival times, misses and CSV hashes exactly."""
    errors = [op.check_error for ops in [reference, *passes] for op in ops if op.check_error]
    want = [op.signature() for op in reference]
    for k, ops in enumerate(passes, start=1):
        if [op.signature() for op in ops] != want:
            errors.append(f"{label} {k}: outcomes or CSV bytes differ from the first pass")
    return errors


def untraced_run(wl, workloads, seconds: float, seed: int) -> dict:
    """At least the workload's minimum of passes, then more while another
    one fits in ``seconds``."""
    scens = wl.scenarios(seed)
    passes = [workloads.run_pass(wl, scens, WORKDIR)]
    while (len(passes) < wl.min_passes
           or sum(p.wall_s for p in passes) * (len(passes) + 1) / len(passes) <= seconds):
        passes.append(workloads.run_pass(wl, scens, WORKDIR))
    metrics, info = workloads.end_to_end(passes, peak_rss_mb())
    ops = [op for p in passes for op in p.ops]
    return {
        "metrics": metrics,
        "info": info,
        "errors": _check(passes[0].ops, [p.ops for p in passes[1:]], "pass"),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "scenarios": [s.describe() for s in scens],
        "operations": [op.report() for op in passes[0].ops],
    }


def traced_run(wl, tracing, workloads, seed: int) -> dict:
    """One untraced and two traced passes over the leading scenarios."""
    scens = wl.scenarios(seed)[: wl.trace_scenarios]
    plain = workloads.run_pass(wl, scens, WORKDIR)
    runs = []
    for _ in range(2):
        tr = tracing.Tracer()
        outer = time.perf_counter_ns()
        with tracing.installed(tr), tr.span("bench.pass") as root:
            traced = workloads.run_pass(wl, scens, WORKDIR, tracer=tr)
        runs.append((tr, traced.ops, tr.ends[root] - tr.starts[root], time.perf_counter_ns() - outer))

    errors = _check(plain.ops, [ops for _, ops, _, _ in runs], "traced pass")
    for k, (tr, _, wall_ns, outer_ns) in enumerate(runs, start=1):
        total = tracing.self_time_total(tr)
        if total != wall_ns:
            errors.append(f"traced pass {k}: self times sum to {total} ns, wall is {wall_ns} ns")
        if not 0 <= outer_ns - wall_ns <= 0.01 * outer_ns:
            errors.append(f"traced pass {k}: span wall {wall_ns} ns, clock {outer_ns} ns")
    if tracing.counts(runs[0][0]) != tracing.counts(runs[1][0]):
        errors.append("span and call counts differ between the two traced passes")

    tr, _, wall_ns, _ = runs[0]
    metrics = tracing.layer_metrics(tr, workloads.HORIZONS)
    dt_ms = 1e3 * workloads.SIM_DEFAULTS.dt
    loop_steps = [ms for op in plain.ops if op.kind == "loop" for ms in op.step_ms]
    metrics["simcli.steps_over_dt"] = (sum(ms > dt_ms for ms in loop_steps), "count")
    metrics["trace.overhead_s"] = (wall_ns / 1e9 - plain.wall_s, "s")
    all_ops = plain.ops + [op for _, ops, _, _ in runs for op in ops]
    return {
        "metrics": metrics,
        "info": {
            "untraced_wall_s": plain.wall_s,
            "traced_wall_s": [w / 1e9 for _, _, w, _ in runs],
            "spans": len(tr.names),
            "traced_scenarios": len(scens),
        },
        "errors": errors,
        "attempted": len(all_ops),
        "failed": sum(not op.ok for op in all_ops),
        "scenarios": [s.describe() for s in scens],
        "operations": [op.report() for op in plain.ops],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    tracing, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)

    if args.trace:
        out = traced_run(wl, tracing, workloads, args.seed)
    else:
        out = untraced_run(wl, workloads, args.seconds, args.seed)

    report = {
        "workload": wl.name,
        "why": wl.why,
        "trace": args.trace,
        "environment": environment(args.seed),
        **out,
    }
    path = WORKDIR / f"report-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {wl.why}")
    for key, val in out["info"].items():
        print(f"  info {key}: {val}")
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name} = {value!r} {unit}")
    for err in out["errors"]:
        print(f"  CHECK FAILED: {err}")
    print(f"  report: {path.relative_to(ROOT)}")
    empty = [name for name, (value, _) in out["metrics"].items() if not math.isfinite(value)]
    if empty:
        print(f"perfbench: no samples for {', '.join(empty)}", file=sys.stderr)
        return 1
    result = {
        "correct": not out["errors"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
