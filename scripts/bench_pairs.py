#!/usr/bin/env python3
"""Compare the perfbench end-to-end metrics of a parent commit and of this
checkout in alternating pairs of runs.

For each workload, pair i runs ``perfbench/run.py --trace 0`` once on each
side at seed ``--seed + i - 1``: the parent first when i is odd, this
checkout first when i is even.  The parent is ``git archive <ref>``
extracted into a temporary directory, which is removed afterwards.  The
JSON written to ``--out`` holds, per workload and end-to-end metric, both
sides' quartiles, the change's wins and ties, and whether the gap between
the medians exceeds the parent's interquartile range, plus every run.
With ``--claim WORKLOAD:METRIC`` it also says whether the change wins at
least nine tenths of the pairs with that gap, over the first ten pairs and
over all of them.  With ``--trace-seeds`` it runs ``--trace 1`` on both
sides at each seed and reports, per side, the outer-clock check failures
apart from the other check failures, with a count of each per workload;
``simcli.steps_over_dt`` of both sides; every other count metric on which
the sides differ; and the count metrics of the first seed before and
after.

Usage:
    python3 scripts/bench_pairs.py --parent REF --out BENCH_x.json \\
        [--workload W ...] [--pairs 10] [--seconds 40] [--seed 1] \\
        [--claim coldstart_horizon:step_p99_ms] [--trace-seeds 3 4 5]
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_UNITS = ("count", "frac", "bytes")
# The traced run's outer-clock check: its span wall against the clock around
# the pass.  A host stall or a slow wrapper installation fails it with no
# fault in the program under test.
HOST_CLOCK_CHECK = re.compile(r"traced pass \d+: span wall \d+ ns, clock \d+ ns")
# Counts steps slower than the sampling period, so host stalls move it too.
HOST_TIMED_COUNT = "simcli.steps_over_dt"


def archive(ref: str, into: Path) -> str:
    """Extract ``ref`` of this repository into ``into``; its full hash."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{ref}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", commit], capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)
    return commit


def bench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its final JSON line, with the
    check failures it printed and its pass count."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {done.returncode}: {done.stderr}")
    out = json.loads(lines[-1])
    out["errors"] = [ln.split("CHECK FAILED: ", 1)[1] for ln in lines if "CHECK FAILED: " in ln]
    passes = [ln for ln in lines if ln.strip().startswith("info passes:")]
    out["passes"] = int(passes[0].split(":")[1]) if passes else None
    return out


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    """Quartiles of both sides, the change's wins and ties over the pairs,
    and whether the median gap exceeds the parent's interquartile range."""
    p, c = quartiles(parent), quartiles(change)
    wins = sum((b < a) if lower_is_better else (b > a) for a, b in zip(parent, change))
    ties = sum(a == b for a, b in zip(parent, change))
    gap = (p["median"] - c["median"]) if lower_is_better else (c["median"] - p["median"])
    iqr = p["q3"] - p["q1"]
    return {
        "parent": p,
        "change": c,
        "change_over_parent_median": c["median"] / p["median"] if p["median"] else None,
        "change_wins": wins,
        "ties": ties,
        "pairs": len(parent),
        "median_gap": gap,
        "parent_iqr": iqr,
        "median_gap_exceeds_parent_iqr": gap > iqr,
    }


def claim(runs: list[dict], metric: str, lower_is_better: bool) -> dict:
    """The nine-in-ten rule on ``metric``: the change wins at least nine
    tenths of the pairs (ties count for neither) and the median gap exceeds
    the parent's interquartile range."""
    out = {}
    for label, subset in (("first_ten_pairs", runs[:10]), ("all_pairs", runs)):
        r = compare([x["parent"][metric] for x in subset],
                    [x["change"][metric] for x in subset], lower_is_better)
        out[label] = {
            "pairs": r["pairs"],
            "change_wins": r["change_wins"],
            "parent_median": r["parent"]["median"],
            "change_median": r["change"]["median"],
            "median_gap": r["median_gap"],
            "parent_iqr": r["parent_iqr"],
            "met": 10 * r["change_wins"] >= 9 * r["pairs"] and r["median_gap_exceeds_parent_iqr"],
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--claim", help="WORKLOAD:METRIC to test against the nine-in-ten rule")
    parser.add_argument("--trace-seeds", type=int, nargs="*", default=[])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or names
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.claim:
        wl, _, metric = args.claim.partition(":")
        if wl not in workloads or metric not in metrics:
            parser.error("--claim must name a benchmarked workload and an end-to-end metric")

    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        commit = archive(args.parent, tmp)
        sides = {"parent": tmp, "change": ROOT}
        report = {
            "what": f"perfbench end-to-end metrics of the parent ({commit[:7]}) and of the change",
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} --trace 0",
            "seconds": args.seconds,
            "order": "pair i runs the parent first when i is odd, the change first when i is even",
            "host": f"{platform.machine()}, Python {platform.python_version()}, one BLAS thread",
            "workloads": {},
        }
        for wl in workloads:
            runs = []
            for i in range(1, args.pairs + 1):
                seed = args.seed + i - 1
                order = ("parent", "change") if i % 2 else ("change", "parent")
                got = {side: bench(sides[side], wl, seed, args.seconds, 0) for side in order}
                runs.append({
                    "seed": seed,
                    "passes": {s: got[s]["passes"] for s in sides},
                    "correct": {s: got[s]["correct"] for s in sides},
                    "errors": {s: got[s]["errors"] for s in sides},
                    **{s: {m: got[s]["metrics"][m]["value"] for m in metrics} for s in sides},
                })
                print(f"{wl} pair {i} seed {seed}: " + ", ".join(
                    f"{m} {runs[-1]['parent'][m]:.4g} -> {runs[-1]['change'][m]:.4g}"
                    for m in ("setup_s", "step_p50_ms", "step_p99_ms", "wall_s")
                ), flush=True)
            report["workloads"][wl] = {
                "pairs": args.pairs,
                "seeds": [r["seed"] for r in runs],
                "metrics": {
                    m: {**compare([r["parent"][m] for r in runs], [r["change"][m] for r in runs],
                                  info["better"] == "lower"), "bound": info["bound"]}
                    for m, info in metrics.items()
                },
                "runs": runs,
            }
        if args.claim:
            wl, _, metric = args.claim.partition(":")
            report["claim"] = {
                "metric": metric,
                "workload": wl,
                "rule": "the change wins at least nine tenths of the pairs (ties count for "
                        "neither) and the median gap exceeds the parent's interquartile range",
                **claim(report["workloads"][wl]["runs"], metric,
                        metrics[metric]["better"] == "lower"),
            }
        if args.trace_seeds:
            report["traced_runs"] = traced(sides, workloads, args.trace_seeds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


def counts(run: dict) -> dict:
    """The count metrics of one ``bench`` output."""
    return {k: v["value"] for k, v in run["metrics"].items() if v["unit"] in COUNT_UNITS}


def traced_check(seed: int, got: dict) -> dict:
    """One seed's traced runs of both sides (``bench`` outputs keyed
    "parent" and "change"): each side's outer-clock check failures and its
    other check failures, both sides' ``simcli.steps_over_dt``, and every
    other count metric on which the sides differ, as [parent, change]."""
    parent, change = counts(got["parent"]), counts(got["change"])
    return {
        "seed": seed,
        "host_clock_errors": {
            side: [e for e in r["errors"] if HOST_CLOCK_CHECK.fullmatch(e)]
            for side, r in got.items()
        },
        "errors": {
            side: [e for e in r["errors"] if not HOST_CLOCK_CHECK.fullmatch(e)]
            for side, r in got.items()
        },
        HOST_TIMED_COUNT: {"parent": parent.get(HOST_TIMED_COUNT),
                           "change": change.get(HOST_TIMED_COUNT)},
        "counts_differ": {
            k: [v, change.get(k)]
            for k, v in parent.items() if k != HOST_TIMED_COUNT and change.get(k) != v
        },
    }


def failure_counts(checks: list[dict]) -> dict:
    """Per side, the outer-clock and the other check failures over ``checks``."""
    return {
        key: {side: sum(len(c[key][side]) for c in checks) for side in ("parent", "change")}
        for key in ("host_clock_errors", "errors")
    }


def traced(sides: dict, workloads: list[str], seeds: list[int]) -> dict:
    """``--trace 1`` on both sides at every seed: :func:`traced_check` per
    seed, the failure counts per workload, and the count metrics of the
    first seed before and after."""
    out = {"command": "python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 1",
           "seeds": seeds, "workloads": {}}
    for wl in workloads:
        checks, first = [], None
        for seed in seeds:
            got = {side: bench(tree, wl, seed, 1, 1) for side, tree in sides.items()}
            checks.append(traced_check(seed, got))
            if first is None:
                before, after = counts(got["parent"]), counts(got["change"])
                first = {k: {"before": v, "after": after.get(k)} for k, v in before.items()}
            c = checks[-1]
            print(f"{wl} traced seed {seed}: host clock {c['host_clock_errors']}, "
                  f"errors {c['errors']}, {HOST_TIMED_COUNT} {c[HOST_TIMED_COUNT]}, "
                  f"counts differ {c['counts_differ']}", flush=True)
        out["workloads"][wl] = {
            "failures": failure_counts(checks),
            f"counts_seed{seeds[0]}": first,
            "checks": checks,
        }
    return out


if __name__ == "__main__":
    sys.exit(main())
