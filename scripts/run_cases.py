#!/usr/bin/env python3
"""Run the four canonical benchmark cases and case 1 under MINRES, and write
CSVs plus comparison reports into an output directory.

Each CSV's SHA-256 is printed next to its path, so two builds' outputs are
byte-identical exactly when the printed digests are.

Usage:
    python scripts/run_cases.py [--outdir results]
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

from cnmpc.simcli import PRESETS, SimConfig, compare_runs, run_simulation, write_csv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)

    runs = {case: SimConfig(case_preset=case, **PRESETS[case]) for case in sorted(PRESETS)}
    runs["1-minres"] = SimConfig(case_preset=1, **PRESETS[1], solver="minres")
    results = {}
    for case, cfg in runs.items():
        start = time.perf_counter()
        results[case] = run_simulation(cfg)
        elapsed = time.perf_counter() - start
        res = results[case]
        path = args.outdir / f"case{case}.csv"
        write_csv(res, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        arrival = f"{res.arrival_time:.4f} s" if res.arrival_time is not None else "none"
        iterations = sum(r.iterations for r in res.records)
        rebuilds = sum(r.rebuilt for r in res.records)
        print(
            f"case {case}: {len(res.records):3d} steps, arrival {arrival}, "
            f"{iterations:4d} solver iterations, {rebuilds:2d} preconditioner "
            f"rebuilds, {elapsed:.2f} s -> {path} sha256 {digest}"
        )

    for base, cand in ((1, 2), (1, 3), (3, 4)):
        report = compare_runs(results[base], results[cand])
        stem = args.outdir / f"compare_case{cand}_vs_case{base}"
        stem.with_suffix(".txt").write_text(report.to_text())
        stem.with_suffix(".csv").write_text(report.to_csv())
        print(f"\ncase {cand} vs case {base}")
        print(report.to_text(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
