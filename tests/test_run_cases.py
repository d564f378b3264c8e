"""Smoke test of ``scripts/run_cases.py``, the byte-identity check between
builds: it must write every output it promises and print the true digest
of each CSV."""

import hashlib
import importlib.util
import platform
import re
from pathlib import Path

import numpy as np
import pytest

from cnmpc.simcli import PRESETS, write_csv

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_cases.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_cases", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_cases_writes_outputs_and_prints_their_digests(tmp_path, capsys, preset_results):
    out = tmp_path / "out"
    assert _load_script().main(["--outdir", str(out)]) == 0
    printed = dict(re.findall(r"-> (\S+) sha256 ([0-9a-f]{64})$", capsys.readouterr().out, re.M))
    csvs = [out / f"case{case}.csv" for case in sorted(PRESETS)]
    assert sorted(printed) == sorted(str(p) for p in csvs)
    for case, path in zip(sorted(PRESETS), csvs):
        assert printed[str(path)] == hashlib.sha256(path.read_bytes()).hexdigest()
        want = tmp_path / f"want{case}.csv"
        write_csv(preset_results[case], want)
        assert path.read_bytes() == want.read_bytes()
    for base, cand in ((1, 2), (1, 3), (3, 4)):
        stem = out / f"compare_case{cand}_vs_case{base}"
        assert stem.with_suffix(".txt").is_file()
        assert stem.with_suffix(".csv").is_file()


# SHA-256 of each canonical case CSV.  A change that moves one of them
# changes the program's output and says so; libm and numpy's SIMD kernels
# round differently elsewhere, so the digests hold on one platform only.
# Cases 2-4 moved when the loop began to update the preconditioner between
# rebuilds from each step's secant pairs; case 1 runs without one.  Case 1
# moved when its steps began to solve on one assembled Jacobian block: the
# assembled columns are difference quotients along the axes, not along the
# Krylov directions, so the controls move by up to 0.04 while every step
# still takes 10 iterations and the run arrives at the same time.  Cases 2-4
# moved when their preconditioned steps began to solve on the same block
# (the matrix-free step is gone): the controls move by at most 1.3e-5, cases
# 3 and 4 take 95 and 263 Krylov iterations instead of 98 and 267, and every
# arrival time and rebuild count stays.
CASE_DIGESTS = {
    1: "6fc38507b97bee6604784db3b917df60a210bbe8107bfcc8b834254b79ec7b25",
    2: "8869c2d32f2bd88e0e640c8bcd519d747eef1982579947ceb12038f25bb4fb76",
    3: "e30681da19682523b087a2c4e9f0763f62727ac01d5bbf50056dd40dc923d879",
    4: "291f8c1d9db3dfd34cb1c6c1dd716395174bc78b512f142e670972b7302bc98f",
}
PINNED_PLATFORM = (
    np.__version__.startswith("2.4.")
    and platform.system() == "Linux"
    and platform.machine() == "x86_64"
)


@pytest.mark.skipif(
    not PINNED_PLATFORM, reason="case digests are pinned for numpy 2.4.x on x86-64 Linux"
)
def test_case_csv_digests_are_pinned(tmp_path, preset_results):
    digests = {}
    for case in sorted(PRESETS):
        path = tmp_path / f"case{case}.csv"
        write_csv(preset_results[case], path)
        digests[case] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == CASE_DIGESTS
