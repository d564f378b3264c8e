"""Smoke test of ``scripts/run_cases.py``, the byte-identity check between
builds: it must write every output it promises and print the true digest
of each CSV."""

import hashlib
import importlib.util
import re
from pathlib import Path

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
