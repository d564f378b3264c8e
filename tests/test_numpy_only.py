"""Guard: the package runs on numpy alone.

Importing ``scipy.linalg`` adds about 28 MB of peak resident memory, more
than the 10 % bound the benchmark sets on ``peak_rss_mb``, so no module of
the package may import any part of scipy, even where scipy is installed.
"""

import subprocess
import sys
from pathlib import Path

import cnmpc

MODULES = ("continuation", "krylov", "mintime", "precond", "simcli")


def test_package_imports_load_no_scipy():
    src = str(Path(cnmpc.__file__).resolve().parent.parent)
    code = (
        "import importlib, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module('cnmpc.' + name)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": ""},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
