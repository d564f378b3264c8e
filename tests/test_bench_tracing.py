"""Guard for the benchmark's traced run: ``perfbench/tracing.py`` wraps
package functions by name and the callbacks of ``mintime.problem_spec`` by
field, so renaming or deleting any of them breaks ``run.py --trace 1``."""

from pathlib import Path

import numpy as np
import pytest

from cnmpc import mintime
from cnmpc.continuation import optimality_residual

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracing_wraps_every_spec_callback(tracing, consts):
    original = mintime.problem_spec
    plain = original(consts, 10)
    present = [f for f in tracing.CALLBACK_FIELDS if getattr(plain, f) is not None]
    assert "phi" in present
    with tracing.installed(tracing.Tracer()) as tr:
        assert mintime.problem_spec is not original
        spec = mintime.problem_spec(consts, 10)
        U = mintime.initial_guess(consts, 10)
        F = optimality_residual(spec, U, consts.start)
    assert mintime.problem_spec is original
    for f in tracing.CALLBACK_FIELDS:
        if f in present:
            assert hasattr(getattr(spec, f), "__wrapped__"), f
        else:
            assert getattr(spec, f) is None, f
    assert tr.callbacks[0] > 0
    assert np.array_equal(F, optimality_residual(plain, U, consts.start))
