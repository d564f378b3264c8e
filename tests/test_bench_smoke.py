"""pytest-benchmark smoke tests of the hottest layers: the rebuild block, the
LU and a case-1 loop step at N = 10 (m = 33), the cold start's block of
Newton step lengths at N = 40 (m = 123), and one residual at N = 80
(m = 243).

They assert on the results only, never on the timings, so they pass on any
machine. ``pytest tests/test_bench_smoke.py --benchmark-autosave`` adds a run
to the history in ``.benchmarks/``; ``--benchmark-compare`` compares against
the last saved run.
"""

import numpy as np
import pytest

from cnmpc.continuation import (
    assemble_jacobian,
    block_residual,
    continuation_step,
    initial_solve,
    optimality_residual,
)
from cnmpc.krylov import dense_solve, lu_factor, lu_solve
from cnmpc.mintime import initial_guess, problem_spec
from cnmpc.simcli import PRESETS, SimConfig
from helpers import COLD_START

EPS = np.finfo(float).eps
SMOKE = pytest.mark.benchmark(max_time=0.2, min_rounds=5)


@SMOKE
def test_bench_block_residual_rebuild_block(benchmark, consts, spec10):
    # the block a rebuild evaluates: the current point, then the current
    # point shifted along each axis
    U = initial_guess(consts, 10)
    Z = np.column_stack([U.data, U.data[:, None] + 1e-5 * np.eye(U.data.size)])
    R = benchmark(block_residual, spec10, Z, consts.start)
    assert R.shape == (33, 34)
    assert np.isfinite(R).all()
    for k in (0, 8):
        U.data[:] = Z[:, k]
        assert np.array_equal(R[:, k], optimality_residual(spec10, U, consts.start))


@SMOKE
def test_bench_block_residual_halving_block(benchmark, consts):
    # the block a cold start scores for each Newton step: the first Newton
    # step at N = 40 and its halvings 1 to 20 times
    spec = problem_spec(consts, 40)
    U = initial_guess(consts, 40)
    assembly = assemble_jacobian(spec, U, consts.start, 1e-5)
    delta = dense_solve(assembly[:, 1:], -assembly[:, 0])
    Z = U.data[:, None] + delta[:, None] * 0.5 ** np.arange(21)
    R = benchmark(block_residual, spec, Z, consts.start)
    assert R.shape == (123, 21)
    assert np.isfinite(R).all()
    for k in (0, 20):
        U.data[:] = Z[:, k]
        assert np.array_equal(R[:, k], optimality_residual(spec, U, consts.start))


@SMOKE
def test_bench_lu_factor_and_solve(benchmark, consts, spec10):
    U = initial_guess(consts, 10)
    A = assemble_jacobian(spec10, U, consts.start, 1e-5)[:, 1:]
    r = np.random.default_rng(3).standard_normal(33)

    def factor_and_apply():
        return lu_solve(lu_factor(A), r)

    z = benchmark(factor_and_apply)
    bound = 100.0 * 33 * EPS * np.linalg.cond(A) * np.linalg.norm(r)
    assert np.linalg.norm(A @ z - r) <= bound


@SMOKE
def test_bench_case_one_step(benchmark, consts, spec10):
    # the first step of the canonical case-1 loop: one block residual
    # assembles F and the difference Jacobian at the cold-start solution, and
    # GMRES with k_max = 10 and no preconditioner solves on that matrix
    cfg = SimConfig(case_preset=1, **PRESETS[1])
    U = initial_solve(spec10, consts.start, 0.0, initial_guess(consts, 10), **COLD_START).U

    def step():
        R = assemble_jacobian(spec10, U, consts.start, cfg.h)
        return continuation_step(
            spec10, U, consts.start, R, fd_step=cfg.h, k_max=cfg.k_max, tol=cfg.tol,
            solver=cfg.solver,
        )

    updated, _, result = benchmark(step)
    assert result is not None
    assert 1 <= result.iterations <= 10
    again, _, _ = step()
    assert np.array_equal(again.data, updated.data)


@SMOKE
def test_bench_single_residual_long_horizon(benchmark, consts):
    spec = problem_spec(consts, 80)
    U = initial_guess(consts, 80)
    F = benchmark(optimality_residual, spec, U, consts.start)
    assert F.shape == (243,)
    assert np.isfinite(F).all()
    assert np.array_equal(F, block_residual(spec, U.data[:, None], consts.start)[:, 0])
