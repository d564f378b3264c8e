"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 6 is a known-red property; see its docstring.
"""

import time

import numpy as np
import pytest

from cnmpc.continuation import assemble_jacobian, difference_operator, optimality_residual
from cnmpc.krylov import LinearMap, dense_solve, gmres, lu_factor, lu_solve, minres
from cnmpc.mintime import initial_guess
from cnmpc.simcli import PRESETS, SimConfig, compare_runs, run_simulation, write_csv
from helpers import central_residual_oracle, random_decision


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_arrival_time():
    start = time.perf_counter()
    result = run_simulation(SimConfig(case_preset=1, **PRESETS[1]))
    elapsed = time.perf_counter() - start
    arr = result.arrival_time
    ok = arr is not None and abs(arr - 0.96) <= 0.06 and elapsed < 10.0
    report(1, ok, f"baseline arrival {arr} s (target 0.96 +/- 0.06), runtime {elapsed:.2f} s")


def test_criterion_2_baseline_iteration_saturation(preset_results):
    iters = [r.iterations for r in preset_results[1].records]
    ok = len(iters) > 0 and all(k == 10 for k in iters)
    report(2, ok, f"baseline iterations always 10 (observed set {sorted(set(iters))})")


def test_criterion_3_preconditioning_effectiveness(preset_results):
    r1, r2 = preset_results[1], preset_results[2]
    d_arr = abs(r2.arrival_time - r1.arrival_time)
    med_ratio = compare_runs(r1, r2).metrics["norm_F_median"][2]
    ok = d_arr <= 0.06 and med_ratio <= 2.0
    report(3, ok, f"k_max=1 case: arrival delta {d_arr:.3f} s, median residual ratio {med_ratio:.3f}")


def test_criterion_4_iteration_reduction(preset_results):
    r1, r3 = preset_results[1], preset_results[3]
    metrics = compare_runs(r1, r3).metrics
    it_ratio = metrics["iterations_total"][2]
    med_ratio = metrics["norm_F_median"][2]
    ok = it_ratio <= 0.25 and med_ratio <= 2.0
    report(4, ok, f"iteration ratio {it_ratio:.3f} (<= 0.25), median residual ratio {med_ratio:.3f}")


def test_criterion_5_diminishing_returns(preset_results):
    r3, r4 = preset_results[3], preset_results[4]
    d_arr = abs(r4.arrival_time - r3.arrival_time)
    n = min(len(r3.records), len(r4.records))
    du = max(abs(r3.records[i].u - r4.records[i].u) for i in range(n))
    ok = d_arr <= 0.04 and du <= 5e-2
    report(5, ok, f"k_max 2 vs 10: arrival delta {d_arr:.3f} s, max control difference {du:.4f}")


def test_criterion_6_goal_proximity_degradation(preset_results):
    """Known red.  The recorded residual norm before each step equals a
    state-drift floor plus the previous solve's leftover.  Measured with
    exact per-step re-solves, the drift floor declines monotonically toward
    arrival (the horizon-sensitivity decay beats the speed growth), and the
    stiff residual rows scale with the shrinking time-to-go, so no late-run
    growth survives in this quantity before the time-to-go stop fires.  The
    criterion is asserted exactly as stated and fails on margins of 5-36%.
    """
    outcomes = {}
    for case, result in preset_results.items():
        nf = [r.norm_F for r in result.records]
        n = len(nf)
        mid = max(nf[int(0.4 * n) : int(0.6 * n)])
        fin = max(nf[int(0.8 * n) :])
        outcomes[case] = (fin, mid)
    ok = all(fin >= mid for fin, mid in outcomes.values())
    detail = "; ".join(
        f"case {c}: final {fin:.3e} vs middle {mid:.3e}" for c, (fin, mid) in outcomes.items()
    )
    report(6, ok, f"late-run residual growth: {detail}")


def test_criterion_7_residual_gradient_oracle(consts, spec10):
    worst = 0.0
    for seed in range(100):
        U = random_decision(spec10.dims, seed=seed)
        rng = np.random.default_rng(20_000 + seed)
        x0 = rng.uniform(-0.5, 0.5, 2)
        F = optimality_residual(spec10, U, x0)
        oracle = central_residual_oracle(consts, 10, U, x0, step=1e-4)
        worst = max(worst, float(np.max(np.abs(F - oracle))))
    ok = worst <= 1e-6
    report(7, ok, f"residual vs central-difference gradient oracle, max abs error {worst:.2e}")


def test_criterion_8_krylov_oracle():
    worst_g = worst_m = 0.0
    worst_pc = 0
    for seed in range(50):
        rng = np.random.default_rng(3_000 + seed)
        m = int(rng.integers(5, 51))
        kappa = 10 ** rng.uniform(1.0, 3.0)
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        A = (Q * np.linspace(1.0, kappa, m)) @ Q.T
        b = rng.standard_normal(m)
        ref = dense_solve(A, b)
        scale = np.linalg.norm(ref)
        op = LinearMap(m, lambda v, A=A: A @ v)
        g = gmres(op, None, b, k_max=m, tol=1e-12)
        mr = minres(op, None, b, k_max=m, tol=1e-12)
        worst_g = max(worst_g, np.linalg.norm(g.x - ref) / scale)
        worst_m = max(worst_m, np.linalg.norm(mr.x - ref) / scale)
        factors = lu_factor(A)
        T = lambda r, f=factors: lu_solve(f, r)
        worst_pc = max(
            worst_pc,
            gmres(op, T, b, k_max=m, tol=1e-10).iterations,
            minres(op, T, b, k_max=m, tol=1e-10).iterations,
        )
    ok = worst_g <= 1e-8 and worst_m <= 1e-8 and worst_pc <= 2
    report(
        8,
        ok,
        f"50 symmetric systems: gmres err {worst_g:.2e}, minres err {worst_m:.2e}, "
        f"exact-preconditioner iterations <= {worst_pc}",
    )


def test_criterion_9_symmetry_scaling(consts, spec10):
    U = initial_guess(consts, 10)

    def asym(h):
        A = assemble_jacobian(spec10, U, consts.start, h)[:, 1:]
        return np.linalg.norm(A - A.T) / np.linalg.norm(A)

    ratio = asym(1e-5) / asym(1e-6)
    ok = 3.0 <= ratio <= 30.0
    report(9, ok, f"asymmetry ratio at h=1e-5 vs 1e-6 is {ratio:.2f} (expected within [3, 30])")


def test_criterion_10_determinism(tmp_path, consts, spec10):
    U = initial_guess(consts, 10)
    base = optimality_residual(spec10, U, consts.start)
    op = difference_operator(spec10, U, consts.start, 1e-5, base)
    columns = np.column_stack([op.apply(e) for e in np.eye(op.dim)])
    jac_ok = np.array_equal(assemble_jacobian(spec10, U, consts.start, 1e-5)[:, 1:], columns)
    paths = []
    for tag in ("a", "b"):
        result = run_simulation(SimConfig(case_preset=2, **PRESETS[2]))
        path = tmp_path / f"case2_{tag}.csv"
        write_csv(result, path)
        paths.append(path)
    csv_ok = paths[0].read_bytes() == paths[1].read_bytes()
    ok = jac_ok and csv_ok
    report(
        10,
        ok,
        f"block assembly equals column-by-column applies bitwise: {jac_ok}; "
        f"repeated-run CSV bytes equal: {csv_ok}",
    )
