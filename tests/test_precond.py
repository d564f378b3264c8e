import dataclasses
import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnmpc import continuation, precond, simcli
from cnmpc.continuation import (
    DecisionVector,
    OcpDims,
    OcpSpec,
    TrajectoryDivergedError,
    assemble_jacobian,
    difference_operator,
    initial_solve,
    optimality_residual,
)
from cnmpc.krylov import LinearMap, SingularMatrixError, gmres, lu_factor
from cnmpc.mintime import MinTimeConstants, initial_guess, problem_spec
from cnmpc.precond import PrecondState, StalePreconditionerWarning
from cnmpc.simcli import PRESETS, SimConfig, run_simulation
from helpers import COLD_START, fragile_spec, loop_block, random_decision, threshold_spec


# ---------------------------------------------------------------------------
# schedule


def test_should_rebuild_when_no_factors():
    assert precond.should_rebuild(PrecondState(), 0.0, 0.2, 0.02)


def test_rebuild_schedule_on_sampling_grid():
    # dt = 0.02, t_p = 0.2: rebuilds exactly at steps 0, 10, 20, ...
    dt = 0.02
    state = PrecondState()
    fired = []
    for i in range(60):
        t = i * dt
        if precond.should_rebuild(state, t, 0.2, dt):
            fired.append(i)
            state = PrecondState(inverse=None, built_at=t)
    assert fired == [0, 10, 20, 30, 40, 50]


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=3, max_value=25),
    st.floats(min_value=0.1, max_value=2.0),
)
def test_rebuild_count_matches_ceiling(period_steps, t_end):
    # rebuild periods that are sampling-grid multiples, as in the presets
    dt = 0.02
    t_p = period_steps * dt
    state = PrecondState()
    count = 0
    i = 0
    while (t := i * dt) < t_end:
        if precond.should_rebuild(state, t, t_p, dt):
            count += 1
            state = PrecondState(inverse=None, built_at=t)
        i += 1
    assert count == math.ceil(t_end / t_p)


# ---------------------------------------------------------------------------
# rebuild


def test_rebuild_mintime_factors(consts, spec10):
    res = initial_solve(spec10, consts.start, 0.0, initial_guess(consts, 10), **COLD_START)
    R = assemble_jacobian(spec10, res.U, consts.start, 1e-5)
    state = precond.rebuild(R, 0.0, PrecondState())
    assert state.inverse.shape == (33, 33)
    assert state.built_at == 0.0
    assert not state.stale


def test_rebuild_deterministic_bitwise(consts, spec10):
    U = initial_guess(consts, 10)
    a = precond.rebuild(assemble_jacobian(spec10, U, consts.start, 1e-5), 0.0, PrecondState())
    b = precond.rebuild(assemble_jacobian(spec10, U, consts.start, 1e-5), 0.0, PrecondState())
    assert np.array_equal(a.inverse, b.inverse)


@settings(deadline=None, max_examples=12)
@given(st.sampled_from([1, 10, 40]), st.integers(min_value=0, max_value=2**32 - 1))
def test_rebuild_residual_and_columns_equal_single_evaluations(N, seed):
    # the block's column 0 is the residual of the point and each further
    # column the single apply of the difference operator along that axis;
    # the rebuild's inverse is exactly lu_factor of those columns, and the
    # rebuild leaves the block as it was, all bitwise
    spec = problem_spec(MinTimeConstants(), N)
    U = random_decision(spec.dims, seed)
    x = MinTimeConstants().start
    R = assemble_jacobian(spec, U, x, 1e-5)
    before = R.copy()
    state = precond.rebuild(R, 0.0, PrecondState())
    assert np.array_equal(R, before)
    F = optimality_residual(spec, U, x)
    assert np.array_equal(R[:, 0], F)
    op = difference_operator(spec, U, x, 1e-5, F)
    for j, e in enumerate(np.eye(op.dim)):
        assert np.array_equal(R[:, j + 1], op.apply(e)), j
    assert np.array_equal(state.inverse, lu_factor(R[:, 1:]))
    assert (state.built_at, state.stale) == (0.0, False)


@pytest.mark.parametrize("built", [False, True])
def test_rebuild_without_a_block_keeps_previous_factors(built):
    # None stands for a block that diverged: the rebuild warns and marks the
    # state stale, keeping the previous factors, or none before the first
    # successful rebuild (so the next step rebuilds again)
    prev = PrecondState(inverse=lu_factor(np.eye(3)), built_at=-0.1) if built else PrecondState()
    with mock.patch.object(precond, "lu_factor") as factor, pytest.warns(
        StalePreconditionerWarning, match="t=0.4 hit a failed Jacobian assembly"
    ):
        state = precond.rebuild(None, 0.4, prev)
    assert factor.call_count == 0
    assert state.stale
    assert state.inverse is prev.inverse
    assert state.built_at == prev.built_at
    # the rebuild is due again at the next sampling point
    assert precond.should_rebuild(state, 0.42, 0.2, 0.02)


def test_rebuild_singular_keeps_previous_factors():
    dims = OcpDims(n_x=1, n_u=1, n_c=0, n_psi=0, n_p=0, N=1)

    def f(tau, x, u, p, s):
        return np.zeros(1)

    def H_u(tau, x, lam, u, mu, p, s):
        return np.ones(1)  # constant residual: identically zero Jacobian

    spec = OcpSpec(dims=dims, f=f, H_u=H_u)
    U = DecisionVector(dims, np.array([1.0]))
    prev = PrecondState(inverse=lu_factor(np.eye(1)), built_at=-0.1)
    with pytest.warns(StalePreconditionerWarning, match="a singular Jacobian"):
        state = precond.rebuild(assemble_jacobian(spec, U, np.zeros(1), 1e-5), 0.0, prev)
    assert state.stale
    assert state.inverse is prev.inverse
    assert state.built_at == -0.1


@pytest.mark.parametrize("blow_up", ["state", "residual"])
def test_rebuild_failed_assembly_keeps_previous_factors(blow_up):
    # "state": every column diverges, so the assembly raises
    # TrajectoryDivergedError and the rebuild gets no block; "residual": the
    # Jacobian comes back with NaNs
    spec = fragile_spec(blow_up)
    U = DecisionVector(spec.dims, np.full(3, 0.3))
    prev = PrecondState(inverse=lu_factor(np.eye(3)), built_at=-0.1)
    with np.errstate(over="ignore"):
        R = loop_block(spec, U, np.array([0.5]), 1e-5)
    assert (R is None) == (blow_up == "state")
    cause = "a failed Jacobian assembly" if R is None else "a Jacobian with non-finite entries"
    with pytest.warns(StalePreconditionerWarning, match=cause):
        state = precond.rebuild(R, 0.0, prev)
    assert state.stale
    assert state.inverse is prev.inverse
    assert state.built_at == -0.1


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_rebuild_stale_when_only_a_difference_column_diverges(N, data):
    # only the unit step along control j crosses the threshold: the block
    # names that column's recursion and step, the rebuild gets no block,
    # warns and keeps the previous inverse, and F at the point, which the
    # step scores alone, is finite
    j = data.draw(st.integers(min_value=0, max_value=N - 1))
    spec = threshold_spec("state", 1.0, N)
    z = np.full(N, -1.0)
    z[j] = 0.5
    U, x = DecisionVector(spec.dims, z), np.array([1.0])
    with pytest.raises(TrajectoryDivergedError) as err:
        assemble_jacobian(spec, U, x, 1.0)
    assert (err.value.kind, err.value.step) == ("state", j + 1)
    prev = PrecondState(inverse=lu_factor(np.eye(N)), built_at=-0.1)
    with pytest.warns(StalePreconditionerWarning, match="a failed Jacobian assembly"):
        state = precond.rebuild(loop_block(spec, U, x, 1.0), 0.0, prev)
    assert state.stale
    assert state.inverse is prev.inverse
    assert state.built_at == -0.1
    assert np.isfinite(optimality_residual(spec, U, x)).all()


def test_loop_runs_the_stale_rebuild_step_on_the_residual_alone(monkeypatch, preset_results):
    # the block of step 10, the case-2 rebuild at t = 0.2, diverges in its
    # difference columns: the rebuild goes stale on the inverse that step 9's
    # update left, the step scores the residual of the point alone, which
    # equals the undisturbed run's, and logs a degraded row, and the loop
    # runs on, retrying the rebuild at the next step
    original = simcli.assemble_jacobian
    assemblies = []

    def diverging_columns(spec, U, x, step):
        assemblies.append(U)
        if len(assemblies) != 11:  # one block per step: step 10's is the 11th
            return original(spec, U, x, step)
        f = spec.f

        def f_broken(tau, x_, u, p, s):
            out = np.array(f(tau, x_, u, p, s), dtype=float)
            out[:, 1:] = np.inf  # column 0 is the point itself
            return out

        return original(dataclasses.replace(spec, f=f_broken), U, x, step)

    built = []
    rebuild = precond.rebuild

    def spy_rebuild(R, t, prev):
        built.append(rebuild(R, t, prev))
        return built[-1]

    updated = []
    update = precond.update

    def spy_update(state, S, Y):
        updated.append(update(state, S, Y))
        return updated[-1]

    monkeypatch.setattr(simcli, "assemble_jacobian", diverging_columns)
    monkeypatch.setattr(precond, "rebuild", spy_rebuild)
    monkeypatch.setattr(precond, "update", spy_update)
    cfg = SimConfig(case_preset=2, **PRESETS[2])
    cfg.t_end = 0.3
    with pytest.warns(StalePreconditionerWarning, match="t=0.2 hit a failed Jacobian assembly"):
        records = run_simulation(cfg).records
    want = preset_results[2].records
    assert records[:10] == want[:10]
    assert len(records) == 15
    assert records[10].rebuilt
    assert records[10].norm_F == want[10].norm_F
    assert (records[10].krylov_residual, records[10].iterations) == (math.inf, 0)
    # a stale rebuild keeps the inverse that the previous step left; the
    # next step rebuilds from its own block, and the later steps solve
    assert [state.stale for state in built] == [False, True, False]
    assert built[1].inverse is updated[9].inverse
    assert records[11].rebuilt and not any(r.rebuilt for r in records[12:])
    assert all(math.isfinite(r.krylov_residual) and r.iterations > 0 for r in records[11:])


def test_loop_without_a_built_inverse_runs_unpreconditioned(monkeypatch):
    # the first case-2 rebuild meets a singular Jacobian, so no inverse is
    # built: the loop passes no preconditioner, and the step equals the one
    # a run with preconditioning off makes
    def singular(A):
        raise SingularMatrixError("forced")

    monkeypatch.setattr(precond, "lu_factor", singular)
    monkeypatch.setattr(precond, "apply", None)  # must not be reached
    cfg = SimConfig(case_preset=2, **PRESETS[2])
    cfg.t_end = 0.02
    with pytest.warns(StalePreconditionerWarning, match="t=0 hit a singular Jacobian"):
        step = run_simulation(cfg).records[0]
    plain = SimConfig(precond_enabled=False, k_max=PRESETS[2]["k_max"], t_end=0.02)
    assert dataclasses.replace(step, rebuilt=False) == run_simulation(plain).records[0]


def test_loop_raises_for_a_diverging_point_at_a_rebuild_step():
    # the measured state at step 10, a case-2 rebuild step, is large enough
    # that the point's own state recursion overflows: the rebuild's block
    # diverges, so it warns and keeps the previous inverse, and the step's
    # own residual then raises as it does on any other step
    def blow_up(i, t, x):
        return np.array([1.5e308, 0.0]) if i == 9 else x

    cfg = SimConfig(case_preset=2, **PRESETS[2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrajectoryDivergedError) as err:
            run_simulation(cfg, measure=blow_up)
    assert err.value.kind == "state"
    assert [w.category for w in caught] == [StalePreconditionerWarning]
    assert "t=0.2 hit a failed Jacobian assembly" in str(caught[0].message)


# ---------------------------------------------------------------------------
# apply


def test_apply_scaled_identity_factors():
    state = PrecondState(inverse=lu_factor(2.0 * np.eye(4)), built_at=0.0)
    out = precond.apply(state, np.full(4, 2.0))
    assert np.allclose(out, 1.0)


def test_apply_residual_check():
    rng = np.random.default_rng(31)
    A = rng.standard_normal((20, 20))
    state = PrecondState(inverse=lu_factor(A), built_at=0.0)
    r = rng.standard_normal(20)
    z = precond.apply(state, r)
    assert np.linalg.norm(A @ z - r) <= 1e-10 * np.linalg.norm(r)


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=-3.0, max_value=3.0), st.integers(min_value=0, max_value=1000))
def test_apply_is_linear(alpha, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((8, 8)) + 8 * np.eye(8)
    state = PrecondState(inverse=lu_factor(A), built_at=0.0)
    r1, r2 = rng.standard_normal((2, 8))
    lhs = precond.apply(state, alpha * r1 + r2)
    rhs = alpha * precond.apply(state, r1) + precond.apply(state, r2)
    assert np.allclose(lhs, rhs, atol=1e-11 * (1 + abs(alpha)))


def test_fresh_preconditioner_converges_in_two_iterations(consts, spec10):
    res = initial_solve(spec10, consts.start, 0.0, initial_guess(consts, 10), **COLD_START)
    R = assemble_jacobian(spec10, res.U, consts.start, 1e-5)
    state = precond.rebuild(R, 0.0, PrecondState())
    A = R[:, 1:]
    rng = np.random.default_rng(1)
    b = rng.standard_normal(33)
    out = gmres(
        LinearMap(33, lambda v: A @ v), functools.partial(precond.apply, state), b, k_max=33, tol=1e-10
    )
    assert out.iterations <= 2
    assert out.converged


# ---------------------------------------------------------------------------
# update


@settings(deadline=None, max_examples=40)
@given(
    m=st.integers(min_value=2, max_value=30),
    k_fraction=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_update_from_a_linear_map_satisfies_its_secant_equations(m, k_fraction, seed):
    # GMRES on an exactly linear map, preconditioned by the inverse of a
    # perturbed matrix, for at most m/2 iterations (so that the basis is
    # not yet rounding noise): the updated inverse maps each product Y to its
    # basis vector S to rounding, and still agrees with the old inverse on
    # the vectors orthogonal to the columns of M'S
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m)) + m * np.eye(m)
    state = PrecondState(inverse=lu_factor(A + rng.standard_normal((m, m))), built_at=0.0)
    k_max = max(1, math.ceil(k_fraction * m / 2))
    out = gmres(
        LinearMap(m, lambda v: A @ v), functools.partial(precond.apply, state),
        rng.standard_normal(m), k_max=k_max, tol=0.0,
    )
    S, Y = out.pairs
    new = precond.update(state, S, Y)
    assert new is not state
    scale = np.linalg.norm(new.inverse) * np.linalg.norm(Y) + np.linalg.norm(S)
    assert np.linalg.norm(new.inverse @ Y - S) <= 1e-10 * scale
    Q, _ = np.linalg.qr(np.column_stack([state.inverse.T @ S, rng.standard_normal((m, 1))]))
    v = Q[:, -1]
    assert np.allclose(new.inverse @ v, state.inverse @ v, atol=1e-10 * scale)
    assert (new.built_at, new.stale) == (0.0, False)


@pytest.mark.parametrize(
    "pairs, k",
    [("zero_products", 1), ("zero_products", 3), ("equal_columns", 3), ("nan_product", 1),
     ("nan_product", 3)],
)
def test_update_skips_an_ill_conditioned_gram_matrix(pairs, k):
    # S'MY singular (Y = 0, or two equal columns), or not finite: the state
    # comes back as it is
    rng = np.random.default_rng(8)
    state = PrecondState(inverse=lu_factor(rng.standard_normal((6, 6)) + 6 * np.eye(6)))
    before = state.inverse.copy()
    S, Y = rng.standard_normal((2, 6, k))
    if pairs == "zero_products":
        Y[:] = 0.0
    elif pairs == "equal_columns":
        S[:, 2], Y[:, 2] = S[:, 1], Y[:, 1]
    else:
        Y[0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert precond.update(state, S, Y) is state
    assert np.array_equal(state.inverse, before)


def test_update_skips_a_gram_matrix_at_the_condition_bound():
    # S = (e1, e2) and MY = S diag(1, 1e-10) give |S'| |MY| |(S'MY)^-1| =
    # 1e10 in 1-norms; a single pair y = c s gives 1 at any scale c unless
    # the reciprocal of S'MY overflows
    state = PrecondState(inverse=np.eye(4))
    S = np.eye(4)[:, :2]
    assert precond.update(state, S, S * [1.0, 1e-10]) is state
    assert precond.update(state, S, S * [1.0, 2e-10]) is not state
    s = S[:, :1]
    assert precond.update(state, s, 1e-320 * s) is state
    new = precond.update(state, s, 1e-300 * s)
    assert math.isclose(new.inverse[0, 0], 1e300, rel_tol=1e-15)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
def test_update_skips_a_single_pair_at_the_angle_bound(scale):
    # one pair whose s and My are nearly orthogonal: s'My = c with
    # |s|_inf |My|_1 = 1 + c, so the update is skipped once (1 + c) / c
    # reaches 1e10, at any common scale of s and y
    state = PrecondState(inverse=np.eye(4))
    s = np.eye(4)[:, :1]
    e2 = np.eye(4)[:, 1:2]
    assert precond.update(state, scale * s, scale * (e2 + 1e-10 * s)) is state
    new = precond.update(state, scale * s, scale * (e2 + 1e-9 * s))
    assert new is not state
    assert np.allclose(new.inverse @ (e2 + 1e-9 * s), s)


def test_loop_updates_leave_every_built_inverse_unchanged(monkeypatch):
    # case 2 updates the inverse after every step; each update returns a new
    # array, and every inverse a rebuild returned keeps its bits to the end
    built, updated = [], []
    rebuild, update = precond.rebuild, precond.update

    def spy_rebuild(*args, **kwargs):
        state = rebuild(*args, **kwargs)
        built.append((state, state.inverse.copy()))
        return state

    def spy_update(state, S, Y):
        out = update(state, S, Y)
        updated.append((state, out))
        return out

    monkeypatch.setattr(precond, "rebuild", spy_rebuild)
    monkeypatch.setattr(precond, "update", spy_update)
    records = run_simulation(SimConfig(case_preset=2, **PRESETS[2])).records
    assert len(built) == sum(r.rebuilt for r in records) > 1
    assert len(updated) == len(records)
    assert all(new.inverse is not old.inverse for old, new in updated)
    for state, bits in built:
        assert np.array_equal(state.inverse, bits)


def test_loop_degraded_step_leaves_the_state_untouched(monkeypatch):
    # the block of case-2 step 5 diverges while the point itself does not:
    # the step degrades, applies no preconditioner and makes no update, and
    # step 6 applies the state that step 4's update returned
    step, calls = [0], [0]
    kernel = continuation.block_residual

    def diverging_block(*args):
        calls[0] += 1
        if step[0] == 5 and calls[0] == 1:  # the block, then F alone
            raise TrajectoryDivergedError("state", 1)
        return kernel(*args)

    def next_step(i, t, x):
        step[0], calls[0] = i + 1, 0
        return x

    used, updated = [], []
    apply, update = precond.apply, precond.update

    def spy_apply(state, r):
        used.append((step[0], state))
        return apply(state, r)

    def spy_update(state, S, Y):
        updated.append((step[0], update(state, S, Y)))
        return updated[-1][1]

    monkeypatch.setattr(continuation, "block_residual", diverging_block)
    monkeypatch.setattr(precond, "apply", spy_apply)
    monkeypatch.setattr(precond, "update", spy_update)
    cfg = SimConfig(case_preset=2, **PRESETS[2])
    cfg.t_end = 0.14
    records = run_simulation(cfg, measure=next_step).records
    degraded = [(r.krylov_residual, r.iterations) == (math.inf, 0) for r in records]
    assert degraded == [i == 5 for i in range(7)]
    assert [i for i, _ in updated] == [0, 1, 2, 3, 4, 6]
    at = {i: [state for j, state in used if j == i] for i in (5, 6)}
    assert not at[5]
    assert at[6] and all(state is updated[4][1] for state in at[6])
