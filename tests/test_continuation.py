import dataclasses
import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cnmpc import continuation
from cnmpc.continuation import (
    ColdStartError,
    DecisionVector,
    OcpDims,
    OcpSpec,
    TrajectoryDivergedError,
    assemble_jacobian,
    block_residual,
    continuation_step,
    difference_operator,
    initial_solve,
    optimality_residual,
)
from cnmpc.krylov import (
    IndefinitePreconditionerError,
    LinearMap,
    gmres,
    lu_factor,
    lu_solve,
    minres,
)
from cnmpc.mintime import MinTimeConstants, initial_guess, problem_dims, problem_spec
from helpers import (
    COLD_START,
    backward_costates,
    central_residual_oracle,
    forward_states,
    fragile_spec,
    linear_spec,
    loop_block,
    own_trig_spec,
    quadratic_spec,
    random_decision,
    recursion_failure,
    residual_rows,
    sequential_initial_solve,
    stagewise_resample,
    threshold_spec,
)

# SimConfig's default difference step, Krylov cap, tolerance and solver
STEP = {"fd_step": 1e-5, "k_max": 10, "tol": 1e-5, "solver": "gmres"}


# ---------------------------------------------------------------------------
# decision vector layout


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=5),
)
def test_decision_vector_layout_bijection(n_u, n_c, n_psi, n_p, N):
    dims = OcpDims(n_x=1, n_u=n_u, n_c=n_c, n_psi=n_psi, n_p=n_p, N=N)
    U = DecisionVector.zeros(dims)
    marker = 1.0
    for i in range(N):
        U.u(i)[:] = np.arange(marker, marker + n_u)
        marker += n_u
    for i in range(N):
        U.mu(i)[:] = np.arange(marker, marker + n_c)
        marker += n_c
    U.nu()[:] = np.arange(marker, marker + n_psi)
    marker += n_psi
    U.p()[:] = np.arange(marker, marker + n_p)
    marker += n_p
    # every slot written exactly once, in layout order
    assert np.array_equal(U.data, np.arange(1.0, marker))
    blocks = sum(len(U.u(i)) + len(U.mu(i)) for i in range(N)) + len(U.nu()) + len(U.p())
    assert blocks == dims.decision_size


def test_decision_vector_rejects_bad_length():
    dims = OcpDims(n_x=1, n_u=1, n_c=0, n_psi=0, n_p=0, N=2)
    with pytest.raises(ValueError):
        DecisionVector(dims, np.zeros(3))
    with pytest.raises(IndexError):
        DecisionVector.zeros(dims).u(2)


# ---------------------------------------------------------------------------
# recursions


def test_forward_states_single_step_unit_horizon(consts):
    spec = problem_spec(consts, 1)
    U = DecisionVector.zeros(spec.dims)
    U.p()[:] = 1.0
    xs = forward_states(spec, np.zeros(2), U)
    assert np.allclose(xs[0], [0.0, 0.0])
    assert np.allclose(xs[1], [1.0, 0.0])  # unit speed, heading 0


def test_forward_states_zero_dynamics_is_constant():
    spec = quadratic_spec()

    def f_zero(tau, x, u, p, s):
        return np.zeros(1)

    spec.f = f_zero
    U = DecisionVector.zeros(spec.dims)
    U.data[: spec.dims.N] = [1.0, -2.0, 0.5]
    xs = forward_states(spec, np.array([0.7]), U)
    assert np.all(xs == 0.7)


def test_forward_states_matches_scalar_recursion_oracle(consts):
    n = 10
    spec = problem_spec(consts, n)
    U = DecisionVector.zeros(spec.dims)
    for i in range(n):
        U.u(i)[:] = (consts.c_u, 0.1)
    U.p()[:] = 1.6
    xs = forward_states(spec, np.zeros(2), U)
    # independent two-line recursion
    x = y = 0.0
    dtau = 1.0 / n
    for i in range(n):
        speed = 1.6 * (consts.A * x + consts.B)
        x, y = x + dtau * speed * math.cos(consts.c_u), y + dtau * speed * math.sin(consts.c_u)
    assert math.isclose(xs[-1][0], x, rel_tol=1e-14)
    assert math.isclose(xs[-1][1], y, rel_tol=1e-14)


def test_forward_states_divergence_reports_step():
    spec = quadratic_spec()

    def f_blowup(tau, x, u, p, s):
        return np.array([x[0] ** 2 * 1e200 + 1e200])

    spec.f = f_blowup
    U = DecisionVector.zeros(spec.dims)
    with np.errstate(over="ignore"), pytest.raises(TrajectoryDivergedError) as err:
        forward_states(spec, np.array([1.0]), U)
    assert err.value.step >= 1


def test_backward_costates_second_component_constant(consts, spec10):
    U = random_decision(spec10.dims, seed=12)
    xs = forward_states(spec10, np.zeros(2), U)
    lam = backward_costates(spec10, xs, U)
    assert np.allclose(lam[:, 1], U.nu()[1])


def test_backward_costates_zero_without_terminal_terms():
    spec = quadratic_spec()
    spec.H_x = None
    spec.phi_x = None
    U = DecisionVector.zeros(spec.dims)
    U.data[:] = 0.3
    xs = forward_states(spec, np.array([1.0]), U)
    lam = backward_costates(spec, xs, U)
    assert np.all(lam == 0.0)


def test_backward_costates_matches_recursion_oracle(consts, spec10):
    U = random_decision(spec10.dims, seed=4)
    xs = forward_states(spec10, np.array([0.1, -0.2]), U)
    lam = backward_costates(spec10, xs, U)
    # independent backward recursion in scalar form
    n = spec10.dims.N
    dtau = 1.0 / n
    l1, l2 = U.nu()
    p = U.p()[0]
    for i in range(n - 1, -1, -1):
        u = U.u(i)[0]
        l1_new = l1 + dtau * p * consts.A * (math.cos(u) * l1 + math.sin(u) * l2)
        assert math.isclose(lam[i][0], l1_new, rel_tol=1e-13, abs_tol=1e-15)
        assert math.isclose(lam[i][1], l2, rel_tol=1e-13)
        l1 = l1_new


def test_recursions_cover_the_horizon_grid(consts, spec10):
    U = random_decision(spec10.dims, seed=3)
    xs = forward_states(spec10, np.zeros(2), U)
    lam = backward_costates(spec10, xs, U)
    assert xs.shape == (11, 2)
    assert lam.shape == (11, 2)
    assert np.array_equal(xs[0], np.zeros(2))


# ---------------------------------------------------------------------------
# residual evaluation


def test_residual_zero_at_stationary_point():
    spec = quadratic_spec()
    U = DecisionVector.zeros(spec.dims)
    res = initial_solve(
        spec, np.array([1.0]), 0.0, U, **{**COLD_START, "tol_init": 1e-12, "max_newton": 5}
    )
    F = optimality_residual(spec, res.U, np.array([1.0]))
    assert np.linalg.norm(F) <= 1e-11


def test_residual_matches_lagrangian_gradient_oracle(consts, spec10):
    worst = 0.0
    for seed in range(25):
        U = random_decision(spec10.dims, seed=seed)
        rng = np.random.default_rng(10_000 + seed)
        x0 = rng.uniform(-0.5, 0.5, 2)
        F = optimality_residual(spec10, U, x0)
        oracle = central_residual_oracle(consts, 10, U, x0)
        worst = max(worst, float(np.max(np.abs(F - oracle))))
    assert worst <= 1e-6


def test_residual_deterministic_bitwise(consts, spec10):
    U = initial_guess(consts, 10)
    x0 = consts.start
    a = optimality_residual(spec10, U, x0)
    b = optimality_residual(spec10, U, x0)
    assert np.all(np.isfinite(a))
    assert np.array_equal(a, b)


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=21),
    st.integers(min_value=0, max_value=2**20),
)
@example(N=40, K=21, seed=0)  # the cold start's block of Newton step lengths
def test_block_residual_columns_match_single_evaluations(N, K, seed):
    c = MinTimeConstants()
    spec = problem_spec(c, N)
    cols = [random_decision(spec.dims, seed=seed + k) for k in range(K)]
    x0 = np.random.default_rng(seed).uniform(-0.5, 0.5, 2)
    R = block_residual(spec, np.column_stack([U.data for U in cols]), x0)
    assert R.shape == (spec.dims.decision_size, K)
    eps = np.finfo(float).eps
    for k, U in enumerate(cols):
        assert np.array_equal(R[:, k], optimality_residual(spec, U, x0))
        xs = forward_states(spec, x0, U)
        oracle = residual_rows(c, U, xs, backward_costates(spec, xs, U))
        scale = np.max(np.abs(R[:, k])) + 1.0
        assert np.max(np.abs(R[:, k] - oracle)) <= 50 * eps * scale


def test_callback_with_wrong_shape_is_rejected():
    spec = quadratic_spec()

    def f_wrong(tau, x, u, p, s):
        return np.zeros(2)  # the state has one component

    spec.f = f_wrong
    with pytest.raises(ValueError):
        optimality_residual(spec, DecisionVector.zeros(spec.dims), np.array([1.0]))


@pytest.mark.parametrize("batch", [None, 3])
@pytest.mark.parametrize("callback", ["f", "H_x"])
def test_callback_with_wrong_shape_at_a_late_stage_is_rejected(callback, batch):
    # the last stage in recursion order: N-1 for the states, 0 for the costates
    spec = quadratic_spec(n_steps=5)
    late = (spec.dims.N - 1) * spec.dtau if callback == "f" else 0.0
    original = getattr(spec, callback)

    def wrong_late(tau, *args):
        out = original(tau, *args)
        return np.concatenate([out, out]) if tau == late else out

    setattr(spec, callback, wrong_late)
    Z = np.full(5, 0.3) if batch is None else np.full((5, batch), 0.3)
    with pytest.raises(ValueError, match="callback returned shape"):
        block_residual(spec, Z, np.array([1.0]))


@settings(deadline=None, max_examples=30)
@given(
    N=st.sampled_from([1, 10, 40]),
    K=st.sampled_from([None, 21, "m + 1"]),
    seed=st.integers(min_value=0, max_value=2**20),
)
@example(N=40, K="m + 1", seed=0)
def test_shared_stage_terms_equal_callbacks_with_their_own_trigonometry(N, K, seed):
    # the heading's cosine and sine, computed once in stage_terms, give the
    # residual of callbacks that each compute them, bit for bit
    c = MinTimeConstants()
    spec = problem_spec(c, N)
    m = spec.dims.decision_size
    width = {None: 1, 21: 21, "m + 1": m + 1}[K]
    Z = np.column_stack([random_decision(spec.dims, seed=seed + k).data for k in range(width)])
    if K is None:
        Z = Z[:, 0]
    x0 = np.random.default_rng(seed).uniform(-0.5, 0.5, 2)
    got = block_residual(spec, Z, x0)
    want = block_residual(own_trig_spec(c, N), Z, x0)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("K", [None, 4])
def test_stage_terms_run_once_and_each_stage_gets_its_slice(K):
    c = MinTimeConstants()
    N = 6
    spec = problem_spec(c, N)
    terms, seen = [], {"f": [], "H_x": [], "H_u": [], "C": [], "H_p": []}

    def spy_terms(tau, u, p):
        terms.append(spec.stage_terms(tau, u, p))
        return terms[-1]

    def spy(name):
        callback = getattr(spec, name)

        def wrapped(tau, *args):
            seen[name].append((tau, args[-1]))
            return callback(tau, *args)

        return wrapped

    spied = dataclasses.replace(
        spec, stage_terms=spy_terms, **{name: spy(name) for name in seen}
    )
    cols = [random_decision(spec.dims, seed=k).data for k in range(K or 1)]
    Z = cols[0] if K is None else np.column_stack(cols)
    got = block_residual(spied, Z, c.start)
    assert got.tobytes() == block_residual(spec, Z, c.start).tobytes()
    assert len(terms) == 1
    s = terms[0]
    assert s.shape == (2, N) + Z.shape[1:]
    # f in stage order, H_x in backward order, each with its own stage's slice
    for name, order in (("f", range(N)), ("H_x", range(N - 1, -1, -1))):
        assert [round(tau * N) for tau, _ in seen[name]] == list(order)
        for tau, s_i in seen[name]:
            i = round(tau * N)
            assert np.shares_memory(s_i, s)
            assert s_i.tobytes() == s[:, i].tobytes()
    # the all-stage callbacks get the whole array
    for name in ("H_u", "C", "H_p"):
        assert len(seen[name]) == 1 and seen[name][0][1] is s


def test_stage_terms_run_once_per_block_residual_in_a_cold_start(consts):
    spec = problem_spec(consts, 10)
    counts = {"stage_terms": 0, "block_residual": 0}
    stage_terms, original = spec.stage_terms, continuation.block_residual

    def counted_terms(tau, u, p):
        counts["stage_terms"] += 1
        return stage_terms(tau, u, p)

    def counted_residual(spec_, Z, x):
        counts["block_residual"] += 1
        return original(spec_, Z, x)

    spied = dataclasses.replace(spec, stage_terms=counted_terms)
    with mock.patch.object(continuation, "block_residual", counted_residual):
        initial_solve(spied, consts.start, 0.0, initial_guess(consts, 10), **COLD_START)
    assert counts["block_residual"] > 1
    assert counts["stage_terms"] == counts["block_residual"]


@pytest.mark.parametrize("K", [None, 3])
def test_spec_without_stage_terms_gets_empty_slices(K):
    spec = quadratic_spec()
    shapes = []
    f = spec.f

    def spy(tau, x, u, p, s):
        shapes.append(s.shape)
        return f(tau, x, u, p, s)

    spec.f = spy
    Z = np.full(3, 0.3) if K is None else np.full((3, K), 0.3)
    block_residual(spec, Z, np.array([1.0]))
    assert shapes == [(0,) + Z.shape[1:]] * spec.dims.N


def test_stage_terms_with_wrong_trailing_shape_is_rejected(consts):
    spec = problem_spec(consts, 4)
    stage_terms = spec.stage_terms
    spec.stage_terms = lambda tau, u, p: stage_terms(tau, u, p)[:, :-1]
    with pytest.raises(ValueError, match="stage_terms returned shape"):
        optimality_residual(spec, initial_guess(consts, 4), consts.start)


def test_stage_terms_returning_a_list_is_accepted(consts):
    spec = problem_spec(consts, 4)
    converted = problem_spec(consts, 4)
    converted.stage_terms = lambda tau, u, p: spec.stage_terms(tau, u, p).tolist()
    U = initial_guess(consts, 4)
    want = optimality_residual(spec, U, consts.start)
    assert optimality_residual(converted, U, consts.start).tobytes() == want.tobytes()


def test_callback_returning_a_list_or_an_int_array_is_accepted():
    # converted values give the residual of float64 arrays, bit for bit
    reference = quadratic_spec()
    reference.phi_x = lambda tau, x, p: np.ones(1)
    converted = quadratic_spec()
    f, H_x = converted.f, converted.H_x
    converted.f = lambda tau, x, u, p, s: list(f(tau, x, u, p, s))
    converted.H_x = lambda tau, x, lam, u, mu, p, s: H_x(tau, x, lam, u, mu, p, s).tolist()
    converted.phi_x = lambda tau, x, p: np.ones(1, dtype=int)
    rng = np.random.default_rng(8)
    for Z in (rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, (3, 4))):
        want = block_residual(reference, Z, np.array([0.4]))
        assert np.array_equal(block_residual(converted, Z, np.array([0.4])), want)


def _inject(callback, stages, dtau, index, value):
    """``callback`` with ``value`` written at ``index`` of its result on the
    given stages (stage i runs at tau = i * dtau)."""

    def broken(tau, *args):
        out = np.array(callback(tau, *args), dtype=float)
        if any(tau == i * dtau for i in stages):
            out[index] = value
        return out

    return broken


@settings(deadline=None, max_examples=60)
@given(
    callback=st.sampled_from(["f", "H_x"]),
    N=st.integers(min_value=1, max_value=40),
    K=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    value=st.sampled_from([math.inf, -math.inf, math.nan]),
    stages=st.sets(st.integers(min_value=0, max_value=39), min_size=1, max_size=3),
    column=st.integers(min_value=0, max_value=5),
    component=st.integers(min_value=0, max_value=1),
    seed=st.integers(min_value=0, max_value=2**20),
)
@example(
    callback="f", N=40, K=6, value=math.nan, stages={20, 39}, column=5, component=0, seed=0
)
@example(
    callback="H_x", N=40, K=None, value=math.inf, stages={0, 20}, column=0, component=0, seed=0
)
def test_block_residual_names_the_first_non_finite_stage(
    callback, N, K, value, stages, column, component, seed
):
    # one finiteness check per recursion names the stage a check after every
    # stage names: the first state (smallest step) or the first costate in
    # backward order (largest step), and raises nothing else, not even a
    # warning, although the callbacks also run on the later stages
    c = MinTimeConstants()
    spec = problem_spec(c, N)
    stages = {i % N for i in stages}
    index = component if K is None else (component, column % K)
    setattr(spec, callback, _inject(getattr(spec, callback), stages, spec.dtau, index, value))
    cols = [random_decision(spec.dims, seed=seed + k) for k in range(K or 1)]
    Z = cols[0].data if K is None else np.column_stack([U.data for U in cols])
    x0 = np.random.default_rng(seed).uniform(-0.5, 0.5, 2)
    want = recursion_failure(spec, Z, x0)
    assert want is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrajectoryDivergedError) as err:
            block_residual(spec, Z, x0)
    assert (err.value.kind, err.value.step) == want


@pytest.mark.parametrize(
    "make, Z",
    [
        # every column but the base one overflows at the first stage
        (lambda: fragile_spec("state"), 0.3 + 1e-5 * np.column_stack([np.zeros(3), np.eye(3)])),
        # the second column crosses the limit at stage 1 only
        (lambda: threshold_spec("state", 1.0), np.array([[0.5, 0.5], [0.5, 2.0], [0.5, 0.5]])),
    ],
    ids=["fragile", "threshold"],
)
def test_broken_specs_name_the_oracles_stage_after_running_every_stage(make, Z):
    spec = make()
    calls = []
    f = spec.f

    def counted(tau, x, u, p, s):
        calls.append(tau)
        return f(tau, x, u, p, s)

    spec.f = counted
    want = recursion_failure(spec, Z, np.array([0.5]))
    calls.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrajectoryDivergedError) as err:
            block_residual(spec, Z, np.array([0.5]))
    assert (err.value.kind, err.value.step) == want
    assert len(calls) == spec.dims.N  # the stages after the first bad one ran too


@settings(deadline=None, max_examples=100)
@given(
    st.lists(
        st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False),
        max_size=300,
    )
)
@example([math.inf, 1.0])
@example([math.nan, 1.0])
@example([1e-300, -2e-310])
def test_norm_is_numpys_on_ordinary_residuals(entries):
    F = np.array(entries, dtype=float)
    with np.errstate(invalid="ignore"):
        want = float(np.linalg.norm(F))
    got = continuation._norm(F)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_norm_scales_a_finite_residual_whose_plain_norm_overflows():
    F = np.array([1e300, -1e300, 0.0])
    with np.errstate(over="ignore"):
        assert np.linalg.norm(F) == math.inf
    eps = np.finfo(float).eps
    assert math.isclose(continuation._norm(F), math.hypot(1e300, 1e300), rel_tol=4 * eps)
    # a norm beyond the largest double is still infinite
    assert continuation._norm(np.full(4, 1.5e308)) == math.inf


def test_step_diagnostics_norm_uses_the_overflow_safe_norm(consts, spec10):
    U = initial_guess(consts, 10)
    with mock.patch.object(continuation, "_norm", return_value=12.5) as norm:
        _, norm_F, _ = continuation_step(
            spec10, U, consts.start, loop_block(spec10, U, consts.start), **STEP
        )
    assert norm_F == 12.5
    assert norm.call_count == 1


# ---------------------------------------------------------------------------
# difference operator


def test_difference_operator_vanishes_at_zero(consts, spec10):
    U = initial_guess(consts, 10)
    base = optimality_residual(spec10, U, consts.start)
    op = difference_operator(spec10, U, consts.start, 1e-5, base)
    assert np.all(op.apply(np.zeros(op.dim)) == 0.0)


def test_difference_operator_linearity_defect_scales_with_step(consts, spec10):
    U = initial_guess(consts, 10)
    rng = np.random.default_rng(5)
    v1 = rng.standard_normal(spec10.dims.decision_size)
    v2 = rng.standard_normal(spec10.dims.decision_size)
    base = optimality_residual(spec10, U, consts.start)

    def defect(step):
        op = difference_operator(spec10, U, consts.start, step, base)
        return np.linalg.norm(op.apply(v1 + v2) - op.apply(v1) - op.apply(v2))

    ratio = defect(1e-4) / defect(1e-5)
    assert 10 / 3 <= ratio <= 30


def test_difference_operator_exact_for_affine_residual():
    spec = quadratic_spec()
    U = DecisionVector(spec.dims, np.array([0.4, -0.2, 0.8]))
    x0 = np.array([1.0])
    op = difference_operator(spec, U, x0, 1e-5, optimality_residual(spec, U, x0))
    rng = np.random.default_rng(8)
    v1, v2 = rng.standard_normal((2, 3))
    defect = op.apply(v1 + v2) - op.apply(v1) - op.apply(v2)
    assert np.linalg.norm(defect) <= 1e-9


# ---------------------------------------------------------------------------
# jacobian assembly / symmetry


def test_assemble_jacobian_recovers_exact_matrix():
    # a residual that is exactly linear, F(U) = M @ U, assembled at U = 0
    rng = np.random.default_rng(15)
    M = rng.standard_normal((7, 7))
    spec = linear_spec(M)
    R = assemble_jacobian(spec, DecisionVector.zeros(spec.dims), np.zeros(1), 1e-5)
    assert np.all(R[:, 0] == 0.0)
    assert np.allclose(R[:, 1:], M, atol=1e-14)


def test_assemble_jacobian_matches_central_difference(consts, spec10):
    U = initial_guess(consts, 10)
    x0 = consts.start
    h = 1e-5
    A = assemble_jacobian(spec10, U, x0, h)[:, 1:]
    m = spec10.dims.decision_size
    C = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1e-4
        Up = DecisionVector(spec10.dims, U.data + e)
        Um = DecisionVector(spec10.dims, U.data - e)
        C[:, j] = (
            optimality_residual(spec10, Up, x0) - optimality_residual(spec10, Um, x0)
        ) / 2e-4
    assert np.max(np.abs(A - C)) <= 10 * h


def test_assemble_jacobian_consistency_improves_with_step(consts, spec10):
    U = initial_guess(consts, 10)
    x0 = consts.start
    m = spec10.dims.decision_size
    C = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1e-4
        Up = DecisionVector(spec10.dims, U.data + e)
        Um = DecisionVector(spec10.dims, U.data - e)
        C[:, j] = (
            optimality_residual(spec10, Up, x0) - optimality_residual(spec10, Um, x0)
        ) / 2e-4
    err = {
        h: np.linalg.norm(assemble_jacobian(spec10, U, x0, h)[:, 1:] - C)
        for h in (1e-5, 1e-6)
    }
    ratio = err[1e-5] / err[1e-6]
    assert 10 / 3 <= ratio <= 30


def test_assemble_jacobian_equals_column_applies_bitwise(consts, spec10):
    U = initial_guess(consts, 10)
    base = optimality_residual(spec10, U, consts.start)
    op = difference_operator(spec10, U, consts.start, 1e-5, base)
    columns = np.column_stack([op.apply(e) for e in np.eye(op.dim)])
    R = assemble_jacobian(spec10, U, consts.start, 1e-5)
    assert R.shape == (op.dim, op.dim + 1)
    assert np.array_equal(R[:, 0], base)
    assert np.array_equal(R[:, 1:], columns)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=40), st.data())
def test_assemble_jacobian_names_the_diverging_column(N, data):
    j = data.draw(st.integers(min_value=0, max_value=N - 1))
    spec = quadratic_spec(N)
    f = spec.f

    def f_threshold(tau, x, u, p, s):
        return f(tau, x, u, p, s) + np.where(u[0] > 1.0, np.inf, 0.0)

    spec.f = f_threshold
    z = np.full(N, -1.0)
    z[j] = 0.5  # only a unit step along control j crosses the threshold
    with pytest.raises(TrajectoryDivergedError) as err:
        assemble_jacobian(spec, DecisionVector(spec.dims, z), np.array([1.0]), 1.0)
    # column j's state is the first to diverge, right after stage j
    assert err.value.kind == "state"
    assert err.value.step == j + 1


def test_symmetry_defect_scales_with_step(consts, spec10):
    U = initial_guess(consts, 10)

    def asym(h):
        A = assemble_jacobian(spec10, U, consts.start, h)[:, 1:]
        return np.linalg.norm(A - A.T) / np.linalg.norm(A)

    ratio = asym(1e-5) / asym(1e-6)
    assert 3 <= ratio <= 30


# ---------------------------------------------------------------------------
# continuation step


def test_continuation_step_zero_residual_is_identity():
    spec = quadratic_spec()
    x0 = np.array([1.0])
    zero = DecisionVector.zeros(spec.dims)
    stationary = initial_solve(spec, x0, 0.0, zero, **{**COLD_START, "tol_init": 1e-13}).U
    settings = {**STEP, "k_max": 3, "tol": 1e-8}
    U_next, norm_F, result = continuation_step(
        spec, stationary, x0, loop_block(spec, stationary, x0), **settings
    )
    assert norm_F <= 1e-12
    assert np.allclose(U_next.data, stationary.data, atol=1e-9)
    assert result.iterations == 0 or result.converged


def test_continuation_step_affine_newton_exact():
    spec = quadratic_spec()
    x0 = np.array([0.5])
    U = DecisionVector(spec.dims, np.array([0.3, -0.7, 1.1]))
    R = assemble_jacobian(spec, U, x0, 1e-6)
    factors = lu_factor(R[:, 1:])
    U_next, _, result = continuation_step(
        spec, U, x0, R, fd_step=1e-6, k_max=3, tol=1e-12, solver="gmres",
        precond=lambda r: lu_solve(factors, r),
    )
    F_after = optimality_residual(spec, U_next, x0)
    assert np.linalg.norm(F_after) <= 1e-8
    assert result.iterations <= 2


def test_continuation_step_propagates_indefinite_preconditioner():
    # an indefinite preconditioner under MINRES breaks the solver's contract:
    # a caller bug, not a degraded step
    spec = quadratic_spec()
    x0 = np.array([0.5])
    U = DecisionVector(spec.dims, np.array([0.3, -0.7, 1.1]))
    before = U.data.copy()
    settings = {**STEP, "solver": "minres", "k_max": 3, "tol": 1e-8}
    with pytest.raises(IndefinitePreconditionerError):
        continuation_step(spec, U, x0, loop_block(spec, U, x0), **settings, precond=lambda r: -r)
    assert np.array_equal(U.data, before)


def test_continuation_step_rejects_unknown_solver_before_evaluating(consts, spec10):
    # with a block or with None, which stands for a diverged one, the step
    # scores nothing before it checks the solver
    U = initial_guess(consts, 10)
    for R in (loop_block(spec10, U, consts.start), None):
        with mock.patch.object(continuation, "block_residual") as residual:
            with pytest.raises(ValueError, match="unknown solver 'cg'"):
                continuation_step(spec10, U, consts.start, R, **{**STEP, "solver": "cg"})
        assert residual.call_count == 0


@pytest.mark.parametrize("solver", ["gmres", "minres"])
def test_continuation_step_propagates_wrong_shape_preconditioner(solver):
    spec = quadratic_spec()
    x0 = np.array([0.5])
    U = DecisionVector(spec.dims, np.array([0.3, -0.7, 1.1]))
    before = U.data.copy()
    settings = {**STEP, "solver": solver, "k_max": 3, "tol": 1e-8}
    with pytest.raises(ValueError):
        continuation_step(
            spec, U, x0, loop_block(spec, U, x0), **settings, precond=lambda r: r[:-1]
        )
    assert np.array_equal(U.data, before)


def _assert_step_solves_on_the_block(spec, U, x, solver, T):
    # the step evaluates nothing: F comes from column 0 of the block, and the
    # solve is the solver on the block's Jacobian with the given
    # preconditioner, bit for bit, and leaves the block as it was
    h = STEP["fd_step"]
    R = assemble_jacobian(spec, U, x, h)
    solve = {"gmres": gmres, "minres": minres}[solver]
    want = solve(LinearMap(R.shape[0], R[:, 1:].dot), T, -R[:, 0] / h, k_max=10, tol=1e-5)
    before = R.copy()
    kernel = continuation.block_residual
    with mock.patch.object(continuation, "block_residual", side_effect=kernel) as residual:
        U_next, norm_F, result = continuation_step(
            spec, U, x, R, **{**STEP, "solver": solver}, precond=T
        )
    assert residual.call_count == 0
    assert np.array_equal(R, before)
    assert norm_F == continuation._norm(optimality_residual(spec, U, x))
    assert np.array_equal(U_next.data, U.data + h * want.x)
    for name in ("x", "residual_norm", "iterations", "converged", "breakdown",
                 "initial_residual_norm"):
        assert np.array_equal(getattr(result, name), getattr(want, name)), name
    if want.pairs is None:
        assert result.pairs is None
    else:
        assert all(map(np.array_equal, result.pairs, want.pairs))


@pytest.mark.parametrize("N", [10, 40])
@pytest.mark.parametrize("solver", ["gmres", "minres"])
def test_unpreconditioned_step_solves_on_the_assembled_block(consts, N, solver):
    _assert_step_solves_on_the_block(
        problem_spec(consts, N), initial_guess(consts, N), consts.start, solver, None
    )


@pytest.mark.parametrize("N", [10, 40])
@pytest.mark.parametrize("solver", ["gmres", "minres"])
def test_preconditioned_step_solves_on_the_assembled_block(consts, N, solver):
    # GMRES takes the loop's LU inverse of the block's own Jacobian, MINRES
    # an SPD diagonal scaling
    spec, U = problem_spec(consts, N), initial_guess(consts, N)
    if solver == "gmres":
        factors = lu_factor(assemble_jacobian(spec, U, consts.start, STEP["fd_step"])[:, 1:])
        T = functools.partial(lu_solve, factors)
    else:
        T = functools.partial(np.multiply, 0.5)
    _assert_step_solves_on_the_block(spec, U, consts.start, solver, T)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=1, max_value=8),
    st.data(),
    st.sampled_from([1e-7, 1e-5, 1e-2]),
    st.sampled_from(["gmres", "minres"]),
)
def test_block_diverging_in_a_difference_column_degrades_the_step(N, data, h, solver):
    # the controls sit on the threshold, so U is finite and a step along any
    # control diverges: the block diverges and the step, handed None, returns
    # the zero update, no result and F's finite norm, for one block and one
    # single residual
    spec = threshold_spec("state", limit=0.5, n_steps=N)
    x0 = np.array([0.5])
    z = np.array(data.draw(st.lists(
        st.floats(min_value=-0.5, max_value=0.5), min_size=N, max_size=N
    )))
    z[data.draw(st.integers(min_value=0, max_value=N - 1))] = 0.5
    U = DecisionVector(spec.dims, z)
    kernel = continuation.block_residual
    with mock.patch.object(continuation, "block_residual", side_effect=kernel) as residual:
        R = loop_block(spec, U, x0, h)
        U_next, norm_F, result = continuation_step(
            spec, U, x0, R, **{**STEP, "fd_step": h, "solver": solver}
        )
    assert R is None
    assert residual.call_count == 2
    assert result is None
    assert np.array_equal(U_next.data, U.data)
    assert U_next.data is not U.data
    assert norm_F == continuation._norm(optimality_residual(spec, U, x0))
    assert math.isfinite(norm_F)


@pytest.mark.parametrize("blow_up", ["state", "costate"])
def test_unpreconditioned_step_at_a_diverging_point_raises(blow_up):
    # a point whose own trajectory diverges is no degraded step: the block
    # diverges, F alone diverges too, and the error names F's recursion
    spec = threshold_spec("state", limit=0.5)
    x0 = np.array([0.5])
    U = DecisionVector(spec.dims, np.array([0.2, 0.9, 0.1]))
    if blow_up == "costate":
        spec = quadratic_spec()
        H_x = spec.H_x
        spec.H_x = lambda tau, x, lam, u, mu, p, s: H_x(tau, x, lam, u, mu, p, s) * np.inf
    with pytest.raises(TrajectoryDivergedError) as err:
        optimality_residual(spec, U, x0)
    want = (err.value.kind, err.value.step)
    R = loop_block(spec, U, x0)
    assert R is None
    with pytest.raises(TrajectoryDivergedError) as err:
        continuation_step(spec, U, x0, R, **STEP)
    assert (err.value.kind, err.value.step) == want


def test_step_diagnostics_fields(consts, spec10):
    U = initial_guess(consts, 10)
    R = loop_block(spec10, U, consts.start)
    U_next, norm_F, result = continuation_step(spec10, U, consts.start, R, **{**STEP, "k_max": 5})
    assert U_next.dims == U.dims
    assert not np.array_equal(U_next.data, U.data)
    assert result is not None
    assert result.iterations <= 5
    assert norm_F > 0.0


# ---------------------------------------------------------------------------
# cold start


def test_initial_solve_accepts_converged_guess():
    spec = quadratic_spec()
    x0 = np.array([1.0])
    zero = DecisionVector.zeros(spec.dims)
    stationary = initial_solve(spec, x0, 0.0, zero, **{**COLD_START, "tol_init": 1e-12}).U
    res = initial_solve(spec, x0, 0.0, stationary, **COLD_START)
    assert res.newton_iterations == 0
    assert np.array_equal(res.U.data, stationary.data)


def test_initial_solve_affine_one_step():
    # one exact Newton step up to the difference-quotient rounding floor
    spec = quadratic_spec()
    res = initial_solve(
        spec, np.array([2.0]), 0.0, DecisionVector.zeros(spec.dims),
        **{**COLD_START, "tol_init": 1e-8},
    )
    assert res.newton_iterations == 1
    assert res.residual_norm <= 1e-8


def test_initial_solve_mintime_documented_guess(consts, spec10):
    res = initial_solve(spec10, consts.start, 0.0, initial_guess(consts, 10), **COLD_START)
    assert res.residual_norm <= 1e-6
    assert res.newton_iterations <= 50


def test_initial_solve_shift_retry_rescues_singular_jacobian():
    dims = OcpDims(n_x=1, n_u=1, n_c=0, n_psi=0, n_p=1, N=1)

    def f(tau, x, u, p, s):
        return np.array([u[0]])

    def H_u(tau, x, lam, u, mu, p, s):
        return np.array([u[0] + 1.0])

    # no H_p / phi_p: the parameter row is identically zero, so the plain
    # Jacobian is singular and only the diagonal-shift retry can proceed
    spec = OcpSpec(dims=dims, f=f, H_u=H_u)
    U = DecisionVector(dims, np.array([2.0, 1.0]))
    res = initial_solve(
        spec, np.zeros(1), 0.0, U, **{**COLD_START, "tol_init": 1e-8, "max_newton": 5}
    )
    assert res.residual_norm <= 1e-8


def test_initial_solve_persistent_singularity_raises_with_best():
    dims = OcpDims(n_x=1, n_u=1, n_c=0, n_psi=0, n_p=0, N=1)

    def f(tau, x, u, p, s):
        return np.zeros(1)

    def H_u(tau, x, lam, u, mu, p, s):
        return np.ones(1)  # residual constant: Jacobian identically zero

    spec = OcpSpec(dims=dims, f=f, H_u=H_u)
    U = DecisionVector(dims, np.array([2.0]))
    with pytest.raises(ColdStartError) as err:
        initial_solve(
            spec, np.zeros(1), 0.0, U, **{**COLD_START, "tol_init": 1e-10, "max_newton": 3}
        )
    assert err.value.best is not None


def _solve_outcome(solve, spec, x0, U, **kw):
    """Bitwise outcome of a cold start: the iterate's bytes, the residual
    norm and the iteration count."""
    res = solve(spec, x0, 0.0, U, **{**COLD_START, **kw})
    return res.U.data.tobytes(), res.residual_norm, res.newton_iterations


def _draw(c_u, offset, distance):
    """Constants with the target at ``distance`` and bearing ``c_u + offset``,
    computed as the benchmark panel draws it."""
    bearing = c_u + offset
    return MinTimeConstants(
        c_u=c_u, x_f=distance * math.cos(bearing), y_f=distance * math.sin(bearing)
    )


# (c_u, offset, distance) of the benchmark panel's draw 19, whose cold start
# stalls at N = 20 on the one horizon as on both rungs of the ladder
_STALL_DRAW = (0.9445133984710674, 0.11296112892497415, 1.4719097193587902)

# the panel's draw 13: its rung N = 10 stalls, and N = 20 converges from the
# guess as the one-horizon solve does
_RUNG_STALL_DRAW = (0.6249398316599503, 0.04239845074181248, 1.8526328384806567)


@settings(deadline=None, max_examples=15)
@given(
    st.integers(min_value=2, max_value=40),
    st.floats(min_value=0.6, max_value=1.0),
    st.floats(min_value=-0.15, max_value=0.15),
    st.floats(min_value=1.0, max_value=2.0),
)
# the canonical constants climb the rungs 10, 20 (and 40); the _STALL_DRAW
# target stalls at N = 20, where the halvings run, and _RUNG_STALL_DRAW
# restarts N = 20 from the guess after its stalled rung N = 10
@example(N=20, c_u=MinTimeConstants().c_u, offset=None, distance=None)
@example(N=40, c_u=MinTimeConstants().c_u, offset=None, distance=None)
@example(N=20, c_u=_STALL_DRAW[0], offset=_STALL_DRAW[1], distance=_STALL_DRAW[2])
@example(
    N=20, c_u=_RUNG_STALL_DRAW[0], offset=_RUNG_STALL_DRAW[1], distance=_RUNG_STALL_DRAW[2]
)
@example(N=10, c_u=MinTimeConstants().c_u, offset=None, distance=None)
def test_initial_solve_equals_sequential_backtracking_oracle(N, c_u, offset, distance):
    # feasible targets: bearing within the heading band, as the benchmark
    # panel draws them; from N = 20 the oracle climbs its own ladder, below
    # it the oracle is the plain one-horizon Newton loop
    if offset is None:
        c = MinTimeConstants()
    else:
        c = _draw(c_u, offset, distance)
    spec = problem_spec(c, N)
    U = initial_guess(c, N)
    assert _solve_outcome(initial_solve, spec, c.start, U) == _solve_outcome(
        sequential_initial_solve, spec, c.start, U
    )


def _rung_blocks(shapes):
    """Block shapes grouped by rung: runs of equal row counts, in order."""
    rungs = []
    for shape in shapes:
        if not rungs or rungs[-1][0][0] != shape[0]:
            rungs.append([])
        rungs[-1].append(shape)
    return rungs


def test_stalled_cold_start_scores_halvings_in_blocks():
    # Each rung scores its starting point once, then each of its Newton
    # iterations is one assembly block (m, m + 1), the iterate and its m
    # difference points, and one block (m, 21) holding the full step and its
    # twenty halvings; nothing diverges, so the starting points are the only
    # single-vector residuals.  This draw stalls on both rungs, 10 and 20:
    # the rung N = 10 runs out of its half of the budget, and N = 20 starts
    # from the guess and spends the other half.
    c = _draw(*_STALL_DRAW)
    spec = problem_spec(c, 20)
    shapes = []
    original = continuation.block_residual

    def spy(spec_, Z, x):
        shapes.append(np.shape(Z))
        return original(spec_, Z, x)

    with mock.patch.object(continuation, "block_residual", spy):
        res = initial_solve(spec, c.start, 0.0, initial_guess(c, 20), **COLD_START)
    assert res.residual_norm > 1e-6  # the stall
    rungs = _rung_blocks(shapes)
    sizes = [problem_dims(N).decision_size for N in (10, 20)]
    assert [blocks[0] for blocks in rungs] == [(m,) for m in sizes]
    iterations = []
    for m, blocks in zip(sizes, rungs):
        k = (len(blocks) - 1) // 2
        assert blocks[1:] == [(m, m + 1), (m, 21)] * k
        iterations.append(k)
    assert iterations == [25, 25]
    assert sum(iterations) == res.newton_iterations


@pytest.mark.parametrize("N", [20, 40, 80])
def test_canonical_cold_start_converges_on_long_horizons(consts, N):
    # the rungs are 10, 20, ... up to N, in that order: every assembly block
    # has m + 1 columns for its rung's m
    spec = problem_spec(consts, N)
    columns = []
    original = continuation.assemble_jacobian

    def spy(*args, **kwargs):
        R = original(*args, **kwargs)
        columns.append(R.shape)
        return R

    with mock.patch.object(continuation, "assemble_jacobian", spy):
        res = initial_solve(spec, consts.start, 0.0, initial_guess(consts, N), **COLD_START)
    rungs = [n for n in (10, 20, 40, 80) if n <= N]
    sizes = [problem_dims(n).decision_size for n in rungs]
    assert [blocks[0] for blocks in _rung_blocks(columns)] == [(m, m + 1) for m in sizes]
    assert len(columns) == res.newton_iterations <= 50
    assert res.residual_norm <= 1e-6
    assert res.U.dims == spec.dims
    assert float(np.linalg.norm(optimality_residual(spec, res.U, consts.start))) == (
        res.residual_norm
    )


@pytest.mark.parametrize("N", [11, 15, 20, 30, 40, 80])
def test_restricted_initial_guess_is_the_coarse_guess(consts, N):
    coarse = problem_dims(N // 2)
    restricted = continuation._resampled(initial_guess(consts, N), coarse)
    assert restricted.dims == coarse
    assert restricted.data.tobytes() == initial_guess(consts, N // 2).data.tobytes()


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_resampled_copies_the_mapped_stages(N_from, N_to, seed):
    U = random_decision(problem_dims(N_from), seed)
    got = continuation._resampled(U, problem_dims(N_to))
    assert got.data.tobytes() == stagewise_resample(U, problem_dims(N_to)).data.tobytes()


@settings(deadline=None, max_examples=20)
@given(
    st.sampled_from(["state", "residual"]),
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.05, max_value=0.45),
)
@example(blow_up="state", N=3, fraction=0.3)
@example(blow_up="residual", N=3, fraction=0.3)
def test_initial_solve_backtracks_past_broken_trials(blow_up, N, fraction):
    # The full Newton step and its first halving leave the region where the
    # problem is finite: the state overflows (the block raises and the trials
    # are re-scored one at a time) or the residual turns NaN.  Above N = 10
    # the limit also bounds the coarser rungs, and the oracle climbs the same
    # ladder; a rung that fails reports the error at the caller's horizon.
    x0 = np.array([1.0])
    zero = DecisionVector.zeros(quadratic_spec(N).dims)
    cold = {**COLD_START, "tol_init": 1e-12}
    solution = initial_solve(quadratic_spec(N), x0, 0.0, zero, **cold).U.data
    spec = threshold_spec(blow_up, fraction * np.max(np.abs(solution)), N)
    broken = []
    original = continuation.block_residual

    def spy(spec_, Z, x):
        try:
            R = original(spec_, Z, x)
        except TrajectoryDivergedError:
            broken.append(np.ndim(Z))
            raise
        if np.isnan(R).any():
            broken.append(np.ndim(Z))
        return R

    with mock.patch.object(continuation, "block_residual", spy):
        try:
            got = _solve_outcome(initial_solve, spec, x0, zero, max_newton=8)
        except ColdStartError:
            got = None
    assert 2 in broken  # a block of halved steps met the broken region
    try:
        want = _solve_outcome(sequential_initial_solve, spec, x0, zero, max_newton=8)
    except TrajectoryDivergedError:
        # an iterate came within one difference step of the limit: the
        # oracle's assembly fails where the cold start reports it
        want = None
    assert got == want


@pytest.mark.parametrize("N", [3, 10, 40])
def test_initial_solve_stops_at_the_rounding_floor(N):
    # with an unreachable tolerance each rung stops once no halved step
    # lowers the norm (N = 40 climbs the rungs 10, 20 and 40, as the oracle
    # does); a step that rounds back to the iterate (equal norm) must not
    # count as progress
    spec = quadratic_spec(N)
    x0 = np.array([1.0])
    zero = DecisionVector.zeros(spec.dims)
    got = _solve_outcome(initial_solve, spec, x0, zero, tol_init=0.0)
    assert got == _solve_outcome(sequential_initial_solve, spec, x0, zero, tol_init=0.0)
    assert got[2] < 50


def test_initial_solve_diverging_guess_raises_cold_start_error():
    spec = threshold_spec("state", 1.0)
    guess = DecisionVector(spec.dims, np.full(3, 2.0))
    with pytest.raises(
        ColdStartError,
        match=r"non-finite trajectory of the guess \(state recursion diverged at horizon step 1\)",
    ) as err:
        initial_solve(spec, np.array([1.0]), 0.0, guess, **COLD_START)
    assert np.array_equal(err.value.best.data, guess.data)
    assert err.value.residual_norm == math.inf


@pytest.mark.parametrize("blow_up", ["state", "residual"])
def test_initial_solve_broken_jacobian_raises_cold_start_error(blow_up):
    # every difference column diverges ("state": the assembly fails) or is
    # NaN ("residual": the Jacobian is not finite)
    spec = fragile_spec(blow_up)
    guess = DecisionVector(spec.dims, np.full(3, 0.3))
    x0 = np.array([0.5])
    norm = float(np.linalg.norm(optimality_residual(spec, guess, x0)))
    with np.errstate(over="ignore"), pytest.raises(ColdStartError) as err:
        initial_solve(spec, x0, 0.0, guess, **COLD_START)
    assert np.array_equal(err.value.best.data, guess.data)
    assert err.value.residual_norm == norm


def test_initial_solve_diverging_assembly_costs_one_block():
    # every difference column's state overflows at the first stage: the
    # assembly is one block residual, and the cold start reports the
    # recursion and the step that block names
    spec = fragile_spec("state")
    guess = DecisionVector(spec.dims, np.full(3, 0.3))
    x0 = np.array([0.5])
    blocks = []
    original = continuation.block_residual

    def spy(spec_, Z, x):
        blocks.append(np.ndim(Z))
        return original(spec_, Z, x)

    with mock.patch.object(continuation, "block_residual", spy):
        with pytest.raises(ColdStartError, match="state recursion diverged at horizon step 1"):
            initial_solve(spec, x0, 0.0, guess, **COLD_START)
    assert blocks == [1, 2]  # the guess's residual, then the assembly block


def test_initial_solve_non_finite_shift_raises_cold_start_error():
    # the singular Jacobian of the shift-retry test, scaled so that its
    # norm, and with it the diagonal shift, overflows
    dims = OcpDims(n_x=1, n_u=1, n_c=0, n_psi=0, n_p=1, N=1)

    def f(tau, x, u, p, s):
        return np.array([u[0]])

    def H_u(tau, x, lam, u, mu, p, s):
        return np.array([1e300 * (u[0] + 1.0)])

    spec = OcpSpec(dims=dims, f=f, H_u=H_u)
    guess = DecisionVector(dims, np.array([2.0, 1.0]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ColdStartError) as err:
        initial_solve(spec, np.zeros(1), 0.0, guess, **COLD_START)
    assert np.array_equal(err.value.best.data, guess.data)


def _constant_residual_spec(N):
    """A residual that ignores the controls: every Jacobian is zero."""
    dims = OcpDims(n_x=1, n_u=1, n_c=0, n_psi=0, n_p=0, N=N)

    def f(tau, x, u, p, s):
        return np.zeros_like(x)

    def H_u(tau, x, lam, u, mu, p, s):
        return np.ones_like(u)

    return OcpSpec(dims=dims, f=f, H_u=H_u)


@pytest.mark.parametrize(
    "make, value, cause",
    [
        # the guess overflows the state on the coarsest rung already
        (lambda N: threshold_spec("state", 1.0, N), 2.0, "non-finite trajectory of the guess"),
        # a guess at the limit: every difference column crosses it
        (lambda N: threshold_spec("state", 1.0, N), 1.0, "failed Jacobian assembly"),
        (lambda N: threshold_spec("residual", 1.0, N), 1.0, "non-finite Jacobian"),
        (_constant_residual_spec, 2.0, "singular Jacobian"),
    ],
    ids=["guess", "assembly", "non-finite", "singular"],
)
@pytest.mark.parametrize("N, rung", [(20, 10), (30, 15), (40, 10)])
def test_coarse_rung_failure_reports_at_the_callers_horizon(make, value, cause, N, rung):
    spec = make(N)
    x0 = np.array([1.0])
    guess = DecisionVector(spec.dims, np.full(N, value))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ColdStartError) as err:
        initial_solve(spec, x0, 0.0, guess, **{**COLD_START, "tol_init": 1e-10})
    message = str(err.value)
    assert message.startswith(cause)
    assert message.endswith(f"on the rung N = {rung} of the horizon ladder to N = {N}")
    best = err.value.best
    assert best.dims == spec.dims
    # the failing rung's best is the restricted guess, resampled back up
    assert best.data.tobytes() == guess.data.tobytes()
    try:
        norm = float(np.linalg.norm(optimality_residual(spec, best, x0)))
    except TrajectoryDivergedError:
        norm = math.inf
    assert err.value.residual_norm == norm


@pytest.mark.parametrize("N, N_guess", [(10, 20), (20, 10), (40, 20)])
def test_initial_solve_rejects_a_guess_on_another_horizon(consts, N, N_guess):
    with pytest.raises(ValueError, match="expected a guess on"):
        initial_solve(
            problem_spec(consts, N), consts.start, 0.0, initial_guess(consts, N_guess),
            **COLD_START,
        )
