import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnmpc.continuation import optimality_residual
from cnmpc.mintime import MinTimeConstants, initial_guess, plant_rate, problem_spec
from helpers import backward_costates, forward_states, random_decision, residual_rows


def dynamics(c, x, u, p):
    """The horizon dynamics callback ``f`` of ``problem_spec``, given the
    stage terms of its heading."""
    spec = problem_spec(c, 1)
    return spec.f(0.0, x, u, p, spec.stage_terms(0.0, u, p))


def constraint_residual(c, u):
    """The band constraint callback ``C`` of ``problem_spec``."""
    spec = problem_spec(c, 1)
    return spec.C(0.0, None, u, None, spec.stage_terms(0.0, u, None))


def terminal_residual(c, x):
    """The terminal constraint callback ``psi`` of ``problem_spec``."""
    return problem_spec(c, 1).psi(1.0, x, None)


def terminal_cost(c, p):
    """The terminal cost callback ``phi`` of ``problem_spec``."""
    return problem_spec(c, 1).phi(1.0, None, p)


def test_constants_validation():
    with pytest.raises(ValueError):
        MinTimeConstants(r_u=0.0)
    with pytest.raises(ValueError):
        MinTimeConstants(w_d=-1.0)


# ---------------------------------------------------------------------------
# model pieces


def test_dynamics_axis_aligned(consts):
    assert np.allclose(dynamics(consts, np.zeros(2), np.zeros(2), np.ones(1)), [1.0, 0.0])
    out = dynamics(consts, np.zeros(2), np.array([math.pi / 2, 0.0]), np.array([2.0]))
    assert abs(out[0]) <= 1e-15
    assert math.isclose(out[1], 2.0)


def test_dynamics_direct_evaluation(consts):
    # independent calculator: speed 1.5*(1*1+1) = 3 along heading 0.8
    out = dynamics(consts, np.array([1.0, 0.0]), np.array([0.8, 0.3]), np.array([1.5]))
    assert math.isclose(out[0], 3.0 * math.cos(0.8), rel_tol=1e-15)
    assert math.isclose(out[1], 3.0 * math.sin(0.8), rel_tol=1e-15)


def test_plant_rate_is_unscaled_dynamics(consts):
    x = np.array([0.3, 0.8])
    u = np.array([0.7, 0.1])
    assert np.array_equal(plant_rate(consts, x, u), dynamics(consts, x, u, np.ones(1)))


def test_constraint_on_band_circle(consts):
    edge = constraint_residual(consts, np.array([consts.c_u + consts.r_u, 0.0]))[0]
    assert abs(edge) <= 1e-16  # zero up to the rounding of c_u + r_u
    assert constraint_residual(consts, np.array([consts.c_u, consts.r_u]))[0] == 0.0
    val = constraint_residual(consts, np.array([1.0, 0.1]))[0]
    assert math.isclose(val, 0.01, rel_tol=1e-12)


def test_terminal_residual_examples(consts):
    assert np.array_equal(terminal_residual(consts, np.array([1.0, 1.0])), [0.0, 0.0])
    assert np.array_equal(terminal_residual(consts, np.array([0.0, 0.0])), [-1.0, -1.0])
    assert np.array_equal(terminal_residual(consts, np.array([1.5, 1.0])), [0.5, 0.0])


def test_costs(consts):
    assert terminal_cost(consts, np.array([1.6])) == 1.6


@settings(deadline=None, max_examples=50)
@given(st.floats(min_value=0.0, max_value=2 * math.pi), st.floats(-1e-6, 1e-6))
def test_small_constraint_residual_implies_band_membership(theta, radial):
    c = MinTimeConstants()
    # points on (or within 1e-6 of) the constraint circle
    r = math.sqrt(max(c.r_u**2 + radial, 0.0))
    u = c.c_u + r * math.cos(theta)
    ud = r * math.sin(theta)
    if abs(constraint_residual(c, np.array([u, ud]))[0]) <= 1e-6:
        assert c.c_u - c.r_u - 1e-3 <= u <= c.c_u + c.r_u + 1e-3


# ---------------------------------------------------------------------------
# stacked residual rows


def test_residual_rows_match_engine_residual(consts, spec10):
    for seed in range(10):
        U = random_decision(spec10.dims, seed=seed)
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-0.5, 0.5, 2)
        xs = forward_states(spec10, x0, U)
        lam = backward_costates(spec10, xs, U)
        direct = residual_rows(consts, U, xs, lam)
        engine = optimality_residual(spec10, U, x0)
        scale = np.max(np.abs(engine)) + 1.0
        assert np.max(np.abs(direct - engine)) <= 50 * np.finfo(float).eps * scale


def test_residual_rows_with_zero_multipliers(consts, spec10):
    n = spec10.dims.N
    dtau = 1.0 / n
    U = random_decision(spec10.dims, seed=2)
    for i in range(n):
        U.mu(i)[:] = 0.0
    U.nu()[:] = 0.0  # costates vanish identically
    xs = forward_states(spec10, np.zeros(2), U)
    lam = backward_costates(spec10, xs, U)
    assert np.all(lam == 0.0)
    rows = residual_rows(consts, U, xs, lam)
    p = U.p()[0]
    uds = [U.u(i)[1] for i in range(n)]
    # heading stationarity rows vanish; slack rows keep the weight term
    assert np.allclose(rows[0 : 2 * n : 2], 0.0)
    assert np.allclose(rows[1 : 2 * n : 2], -dtau * consts.w_d * p)
    # parameter row reduces to the slack-weight sum plus one
    assert math.isclose(rows[-1], 1.0 - dtau * consts.w_d * sum(uds), rel_tol=1e-12)


def test_constraint_rows_scale_constraint(consts, spec10):
    n = spec10.dims.N
    U = random_decision(spec10.dims, seed=9)
    xs = forward_states(spec10, np.zeros(2), U)
    lam = backward_costates(spec10, xs, U)
    rows = residual_rows(consts, U, xs, lam)
    for i in range(n):
        expected = constraint_residual(consts, U.u(i))[0] / n
        assert math.isclose(rows[2 * n + i], expected, rel_tol=1e-13)


# ---------------------------------------------------------------------------
# initial guess


def test_initial_guess_values(consts):
    U = initial_guess(consts, 10)
    assert math.isclose(U.p()[0], math.sqrt(2.0), rel_tol=1e-15)
    assert np.allclose(U.nu(), [0.1, 0.1])
    for i in range(10):
        assert U.u(i)[0] == consts.c_u
        assert U.u(i)[1] == 0.5 * consts.r_u


def test_initial_guess_cancels_slack_row(consts, spec10):
    U = initial_guess(consts, 10)
    xs = forward_states(spec10, consts.start, U)
    lam = backward_costates(spec10, xs, U)
    rows = residual_rows(consts, U, xs, lam)
    assert np.allclose(rows[1:20:2], 0.0, atol=1e-16)


def test_initial_guess_deterministic(consts):
    a = initial_guess(consts, 10)
    b = initial_guess(consts, 10)
    assert np.array_equal(a.data, b.data)
