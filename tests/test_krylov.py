import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnmpc.continuation import difference_operator, optimality_residual
from cnmpc.krylov import (
    LinearMap,
    SingularMatrixError,
    dense_solve,
    gmres,
    lu_factor,
    lu_solve,
    minres,
)
from cnmpc.mintime import MinTimeConstants, initial_guess, problem_spec

from helpers import (
    ZeroPivotError,
    doolittle_lu,
    hessenberg_lsq,
    numpy_scalar_gmres,
    numpy_scalar_hessenberg_lsq,
    triangular_solve,
)

EPS = np.finfo(float).eps


def matrix_map(A):
    A = np.asarray(A, dtype=float)
    return LinearMap(A.shape[0], lambda v: A @ v)


def random_spd(rng, m, kappa):
    """SPD matrix with uniformly spread eigenvalues in [1, kappa]."""
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    eigs = np.linspace(1.0, kappa, m)
    return (Q * eigs) @ Q.T


def random_spd_logspread(rng, m, kappa):
    """Harder spectrum: log-spaced eigenvalues (slow Krylov convergence)."""
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    eigs = np.geomspace(1.0, kappa, m)
    return (Q * eigs) @ Q.T


def random_symmetric_indefinite(rng, m, kappa):
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    eigs = np.linspace(1.0, kappa, m)
    eigs[::2] *= -1.0
    return (Q * eigs) @ Q.T


# ---------------------------------------------------------------------------
# gmres


def test_gmres_identity_one_step():
    b = np.array([1.0, 2.0, 3.0])
    res = gmres(matrix_map(np.eye(3)), None, b, k_max=3, tol=1e-12)
    assert np.allclose(res.x, b, atol=1e-14)
    assert res.iterations == 1
    assert res.converged


def test_gmres_diagonal_matches_direct_solve():
    A = np.diag([1.0, 2.0, 4.0])
    b = np.array([1.0, 2.0, 4.0])
    expected = dense_solve(A, b)  # oracle: direct factorization
    assert np.allclose(expected, [1.0, 1.0, 1.0])
    res = gmres(matrix_map(A), None, b, k_max=3, tol=1e-12)
    assert np.linalg.norm(res.x - expected) <= 1e-10
    assert np.linalg.norm(b - A @ res.x) <= 1e-10


def test_gmres_exact_preconditioner_one_iteration():
    rng = np.random.default_rng(7)
    A = random_spd(rng, 12, 1e3)
    inverse = lu_factor(A)
    b = rng.standard_normal(12)
    res = gmres(matrix_map(A), lambda r: lu_solve(inverse, r), b, k_max=12, tol=1e-10)
    assert res.iterations == 1
    assert res.converged
    assert np.linalg.norm(b - A @ res.x) <= 1e-8 * np.linalg.norm(b)


def test_gmres_zero_rhs_returns_initial_guess():
    res = gmres(matrix_map(np.eye(4)), None, np.zeros(4), k_max=4, tol=1e-10)
    assert res.iterations == 0
    assert res.converged
    assert np.all(res.x == 0.0)


@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=2, max_value=30),
    st.data(),
    st.integers(min_value=0, max_value=10_000),
)
def test_zero_tol_runs_k_max_iterations(m, data, seed):
    # tol = 0 is the fixed-iteration mode: only a breakdown ends it early
    k_max = data.draw(st.integers(min_value=1, max_value=m))
    rng = np.random.default_rng(seed)
    A = random_spd(rng, m, 10.0)
    b = rng.standard_normal(m)
    for solve in (gmres, minres):
        res = solve(matrix_map(A), None, b, k_max=k_max, tol=0.0)
        assert res.iterations == k_max or res.breakdown


@settings(deadline=None, max_examples=60)
@given(
    m=st.integers(min_value=1, max_value=12),
    rank=st.integers(min_value=0, max_value=12),
    kind=st.sampled_from(["symmetric", "rank_one"]),
    tol=st.sampled_from([0.0, 1e-5]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_breakdown_implies_converged(m, rank, kind, tol, seed):
    # A breakdown ends the solve with the exact solution in the Krylov
    # subspace, so both solvers report it as converged; a continuation step
    # is degraded only on its zero-update fallback, never on a breakdown.
    # Rank-deficient maps make breakdowns common: most rank-one draws and
    # about a fifth of the symmetric ones break down.
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    eigs = np.zeros(m)
    r = min(rank, m)
    eigs[:r] = rng.uniform(0.5, 3.0, r) * rng.choice([-1.0, 1.0], r)
    A = (Q * eigs) @ Q.T
    if kind == "rank_one":
        A = np.outer(rng.standard_normal(m), rng.standard_normal(m))
    b = rng.standard_normal(m)
    solvers = (gmres, minres) if kind == "symmetric" else (gmres,)
    for solve in solvers:
        res = solve(matrix_map(A), None, b, k_max=m, tol=tol)
        assert res.converged or not res.breakdown


def test_gmres_respects_iteration_cap():
    rng = np.random.default_rng(5)
    A = random_spd(rng, 30, 1e3)
    b = rng.standard_normal(30)
    res = gmres(matrix_map(A), None, b, k_max=4, tol=1e-14)
    assert res.iterations == 4
    assert not res.converged


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
def test_gmres_residual_estimate_monotone(m, seed):
    rng = np.random.default_rng(seed)
    A = random_spd(rng, m, 1e3)
    b = rng.standard_normal(m)
    # one more iteration never raises the estimate: sweep the iteration cap
    est = [gmres(matrix_map(A), None, b, k_max=k, tol=1e-12).residual_norm for k in range(1, m + 1)]
    slack = 10 * EPS * np.linalg.norm(b)
    for a, b_ in zip(est, est[1:]):
        assert b_ <= a + slack


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
def test_gmres_finite_termination(m, seed):
    rng = np.random.default_rng(seed)
    A = random_spd_logspread(rng, m, 1e3)
    b = rng.standard_normal(m)
    res = gmres(matrix_map(A), None, b, k_max=m, tol=0.0)
    assert np.linalg.norm(b - A @ res.x) <= 1e-8 * np.linalg.norm(b)


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
def test_gmres_arnoldi_basis_orthonormal(m, seed):
    # At the solver's operating tolerance; pushing convergence to machine
    # level at k = m makes the last single-pass Gram-Schmidt vector marginal.
    # The Arnoldi vectors are the vectors the operator is applied to.
    rng = np.random.default_rng(seed)
    A = random_spd(rng, m, 1e3)
    b = rng.standard_normal(m)
    applied = []

    def recording(v):
        applied.append(np.array(v))
        return A @ v

    res = gmres(LinearMap(m, recording), None, b, k_max=m, tol=1e-5)
    assert len(applied) == res.iterations
    V = np.column_stack(applied)
    G = V.T @ V
    assert np.max(np.abs(G - np.eye(G.shape[0]))) <= 1e-8


def test_gmres_final_residual_matches_true_residual():
    rng = np.random.default_rng(17)
    A = random_spd(rng, 20, 100.0)
    b = rng.standard_normal(20)
    res = gmres(matrix_map(A), None, b, k_max=9, tol=1e-14)
    true = np.linalg.norm(b - A @ res.x)
    assert math.isclose(res.residual_norm, true, rel_tol=1e-6, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# minres


def test_minres_identity_one_step():
    b = np.array([5.0, -5.0])
    res = minres(matrix_map(np.eye(2)), None, b, k_max=2, tol=1e-12)
    assert np.allclose(res.x, b, atol=1e-12)
    assert res.iterations == 1


def test_minres_exact_preconditioner_one_iteration():
    A = np.diag([1.0, 3.0])
    b = np.array([1.0, 3.0])
    inverse = lu_factor(A)
    res = minres(matrix_map(A), lambda r: lu_solve(inverse, r), b, k_max=2, tol=1e-12)
    assert res.iterations == 1
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-12)


def test_minres_random_symmetric_matches_direct_solve():
    rng = np.random.default_rng(23)
    A = random_spd(rng, 20, 500.0)
    b = rng.standard_normal(20)
    expected = dense_solve(A, b)
    res = minres(matrix_map(A), None, b, k_max=20, tol=1e-12)
    assert np.linalg.norm(res.x - expected) <= 1e-8 * np.linalg.norm(expected)


def test_minres_handles_indefinite_matrix():
    rng = np.random.default_rng(29)
    A = random_symmetric_indefinite(rng, 16, 100.0)
    b = rng.standard_normal(16)
    res = minres(matrix_map(A), None, b, k_max=48, tol=1e-11)
    assert np.linalg.norm(b - A @ res.x) <= 1e-7 * np.linalg.norm(b)


def test_minres_rejects_indefinite_preconditioner():
    A = np.eye(3)
    b = np.array([1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="positive definite"):
        minres(matrix_map(A), lambda r: -r, b, k_max=3, tol=1e-10)


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10_000))
def test_minres_gmres_agree_on_symmetric_systems(m, seed):
    rng = np.random.default_rng(seed)
    A = random_spd(rng, m, 1e3)
    b = rng.standard_normal(m)
    g = gmres(matrix_map(A), None, b, k_max=m, tol=1e-10)
    mres = minres(matrix_map(A), None, b, k_max=m, tol=1e-10)
    scale = np.linalg.norm(g.x)
    assert np.linalg.norm(g.x - mres.x) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# Hessenberg least squares, driven through krylov._HessenbergLsq


def test_hessenberg_lsq_exactly_solvable():
    y, residual, deficient = hessenberg_lsq(np.array([[2.0], [0.0]]), 4.0)
    assert np.allclose(y, [2.0])
    assert residual <= 1e-14
    assert not deficient


def test_hessenberg_lsq_closed_form_normal_equations():
    # min over y of (y - 1)^2 + y^2 has minimizer 1/2, attained value 1/sqrt(2)
    y, residual, deficient = hessenberg_lsq(np.array([[1.0], [1.0]]), 1.0)
    assert np.allclose(y, [0.5])
    assert math.isclose(residual, 1.0 / math.sqrt(2.0), rel_tol=1e-14)
    assert not deficient


def test_hessenberg_lsq_degenerate_zero_columns():
    y, residual, deficient = hessenberg_lsq(np.zeros((1, 0)), 3.5)
    assert y.shape == (0,)
    assert residual == 3.5
    assert not deficient


def test_hessenberg_lsq_rank_deficient_minimum_norm():
    H = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    beta = 2.0
    y, residual, deficient = hessenberg_lsq(H, beta)
    assert deficient
    expect, *_ = np.linalg.lstsq(H, np.array([beta, 0.0, 0.0]), rcond=None)
    assert np.allclose(y, expect)
    assert residual <= 1e-12


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10_000))
def test_hessenberg_lsq_matches_lstsq(k, seed):
    rng = np.random.default_rng(seed)
    H = np.triu(rng.standard_normal((k + 1, k)), -1)
    beta = float(rng.standard_normal())
    y, residual, deficient = hessenberg_lsq(H, beta)
    rhs = np.zeros(k + 1)
    rhs[0] = beta
    expect, *_ = np.linalg.lstsq(H, rhs, rcond=None)
    if not deficient:
        assert np.allclose(y, expect, atol=1e-8)
    assert math.isclose(residual, np.linalg.norm(H @ expect - rhs), rel_tol=1e-8, abs_tol=1e-10)


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@settings(deadline=None, max_examples=60)
@given(
    k=st.integers(min_value=0, max_value=12),
    zero_columns=st.sets(st.integers(min_value=0, max_value=11), max_size=3),
    beta=st.floats(min_value=-10.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_hessenberg_lsq_equals_numpy_scalar_oracle_bitwise(k, zero_columns, beta, seed):
    # zero columns make R singular, so the lstsq fallback is covered too
    H = np.triu(np.random.default_rng(seed).standard_normal((k + 1, k)), -1)
    H[:, [j for j in zero_columns if j < k]] = 0.0
    got_y, got_residual, got_deficient = hessenberg_lsq(H, beta)
    y, residual, deficient = numpy_scalar_hessenberg_lsq(H, beta)
    assert _bits(got_y) == _bits(y)
    assert _bits(got_residual) == _bits(residual)
    assert got_deficient == deficient


def _oracle_problem(kind, m, seed):
    """A (map, right-hand side) pair: a dense matrix, a rank-one matrix
    (GMRES breaks down) or the minimum-time difference operator at N = 10."""
    rng = np.random.default_rng(seed)
    if kind == "mintime":
        c = MinTimeConstants()
        U = initial_guess(c, 10)
        U.data[:] += 0.01 * rng.standard_normal(U.data.size)
        spec = problem_spec(c, 10)
        F = optimality_residual(spec, U, c.start)
        return difference_operator(spec, U, c.start, 1e-5, F), -F / 1e-5
    A = rng.standard_normal((m, m))
    if kind == "rank_one":
        A = np.outer(rng.standard_normal(m), rng.standard_normal(m))
    return matrix_map(A), rng.standard_normal(m)


@settings(deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(["dense", "rank_one", "mintime"]),
    m=st.integers(min_value=1, max_value=12),
    k_fraction=st.floats(min_value=0.0, max_value=1.0),
    tol=st.sampled_from([0.0, 1e-5]),
    scaled=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_gmres_equals_numpy_scalar_oracle_bitwise(kind, m, k_fraction, tol, scaled, seed):
    op, b = _oracle_problem(kind, m, seed)
    k_max = max(1, math.ceil(k_fraction * op.dim))
    weights = np.linspace(1.0, 3.0, op.dim)
    precond = (lambda r: r / weights) if scaled else None
    got = gmres(op, precond, b, k_max=k_max, tol=tol)
    want = numpy_scalar_gmres(op, precond, b, k_max=k_max, tol=tol)
    assert _bits(got.x) == _bits(want.x)
    assert _bits(got.residual_norm) == _bits(want.residual_norm)
    assert _bits(got.initial_residual_norm) == _bits(want.initial_residual_norm)
    assert (got.iterations, got.converged, got.breakdown) == (
        want.iterations,
        want.converged,
        want.breakdown,
    )


def test_gmres_flags_a_breakdown_relative_to_the_product_norm():
    # on this rank-one map the second Arnoldi step leaves a remainder of
    # 3.5e-16 times its product's norm, 2.3 times eps times the right-hand
    # side's norm: a breakdown measured against the right-hand side is missed,
    # and the next basis vector is pure rounding
    op, b = _oracle_problem("rank_one", 5, 1)
    res = gmres(op, None, b, k_max=5, tol=0.0)
    assert (res.iterations, res.breakdown, res.converged) == (2, True, True)
    S, _ = res.pairs
    assert np.abs(S.T @ S - np.eye(2)).max() <= 1e-12


@settings(deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(["dense", "rank_one", "mintime"]),
    m=st.integers(min_value=1, max_value=12),
    k_fraction=st.floats(min_value=0.0, max_value=1.0),
    scaled=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_gmres_pairs_are_its_basis_and_the_operator_products_bitwise(
    kind, m, k_fraction, scaled, seed
):
    # each column of Y is the apply of the same column of S, bit for bit
    op, b = _oracle_problem(kind, m, seed)
    k_max = max(1, math.ceil(k_fraction * op.dim))
    weights = np.linspace(1.0, 3.0, op.dim)
    precond = (lambda r: r / weights) if scaled else None
    res = gmres(op, precond, b, k_max=k_max, tol=1e-5)
    S, Y = res.pairs
    assert S.shape == Y.shape == (op.dim, res.iterations)
    for j in range(res.iterations):
        assert _bits(Y[:, j]) == _bits(op.apply(S[:, j])), j


def test_gmres_preconditioner_receives_the_stored_product():
    # the preconditioner is called with the row GMRES keeps, not a copy
    seen = []

    def precond(r):
        seen.append(r)
        return 2.0 * r

    A = np.random.default_rng(5).standard_normal((6, 6)) + 6.0 * np.eye(6)
    res = gmres(matrix_map(A), precond, np.ones(6), k_max=4, tol=0.0)
    S, Y = res.pairs
    assert [np.shares_memory(r, Y) for r in seen] == [False] + [True] * res.iterations
    for j, r in enumerate(seen[1:]):
        assert _bits(r) == _bits(Y[:, j])


def test_solves_without_a_basis_return_no_pairs():
    A = np.diag([1.0, 2.0, 3.0])
    assert gmres(matrix_map(A), None, np.zeros(3), k_max=3, tol=1e-10).pairs is None
    assert minres(matrix_map(A), None, np.ones(3), k_max=3, tol=1e-10).pairs is None


# ---------------------------------------------------------------------------
# LU factorization and direct solve
#
# lu_factor returns LAPACK's explicit inverse; the Doolittle elimination and
# triangular sweeps in helpers are the independent oracle it is checked
# against.


def test_lu_factor_permutation_matrix():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(lu_factor(A), A)  # a swap is its own inverse
    perm, lower, upper = doolittle_lu(A)
    assert np.array_equal(perm, [1, 0])
    assert np.array_equal(lower, np.eye(2))
    assert np.array_equal(upper, np.eye(2))


def test_lu_factor_scaled_identity():
    assert np.array_equal(lu_factor(2.0 * np.eye(3)), 0.5 * np.eye(3))
    perm, lower, upper = doolittle_lu(2.0 * np.eye(3))
    assert np.array_equal(perm, [0, 1, 2])
    assert np.array_equal(lower, np.eye(3))
    assert np.array_equal(upper, 2.0 * np.eye(3))


def test_lu_factor_random_reconstruction():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((33, 33))
    X = lu_factor(A)
    assert np.linalg.norm(A @ X - np.eye(33)) <= 1e-13 * np.linalg.norm(A) * np.linalg.norm(X)
    factors = doolittle_lu(A)
    oracle = np.column_stack([triangular_solve(*factors, e) for e in np.eye(33)])
    assert np.linalg.norm(X - oracle) <= 1e-12 * np.linalg.norm(X)


def test_lu_factor_reports_singular_column():
    A = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(SingularMatrixError):
        lu_factor(A)
    with pytest.raises(ZeroPivotError) as err:
        doolittle_lu(A)
    assert err.value.column == 1


def test_lu_factor_rejects_nonfinite():
    with pytest.raises(ValueError):
        lu_factor(np.array([[1.0, np.nan], [0.0, 1.0]]))


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10_000))
def test_lu_backward_stability(m, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    perm, lower, upper = doolittle_lu(A)
    assert np.all(np.diag(lower) == 1.0)
    assert np.linalg.norm(A[perm] - lower @ upper) <= 1e-12 * m * np.linalg.norm(A)


def test_lu_backward_stability_large():
    rng = np.random.default_rng(200)
    A = rng.standard_normal((200, 200))
    perm, lower, upper = doolittle_lu(A)
    assert np.linalg.norm(A[perm] - lower @ upper) <= 1e-12 * 200 * np.linalg.norm(A)


def _conditioned_bound(A, r):
    """Forward-error scale of a backward-stable solve: m * eps * cond(A) * |r|."""
    m = A.shape[0]
    return 100.0 * m * EPS * np.linalg.cond(A) * np.linalg.norm(r)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=-8.0, max_value=8.0),
)
def test_lu_solve_and_dense_solve_match_oracle(m, seed, log_scale):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m)) * 10.0**log_scale
    r = rng.standard_normal(m)
    expect = triangular_solve(*doolittle_lu(A), r)
    bound = _conditioned_bound(A, r)
    for z in (lu_solve(lu_factor(A), r), dense_solve(A, r)):
        assert np.linalg.norm(A @ z - r) <= bound
        assert np.linalg.norm(z - expect) <= bound * np.linalg.norm(expect) / np.linalg.norm(r)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=60), st.data())
def test_exactly_singular_matrices_raise(m, data):
    # a zero row or column survives every elimination order exactly
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10_000)))
    A = rng.standard_normal((m, m))
    k = data.draw(st.integers(min_value=0, max_value=m - 1))
    if data.draw(st.booleans()):
        A[k, :] = 0.0
    else:
        A[:, k] = 0.0
    with pytest.raises(SingularMatrixError):
        lu_factor(A)
    with pytest.raises(SingularMatrixError):
        dense_solve(A, np.ones(m))
    with pytest.raises(ZeroPivotError):
        doolittle_lu(A)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=60),
    st.data(),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_nonfinite_matrices_raise_value_error(m, data, bad):
    A = np.eye(m)
    A[data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))] = bad
    for call in (lambda: lu_factor(A), lambda: dense_solve(A, np.ones(m))):
        with pytest.raises(ValueError, match="finite"):
            call()


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["wide", "tall", "vector", "stack"]),
)
def test_nonsquare_matrices_raise_value_error(m, extra, kind):
    shape = {"wide": (m, m + extra), "tall": (m + extra, m), "vector": (m,), "stack": (extra, m, m)}
    A = np.ones(shape[kind])
    for call in (lambda: lu_factor(A), lambda: dense_solve(A, np.ones(m))):
        with pytest.raises(ValueError, match="square"):
            call()


def test_lu_solve_scaled_identity():
    f = lu_factor(2.0 * np.eye(2))
    assert np.allclose(lu_solve(f, np.array([4.0, 6.0])), [2.0, 3.0])


def test_lu_solve_swap_map():
    f = lu_factor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    a, b = 3.25, -1.5
    assert np.allclose(lu_solve(f, np.array([a, b])), [b, a])


def test_lu_solve_residual():
    rng = np.random.default_rng(77)
    A = rng.standard_normal((33, 33))
    r = rng.standard_normal(33)
    z = lu_solve(lu_factor(A), r)
    assert np.linalg.norm(A @ z - r) <= 1e-10 * np.linalg.norm(r)


def test_dense_solve_identity_and_diagonal():
    b = np.array([3.0, -2.0])
    assert np.allclose(dense_solve(np.eye(2), b), b)
    assert np.allclose(dense_solve(np.diag([1.0, 2.0]), np.array([1.0, 2.0])), [1.0, 1.0])


def test_dense_solve_cross_checks_gmres():
    rng = np.random.default_rng(99)
    A = random_spd(rng, 15, 200.0)
    b = rng.standard_normal(15)
    direct = dense_solve(A, b)
    iterative = gmres(matrix_map(A), None, b, k_max=15, tol=1e-13)
    assert np.linalg.norm(direct - iterative.x) <= 1e-8 * np.linalg.norm(direct)


def test_dense_solve_propagates_singularity():
    with pytest.raises(SingularMatrixError):
        dense_solve(np.zeros((2, 2)), np.ones(2))
