"""Shared test fixtures-in-code: toy problems and independent oracles."""

import dataclasses
import math

import numpy as np

from cnmpc import continuation, krylov
from cnmpc.continuation import (
    ColdStartError,
    DecisionVector,
    InitialSolveResult,
    OcpDims,
    OcpSpec,
    TrajectoryDivergedError,
    difference_operator,
    optimality_residual,
)
from cnmpc.krylov import KrylovResult, SingularMatrixError, dense_solve
from cnmpc.mintime import problem_spec
from cnmpc.simcli import SimConfig

# The simulator's cold-start settings, as keywords of ``initial_solve``.
COLD_START = {
    "tol_init": SimConfig.cold_start_tol,
    "max_newton": SimConfig.cold_start_max_newton,
    "fd_step": SimConfig.h,
}


def loop_block(spec, U, x, h=SimConfig.h):
    """The block a loop step hands on: ``assemble_jacobian``'s at (U, x), or
    None where that block diverges."""
    try:
        return continuation.assemble_jacobian(spec, U, x, h)
    except TrajectoryDivergedError:
        return None


def forward_states(spec, x0, U):
    """States of one decision vector, shape (N+1, n_x): the kernel's
    forward recursion on its own."""
    u, _, _, p = continuation._blocks(spec.dims, U.data)
    with np.errstate(over="ignore", invalid="ignore"):
        return continuation._forward(spec, x0, u, p, all_stage_terms(spec, u, p))


def backward_costates(spec, states, U):
    """Costates of one decision vector along ``states``, shape (N+1, n_x):
    the kernel's backward recursion on its own."""
    u, mu, nu, p = continuation._blocks(spec.dims, U.data)
    with np.errstate(over="ignore", invalid="ignore"):
        s = all_stage_terms(spec, u, p)
        return continuation._backward(spec, np.asarray(states, dtype=float), u, mu, nu, p, s)


def _stage_call(callback, shape, *args):
    """The callback value converted and shape-checked on every call."""
    out = np.asarray(callback(*args), dtype=float)
    if out.shape != shape:
        if out.shape != shape[: out.ndim]:
            raise ValueError(f"callback returned shape {out.shape}, expected {shape}")
        out = out.reshape(out.shape + (1,) * (len(shape) - out.ndim))
    return out


def all_stage_terms(spec, u, p):
    """Independent oracle: ``spec.stage_terms`` at the all-stage arguments,
    converted to float, or an empty (0, N, *batch) array without it."""
    if spec.stage_terms is None:
        return np.empty((0,) + u.shape[1:])
    N = spec.dims.N
    taus = (1.0 / N) * np.arange(N).reshape((N,) + (1,) * (u.ndim - 2))
    return np.asarray(spec.stage_terms(taus, u, p[:, None]), dtype=float)


def per_stage_forward(spec, x0, u, p, s):
    """Independent oracle: the explicit Euler states, shape (N+1, n_x, *batch),
    with the callback value converted and the states checked after every
    stage, raising at the first non-finite one."""
    d = spec.dims
    dtau = spec.dtau
    shape = (d.n_x,) + p.shape[1:]
    xs = np.empty((d.N + 1,) + shape)
    xs[0] = np.asarray(x0, dtype=float).reshape((d.n_x,) + (1,) * (len(shape) - 1))
    x = xs[0]
    for i in range(d.N):
        x = x + dtau * _stage_call(spec.f, shape, i * dtau, x, u[:, i], p, s[:, i])
        if np.count_nonzero(np.isfinite(x)) != x.size:
            raise TrajectoryDivergedError("state", i + 1)
        xs[i + 1] = x
    return xs


def per_stage_backward(spec, xs, u, mu, nu, p, s):
    """Independent oracle: the costates from the terminal condition, shape
    (N+1, n_x, *batch), checked after every stage from N-1 down to 0."""
    d = spec.dims
    dtau = spec.dtau
    shape = xs.shape[1:]
    lam = np.empty(xs.shape)
    lam_i = np.zeros(shape)
    if spec.phi_x is not None:
        lam_i = lam_i + _stage_call(spec.phi_x, shape, 1.0, xs[d.N], p)
    if d.n_psi > 0:
        psi_x = _stage_call(spec.psi_x, (d.n_psi,) + shape, 1.0, xs[d.N], p)
        lam_i = lam_i + continuation._transpose_times(psi_x, nu)
    lam[d.N] = lam_i
    for i in range(d.N - 1, -1, -1):
        if spec.H_x is not None:
            lam_i = lam_i + dtau * _stage_call(
                spec.H_x, shape, i * dtau, xs[i], lam_i, u[:, i], mu[:, i], p, s[:, i]
            )
        if np.count_nonzero(np.isfinite(lam_i)) != lam_i.size:
            raise TrajectoryDivergedError("costate", i)
        lam[i] = lam_i
    return lam


def recursion_failure(spec, Z, x0):
    """``(kind, step)`` of the :class:`TrajectoryDivergedError` that the
    per-stage oracle recursions raise for a decision vector (m,) or block
    (m, K), or None when both stay finite."""
    u, mu, nu, p = continuation._blocks(spec.dims, np.asarray(Z, dtype=float))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            s = all_stage_terms(spec, u, p)
            xs = per_stage_forward(spec, x0, u, p, s)
            per_stage_backward(spec, xs, u, mu, nu, p, s)
    except TrajectoryDivergedError as exc:
        return exc.kind, exc.step
    return None


def quadratic_spec(n_steps=3, a=0.5, b=1.0, q=1.0, r=1.0, s=2.0):
    """Scalar LQ problem: linear dynamics, quadratic costs, no constraints.

    The stationarity residual is affine in the decision vector, so Newton
    converges in one step and the difference operator is exactly linear.
    """
    dims = OcpDims(n_x=1, n_u=1, n_c=0, n_psi=0, n_p=0, N=n_steps)

    def f(tau, x, u, p, s):
        return np.array([a * x[0] + b * u[0]])

    def H_u(tau, x, lam, u, mu, p, s):
        return np.array([r * u[0] + b * lam[0]])

    def H_x(tau, x, lam, u, mu, p, s):
        return np.array([q * x[0] + a * lam[0]])

    def phi_x(tau, x, p):
        return np.array([s * x[0]])

    return OcpSpec(dims=dims, f=f, H_u=H_u, H_x=H_x, phi_x=phi_x)


def linear_spec(M):
    """Problem whose stationarity residual is exactly ``M @ U``: one scalar
    control per stage, a state that never moves and no costate coupling.

    The control gradient is ``N * (M @ u)``, which the kernel scales by the
    stage length 1/N.  The callbacks close over N and M, against the
    :class:`OcpSpec` rule that they not depend on N, so the spec is never
    cold-started: from N = 20 on, the cold start re-discretizes it.
    """
    N = M.shape[0]
    dims = OcpDims(n_x=1, n_u=1, n_c=0, n_psi=0, n_p=0, N=N)

    def f(tau, x, u, p, s):
        return np.zeros_like(x)

    def H_u(tau, x, lam, u, mu, p, s):
        return (N * np.tensordot(M, u[0], axes=1))[None]

    return OcpSpec(dims=dims, f=f, H_u=H_u)


def fragile_spec(blow_up, n_steps=3, u_base=0.3):
    """The scalar LQ problem of :func:`quadratic_spec`, finite while every
    control equals ``u_base`` and broken by any perturbation of a control.

    With ``blow_up="state"`` the dynamics overflow, so the state recursion
    diverges; with ``blow_up="residual"`` the control gradient turns NaN,
    which no recursion check sees.
    """
    spec = quadratic_spec(n_steps)
    f, H_u = spec.f, spec.H_u
    if blow_up == "state":

        def f_fragile(tau, x, u, p, s):
            # zero at u_base; overflows for any other control
            return f(tau, x, u, p, s) + (u[0] - u_base) * 1e300 * 1e300

        spec.f = f_fragile
    else:

        def H_u_fragile(tau, x, lam, u, mu, p, s):
            return H_u(tau, x, lam, u, mu, p, s) + np.where(u[0] == u_base, 0.0, np.nan)

        spec.H_u = H_u_fragile
    return spec


def threshold_spec(blow_up, limit, n_steps=3):
    """The scalar LQ problem of :func:`quadratic_spec`, finite while every
    control stays within ``[-limit, limit]`` and broken beyond it.

    ``blow_up`` acts as in :func:`fragile_spec`: ``"state"`` makes the
    dynamics infinite, so the state recursion diverges, and ``"residual"``
    turns the control gradient NaN, which no recursion check sees.
    """
    spec = quadratic_spec(n_steps)
    f, H_u = spec.f, spec.H_u
    if blow_up == "state":

        def f_threshold(tau, x, u, p, s):
            return f(tau, x, u, p, s) + np.where(np.abs(u[0]) > limit, np.inf, 0.0)

        spec.f = f_threshold
    else:

        def H_u_threshold(tau, x, lam, u, mu, p, s):
            return H_u(tau, x, lam, u, mu, p, s) + np.where(np.abs(u[0]) > limit, np.nan, 0.0)

        spec.H_u = H_u_threshold
    return spec


def sequential_initial_solve(spec, x0, t0, U_guess, tol_init, max_newton, fd_step):
    """Independent oracle: the cold start's horizon ladder, each rung a damped
    Newton solve with its backtracking written as a loop.  It takes the
    arguments of ``initial_solve``, and like it does not read ``t0``.

    The rungs are N halved (rounding down) while the half has at least 10
    stages, then back up to N; a horizon below 20 stages is its only rung.
    Each rung starts from the one below, resampled stage by stage through
    the :class:`DecisionVector` accessors, or from ``U_guess`` when it is the
    coarsest or the rung below stalled.  The coarse rungs spend at most half
    of ``max_newton`` between them, and the full horizon what is left.
    """
    horizons = [spec.dims.N]
    while horizons[-1] >= 20:
        horizons.append(horizons[-1] // 2)
    horizons.reverse()
    U = U_guess
    iterations = 0
    for N in horizons:
        dims = dataclasses.replace(spec.dims, N=N)
        if N != U.dims.N:
            U = stagewise_resample(U, dims)
        cap = max_newton if N == spec.dims.N else max_newton // 2
        res = sequential_newton(
            dataclasses.replace(spec, dims=dims), x0, U, tol_init, cap - iterations, fd_step
        )
        U = res.U if res.residual_norm <= tol_init else U_guess
        iterations += res.newton_iterations
    return InitialSolveResult(U=res.U, residual_norm=res.residual_norm, newton_iterations=iterations)


def stagewise_resample(U, dims):
    """Independent oracle: U on the horizon of ``dims``, one stage at a time:
    stage i copies u and mu of stage i * N_U // N, and nu and p carry over."""
    out = DecisionVector.zeros(dims)
    for i in range(dims.N):
        j = i * U.dims.N // dims.N
        out.u(i)[:] = U.u(j)
        out.mu(i)[:] = U.mu(j)
    out.nu()[:] = U.nu()
    out.p()[:] = U.p()
    return out


def sequential_newton(spec, x0, U_guess, tol_init, max_newton, fd_step):
    """One rung of :func:`sequential_initial_solve`, one residual evaluation
    per trial step.

    Each iteration tries the full Newton step and then up to 20 halvings of
    it, and takes the first that lowers the residual norm (a diverging trial
    counts as infinite); it stops when none does.
    """
    U = U_guess.copy()
    F = optimality_residual(spec, U, x0)
    norm = float(np.linalg.norm(F))
    m = spec.dims.decision_size
    iterations = 0
    for _ in range(max_newton):
        if norm <= tol_init:
            break
        op = difference_operator(spec, U, x0, fd_step, F)
        A = np.column_stack([op.apply(e) for e in np.eye(m)])
        try:
            delta = dense_solve(A, -F)
        except SingularMatrixError:
            shift = 1e-10 * float(np.linalg.norm(A))
            try:
                delta = dense_solve(A + shift * np.eye(m), -F)
            except SingularMatrixError as exc:
                raise ColdStartError("singular Jacobian", U, norm) from exc
        alpha = 1.0
        improved = False
        for _ in range(21):
            U_try = DecisionVector(U.dims, U.data + alpha * delta)
            try:
                F_try = optimality_residual(spec, U_try, x0)
                norm_try = float(np.linalg.norm(F_try))
            except TrajectoryDivergedError:
                norm_try = float("inf")
            if norm_try < norm:
                U, F, norm = U_try, F_try, norm_try
                improved = True
                break
            alpha /= 2.0
        iterations += 1
        if not improved:
            break
    return InitialSolveResult(U=U, residual_norm=norm, newton_iterations=iterations)


def own_trig_spec(c, n_steps):
    """Independent oracle: the minimum-time problem of ``problem_spec`` with
    no ``stage_terms``, whose ``f``, ``H_x``, ``H_u`` and ``H_p`` each take
    the cosine and sine of the heading themselves and ignore ``s``."""

    def f(tau, x, u, p, s):
        speed = p[0] * (c.A * x[0] + c.B)
        return np.array([speed * np.cos(u[0]), speed * np.sin(u[0])])

    def H_u(tau, x, lam, u, mu, p, s):
        speed = c.A * x[0] + c.B
        return np.array(
            [
                p[0] * speed * (-np.sin(u[0]) * lam[0] + np.cos(u[0]) * lam[1])
                + 2.0 * (u[0] - c.c_u) * mu[0],
                2.0 * mu[0] * u[1] - c.w_d * p[0],
            ]
        )

    def H_x(tau, x, lam, u, mu, p, s):
        row = p[0] * c.A * (np.cos(u[0]) * lam[0] + np.sin(u[0]) * lam[1])
        out = np.zeros((2,) + row.shape)
        out[0] = row
        return out

    def H_p(tau, x, lam, u, mu, p, s):
        speed = c.A * x[0] + c.B
        return np.array(
            [speed * (np.cos(u[0]) * lam[0] + np.sin(u[0]) * lam[1]) - c.w_d * u[1]]
        )

    return dataclasses.replace(
        problem_spec(c, n_steps), f=f, H_u=H_u, H_x=H_x, H_p=H_p, stage_terms=None
    )


def random_decision(dims, seed):
    """Bounded random point in the benchmark's decision space."""
    rng = np.random.default_rng(seed)
    U = DecisionVector.zeros(dims)
    for i in range(dims.N):
        U.u(i)[:] = np.column_stack([rng.uniform(0.3, 1.3), rng.uniform(-0.4, 0.4)])[0]
        U.mu(i)[:] = rng.uniform(-1.0, 1.0, dims.n_c)
    U.nu()[:] = rng.uniform(-1.0, 1.0, dims.n_psi)
    U.p()[:] = rng.uniform(0.5, 2.0, dims.n_p)
    return U


def lagrangian_scalar(c, n, z, x0):
    """Independent oracle: discrete Lagrangian with states eliminated by the
    forward recursion.  Its exact gradient is the stacked residual."""
    dtau = 1.0 / n
    us = z[: 2 * n].reshape(n, 2)
    mus = z[2 * n : 3 * n]
    nu = z[3 * n : 3 * n + 2]
    p = z[3 * n + 2]
    x, y = x0
    total = 0.0
    for i in range(n):
        u, ud = us[i]
        total += dtau * (-p * c.w_d * ud)
        total += dtau * mus[i] * ((u - c.c_u) ** 2 + ud**2 - c.r_u**2)
        speed = c.A * x + c.B
        x, y = x + dtau * p * speed * math.cos(u), y + dtau * p * speed * math.sin(u)
    total += p
    total += nu[0] * (x - c.x_f) + nu[1] * (y - c.y_f)
    return total


def central_residual_oracle(c, n, U, x0, step=1e-4):
    """Central finite differences of the scalar Lagrangian, coordinate-wise."""
    z = U.data
    out = np.empty(z.size)
    for j in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[j] += step
        zm[j] -= step
        out[j] = (lagrangian_scalar(c, n, zp, x0) - lagrangian_scalar(c, n, zm, x0)) / (2 * step)
    return out


def residual_rows(c, U, states, costates):
    """Independent oracle: the stacked optimality rows of the minimum-time
    problem written out directly, one scalar at a time.

    Heading and slack stationarity, the band constraint, the terminal
    mismatch, and the time-to-go stationarity row.  Agrees entrywise with
    the engine residual on ``problem_spec`` up to rounding.
    """
    d = U.dims
    N = d.N
    dtau = 1.0 / N
    p = U.p()[0]
    out = np.empty(d.decision_size)
    for i in range(N):
        u, ud = U.u(i)
        mu = U.mu(i)[0]
        l1, l2 = costates[i + 1]
        speed = c.A * states[i][0] + c.B
        out[2 * i] = dtau * (
            p * speed * (-math.sin(u) * l1 + math.cos(u) * l2) + 2.0 * (u - c.c_u) * mu
        )
        out[2 * i + 1] = dtau * (2.0 * mu * ud - c.w_d * p)
        out[2 * N + i] = dtau * ((u - c.c_u) ** 2 + ud**2 - c.r_u**2)
    out[3 * N] = states[N][0] - c.x_f
    out[3 * N + 1] = states[N][1] - c.y_f
    acc = 0.0
    for i in range(N):
        u, ud = U.u(i)
        l1, l2 = costates[i + 1]
        speed = c.A * states[i][0] + c.B
        acc += speed * (math.cos(u) * l1 + math.sin(u) * l2) - c.w_d * ud
    out[3 * N + 2] = dtau * acc + 1.0
    return out


class ZeroPivotError(ValueError):
    """The oracle elimination met an exactly zero pivot column."""

    def __init__(self, column):
        super().__init__(f"matrix is singular: no nonzero pivot in column {column}")
        self.column = column


def doolittle_lu(A):
    """Independent oracle: Doolittle elimination with partial (maximal column
    entry) pivoting, one Python step per column.

    Returns ``(perm, lower, upper)`` with ``A[perm] == lower @ upper`` up to
    rounding, ``lower`` unit lower triangular; raises :class:`ZeroPivotError`
    naming the first column without a nonzero pivot.
    """
    A = np.array(A, dtype=float)
    m = A.shape[0]
    perm = np.arange(m)
    for k in range(m):
        piv = k + int(np.abs(A[k:, k]).argmax())
        if A[piv, k] == 0.0:
            raise ZeroPivotError(k)
        if piv != k:
            A[[k, piv]] = A[[piv, k]]
            perm[[k, piv]] = perm[[piv, k]]
        A[k + 1 :, k] /= A[k, k]
        A[k + 1 :, k + 1 :] -= A[k + 1 :, k, None] * A[k, k + 1 :]
    return perm, np.tril(A, -1) + np.eye(m), np.triu(A)


def triangular_solve(perm, lower, upper, r):
    """Independent oracle: solve with :func:`doolittle_lu` factors by a
    forward and a backward sweep, one Python step per row."""
    y = np.array(r, dtype=float)[perm]
    m = y.size
    for i in range(1, m):
        y[i] -= lower[i, :i] @ y[:i]
    for i in range(m - 1, -1, -1):
        y[i] = (y[i] - upper[i, i + 1 :] @ y[i + 1 :]) / upper[i, i]
    return y


class NumpyScalarHessenbergLsq:
    """Independent oracle: incremental Givens least squares with the
    rotations on numpy scalars, one whole Hessenberg column per push."""

    def __init__(self, beta):
        self.cs, self.sn, self.cols = [], [], []
        self.g = [float(beta)]
        self.residual = abs(float(beta))

    def push(self, column):
        k = len(self.cols)
        col = np.array(column, dtype=float)
        for j in range(k):
            a, b = col[j], col[j + 1]
            col[j] = self.cs[j] * a + self.sn[j] * b
            col[j + 1] = -self.sn[j] * a + self.cs[j] * b
        r = math.hypot(col[k], col[k + 1])
        c, s = (1.0, 0.0) if r == 0.0 else (col[k] / r, col[k + 1] / r)
        col[k] = r
        col[k + 1] = 0.0
        self.cs.append(c)
        self.sn.append(s)
        gk = self.g[k]
        self.g[k] = c * gk
        self.g.append(-s * gk)
        self.cols.append(col[: k + 1])
        self.residual = abs(self.g[-1])
        return self.residual

    def solve(self):
        k = len(self.cols)
        y = np.zeros(k)
        if k == 0:
            return y, False
        R = np.zeros((k, k))
        for j, col in enumerate(self.cols):
            R[: len(col), j] = col
        g = np.array(self.g[:k])
        scale = float(np.abs(R).max())
        if scale == 0.0 or np.abs(R.diagonal()).min() <= np.finfo(float).eps * k * scale:
            y, *_ = np.linalg.lstsq(R, g, rcond=None)
            return y, True
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - R[i, i + 1 :] @ y[i + 1 :]) / R[i, i]
        return y, False


def hessenberg_lsq(H, beta):
    """``min_y ||H y - beta*e1||`` for upper-Hessenberg H of shape (k+1, k),
    solved by pushing H's columns through :class:`cnmpc.krylov._HessenbergLsq`
    as GMRES does: (y, residual, rank_deficient)."""
    H = np.asarray(H, dtype=float)
    lsq = krylov._HessenbergLsq(beta)
    for j in range(H.shape[1]):
        lsq.push(H[: j + 1, j], H[j + 1, j])
    y, deficient = lsq.solve()
    return y, lsq.residual, deficient


def numpy_scalar_hessenberg_lsq(H, beta):
    """Oracle for :func:`hessenberg_lsq`: (y, residual, rank_deficient)."""
    H = np.asarray(H, dtype=float)
    lsq = NumpyScalarHessenbergLsq(beta)
    for j in range(H.shape[1]):
        lsq.push(H[: j + 2, j])
    y, deficient = lsq.solve()
    return y, lsq.residual, deficient


def numpy_scalar_gmres(op, precond, b, k_max, tol):
    """Independent oracle: the GMRES loop with its Hessenberg column built by
    ``np.append``, every operator and preconditioner value converted with
    ``np.asarray``, and the rotations of :class:`NumpyScalarHessenbergLsq`."""
    T, _, z = krylov._start(op, precond, b, k_max, tol)
    beta = float(np.linalg.norm(z))
    if beta == 0.0:
        return krylov._solved(op.dim)
    V = np.zeros((op.dim, k_max + 1))
    V[:, 0] = z / beta
    lsq = NumpyScalarHessenbergLsq(beta)
    breakdown = False
    est = beta
    k = 0
    while k < k_max:
        w = np.asarray(T(np.asarray(op.apply(V[:, k]), dtype=float)), dtype=float)
        wnorm = float(np.linalg.norm(w))
        hk = V[:, : k + 1].T @ w
        w = w - V[:, : k + 1] @ hk
        hnorm = float(np.linalg.norm(w))
        est = lsq.push(np.append(hk, hnorm))
        k += 1
        if hnorm <= op.dim * np.finfo(float).eps * wnorm:
            breakdown = True
            break
        V[:, k] = w / hnorm
        if est <= tol * beta:
            break
    y, _ = lsq.solve()
    return KrylovResult(
        x=V[:, :k] @ y,
        residual_norm=est,
        iterations=k,
        converged=breakdown or est <= tol * beta,
        breakdown=breakdown,
        initial_residual_norm=beta,
    )
