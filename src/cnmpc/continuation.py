"""Continuation NMPC engine.

Evaluates the stacked optimality residual of the discretized horizon problem
via forward state / backward costate recursions, assembles its
forward-difference Jacobian in one block evaluation, and advances the stacked
unknown by one Krylov solve on that Jacobian per system sampling period.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .krylov import (
    KrylovResult,
    LinearMap,
    SingularMatrixError,
    dense_solve,
    gmres,
    minres,
)

__all__ = [
    "OcpDims",
    "OcpSpec",
    "DecisionVector",
    "InitialSolveResult",
    "TrajectoryDivergedError",
    "ColdStartError",
    "optimality_residual",
    "block_residual",
    "difference_operator",
    "assemble_jacobian",
    "continuation_step",
    "initial_solve",
]


class TrajectoryDivergedError(RuntimeError):
    """A recursion produced a non-finite state or costate."""

    def __init__(self, kind: str, step: int):
        super().__init__(f"{kind} recursion diverged at horizon step {step}")
        self.kind = kind
        self.step = step


class ColdStartError(RuntimeError):
    """The initial stationarity solve could not make progress; the message
    says why and at which residual norm."""


@dataclass(frozen=True)
class OcpDims:
    """Dimensions of the discretized horizon problem.

    The stacked decision vector has size N*(n_u + n_c) + n_psi + n_p.
    """

    n_x: int
    n_u: int
    n_c: int
    n_psi: int
    n_p: int
    N: int

    def __post_init__(self) -> None:
        if min(self.n_x, self.n_u, self.N) < 1:
            raise ValueError("n_x, n_u and N must be at least 1")
        if min(self.n_c, self.n_psi, self.n_p) < 0:
            raise ValueError("dimensions must be nonnegative")

    @property
    def decision_size(self) -> int:
        return self.N * (self.n_u + self.n_c) + self.n_psi + self.n_p


@dataclass
class OcpSpec:
    """Problem definition consumed by the engine.

    Callbacks are pure functions of their arguments, always called with
    positional arguments.  The horizon is normalized to [0, 1], with N
    stages of length 1/N.  ``f`` is the horizon dynamics (already rescaled
    to the normalized horizon), ``C`` the pointwise equality
    constraint, ``psi`` the terminal constraint, ``phi`` the terminal cost
    (part of the problem definition; the engine reads only its gradients),
    and ``H_*`` the partial derivatives of the Hamiltonian L + lam'f + mu'C.
    Optional callbacks default to zero contributions.

    The callbacks describe the continuous problem and must not depend on N:
    :func:`initial_solve` re-discretizes the spec on coarser horizons (the
    same spec with ``dims.N`` replaced) for any N of 20 or more.

    Batch contract.  The engine evaluates one decision vector or a block of
    K of them at once, with the batch on the trailing axes: below, ``batch``
    is () for one vector and (K,) for a block, and ``x[0]`` is the first
    state component of every column either way.

    - ``stage_terms(tau, u, p)`` runs once per evaluation, before the
      recursions, with the all-stage arguments that ``H_u`` gets, and
      returns a float array (n_s, N, *batch) of terms shared by the stage
      callbacks (``n_s`` is the problem's choice; the engine checks only the
      trailing axes).  Its value ``s`` is the last positional argument of
      every callback that takes the stage controls; left as None, ``s`` is
      an empty (0, N, *batch) array;
    - ``f(tau, x, u, p, s)`` and ``H_x(tau, x, lam, u, mu, p, s)`` run once
      per stage with a float ``tau``, arguments of shape (n, *batch) and
      their own stage's slice ``s[:, i]``;
    - ``H_u(tau, x, lam, u, mu, p, s)``, ``C(tau, x, u, p, s)`` and
      ``H_p(tau, x, lam, u, mu, p, s)`` run once for all stages with stage
      arguments of shape (n, N, *batch), the whole ``s``, and the stage
      times ``tau`` and the parameter ``p`` with length-one axes that
      broadcast against them ((N,) or (N, 1), and (n_p, 1, *batch));
    - the terminal callbacks get the final state and ``p`` with shapes
      (n_x, *batch) and (n_p, *batch).

    A callback returns its component axes followed by the batch axes of its
    arguments: (n_x, *batch) for ``f``, (n_u, N, *batch) for ``H_u``,
    (n_psi, n_x, *batch) for ``psi_x``.  A value that does not depend on the
    batch may leave the trailing axes out (``psi_x`` may return
    ``np.eye(n_x)``).  Write the callbacks with elementwise numpy
    (``np.cos``, not ``math.cos``), so that one expression serves every
    shape.

    A float64 ndarray of exactly the expected shape is used as it is
    returned; any other value (a list, an int array, a shorter shape) is
    converted and checked.  The stage times of the all-stage calls are a
    shared read-only array.  Each recursion is checked for finiteness once,
    after its last stage, and a :class:`TrajectoryDivergedError` still names
    the first non-finite stage in recursion order; ``f`` and ``H_x`` therefore
    also run on the stages after it, with non-finite arguments.
    """

    dims: OcpDims
    f: Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    H_u: Callable[..., np.ndarray]
    H_x: Optional[Callable[..., np.ndarray]] = None
    H_p: Optional[Callable[..., np.ndarray]] = None
    C: Optional[Callable[..., np.ndarray]] = None
    psi: Optional[Callable[..., np.ndarray]] = None
    psi_x: Optional[Callable[..., np.ndarray]] = None
    psi_p: Optional[Callable[..., np.ndarray]] = None
    phi: Optional[Callable[..., float]] = None
    phi_x: Optional[Callable[..., np.ndarray]] = None
    phi_p: Optional[Callable[..., np.ndarray]] = None
    stage_terms: Optional[Callable[..., np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.dims.n_c > 0 and self.C is None:
            raise ValueError("n_c > 0 requires a constraint callback")
        if self.dims.n_psi > 0 and (self.psi is None or self.psi_x is None):
            raise ValueError("n_psi > 0 requires psi and psi_x callbacks")

    @property
    def dtau(self) -> float:
        return 1.0 / self.dims.N


@dataclass
class DecisionVector:
    """Stacked unknown [u_0..u_{N-1}, mu_0..mu_{N-1}, nu, p] with block accessors."""

    dims: OcpDims
    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (self.dims.decision_size,):
            raise ValueError(
                f"expected data of length {self.dims.decision_size}, got {self.data.shape}"
            )

    @classmethod
    def zeros(cls, dims: OcpDims) -> "DecisionVector":
        return cls(dims, np.zeros(dims.decision_size))

    def _check_stage(self, i: int) -> None:
        if not 0 <= i < self.dims.N:
            raise IndexError(f"stage index {i} outside [0, {self.dims.N})")

    def u(self, i: int) -> np.ndarray:
        self._check_stage(i)
        n = self.dims.n_u
        return self.data[i * n : (i + 1) * n]

    def mu(self, i: int) -> np.ndarray:
        self._check_stage(i)
        n = self.dims.n_c
        base = _offsets(self.dims)[0] + i * n
        return self.data[base : base + n]

    def nu(self) -> np.ndarray:
        _, b, c = _offsets(self.dims)
        return self.data[b:c]

    def p(self) -> np.ndarray:
        return self.data[_offsets(self.dims)[2] :]

    def copy(self) -> "DecisionVector":
        return DecisionVector(self.dims, self.data.copy())


def _offsets(d: OcpDims) -> tuple[int, int, int]:
    """Ends of the u, mu and nu blocks in the layout [u, mu, nu, p]."""
    a = d.N * d.n_u
    b = a + d.N * d.n_c
    return a, b, b + d.n_psi


def _stages(rows: np.ndarray, n: int, N: int) -> np.ndarray:
    """(n, N, *batch) view of the N stacked n-row stage blocks in ``rows``."""
    return rows.reshape((N, n) + rows.shape[1:]).swapaxes(0, 1)


def _blocks(d: OcpDims, Z: np.ndarray):
    """u and mu as (n, N, *batch) stage views of a decision block; nu and p
    as (n, *batch)."""
    a, b, c = _offsets(d)
    return _stages(Z[:a], d.n_u, d.N), _stages(Z[a:b], d.n_c, d.N), Z[b:c], Z[c:]


_FLOAT = np.dtype(float)


def _call(callback: Callable[..., np.ndarray], shape: tuple, *args) -> np.ndarray:
    """Callback value as a float array that broadcasts to ``shape``.

    A float64 ndarray of exactly ``shape`` is returned as it is.  Any other
    value is converted; one that does not depend on the batch may leave out
    the trailing axes, which come back as length-one axes.  Any other shape
    is an error.
    """
    out = callback(*args)
    if type(out) is np.ndarray and out.dtype is _FLOAT and out.shape == shape:
        return out
    return _converted(out, shape)


def _converted(out, shape: tuple) -> np.ndarray:
    """The converting path of :func:`_call`."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        if out.shape != shape[: out.ndim]:
            raise ValueError(f"callback returned shape {out.shape}, expected {shape}")
        out = out.reshape(out.shape + (1,) * (len(shape) - out.ndim))
    return out


def _transpose_times(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Column-wise ``M[..., k].T @ v[:, k]``, summed over the rows of M in order."""
    out = M[0] * v[0]
    for j in range(1, v.shape[0]):
        out = out + M[j] * v[j]
    return out


# Overflow and invalid-value warnings are off only in the evaluations whose
# non-finite results the code checks explicitly: the stage terms and the
# recursions (one check per recursion), the residual norms (an infinite norm
# is a failed step) and the cold start's diagonal shift (checked before use).
_IGNORE_NONFINITE = {"over": "ignore", "invalid": "ignore"}
_checks_nonfinite = np.errstate(**_IGNORE_NONFINITE)


def _bad_stages(stacked: np.ndarray):
    """Indices along the leading (stage) axis of the stages holding a
    non-finite entry, in increasing order; empty when all are finite."""
    finite = np.isfinite(stacked)
    if finite.all():
        return ()
    return np.flatnonzero(~finite.reshape(len(stacked), -1).all(axis=1))


@_checks_nonfinite
def _norm(F: np.ndarray) -> float:
    """Euclidean norm of F.  When the plain norm overflows although every
    entry is finite, F is scaled by its largest magnitude s first and the
    norm is s * ||F / s||; every other norm is the plain one, bit for bit."""
    norm = float(np.linalg.norm(F))
    if norm == math.inf and np.isfinite(F).all():
        s = float(np.abs(F).max())
        norm = s * float(np.linalg.norm(F / s))
    return norm


@functools.lru_cache(maxsize=32)
def _stage_times(N: int, rank: int) -> np.ndarray:
    """Read-only stage times i * dtau, i = 0..N-1, shaped (N,) + (1,) * rank."""
    taus = (1.0 / N) * np.arange(N).reshape((N,) + (1,) * rank)
    taus.flags.writeable = False
    return taus


def _stage_terms(spec: OcpSpec, taus: np.ndarray, u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The shared stage terms (n_s, N, *batch) of ``spec.stage_terms`` at the
    all-stage arguments; (0, N, *batch) when the spec has none."""
    shape = u.shape[1:]
    if spec.stage_terms is None:
        return np.empty((0,) + shape)
    s = spec.stage_terms(taus, u, p)
    if not (type(s) is np.ndarray and s.dtype is _FLOAT):
        s = np.asarray(s, dtype=float)
    if s.shape[1:] != shape:
        raise ValueError(f"stage_terms returned shape {s.shape}, expected (n_s,) + {shape}")
    return s


def _forward(
    spec: OcpSpec, x0: np.ndarray, u: np.ndarray, p: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Explicit Euler states of every column, shape (N+1, n_x, *batch).

    Raises :class:`TrajectoryDivergedError` for the first stage, in
    recursion order, with a non-finite state; ``f`` runs on every stage
    first, since one finiteness check covers the whole recursion.  Each
    stage is written in place as ``x + dtau * f``, with the roundings of
    that expression.
    """
    d = spec.dims
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (d.n_x,):
        raise ValueError(f"state must have length {d.n_x}")
    f, dtau = spec.f, spec.dtau
    batch = p.shape[1:]
    shape = (d.n_x,) + batch
    xs = np.empty((d.N + 1,) + shape)
    xs[0] = x0.reshape((d.n_x,) + (1,) * len(batch))
    u_st, s_st = u.swapaxes(0, 1), s.swapaxes(0, 1)
    for i in range(d.N):
        out = f(i * dtau, xs[i], u_st[i], p, s_st[i])
        if not (type(out) is np.ndarray and out.dtype is _FLOAT and out.shape == shape):
            out = _converted(out, shape)
        nxt = xs[i + 1]
        np.multiply(dtau, out, out=nxt)
        np.add(xs[i], nxt, out=nxt)
    bad = _bad_stages(xs[1:])
    if len(bad):
        raise TrajectoryDivergedError("state", int(bad[0]) + 1)
    return xs


def _backward(
    spec: OcpSpec,
    xs: np.ndarray,
    u: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    p: np.ndarray,
    s: np.ndarray,
) -> np.ndarray:
    """Costates of every column from the terminal condition, shape (N+1, n_x, *batch).

    Raises :class:`TrajectoryDivergedError` for the first stage, in
    recursion order (the largest index), with a non-finite costate; a
    non-finite terminal costate names stage N-1.  Each stage is written in
    place as ``lam + dtau * H_x``, with the roundings of that expression.
    """
    d = spec.dims
    H_x, dtau = spec.H_x, spec.dtau
    tau_N = 1.0
    shape = xs.shape[1:]
    lam = np.empty(xs.shape)
    lam_N = np.zeros(shape)
    if spec.phi_x is not None:
        lam_N = lam_N + _call(spec.phi_x, shape, tau_N, xs[d.N], p)
    if d.n_psi > 0:
        psi_x = _call(spec.psi_x, (d.n_psi,) + shape, tau_N, xs[d.N], p)
        lam_N = lam_N + _transpose_times(psi_x, nu)
    lam[d.N] = lam_N
    if H_x is None:
        lam[: d.N] = lam_N
    else:
        u_st, mu_st, s_st = u.swapaxes(0, 1), mu.swapaxes(0, 1), s.swapaxes(0, 1)
        for i in range(d.N - 1, -1, -1):
            out = H_x(i * dtau, xs[i], lam[i + 1], u_st[i], mu_st[i], p, s_st[i])
            if not (type(out) is np.ndarray and out.dtype is _FLOAT and out.shape == shape):
                out = _converted(out, shape)
            nxt = lam[i]
            np.multiply(dtau, out, out=nxt)
            np.add(lam[i + 1], nxt, out=nxt)
    bad = _bad_stages(lam[: d.N])
    if len(bad):
        raise TrajectoryDivergedError("costate", int(bad[-1]))
    return lam


def block_residual(spec: OcpSpec, Z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked stationarity residuals of a block of decision vectors.

    Z has shape (m,) for one decision vector or (m, K) for K of them in its
    columns, and the result has the shape of Z.  Row order: Hamiltonian
    control gradients (times dtau) for each stage, constraint residuals
    (times dtau) for each stage, the terminal constraint, then the parameter
    gradient.  The layout mirrors :class:`DecisionVector`, which makes the
    derivative square and, up to the difference step, symmetric.

    The recursions run once per stage over all columns, and
    ``stage_terms``, ``H_u``, ``C`` and ``H_p`` are evaluated once over all
    stages.  Every operation acts
    column by column, so a column's residual does not depend on the others.
    """
    d = spec.dims
    Z = np.asarray(Z, dtype=float)
    if Z.ndim not in (1, 2) or Z.shape[0] != d.decision_size:
        raise ValueError(f"expected a block of {d.decision_size} rows, got shape {Z.shape}")
    N, batch = d.N, Z.shape[1:]
    dtau = spec.dtau
    u, mu, nu, p = _blocks(d, Z)
    taus = _stage_times(N, len(batch))
    stage_p = p[:, None]
    with np.errstate(**_IGNORE_NONFINITE):
        s = _stage_terms(spec, taus, u, stage_p)
        xs = _forward(spec, x, u, p, s)
        lam = _backward(spec, xs, u, mu, nu, p, s)
    states = xs[:N].swapaxes(0, 1)
    costates = lam[1:].swapaxes(0, 1)
    out = np.empty(Z.shape)
    pos = N * d.n_u
    _stages(out[:pos], d.n_u, N)[...] = dtau * _call(
        spec.H_u, (d.n_u, N) + batch, taus, states, costates, u, mu, stage_p, s
    )
    if d.n_c:
        _stages(out[pos : pos + N * d.n_c], d.n_c, N)[...] = dtau * _call(
            spec.C, (d.n_c, N) + batch, taus, states, u, stage_p, s
        )
        pos += N * d.n_c
    tau_N = 1.0
    x_N = xs[N]
    if d.n_psi:
        out[pos : pos + d.n_psi] = _call(spec.psi, (d.n_psi,) + batch, tau_N, x_N, p)
        pos += d.n_psi
    if d.n_p:
        acc = np.zeros((d.n_p,) + batch)
        if spec.phi_p is not None:
            acc = acc + _call(spec.phi_p, (d.n_p,) + batch, tau_N, x_N, p)
        if d.n_psi and spec.psi_p is not None:
            psi_p = _call(spec.psi_p, (d.n_psi, d.n_p) + batch, tau_N, x_N, p)
            acc = acc + _transpose_times(psi_p, nu)
        if spec.H_p is not None:
            # Sum stage by stage after the terminal terms, as the recursion
            # order dictates: accumulate is sequential, np.sum is pairwise.
            seq = np.empty((d.n_p, N + 1) + batch)
            seq[:, 0] = acc
            seq[:, 1:] = dtau * _call(
                spec.H_p, (d.n_p, N) + batch, taus, states, costates, u, mu, stage_p, s
            )
            acc = np.add.accumulate(seq, axis=1)[:, N]
        out[pos:] = acc
    return out


def optimality_residual(
    spec: OcpSpec, U: DecisionVector, x: np.ndarray, t: float = 0.0
) -> np.ndarray:
    """Stacked stationarity residual of the discrete horizon problem at U:
    :func:`block_residual` of the single vector.  ``t`` is not read: the
    horizon is normalized, and the benchmark passes it positionally."""
    return block_residual(spec, U.data, x)


def difference_operator(
    spec: OcpSpec, U: DecisionVector, x: np.ndarray, step: float, base: np.ndarray
) -> LinearMap:
    """Forward-difference directional derivative of the residual at U.

    ``apply(v)`` returns (F[U + step*v] - base) / step for a direction of
    shape (m,), where ``base`` is F at (U, x); an apply costs one residual
    evaluation.  No program path calls it: it is the test reference that
    :func:`assemble_jacobian`'s columns equal bitwise, kept because the
    benchmark's tracing wraps it.
    """
    if step <= 0.0:
        raise ValueError("difference step must be positive")
    data = U.data.copy()
    x = np.asarray(x, dtype=float).copy()
    base = np.asarray(base, dtype=float).copy()

    def apply(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return (block_residual(spec, data + step * v, x) - base) / step

    return LinearMap(U.dims.decision_size, apply)


def assemble_jacobian(spec: OcpSpec, U: DecisionVector, x: np.ndarray, step: float) -> np.ndarray:
    """F(U) and the forward-difference Jacobian at U from one block residual.

    Scores the block ``[U | U + step*I]`` with one :func:`block_residual`
    and returns the (m, m + 1) array whose column 0 is F(U) and whose column
    j + 1 is (F(U + step*e_j) - F(U)) / step.  Column 0 equals
    :func:`optimality_residual` at U and column j + 1 equals the apply of
    e_j by :func:`difference_operator`, both bitwise.  A trajectory that
    diverges in any column raises :class:`TrajectoryDivergedError`, naming
    the recursion and the horizon step; the block does not tell whether U
    itself or a difference column diverged.
    """
    if step <= 0.0:
        raise ValueError("difference step must be positive")
    m = U.dims.decision_size
    Z = np.empty((m, m + 1))
    Z[:, 0] = U.data
    Z[:, 1:] = U.data[:, None] + step * np.eye(m)
    R = block_residual(spec, Z, x)
    R[:, 1:] = (R[:, 1:] - R[:, :1]) / step
    return R


def continuation_step(
    spec: OcpSpec,
    U: DecisionVector,
    x: np.ndarray,
    R: Optional[np.ndarray],
    *,
    fd_step: float,
    k_max: int,
    tol: float,
    solver: str,
    precond: Optional[np.ndarray] = None,
) -> tuple[DecisionVector, float, Optional[KrylovResult]]:
    """Advance the tracked solution U by one sampling period.

    ``R`` is :func:`assemble_jacobian`'s block at (U, x) with the difference
    step h = ``fd_step``: F in column 0 and the difference Jacobian A in
    columns 1..m.  Solves A W = -F/h from W = 0 by ``solver`` ("gmres" or
    "minres"), preconditioned by the matrix ``precond`` (None for none),
    with at most ``k_max`` iterations to the relative tolerance ``tol``, and
    returns ``(U + h*W, norm of F, result)``, where ``result`` is the
    solve's own :class:`~cnmpc.krylov.KrylovResult`.  Its ``pairs`` are
    the secant pairs ``(S, Y)`` with ``A S = Y`` (None for MINRES and a
    zero residual).  An unknown solver raises ValueError before any
    evaluation.

    ``R`` None stands for a block whose trajectory diverged.  The step then
    scores F alone, since the block does not tell whether U itself or a
    difference column diverged: a point whose own trajectory diverges
    raises :class:`TrajectoryDivergedError`; otherwise the step returns the
    zero update and a None result, keeping the control loop alive.  Any
    other error, such as a preconditioner of the wrong shape (a ValueError
    before any product) or one that MINRES rejects as indefinite, is a bug
    and propagates.
    """
    if solver not in ("gmres", "minres"):
        raise ValueError(f"unknown solver {solver!r}")
    if R is None:
        norm_F = _norm(optimality_residual(spec, U, x))
        return DecisionVector(U.dims, U.data + 0), norm_F, None
    solve = gmres if solver == "gmres" else minres
    # a contiguous copy: a matvec on the strided slice is 2-3 times slower
    F, A = R[:, 0], R[:, 1:].copy()
    result = solve(A, precond, -F / fd_step, k_max=k_max, tol=tol)
    return DecisionVector(U.dims, U.data + fd_step * result.x), _norm(F), result


class InitialSolveResult(NamedTuple):
    U: DecisionVector
    residual_norm: float
    newton_iterations: int


# Step lengths the cold start scores for each Newton step, in order: the
# full step, then its halvings 1/2, 1/4, ..., 2**-20 (exact powers of two).
_STEP_LENGTHS = np.ldexp(1.0, -np.arange(21))


@_checks_nonfinite
def _shifted(A: np.ndarray) -> np.ndarray:
    """A plus 1e-10 times its norm on the diagonal."""
    return A + 1e-10 * float(np.linalg.norm(A)) * np.eye(A.shape[0])


def _scored(spec: OcpSpec, U: DecisionVector, x0: np.ndarray):
    """(F(U), its norm); (None, inf) where the trajectory of U diverges."""
    try:
        F = optimality_residual(spec, U, x0)
    except TrajectoryDivergedError:
        return None, float("inf")
    return F, _norm(F)


def _stuck(cause: str, norm: float) -> ColdStartError:
    return ColdStartError(f"{cause} in cold start (residual norm {norm:.3e})")


def _backtrack(spec: OcpSpec, U: DecisionVector, delta: np.ndarray, x0: np.ndarray, norm: float):
    """First of the steps U + delta * 2**-k, k = 0..20, whose residual norm is
    below ``norm``, as (U_try, F, norm_try); None when none is.

    One block residual scores all twenty-one trials, the full step first.
    If a trial's trajectory diverges the block raises, and the trials are
    scored one at a time in order, a diverging one counting as infinite.
    Block columns equal single evaluations bitwise, so either way the
    accepted trial is the one a sequential loop accepts.
    """
    block = U.data[:, None] + delta[:, None] * _STEP_LENGTHS
    rows = block.T.copy()  # one contiguous trial per row
    try:
        R = block_residual(spec, block, x0).T.copy()
        scores = ((F, _norm(F)) for F in R)
    except TrajectoryDivergedError:
        scores = (_scored(spec, DecisionVector(U.dims, z), x0) for z in rows)
    for z, (F, norm_try) in zip(rows, scores):
        if norm_try < norm:
            return DecisionVector(U.dims, z), F, norm_try
    return None


def _resampled(U: DecisionVector, dims: OcpDims) -> DecisionVector:
    """U on the horizon of ``dims``, a horizon of the same problem: stage i
    copies u and mu of stage ``i * N_U // N`` of U, and nu and p carry over."""
    src = U.dims
    out = DecisionVector.zeros(dims)
    u, mu, nu, p = _blocks(src, U.data)
    out_u, out_mu, out_nu, out_p = _blocks(dims, out.data)
    stages = np.arange(dims.N) * src.N // dims.N
    out_u[...] = u[:, stages]
    out_mu[...] = mu[:, stages]
    out_nu[...] = nu
    out_p[...] = p
    return out


# The coarsest rung of the cold start's horizon ladder: a horizon is halved
# while the half has at least this many stages, so N < 20 is solved directly.
_DIRECT_HORIZON = 10


def initial_solve(
    spec: OcpSpec,
    x0: np.ndarray,
    t0: float,
    U_guess: DecisionVector,
    tol_init: float,
    max_newton: int,
    fd_step: float,
) -> InitialSolveResult:
    """Cold start: damped Newton solves of the stationarity system, on a
    ladder of horizons up to the spec's N.

    A horizon N below 20 stages is solved directly from ``U_guess``.  For a
    longer one the same spec is first solved on the coarser horizon N // 2,
    halved again while the half has at least 10 stages, and the solve climbs
    back up one rung at a time: the coarsest rung (10 to 19 stages) starts
    from ``U_guess`` and every finer one from the solution of the rung below,
    both resampled (fine stage i takes u and mu of coarse stage
    i * N_coarse // N_fine; nu and p carry over).  On N = 40 the rungs are
    10, 20 and 40, on N = 30 they are 15 and 30.  Every rung runs to
    ``tol_init``; a rung that ends above it hands nothing up, and the next
    rung starts from ``U_guess`` again.  ``max_newton`` caps the Newton
    iterations of all rungs together, and the coarse rungs share at most
    half of it, so the full horizon keeps at least ``max_newton // 2`` even
    after a stalled rung (a rung that finds its budget spent only scores its
    starting point); ``newton_iterations`` is the sum over the rungs.
    The result is the iterate of the full horizon and its residual norm,
    also when it is above ``tol_init``.  A guess on other dims than the
    spec's raises ValueError.  The start time ``t0`` is not read: the
    horizon is normalized, and the benchmark passes it positionally.

    Each Newton iteration assembles the dense difference Jacobian with
    :func:`assemble_jacobian` (its residual column repeats the residual the
    previous iteration scored) and scores the direct Newton step and its
    halvings 1 to 20 times in one block residual: the first of them, in that
    order, that lowers the residual norm wins, and when none does the rung
    stops.

    A guess whose trajectory diverges, a Jacobian assembly whose block
    diverges, a Jacobian with non-finite entries and a Jacobian that stays
    singular (or turns non-finite) after a small diagonal shift raise
    :class:`ColdStartError`, whose message names the cause and the residual
    norm of the best iterate (infinite for a diverging guess); for a
    diverging guess or assembly it also names the recursion and the horizon
    step, and a failure on a coarse rung names the rung's horizon.  The
    assembly is one block residual, so a diverging one costs one block.  Any
    other error in it is a bug and propagates.
    """
    if U_guess.dims != spec.dims:
        raise ValueError(f"expected a guess on {spec.dims}, got one on {U_guess.dims}")
    rungs = [spec.dims.N]
    while rungs[-1] // 2 >= _DIRECT_HORIZON:
        rungs.append(rungs[-1] // 2)
    start = U_guess
    iterations = 0
    for N in reversed(rungs):
        rung = spec if N == spec.dims.N else replace(spec, dims=replace(spec.dims, N=N))
        U = start if N == start.dims.N else _resampled(start, rung.dims)
        # the coarse rungs share half the budget; the full horizon keeps the rest
        budget = max_newton if N == spec.dims.N else max_newton // 2
        try:
            res = _newton(rung, x0, U, tol_init, budget - iterations, fd_step)
        except ColdStartError as exc:
            if N == spec.dims.N:
                raise
            raise ColdStartError(
                f"{exc} on the rung N = {N} of the horizon ladder to N = {spec.dims.N}"
            ) from exc
        iterations += res.newton_iterations
        # a rung that stalls hands nothing up: the next one starts from the guess
        start = res.U if res.residual_norm <= tol_init else U_guess
    return res._replace(newton_iterations=iterations)


def _newton(
    spec: OcpSpec,
    x0: np.ndarray,
    U_guess: DecisionVector,
    tol_init: float,
    max_newton: int,
    fd_step: float,
) -> InitialSolveResult:
    """The damped Newton solve of one rung of :func:`initial_solve`."""
    U = U_guess.copy()
    try:
        F = optimality_residual(spec, U, x0)
    except TrajectoryDivergedError as exc:
        raise _stuck(f"non-finite trajectory of the guess ({exc})", math.inf) from exc
    norm = _norm(F)
    iterations = 0
    for _ in range(max_newton):
        if norm <= tol_init:
            break
        try:
            A = assemble_jacobian(spec, U, x0, fd_step)[:, 1:]
        except TrajectoryDivergedError as exc:
            raise _stuck(f"failed Jacobian assembly ({exc})", norm) from exc
        if not np.isfinite(A).all():
            raise _stuck("non-finite Jacobian", norm)
        try:
            delta = dense_solve(A, -F)
        except SingularMatrixError:
            shifted = _shifted(A)
            if not np.isfinite(shifted).all():
                raise _stuck("singular Jacobian with a non-finite shift", norm)
            try:
                delta = dense_solve(shifted, -F)
            except SingularMatrixError as exc:
                raise _stuck("singular Jacobian", norm) from exc
        iterations += 1
        found = _backtrack(spec, U, delta, x0, norm)
        if found is None:
            break
        U, F, norm = found
    return InitialSolveResult(U=U, residual_norm=norm, newton_iterations=iterations)
