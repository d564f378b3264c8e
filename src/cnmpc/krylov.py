"""Krylov solvers on a dense matrix, with a dense LAPACK backend.

GMRES (without restarts) and MINRES take the (m, m) matrix and, as their
preconditioner, None or the inverse that :func:`lu_factor` forms, and touch
both only through matrix-vector products, the preconditioner's by
:func:`lu_solve`.  :func:`dense_solve` is the cold start's direct Newton solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "LinearMap",
    "KrylovResult",
    "SingularMatrixError",
    "IndefinitePreconditionerError",
    "gmres",
    "minres",
    "lu_factor",
    "lu_solve",
    "dense_solve",
]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class LinearMap:
    """A dimension-preserving map ``v -> apply(v)``, the type of
    :func:`~cnmpc.continuation.difference_operator`; the benchmark's tracing
    builds one to wrap that operator's applies, which pins it."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"map dimension must be positive, got {self.dim}")


@dataclass
class KrylovResult:
    """Outcome of one iterative solve from the zero initial guess.

    ``residual_norm`` is the preconditioned residual estimate at exit and
    ``initial_residual_norm`` the preconditioned norm of the right-hand
    side; their ratio is :attr:`relative_residual`.  ``pairs`` is
    ``(S, Y)``, the (m, k) Krylov basis of a GMRES solve of k iterations and
    the products ``Y = A S``; None for MINRES, which keeps no basis, and for
    a zero right-hand side.
    """

    x: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    breakdown: bool
    initial_residual_norm: float
    pairs: Optional[tuple[np.ndarray, np.ndarray]] = None

    @property
    def relative_residual(self) -> float:
        if self.initial_residual_norm == 0.0:
            return 0.0
        return self.residual_norm / self.initial_residual_norm


class IndefinitePreconditionerError(ValueError):
    """MINRES met a negative preconditioned inner product: the preconditioner
    is not positive definite."""


def _start(
    A: np.ndarray,
    precond: Optional[np.ndarray],
    b: np.ndarray,
    k_max: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Checked arguments of a solve and its starting residuals.

    Returns the initial residual r = b of the zero guess and its
    preconditioned form (r itself for None).  A preconditioner of another
    shape than A's is rejected before any product is formed.
    """
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    m = A.shape[0]
    b = np.asarray(b, dtype=float)
    if b.shape != (m,):
        raise ValueError(f"right-hand side must have length {m}")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    if precond is not None and precond.shape != A.shape:
        raise ValueError(f"preconditioner shape {precond.shape} is not the matrix's {A.shape}")
    r = b.copy()
    return r, r if precond is None else lu_solve(precond, r)


def _solved(m: int) -> KrylovResult:
    """Result of a solve whose right-hand side is zero: the zero guess."""
    return KrylovResult(
        x=np.zeros(m),
        residual_norm=0.0,
        iterations=0,
        converged=True,
        breakdown=False,
        initial_residual_norm=0.0,
    )


def _weighted_norm(r: np.ndarray, y: np.ndarray) -> float:
    """sqrt(r'y) for y = M r; a negative r'y means M is not positive definite."""
    sq = float(r @ y)
    if sq < 0.0:
        raise IndefinitePreconditionerError(
            "preconditioner is not positive definite (negative inner product)"
        )
    return math.sqrt(sq)


class _HessenbergLsq:
    """Incremental Givens-rotation least squares for Hessenberg systems.

    Columns arrive one per Arnoldi step; rotating the right-hand side along
    the way keeps the attained residual minimum available at no extra cost.
    """

    def __init__(self, beta: float):
        self.cs: list[float] = []
        self.sn: list[float] = []
        self.cols: list[list[float]] = []
        self.g: list[float] = [float(beta)]
        self.residual = abs(float(beta))

    def push(self, upper: np.ndarray, subdiagonal: float) -> float:
        """Fold in Hessenberg column k, its k+1 entries down to the diagonal
        and the one below it; return the residual estimate.

        The rotations run on Python floats, which round exactly as numpy
        scalars do and cost less per operation.
        """
        k = len(self.cols)
        upper = np.asarray(upper, dtype=float)
        if upper.shape != (k + 1,):
            raise ValueError(f"expected {k + 1} entries above the subdiagonal, got {upper.shape}")
        col = upper.tolist()
        col.append(float(subdiagonal))
        for j in range(k):
            a, b = col[j], col[j + 1]
            col[j] = self.cs[j] * a + self.sn[j] * b
            col[j + 1] = -self.sn[j] * a + self.cs[j] * b
        r = math.hypot(col[k], col[k + 1])
        if r == 0.0:
            c, s = 1.0, 0.0
        else:
            c, s = col[k] / r, col[k + 1] / r
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

    def solve(self) -> tuple[np.ndarray, bool]:
        """Minimizer of the accumulated problem; lstsq fallback when R is singular."""
        k = len(self.cols)
        y = np.zeros(k)
        if k == 0:
            return y, False
        R = np.zeros((k, k))
        for j, col in enumerate(self.cols):
            R[: len(col), j] = col
        g = np.array(self.g[:k])
        scale = float(np.abs(R).max())
        diag = np.abs(R.diagonal())
        if scale == 0.0 or diag.min() <= _EPS * k * scale:
            y, *_ = np.linalg.lstsq(R, g, rcond=None)
            return y, True
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - R[i, i + 1 :] @ y[i + 1 :]) / R[i, i]
        return y, False


def gmres(
    A: np.ndarray,
    precond: Optional[np.ndarray],
    b: np.ndarray,
    k_max: int,
    tol: float,
) -> KrylovResult:
    """Preconditioned GMRES without restarts on the (m, m) matrix ``A``.

    ``precond`` is None or an (m, m) matrix M, applied as ``lu_solve(M, .)``.
    Arnoldi runs on the preconditioned operator with one classical
    Gram-Schmidt pass per step; the Hessenberg least-squares problem is kept
    triangular by incremental Givens rotations, so the preconditioned
    residual estimate is available every iteration.  Iteration stops once
    that estimate drops below ``tol`` times the initial preconditioned
    residual norm, so ``tol=0`` runs a fixed ``k_max`` iterations.  An
    Arnoldi normalization at most ``m * eps`` times the norm of the
    preconditioned product it came from, taken before the Gram-Schmidt
    pass, is flagged as a (lucky) breakdown: what is left of the product is
    rounding, the solution is exact in the current subspace and is returned
    with ``converged=True``.

    Each product ``A.dot(v_j)`` is stored in one contiguous row, and that
    row is what the preconditioner multiplies; the basis and the products
    are returned as ``pairs`` for a secant update of the preconditioner.
    """
    _, z = _start(A, precond, b, k_max, tol)
    m = A.shape[0]
    beta = float(np.linalg.norm(z))
    if beta == 0.0:
        return _solved(m)

    V = np.zeros((m, k_max + 1))
    AV = np.empty((k_max, m))
    V[:, 0] = z / beta
    lsq = _HessenbergLsq(beta)
    breakdown = False
    est = beta
    bd_ratio = m * _EPS
    k = 0
    while k < k_max:
        AV[k] = A.dot(V[:, k])
        w = AV[k] if precond is None else lu_solve(precond, AV[k])
        wnorm = float(np.linalg.norm(w))
        hk = V[:, : k + 1].T @ w  # classical Gram-Schmidt, single pass
        w = w - V[:, : k + 1] @ hk
        hnorm = float(np.linalg.norm(w))
        est = lsq.push(hk, hnorm)
        k += 1
        if hnorm <= bd_ratio * wnorm:
            breakdown = True
            break
        V[:, k] = w / hnorm
        if est <= tol * beta:
            break

    y, _ = lsq.solve()
    x = V[:, :k] @ y
    converged = breakdown or est <= tol * beta
    return KrylovResult(
        x=x,
        residual_norm=est,
        iterations=k,
        converged=converged,
        breakdown=breakdown,
        initial_residual_norm=beta,
        pairs=(V[:, :k], AV[:k].T),
    )


def minres(
    A: np.ndarray,
    precond: Optional[np.ndarray],
    b: np.ndarray,
    k_max: int,
    tol: float,
) -> KrylovResult:
    """Preconditioned MINRES on the (m, m) matrix ``A`` via the three-term
    Lanczos recurrence.

    Requires a (nearly) symmetric matrix and a ``precond`` that is None or,
    applied as in :func:`gmres`, a symmetric positive definite matrix; a
    negative Lanczos inner product is reported as an
    :class:`IndefinitePreconditionerError` since it indicates a violated
    caller contract.  Storage is a fixed handful of working vectors
    regardless of ``k_max``.  The residual estimate tracked is the
    preconditioner-weighted norm of ``b - A x``; convergence and the early
    stop use the same relative criterion as :func:`gmres`.
    """
    r1, y = _start(A, precond, b, k_max, tol)
    m = A.shape[0]
    beta1 = _weighted_norm(r1, y)
    if beta1 == 0.0:
        return _solved(m)

    x = np.zeros(m)
    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    w = np.zeros(m)
    w2 = np.zeros(m)
    r2 = r1
    itn = 0
    breakdown = False
    while itn < k_max:
        itn += 1
        v = y / beta
        y = A.dot(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = r2 if precond is None else lu_solve(precond, r2)
        oldb = beta
        beta = _weighted_norm(r2, y)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(math.hypot(gbar, beta), _EPS)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
        if beta <= _EPS * beta1:
            breakdown = True
            break
        if phibar <= tol * beta1:
            break

    converged = breakdown or phibar <= tol * beta1
    return KrylovResult(
        x=x,
        residual_norm=phibar,
        iterations=itn,
        converged=converged,
        breakdown=breakdown,
        initial_residual_norm=beta1,
    )


class SingularMatrixError(ValueError):
    """Raised when LAPACK's pivoted LU meets an exactly zero pivot."""


def _square_finite(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


def lu_factor(A: np.ndarray) -> np.ndarray:
    """Inverse of A from LAPACK's LU with partial pivoting (``np.linalg.inv``).

    Forming the inverse costs one LAPACK call per rebuild and makes every
    apply (:func:`lu_solve`) a single BLAS matvec.
    """
    A = _square_finite(A)
    try:
        return np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is singular: LU met an exactly zero pivot") from exc


def lu_solve(inverse: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Apply an inverse from :func:`lu_factor` to r: the solvers' one
    preconditioner apply per iteration."""
    r = np.asarray(r, dtype=float)
    m = inverse.shape[0]
    if r.shape != (m,):
        raise ValueError(f"right-hand side must have length {m}")
    return np.dot(inverse, r)


def dense_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct solve by LAPACK's pivoted LU (``np.linalg.solve``), no inverse.

    Singular matrices raise :class:`SingularMatrixError`.
    """
    A = _square_finite(A)
    b = np.asarray(b, dtype=float)
    m = A.shape[0]
    if b.shape != (m,):
        raise ValueError(f"right-hand side must have length {m}")
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is singular: LU met an exactly zero pivot") from exc
