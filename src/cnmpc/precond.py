"""Scheduled LU preconditioning for the per-step Krylov solves.

Every loop step assembles the dense difference Jacobian, together with the
step's residual, in one block residual.  At configured time instances a
rebuild inverts that step's Jacobian once by LAPACK's pivoted LU.  Every
sampling point applies the current inverse with one matvec, and between
rebuilds :func:`update` keeps that inverse current with a block good-Broyden
update from the secant pairs of the step's GMRES solve, which costs no
residual evaluation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .krylov import SingularMatrixError, lu_factor, lu_solve

__all__ = [
    "PrecondState",
    "StalePreconditionerWarning",
    "should_rebuild",
    "rebuild",
    "apply",
    "update",
]

# An update is skipped when |S'| |MY| |(S'MY)^-1|, in 1-norms, is at least
# this large.  The computed S'MY carries rounding of order eps |S'| |MY|, so
# the product bounds how far its inverse amplifies that rounding into M.  It
# is at least the condition number of S'MY, and for a single pair it is
# |s|_inf |My|_1 / |s'My|, which grows as s and My turn orthogonal.
_MAX_AMPLIFICATION = 1e10


class StalePreconditionerWarning(RuntimeWarning):
    """A rebuild failed; previous factors stay in use."""


@dataclass
class PrecondState:
    """Current inverse plus bookkeeping.

    ``inverse`` is the :func:`~cnmpc.krylov.lu_factor` inverse of the last
    successful rebuild, as :func:`update` has carried it forward since.
    Neither function changes an inverse in place: each returns a new state
    with a new array, so a state's inverse never changes after it is made.
    ``built_at`` is the time of the last successful rebuild and ``stale``
    marks factors kept over a failed one.
    """

    inverse: Optional[np.ndarray] = None
    built_at: Optional[float] = None
    stale: bool = False


def should_rebuild(state: PrecondState, t: float, t_p: float, dt: float) -> bool:
    """True when the rebuild period ``t_p`` calls for a fresh inverse at time t.

    Half the sampling period ``dt`` absorbs the floating-point drift of the
    sampling grid against the rebuild period.
    """
    if state.built_at is None:
        return True
    return t >= state.built_at + t_p - dt / 2.0


def rebuild(R: Optional[np.ndarray], t: float, prev: PrecondState) -> PrecondState:
    """Invert the difference Jacobian of the step's assembly block.

    ``R`` is the step's :func:`~cnmpc.continuation.assemble_jacobian` block,
    whose columns 1..m are the Jacobian, or None where that block diverged.
    ``t`` is the time of the rebuild, recorded as ``built_at``, and ``prev``
    the state whose factors a failed rebuild keeps.

    A None block, a Jacobian with non-finite entries or a singular
    factorization keeps the previous factors (a stale preconditioner beats a
    sudden conditioning cliff), emits a warning, and marks the state stale;
    the control loop is never halted from here.
    """
    if R is None:
        return _stale(prev, t, "a failed Jacobian assembly")
    A = R[:, 1:]
    if not np.isfinite(A).all():
        return _stale(prev, t, "a Jacobian with non-finite entries")
    try:
        inverse = lu_factor(A)
    except SingularMatrixError as exc:
        return _stale(prev, t, f"a singular Jacobian ({exc})")
    return PrecondState(inverse=inverse, built_at=t)


def _stale(prev: PrecondState, t: float, cause: str) -> PrecondState:
    warnings.warn(
        f"preconditioner rebuild at t={t:g} hit {cause}; keeping previous factors",
        StalePreconditionerWarning,
        stacklevel=3,
    )
    return PrecondState(inverse=prev.inverse, built_at=prev.built_at, stale=True)


def apply(state: PrecondState, r: np.ndarray) -> np.ndarray:
    """Matvec with the stored inverse, which must be built.  No program path
    calls it (the solvers apply ``state.inverse`` by ``lu_solve``); it stays
    because the benchmark's tracing looks this name up, which pins it."""
    return lu_solve(state.inverse, r)


def update(state: PrecondState, S: np.ndarray, Y: np.ndarray) -> PrecondState:
    """The state after the block good-Broyden update of its inverse M from
    the secant pairs ``(S, Y)``, k columns each (Schnabel, "Quasi-Newton
    methods using multiple secant equations", 1983)::

        M + (S - M Y) (S' M Y)^-1 S' M

    The updated inverse maps every column of Y to the same column of S and
    agrees with M on the vectors orthogonal to the columns of M'S.  The
    result holds a new array and the bookkeeping of ``state``.  The update
    is skipped, and ``state`` itself returned, when the k-by-k Gram matrix
    ``S' M Y`` is singular or when
    ``|S'| |M Y| |(S' M Y)^-1|`` in 1-norms is at least 1e10 or not finite.
    That product is at least the condition number of ``S' M Y``; for a
    single pair it is ``|s|_inf |M y|_1 / |s' M y|``, so it also skips a
    pair whose s and My are nearly orthogonal.  Costs three (m, m) by
    (m, k) products and one k-by-k inverse.
    """
    # np.dot, not @: for these shapes numpy's matmul is slower, twice as
    # slow for the (m, 1) by (1, m) outer product of a single pair
    M = state.inverse
    MY = np.dot(M, Y)
    StM = np.dot(S.T, M)
    try:
        gram_inv = np.linalg.inv(np.dot(StM, Y))
    except np.linalg.LinAlgError:
        return state
    # a 1-norm is the largest column sum of magnitudes (of S' here, so the
    # row sums of S); the norms are multiplied as Python floats, which
    # overflow to inf without a warning
    amplification = (
        float(np.abs(S).sum(axis=1).max())
        * float(np.abs(MY).sum(axis=0).max())
        * float(np.abs(gram_inv).sum(axis=0).max())
    )
    if not amplification < _MAX_AMPLIFICATION:
        return state
    inverse = np.dot(S - MY, np.dot(gram_inv, StM))
    inverse += M
    return PrecondState(inverse=inverse, built_at=state.built_at, stale=state.stale)
