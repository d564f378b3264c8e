"""Scheduled LU preconditioning for the per-step Krylov solves.

The dense difference Jacobian is assembled, together with the step's
residual, in one block residual at configured time instances and inverted
once by LAPACK's pivoted LU; every sampling point until the next rebuild
applies that inverse with one matvec.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .continuation import (
    DecisionVector,
    OcpSpec,
    TrajectoryDivergedError,
    assemble_jacobian,
)
from .krylov import SingularMatrixError, lu_factor, lu_solve

__all__ = [
    "PrecondState",
    "StalePreconditionerWarning",
    "should_rebuild",
    "rebuild",
    "apply",
]


class StalePreconditionerWarning(RuntimeWarning):
    """A rebuild failed; previous factors stay in use."""


@dataclass
class PrecondState:
    """Current inverse from :func:`~cnmpc.krylov.lu_factor` plus bookkeeping;
    replaced wholesale at rebuilds.

    ``residual`` is F at the point of the rebuild that returned this state
    (None before the first rebuild and after a diverging assembly block);
    the rebuild step uses it as its base residual.
    """

    inverse: Optional[np.ndarray] = None
    built_at: Optional[float] = None
    stale: bool = False
    residual: Optional[np.ndarray] = None


def should_rebuild(state: PrecondState, t: float, t_p: float, dt: float) -> bool:
    """True when the rebuild period ``t_p`` calls for a fresh inverse at time t.

    Half the sampling period ``dt`` absorbs the floating-point drift of the
    sampling grid against the rebuild period.
    """
    if state.built_at is None:
        return True
    return t >= state.built_at + t_p - dt / 2.0


def rebuild(
    spec: OcpSpec,
    U: DecisionVector,
    x: np.ndarray,
    t: float,
    fd_step: float,
    prev: Optional[PrecondState] = None,
) -> PrecondState:
    """Assemble and invert the difference Jacobian at the current point.

    One :func:`~cnmpc.continuation.assemble_jacobian` block yields both the
    residual at the current point, returned as ``residual``, and the
    Jacobian.

    An assembly whose block diverges, a Jacobian with non-finite entries or
    a singular factorization keeps the previous factors (a stale
    preconditioner beats a sudden conditioning cliff), emits a warning, and
    marks the state stale; the control loop is never halted from here.
    When the block diverges, the warning names its recursion and horizon
    step, and ``residual`` is None: the block does not tell whether the
    current point itself diverged, so the step evaluates F there.  Any other
    error in the assembly is a bug and propagates.
    """
    prev = prev if prev is not None else PrecondState()
    try:
        R = assemble_jacobian(spec, U, x, t, fd_step)
    except TrajectoryDivergedError as exc:
        return _stale(prev, t, None, f"a failed Jacobian assembly ({exc})")
    residual, A = R[:, 0].copy(), R[:, 1:]
    if not np.isfinite(A).all():
        return _stale(prev, t, residual, "a Jacobian with non-finite entries")
    try:
        inverse = lu_factor(A)
    except SingularMatrixError as exc:
        return _stale(prev, t, residual, f"a singular Jacobian ({exc})")
    return PrecondState(inverse=inverse, built_at=t, residual=residual)


def _stale(
    prev: PrecondState, t: float, residual: Optional[np.ndarray], cause: str
) -> PrecondState:
    warnings.warn(
        f"preconditioner rebuild at t={t:g} hit {cause}; keeping previous factors",
        StalePreconditionerWarning,
        stacklevel=3,
    )
    return PrecondState(inverse=prev.inverse, built_at=prev.built_at, stale=True, residual=residual)


def apply(state: PrecondState, r: np.ndarray) -> np.ndarray:
    """Matvec with the stored inverse, which must be built: with no inverse
    the step runs without a preconditioner."""
    return lu_solve(state.inverse, r)
