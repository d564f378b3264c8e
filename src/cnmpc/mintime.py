"""Minimum-time planar reach problem with a band-constrained heading.

A point moves in the plane with speed A*x + B along a heading u that must
stay inside the band [c_u - r_u, c_u + r_u]; the band inequality is encoded
as the circle equality (u - c_u)^2 + u_d^2 = r_u^2 through the slack control
u_d.  The goal is to pass through (x_f, y_f) in minimum time.  The horizon is
normalized to [0, 1], so the time-to-go p scales the horizon dynamics and the
running cost, and p doubles as the optimization parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .continuation import DecisionVector, OcpDims, OcpSpec

__all__ = [
    "MinTimeConstants",
    "problem_dims",
    "problem_spec",
    "plant_rate",
    "initial_guess",
]


@dataclass(frozen=True)
class MinTimeConstants:
    """Plant and problem constants; defaults give the standard benchmark run."""

    A: float = 1.0
    B: float = 1.0
    c_u: float = 0.8
    r_u: float = 0.2
    w_d: float = 0.005
    x0: float = 0.0
    y0: float = 0.0
    t0: float = 0.0
    x_f: float = 1.0
    y_f: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.r_u <= 0.0:
            raise ValueError("band radius r_u must be positive")
        if self.w_d <= 0.0:
            raise ValueError("slack weight w_d must be positive")

    @property
    def start(self) -> np.ndarray:
        return np.array([self.x0, self.y0])


def problem_dims(n_steps: int) -> OcpDims:
    """Horizon dimensions: planar state, (heading, slack) input, one band
    constraint, two terminal constraints, one parameter (time-to-go)."""
    return OcpDims(n_x=2, n_u=2, n_c=1, n_psi=2, n_p=1, N=n_steps)


def plant_rate(c: MinTimeConstants, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Physical state rate in system time (no time-to-go scaling)."""
    speed = c.A * x[0] + c.B
    return np.array([speed * math.cos(u[0]), speed * math.sin(u[0])])


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def problem_spec(c: MinTimeConstants, n_steps: int) -> OcpSpec:
    """Problem definition with analytic partials on the normalized horizon.

    Integrand terms (running cost and dynamics) carry the time-to-go factor
    from the change of variables; the pointwise constraint and its multiplier
    are kept unscaled, which is the numerically preferable variant.  The
    callbacks follow the batch contract of :class:`OcpSpec`: ``x[0]`` is the
    first state component over the trailing batch axes, and the trigonometry
    is elementwise numpy, evaluated once per residual in ``stage_terms``.
    """
    dims = problem_dims(n_steps)
    # Batch-independent partials, built once; the engine only reads them.
    eye, ones_p = _frozen(np.eye(2)), _frozen(np.ones(1))

    def stage_terms(tau, u, p):
        # cosine and sine of every stage heading, computed once per residual
        # and read by f, H_x, H_u and H_p as s[0] and s[1]
        return np.array([np.cos(u[0]), np.sin(u[0])])

    def f(tau, x, u, p, s):
        # horizon state rate in normalized time; the slack does not enter
        speed = p[0] * (c.A * x[0] + c.B)
        return speed * s

    def C(tau, x, u, p, s):
        # Circle form of the heading band; zero keeps u within the band.  The
        # squares use the C library's pow, as ``**`` does on a float scalar;
        # ``**`` on an array multiplies instead, which rounds differently for
        # about one input in a thousand.
        return np.array([np.float_power(u[0] - c.c_u, 2) + np.float_power(u[1], 2) - c.r_u**2])

    def psi(tau, x, p):
        return np.array([x[0] - c.x_f, x[1] - c.y_f])

    def psi_x(tau, x, p):
        return eye

    def phi(tau, x, p):
        # the terminal cost is the time-to-go itself, for every batch column of
        # p; it has no state gradient and psi no p gradient, so phi_x and psi_p
        # are left out, which the engine reads as zero contributions
        return p[0]

    def phi_p(tau, x, p):
        return ones_p

    def H_u(tau, x, lam, u, mu, p, s):
        speed = c.A * x[0] + c.B
        return np.array(
            [
                p[0] * speed * (-s[1] * lam[0] + s[0] * lam[1])
                + 2.0 * (u[0] - c.c_u) * mu[0],
                2.0 * mu[0] * u[1] - c.w_d * p[0],
            ]
        )

    def H_x(tau, x, lam, u, mu, p, s):
        row = p[0] * c.A * (s[0] * lam[0] + s[1] * lam[1])
        out = np.zeros((2,) + row.shape)
        out[0] = row
        return out

    def H_p(tau, x, lam, u, mu, p, s):
        speed = c.A * x[0] + c.B
        return np.array([speed * (s[0] * lam[0] + s[1] * lam[1]) - c.w_d * u[1]])

    return OcpSpec(
        dims=dims,
        f=f,
        C=C,
        psi=psi,
        psi_x=psi_x,
        phi=phi,
        phi_p=phi_p,
        H_u=H_u,
        H_x=H_x,
        H_p=H_p,
        stage_terms=stage_terms,
    )


def initial_guess(c: MinTimeConstants, n_steps: int) -> DecisionVector:
    """Deterministic warm-up point for the cold-start Newton solve.

    Heading at the band center, slack at half the band radius (interior, so
    the slack stationarity row stays regular), multipliers chosen to cancel
    that row exactly, small terminal multipliers, and the straight-line
    distance as the time-to-go guess.
    """
    dims = problem_dims(n_steps)
    U = DecisionVector.zeros(dims)
    p_guess = math.hypot(c.x_f - c.x0, c.y_f - c.y0)
    u_d = 0.5 * c.r_u
    mu = c.w_d * p_guess / (2.0 * u_d)
    for i in range(n_steps):
        U.u(i)[:] = (c.c_u, u_d)
        U.mu(i)[:] = mu
    U.nu()[:] = (0.1, 0.1)
    U.p()[:] = p_guess
    return U
