"""Time-translation-invariant relaxation: the scalar memory equation.

The correlation c(tau) of a stationary state obeys a causal convolution
equation driven by the kernel gamma + 2 beta^2 nu'(c).  The derivative is the
primary unknown (the equation is naturally first order in c'); c is
reconstructed by quadrature.  Stationary data pick their own gamma, and
their two-time solution is that curve, assembled by diagonal transport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TwoTimeSolution, grid_steps
from .errors import BlowUpError, ConfigError, check_real
from .init_params import InitCondition, check_stationary, gamma_star
from .mixture import Mixture, phi_gamma
from .phase import c_inf as plateau_level

__all__ = ["FdtSolution", "solve_fdt", "stationary_two_time"]


@dataclass(frozen=True)
class FdtSolution:
    """Relaxation curve c on a uniform tau grid with its defining parameters.

    The response is r(tau) = -2 c'(tau); r(0+) = 1 since c'(0) = -1/2.
    """

    h_tau: float
    c: np.ndarray
    cprime: np.ndarray
    gamma: float
    c_inf: float
    beta: float
    plateaued: bool

    @property
    def tau(self) -> np.ndarray:
        return np.arange(len(self.c)) * self.h_tau

    @property
    def r(self) -> np.ndarray:
        return -2.0 * self.cprime


def solve_fdt(m: Mixture, beta: float, gamma: float, T_tau: float,
              h_tau: float) -> FdtSolution:
    """March c'(tau) = -int_0^tau phi_gamma(c(v)) c'(tau - v) dv - 1/2, c(0)=1.

    Trapezoidal quadrature with the new-point kernel value solved implicitly
    (it enters linearly), then one corrector pass refreshing the kernel at the
    freshly integrated c.  Raises if gamma admits no plateau or the kernel
    is not finite, and stops at the first step whose c is not finite.

    A window shorter than the relaxation is not an error, and the solve does
    not warn of it.  The record says how the window ended: c_inf is the
    plateau level (phase.c_inf), plateaued is True when c moved by less than
    1e-8 over the last unit of tau, and |c[-1] - c_inf| is the distance left.
    """
    beta, gamma = check_real("beta", beta), check_real("gamma", gamma)
    n = grid_steps(T_tau, h_tau, ("T_tau", "h_tau"))
    # |nu'(c)| <= nu'(1) on [-1, 1]; beta * beta overflows to inf, not an error
    if not math.isfinite(gamma + 2.0 * beta * beta * m.nu(1.0, 1)):
        raise ConfigError(f"beta = {beta} and gamma = {gamma} make the kernel "
                          "gamma + 2 beta^2 nu'(1) non-finite")
    ci = plateau_level(m, beta, gamma)
    h = h_tau
    c = np.empty(n + 1)
    d = np.empty(n + 1)
    kern = np.empty(n + 1)
    c[0] = 1.0
    d[0] = -0.5
    kern[0] = phi_gamma(m, beta, gamma, 1.0)
    denom = 1.0 + 0.5 * h * kern[0]
    for k in range(1, n + 1):
        inner = float(np.dot(kern[1:k], d[k - 1:0:-1])) if k > 1 else 0.0
        c[k] = c[k - 1]  # placeholder for the kernel guess below
        kern[k] = phi_gamma(m, beta, gamma, c[k])
        for _ in range(2):
            conv = h * inner + 0.5 * h * kern[k] * d[0]
            d[k] = -(conv + 0.5) / denom
            c[k] = c[k - 1] + 0.5 * h * (d[k - 1] + d[k])
            kern[k] = phi_gamma(m, beta, gamma, c[k])
        if not math.isfinite(c[k]):
            raise BlowUpError(f"c is not finite at step {k} (tau = {k * h:g})")
    lag = max(1, round(1.0 / h))
    plateaued = n > lag and abs(c[-1] - c[-1 - lag]) < 1e-8
    return FdtSolution(h, c, d, gamma, ci, beta, plateaued)


def stationary_two_time(m: Mixture, ic: InitCondition, beta: float, T: float,
                        h: float) -> TwoTimeSolution:
    """The two-time solution of stationary data: their own relaxation curve, lifted.

    Refuses data that fail the stationarity test before it solves anything.
    The data fix gamma = gamma_star(m, beta, q_star, alpha), and c is
    solve_fdt's curve at that gamma on [0, T] with step h.  Then C(s, t) =
    c(s - t), R = -2 c'(s - t), q and H constant, unit diagonal,
    mu = phi_gamma(1), and L(s) = -2 b_alpha (c(s) - 1).
    """
    rep = check_stationary(ic, m, beta)
    if not rep.admissible:
        raise ConfigError(
            f"initial data are not stationary (residual {rep.residual:.3e})")
    fdt = solve_fdt(m, beta, gamma_star(m, beta, ic.q_star, ic.alpha), T, h)
    n = len(fdt.c) - 1
    # diagonal transport, one row at a time: row i holds c and r at lags
    # i, ..., 1, 0 and then (C only) 1, ..., n - i
    c, r = fdt.c, -2.0 * fdt.cprime
    C, R = np.empty((n + 1, n + 1)), np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        C[i, : i + 1] = c[i::-1]
        C[i, i + 1:] = c[1: n + 1 - i]
        R[i, :i] = r[i:0:-1]
        R[i, i] = 1.0
    # L = -2 b_alpha (c - 1), and b_alpha = nu'(q_o) / nu'(q_star^2) is 0 / 0 at RS
    L = (np.zeros(n + 1) if ic.is_rs
         else -2.0 * m.nu(ic.q_o, 1) / m.nu(ic.q_star**2, 1) * (fdt.c - 1.0))
    return TwoTimeSolution(
        h=fdt.h_tau, C=C, R=R, q=np.full(n + 1, ic.q_o),
        mu=np.full(n + 1, phi_gamma(m, beta, fdt.gamma, 1.0)), L=L,
        H=np.full(n + 1, ic.E), beta=fdt.beta, ic=ic,
    )
