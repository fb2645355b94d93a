"""Causal solver for the two-time correlation/response limit equations.

State lives on a uniform grid s_i = i h.  C and R are stored as dense
lower-triangular arrays (row = later time); q, K, mu, L, H are one-time
arrays.  Each slice advance is a Heun-type predictor--corrector with
trapezoidal memory quadrature; the Lagrange-multiplier closure mu at the new
slice is evaluated on predicted values and refreshed every corrector pass.
All memory integrals for one slice reduce to matrix-vector products against
the stored triangles, so a full solve is O(n^3) work and O(n^2) memory.

Variants: hard spherical constraint (K = 1), soft radial confinement with
stiffness ell (K solved semi-implicitly), and gradient flow (noise-free
scaling: unit coupling with mu equal to the diagonal kernel).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BlowUpError, ConfigError, PsdViolationWarning
from .init_params import InitCondition, VFunction, solve_w
from .mixture import Mixture

__all__ = [
    "SolverConfig",
    "TwoTimeSolution",
    "KernelValues",
    "ResidualReport",
    "EllRecord",
    "solve_dynamics",
    "rhs_kernels",
    "residual",
    "ell_limit_check",
    "integrated_response",
]

VARIANT_SPHERICAL = "spherical"
VARIANT_F = "f"
VARIANT_GRADFLOW = "gradflow"

_BLOWUP = 1e6
_TOL_PSD = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Grid and closure choice for one two-time solve.

    For the soft-confinement variant, ``ell`` is the stiffness and
    ``f0_slope`` the constant slope of the smooth radial part; when left
    unset the slope is chosen so the radius has zero initial drift.
    """

    beta: float
    T: float
    h: float
    variant: str = VARIANT_SPHERICAL
    ell: float | None = None
    f0_slope: float | None = None
    corrector_iters: int = 2

    def __post_init__(self):
        for name in ("beta", "T", "h"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.h <= 0.0 or self.T <= 0.0:
            raise ConfigError("T and h must be positive")
        if abs(self.T / self.h - round(self.T / self.h)) > 1e-9:
            raise ConfigError("T must be an integer multiple of h")
        if self.variant not in (VARIANT_SPHERICAL, VARIANT_F, VARIANT_GRADFLOW):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.variant == VARIANT_F and not (self.ell is not None
                                               and 0.0 < self.ell < math.inf):
            raise ConfigError("variant 'f' needs a positive finite ell")
        if self.corrector_iters < 0:
            raise ConfigError("corrector_iters must be >= 0")

    @property
    def n(self) -> int:
        return round(self.T / self.h)


@dataclass
class TwoTimeSolution:
    """Lower-triangular two-time grids plus the one-time bookkeeping arrays."""

    h: float
    n: int
    C: np.ndarray
    R: np.ndarray
    q: np.ndarray
    K: np.ndarray
    mu: np.ndarray
    L: np.ndarray
    H: np.ndarray
    beta: float
    q_star: float
    q_o: float
    variant: str = VARIANT_SPHERICAL

    @property
    def s(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.h

    def C_sym(self) -> np.ndarray:
        return self.C + self.C.T - np.diag(np.diagonal(self.C))

    def diag_slice(self, t_index: int) -> np.ndarray:
        """C(t + tau, t) over tau >= 0 for t = t_index * h."""
        return self.C[t_index:, t_index].copy()

    def _subgrid(self, n_sub: int) -> np.ndarray:
        return np.unique(np.linspace(0, self.n, n_sub).round().astype(int))

    def gram_min_eig(self, n_sub: int = 30) -> float:
        idx = self._subgrid(n_sub)
        g = self.C_sym()[np.ix_(idx, idx)]
        return float(np.linalg.eigvalsh(g)[0])

    def cbar_gram_min_eig(self, n_sub: int = 30) -> float:
        """Smallest eigenvalue of the band-centered correlation Gram matrix."""
        if self.q_star <= 0.0:
            raise ConfigError("centered correlation needs q_star > 0")
        idx = self._subgrid(n_sub)
        qi = self.q[idx]
        g = self.C_sym()[np.ix_(idx, idx)] - np.outer(qi, qi) / self.q_star**2
        return float(np.linalg.eigvalsh(g)[0])


def _trapz(vec: np.ndarray, h: float) -> float:
    if len(vec) < 2:
        return 0.0
    return h * (vec.sum() - 0.5 * (vec[0] + vec[-1]))


class _Row(NamedTuple):
    """Kernel inputs of row a that go through nu, evaluated once per state.

    d1, d2: nu'(C[a, :a+1]) and nu''(C[a, :a+1]); vx, vy: drift-source
    partials at (q[a], C[a, 0]); dq: nu'(q[:a+1]); d2q: nu''(q[a]).  dq and
    d2q are None when q_star = 0, where no kernel reads them.
    """

    d1: np.ndarray
    d2: np.ndarray
    vx: float
    vy: float
    dq: np.ndarray | None
    d2q: float | None


class _Kernels:
    """Memory-integral evaluators over the raw solver arrays.

    Quantities follow the drift decomposition of the limit equations; the
    returned A_C / A_q are the unscaled kernels (the drifts use beta * A).
    Every evaluator of row a takes that row's ``_Row`` from ``row``, which
    must be built from the current C[a, :a+1] and q[:a+1].
    """

    def __init__(self, m: Mixture, vf: VFunction, beta: float, h: float,
                 q_star: float, q_o: float):
        self.m = m
        self.vf = vf
        self.beta = beta
        self.h = h
        self.q_star = q_star
        self.q_o = q_o
        self.dnu_qs2 = m.nu(q_star**2, 1) if q_star > 0.0 else 0.0

    def row(self, C, q, a) -> _Row:
        m, vf = self.m, self.vf
        Crow = C[a, : a + 1]
        # Python floats take the scalar path of Mixture.nu inside vx and vy
        qa, c0 = float(q[a]), float(Crow[0])
        if self.q_star > 0.0:
            dq, d2q = m.nu(q[: a + 1], 1), m.nu(qa, 2)
        else:
            dq = d2q = None
        return _Row(m.nu(Crow, 1), m.nu(Crow, 2), vf.vx(qa, c0), vf.vy(qa, c0),
                    dq, d2q)

    def row_AC(self, C, R, q, L, a, rw: _Row):
        """Unscaled A_C(s_a, t_j) for all j <= a, as one vector."""
        beta, h = self.beta, self.h
        Ct = C[: a + 1, : a + 1]
        Rrow = R[a, : a + 1]
        w1 = Rrow * rw.d2
        if a > 0:
            w1 = w1 * h
            w1[0] *= 0.5
            w1[-1] *= 0.5
            term1 = beta * (Ct.T @ w1 + Ct @ w1 - np.diagonal(Ct) * w1)
        else:
            term1 = np.zeros(1)
        g = rw.d1
        Rt = R[: a + 1, : a + 1]
        term2 = beta * h * (Rt @ g - 0.5 * R[: a + 1, 0] * g[0]
                            - 0.5 * np.diagonal(Rt) * g)
        qs = q[: a + 1]
        co = C[: a + 1, 0]
        out = term1 + term2 + qs * rw.vx + co * rw.vy
        if self.q_star > 0.0:
            out = out - beta * qs * rw.d2q * L[a] - beta * rw.dq[-1] * L[: a + 1]
        return out

    def AC_diag(self, C, R, q, L, a, rw: _Row):
        """Unscaled A_C(s_a, s_a); only row a of the triangles is touched."""
        beta, h = self.beta, self.h
        Rrow, Crow = R[a, : a + 1], C[a, : a + 1]
        term1 = beta * _trapz(Rrow * rw.d2 * Crow, h)
        term2 = beta * _trapz(Rrow * rw.d1, h)
        qa = q[a]
        out = term1 + term2 + qa * rw.vx + C[a, 0] * rw.vy
        if self.q_star > 0.0:
            out -= beta * (qa * rw.d2q + rw.dq[-1]) * L[a]
        return out

    def row_IR(self, R, a, rw: _Row):
        """beta^2 * int_{t_j}^{s_a} R(u, t_j) R(s_a, u) nu''(C(s_a, u)) du."""
        beta, h = self.beta, self.h
        Rrow = R[a, : a + 1]
        mv = Rrow * rw.d2
        Rt = R[: a + 1, : a + 1]
        full = Rt.T @ mv
        return beta**2 * h * (full - 0.5 * np.diagonal(Rt) * mv - 0.5 * Rrow * mv[-1])

    def A_q(self, R, q, L, a, rw: _Row):
        beta, h = self.beta, self.h
        if self.q_star == 0.0:
            return 0.0
        Rrow = R[a, : a + 1]
        qs2 = self.q_star**2
        out = beta * _trapz(Rrow * q[: a + 1] * rw.d2, h)
        out += (-beta * qs2 * rw.d2q * L[a]
                + qs2 * rw.vx + self.q_o * rw.vy)
        return out

    def L_at(self, R, a, rw: _Row):
        if self.q_star == 0.0:
            return 0.0
        return _trapz(R[a, : a + 1] * rw.dq, self.h) / self.dnu_qs2

    def H_at(self, C, R, q, L, a, rw: _Row):
        beta, h = self.beta, self.h
        out = (beta * _trapz(R[a, : a + 1] * rw.d1, h)
               + self.vf.v(float(q[a]), float(C[a, 0])))
        if self.q_star > 0.0:
            out -= beta * rw.dq[-1] * L[a]
        return out


def default_f0_slope(vf: VFunction, beta: float, q_o: float) -> float:
    """Slope giving zero initial radial drift: 1/2 + beta (q_o vx + vy)(q_o, 1)."""
    return 0.5 + beta * (q_o * vf.vx(q_o, 1.0) + vf.vy(q_o, 1.0))


def solve_dynamics(m: Mixture, ic: InitCondition, cfg: SolverConfig,
                   vf: VFunction | None = None) -> TwoTimeSolution:
    """March the two-time system from the conditioned start to s = T."""
    if vf is None:
        vf = solve_w(ic, m)
    beta = 1.0 if cfg.variant == VARIANT_GRADFLOW else cfg.beta
    n, h = cfg.n, cfg.h
    ker = _Kernels(m, vf, beta, h, ic.q_star, ic.q_o)

    C = np.zeros((n + 1, n + 1))
    R = np.zeros((n + 1, n + 1))
    q = np.zeros(n + 1)
    K = np.ones(n + 1)
    mu = np.zeros(n + 1)
    L = np.zeros(n + 1)
    H = np.zeros(n + 1)

    C[0, 0] = 1.0
    R[0, 0] = 1.0
    q[0] = ic.q_o
    rw = ker.row(C, q, 0)
    H[0] = ker.H_at(C, R, q, L, 0, rw)

    if cfg.variant == VARIANT_F:
        c0 = cfg.f0_slope if cfg.f0_slope is not None else default_f0_slope(vf, beta, ic.q_o)
        ell = cfg.ell
    else:
        c0 = ell = None

    def close(i1) -> _Row:
        """Set K, diagonal C, L and mu at slice i1; return the row it leaves."""
        if cfg.variant == VARIANT_F:
            C[i1, i1] = K[i1 - 1]
            for _ in range(2):
                rw = ker.row(C, q, i1)
                L[i1] = ker.L_at(R, i1, rw)
                ad = ker.AC_diag(C, R, q, L, i1, rw)
                K[i1] = (K[i1 - 1] + h * (1.0 + 2.0 * beta * ad) + 4.0 * ell * h) / (
                    1.0 + 4.0 * ell * h + 2.0 * c0 * h)
                C[i1, i1] = K[i1]
            mu[i1] = 2.0 * ell * (K[i1] - 1.0) + c0
            return ker.row(C, q, i1)
        K[i1] = 1.0
        C[i1, i1] = 1.0
        rw = ker.row(C, q, i1)
        L[i1] = ker.L_at(R, i1, rw)
        ad = ker.AC_diag(C, R, q, L, i1, rw)
        mu[i1] = ad if cfg.variant == VARIANT_GRADFLOW else 0.5 + beta * ad
        return rw

    if cfg.variant == VARIANT_F:
        mu[0] = c0
    else:
        ad0 = ker.AC_diag(C, R, q, L, 0, rw)
        mu[0] = ad0 if cfg.variant == VARIANT_GRADFLOW else 0.5 + beta * ad0

    # rw always describes the current C[a, :a+1] and q[:a+1] of the row the
    # next kernels read: close() rebuilds it after every update of row i + 1
    for i in range(n):
        FR_i = -mu[i] * R[i, : i + 1] + ker.row_IR(R, i, rw)
        FC_i = -mu[i] * C[i, : i + 1] + beta * ker.row_AC(C, R, q, L, i, rw)
        Fq_i = -mu[i] * q[i] + beta * ker.A_q(R, q, L, i, rw)

        R[i + 1, : i + 1] = R[i, : i + 1] + h * FR_i
        C[i + 1, : i + 1] = C[i, : i + 1] + h * FC_i
        q[i + 1] = q[i] + h * Fq_i
        R[i + 1, i + 1] = 1.0
        rw = close(i + 1)

        for _ in range(cfg.corrector_iters):
            FR_n = -mu[i + 1] * R[i + 1, : i + 1] + ker.row_IR(R, i + 1, rw)[: i + 1]
            FC_n = (-mu[i + 1] * C[i + 1, : i + 1]
                    + beta * ker.row_AC(C, R, q, L, i + 1, rw)[: i + 1])
            Fq_n = -mu[i + 1] * q[i + 1] + beta * ker.A_q(R, q, L, i + 1, rw)
            R[i + 1, : i + 1] = R[i, : i + 1] + 0.5 * h * (FR_i + FR_n)
            C[i + 1, : i + 1] = C[i, : i + 1] + 0.5 * h * (FC_i + FC_n)
            q[i + 1] = q[i] + 0.5 * h * (Fq_i + Fq_n)
            rw = close(i + 1)

        H[i + 1] = ker.H_at(C, R, q, L, i + 1, rw)
        # written so that NaN fails it too
        if not (abs(C[i + 1, : i + 2]).max() <= _BLOWUP
                and abs(R[i + 1, : i + 2]).max() <= _BLOWUP):
            raise BlowUpError(f"|C| or |R| exceeded {_BLOWUP} or is not finite "
                              f"at slice {i + 1}")

    sol = TwoTimeSolution(h, n, C, R, q, K, mu, L, H, beta,
                          ic.q_star, ic.q_o, cfg.variant)
    _warn_on_psd(sol)
    return sol


def _warn_on_psd(sol: TwoTimeSolution):
    if sol.gram_min_eig() < -_TOL_PSD:
        warnings.warn("correlation Gram matrix not PSD within tolerance",
                      PsdViolationWarning)
    if sol.q_star > 0.0 and sol.cbar_gram_min_eig() < -_TOL_PSD:
        warnings.warn("band-centered correlation Gram matrix not PSD",
                      PsdViolationWarning)


@dataclass(frozen=True)
class KernelValues:
    """Drift contributions at one grid point: A_C/A_q carry the beta scaling."""

    A_C: float
    A_q: float
    dR: float
    H: float
    L: float


def rhs_kernels(sol: TwoTimeSolution, vf: VFunction, m: Mixture,
                cfg: SolverConfig, i: int, j: int) -> KernelValues:
    """Evaluate the memory kernels of slice i (entry j <= i) on a solution."""
    if not 0 <= j <= i <= sol.n:
        raise ConfigError("need 0 <= j <= i <= n")
    beta = 1.0 if cfg.variant == VARIANT_GRADFLOW else cfg.beta
    ker = _Kernels(m, vf, beta, sol.h, sol.q_star, sol.q_o)
    C, R, q, L = sol.C, sol.R, sol.q, sol.L
    rw = ker.row(C, q, i)
    ac = ker.row_AC(C, R, q, L, i, rw)[j]
    ir = ker.row_IR(R, i, rw)[j]
    return KernelValues(
        A_C=beta * ac,
        A_q=beta * ker.A_q(R, q, L, i, rw),
        dR=-sol.mu[i] * R[i, j] + ir,
        H=ker.H_at(C, R, q, L, i, rw),
        L=ker.L_at(R, i, rw),
    )


@dataclass(frozen=True)
class ResidualReport:
    sup_res_R: float
    sup_res_C: float
    sup_res_q: float
    sup_res_H: float
    sup_res_mu: float


def residual(sol: TwoTimeSolution, vf: VFunction, m: Mixture,
             cfg: SolverConfig) -> ResidualReport:
    """Equation residuals of an externally supplied solution.

    Central differences in the later time against the right-hand sides, sup
    over the strict triangle; H and mu are checked as identities (a zeroed
    solution is caught by the constant forcing in the mu bookkeeping).
    """
    beta = 1.0 if cfg.variant == VARIANT_GRADFLOW else cfg.beta
    ker = _Kernels(m, vf, beta, sol.h, sol.q_star, sol.q_o)
    C, R, q, L, mu, h = sol.C, sol.R, sol.q, sol.L, sol.mu, sol.h
    res_R = res_C = res_q = res_H = res_mu = 0.0
    for i in range(1, sol.n):
        j = slice(0, i)
        fd_R = (R[i + 1, j] - R[i - 1, j]) / (2.0 * h)
        fd_C = (C[i + 1, j] - C[i - 1, j]) / (2.0 * h)
        rw = ker.row(C, q, i)
        rhs_R = -mu[i] * R[i, j] + ker.row_IR(R, i, rw)[j]
        rhs_C = -mu[i] * C[i, j] + beta * ker.row_AC(C, R, q, L, i, rw)[j]
        res_R = max(res_R, float(abs(fd_R - rhs_R).max(initial=0.0)))
        res_C = max(res_C, float(abs(fd_C - rhs_C).max(initial=0.0)))
        fd_q = (q[i + 1] - q[i - 1]) / (2.0 * h)
        res_q = max(res_q, abs(fd_q - (-mu[i] * q[i] + beta * ker.A_q(R, q, L, i, rw))))
    for i in range(sol.n + 1):
        rw = ker.row(C, q, i)
        res_H = max(res_H, abs(sol.H[i] - ker.H_at(C, R, q, L, i, rw)))
        ad = ker.AC_diag(C, R, q, L, i, rw)
        if cfg.variant == VARIANT_F:
            c0 = cfg.f0_slope if cfg.f0_slope is not None else default_f0_slope(
                vf, beta, sol.q_o)
            res_mu = max(res_mu, abs(mu[i] - 2.0 * cfg.ell * (sol.K[i] - 1.0) - c0))
        elif cfg.variant == VARIANT_GRADFLOW:
            res_mu = max(res_mu, abs(mu[i] - ad))
        else:
            res_mu = max(res_mu, abs(mu[i] - 0.5 - beta * ad))
    return ResidualReport(res_R, res_C, res_q, res_H, res_mu)


def integrated_response(sol: TwoTimeSolution) -> np.ndarray:
    """chi(s, t) = int_0^t R(s, u) du on the full grid square.

    R vanishes above the diagonal, so chi(s, t) = chi(s, s) for t >= s.
    """
    n, h = sol.n, sol.h
    chi = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        r = sol.R[i, : i + 1]
        cs = np.concatenate(([0.0], np.cumsum(0.5 * h * (r[:-1] + r[1:]))))
        chi[i, : i + 1] = cs
        chi[i, i + 1:] = cs[-1]
    return chi


@dataclass(frozen=True)
class EllRecord:
    ell: float
    sup_K_minus_1: float
    dist_to_spherical: float


def ell_limit_check(m: Mixture, ic: InitCondition, beta: float, T: float,
                    h: float, ell_list) -> list[EllRecord]:
    """Distance of the soft-confinement solves to the hard-constraint limit."""
    sph = solve_dynamics(m, ic, SolverConfig(beta, T, h, VARIANT_SPHERICAL))
    out = []
    for ell in ell_list:
        sol = solve_dynamics(m, ic, SolverConfig(beta, T, h, VARIANT_F, ell=ell))
        tri = np.tril_indices(sol.n + 1)
        dist = max(
            float(abs(sol.C[tri] - sph.C[tri]).max()),
            float(abs(sol.R[tri] - sph.R[tri]).max()),
            float(abs(sol.q - sph.q).max()),
            float(abs(sol.H - sph.H).max()),
        )
        out.append(EllRecord(ell, float(abs(sol.K - 1.0).max()), dist))
    return out
