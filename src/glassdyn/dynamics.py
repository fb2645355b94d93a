"""Causal solver for the two-time correlation/response limit equations.

State lives on a uniform grid s_i = i h.  C is stored as a dense symmetric
array, both halves written; R is stored lower-triangular (row = later time,
zero above the diagonal).  q, K, mu, L, H are one-time arrays.  Each slice
advance is one loop of Heun-type passes with trapezoidal memory quadrature:
the first pass is the Euler predictor, the others correct it, and the
Lagrange-multiplier closure mu at the new slice is refreshed after every pass.
Each pass evaluates the new row once, and takes L, the diagonal kernel
A_C(s, s) and H from its trapezoid integrals.  All memory integrals for one
slice reduce to dot and matrix-vector products against the stored C and R,
so a full solve is O(n^3) work and O(n^2) memory.

Per pass the row state is built from the new row alone: nu'(q) is a history
of the solve, one entry added per pass (only q at the new slice moves during
a slice); the mixture's radius guard is checked once per row, and not at all
when it is infinite; Heun's base rows, row i + h/2 times its right-hand side,
are built once per slice, so a pass writes row i + 1 of R and C with one
multiply and one add each.

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
    "ResidualReport",
    "EllRecord",
    "solve_dynamics",
    "residual",
    "ell_limit_check",
    "integrated_response",
]

VARIANT_SPHERICAL = "spherical"
VARIANT_F = "f"
VARIANT_GRADFLOW = "gradflow"

_BLOWUP = 1e6
_TOL_PSD = 1e-6
_CORRECTOR_PASSES = 2


@dataclass(frozen=True)
class SolverConfig:
    """Grid and closure choice for one two-time solve.

    For the soft-confinement variant, ``ell`` is the stiffness; the constant
    slope of the smooth radial part is ``default_f0_slope``, which gives the
    radius zero initial drift.
    """

    beta: float
    T: float
    h: float
    variant: str = VARIANT_SPHERICAL
    ell: float | None = None

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

    @property
    def n(self) -> int:
        return round(self.T / self.h)


@dataclass
class TwoTimeSolution:
    """Two-time grids plus the one-time bookkeeping arrays.

    C[i, j] = C(s_i, s_j) is symmetric (checked on construction); R[i, j] =
    R(s_i, s_j) is lower-triangular, zero above the diagonal.
    """

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

    def __post_init__(self):
        if not np.array_equal(self.C, self.C.T):
            raise ConfigError("C must be a symmetric array (C == C.T)")

    @property
    def s(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.h

    def diag_slice(self, t_index: int) -> np.ndarray:
        """C(t + tau, t) over tau >= 0 for t = t_index * h."""
        return self.C[t_index:, t_index].copy()

    def _subgrid(self) -> np.ndarray:
        """At most 30 evenly spread grid indices: where the Gram checks look."""
        return np.unique(np.linspace(0, self.n, 30).round().astype(int))

    def gram_min_eig(self) -> float:
        idx = self._subgrid()
        g = self.C[np.ix_(idx, idx)]
        return float(np.linalg.eigvalsh(g)[0])

    def cbar_gram_min_eig(self) -> float:
        """Smallest eigenvalue of the band-centered correlation Gram matrix."""
        if self.q_star <= 0.0:
            raise ConfigError("centered correlation needs q_star > 0")
        idx = self._subgrid()
        qi = self.q[idx]
        g = self.C[np.ix_(idx, idx)] - np.outer(qi, qi) / self.q_star**2
        return float(np.linalg.eigvalsh(g)[0])


class _Row(NamedTuple):
    """Row a's state, built once per pass from C[a, :a+1], R[a, :a+1], q[:a+1].

    d1, d2: nu' and nu'' of C[a, :a+1]; mv: R[a, :a+1] nu''(C[a, :a+1]);
    vx, vy: drift-source partials at (q[a], C[a, 0]); dq: nu'(q[:a+1]); d2q:
    nu''(q[a]).  Trapezoid integrals against R[a, :a+1] give L = L(s_a),
    I1 = beta int R(s_a, u) nu'(C(s_a, u)) du (in both A_C(s_a, s_a) and
    H(s_a)) and the unscaled A_C(s_a, s_a) = ad0 - ad_L L(s_a), whose L each
    reader applies.  dq, d2q and ad_L are None when q_star = 0, where L = 0
    and nothing reads them.
    """

    d1: np.ndarray
    d2: np.ndarray
    mv: np.ndarray
    vx: float
    vy: float
    dq: np.ndarray | None
    d2q: float | None
    L: float
    I1: float
    ad0: float
    ad_L: float | None

    def ad(self, La: float) -> float:
        """Unscaled A_C(s_a, s_a) with L(s_a) = La."""
        return self.ad0 if self.ad_L is None else self.ad0 - self.ad_L * La


class _Kernels:
    """Memory-integral evaluators over the raw solver arrays.

    Quantities follow the drift decomposition of the limit equations; A_C and
    A_q are the unscaled kernels (the drifts use beta * A).  ``row`` evaluates
    row a once per pass, from the current C[a, :a+1], R[a, :a+1] and q[:a+1]
    with C[:a+1, :a+1] symmetric; ``rhs``, the slice right-hand side of solver
    and ``residual``, and ``H_at`` read that row state.  Every trapezoid rule
    is a dot product or matvec over whole rows plus endpoint corrections, and
    those corrections take R(s, s) = 1, the boundary condition, instead of
    reading R's diagonal; ``residual`` checks that diagonal.
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

    def row(self, C, R, q, a, dq_hist=None) -> _Row:
        """Row a's state.  dq_hist, the caller's nu'(q) history, is read at
        entries below a and written at entry a; without it nu'(q[:a+1]) is
        evaluated afresh, to the same numbers.
        """
        m, vf, beta, h = self.m, self.vf, self.beta, self.h
        Crow, Rrow = C[a, : a + 1], R[a, : a + 1]
        # Python floats take the scalar path of Mixture.nu inside vx and vy
        qa, c0 = float(q[a]), float(Crow[0])
        m.check_radius(Crow)
        d1, d2 = m.horner(Crow, 1), m.horner(Crow, 2)
        mv = Rrow * d2
        vx, vy = vf.vx(qa, c0), vf.vy(qa, c0)
        r0 = float(Rrow[0])
        I1 = beta * h * (float(Rrow @ d1) - 0.5 * (r0 * float(d1[0]) + float(d1[a])))
        ad0 = (beta * h * (float(mv @ Crow)
                           - 0.5 * (float(mv[0]) * c0 + float(d2[a]) * float(Crow[a])))
               + I1 + qa * vx + c0 * vy)
        if self.q_star > 0.0:
            if dq_hist is None:
                dq = m.nu(q[: a + 1], 1)
            else:
                dq_hist[a] = m.nu(qa, 1)
                dq = dq_hist[: a + 1]
            d2q, dqa = m.nu(qa, 2), float(dq[a])
            L = h * (float(Rrow @ dq) - 0.5 * (r0 * float(dq[0]) + dqa)) / self.dnu_qs2
            ad_L = beta * (qa * d2q + dqa)
        else:
            dq = d2q = ad_L = None
            L = 0.0
        return _Row(d1, d2, mv, vx, vy, dq, d2q, L, I1, ad0, ad_L)

    def rhs(self, C, R, q, L, mu, a, rw: _Row):
        """(F_R, F_C, F_q) of row a: d/ds of R[a, :a+1], C[a, :a+1] and q[a].

        F_R carries beta^2 int_{t_j}^{s_a} R(u, t_j) R(s_a, u) nu''(C(s_a, u)) du;
        F_C and F_q carry beta times A_C(s_a, t_j), j <= a, and A_q(s_a).
        """
        beta, h = self.beta, self.h
        Rrow, Crow = R[a, : a + 1], C[a, : a + 1]
        Rt, Ct, qs = R[: a + 1, : a + 1], C[: a + 1, : a + 1], q[: a + 1]
        mv, d1, mua = rw.mv, rw.d1, float(mu[a])
        mv0, mv_a = float(mv[0]), float(mv[a])
        bh = beta * h
        # each trapezoid is a matvec over whole rows plus its endpoint terms;
        # C's columns 0 and a are its rows 0 and a, C being symmetric
        F_R = beta * bh * (Rt.T @ mv - 0.5 * mv) - (0.5 * beta * bh * mv_a + mua) * Rrow
        # A_C(s_a, t_j) = int_0^{s_a} C(t_j, u) R(s_a, u) nu''(C(s_a, u)) du
        #   + int_0^{t_j} R(t_j, u) nu'(C(s_a, u)) du + drift-source terms
        A_C = (bh * (Ct @ mv + Rt @ d1 - 0.5 * d1 - (0.5 * float(d1[0])) * R[: a + 1, 0])
               + (rw.vy - 0.5 * bh * mv0) * C[0, : a + 1])
        vx, A_q = rw.vx, 0.0
        if self.q_star > 0.0:
            qs2, La, dqa = self.q_star**2, float(L[a]), float(rw.dq[a])
            vx -= beta * rw.d2q * La
            A_C -= (beta * dqa) * L[: a + 1]
            A_q = (bh * (float(mv @ qs) - 0.5 * (mv0 * float(qs[0]) + mv_a * float(qs[a])))
                   - beta * qs2 * rw.d2q * La + qs2 * rw.vx + self.q_o * rw.vy)
        F_C = beta * (A_C + vx * qs) - (0.5 * beta * bh * mv_a + mua) * Crow
        return F_R, F_C, -mua * float(q[a]) + beta * A_q

    def H_at(self, C, q, a, rw: _Row, La: float):
        """H(s_a) from row a's state with L(s_a) = La; the one call of v."""
        out = rw.I1 + self.vf.v(float(q[a]), float(C[a, 0]))
        if self.q_star > 0.0:
            out -= self.beta * float(rw.dq[a]) * La
        return out


def default_f0_slope(vf: VFunction, beta: float, q_o: float) -> float:
    """Slope giving zero initial radial drift: 1/2 + beta (q_o vx + vy)(q_o, 1)."""
    return 0.5 + beta * (q_o * vf.vx(q_o, 1.0) + vf.vy(q_o, 1.0))


def _closure(m: Mixture, vf: VFunction, cfg: SolverConfig, q_star: float,
             q_o: float):
    """Kernels of one solve, the radial slope c0 (None off variant 'f') and
    mu_of(K, ad), the multiplier from the squared radius K and ad = A_C(s, s).
    """
    beta = 1.0 if cfg.variant == VARIANT_GRADFLOW else cfg.beta
    ker = _Kernels(m, vf, beta, cfg.h, q_star, q_o)
    if cfg.variant == VARIANT_F:
        c0 = default_f0_slope(vf, beta, q_o)
        return ker, c0, lambda K, ad: 2.0 * cfg.ell * (K - 1.0) + c0
    if cfg.variant == VARIANT_GRADFLOW:
        return ker, None, lambda K, ad: ad
    return ker, None, lambda K, ad: 0.5 + beta * ad


def solve_dynamics(m: Mixture, ic: InitCondition, cfg: SolverConfig,
                   vf: VFunction | None = None) -> TwoTimeSolution:
    """March the two-time system from the conditioned start to s = T."""
    if vf is None:
        vf = solve_w(ic, m)
    ker, c0, mu_of = _closure(m, vf, cfg, ic.q_star, ic.q_o)
    beta, n, h, ell = ker.beta, cfg.n, cfg.h, cfg.ell

    # unit diagonals from the start; variant 'f' overwrites C's with K
    C = np.eye(n + 1)
    R = np.eye(n + 1)
    q = np.zeros(n + 1)
    K = np.ones(n + 1)
    mu = np.zeros(n + 1)
    L = np.zeros(n + 1)
    H = np.zeros(n + 1)

    # nu'(q[j]), one entry per pass: only q[i + 1] moves during slice i
    dq = np.zeros(n + 1)

    q[0] = ic.q_o
    rw = ker.row(C, R, q, 0, dq)
    H[0] = ker.H_at(C, q, 0, rw, L[0])
    mu[0] = mu_of(K[0], rw.ad(L[0]))

    def close(i1) -> _Row:
        """Set L, mu and (variant 'f') K and diagonal C at slice i1; return the row."""
        if cfg.variant == VARIANT_F:
            # mu_of ignores ad in this variant: the final row's serves
            C[i1, i1] = K[i1 - 1]
            for _ in range(2):
                rw = ker.row(C, R, q, i1, dq)
                ad = rw.ad(rw.L)
                K[i1] = (K[i1 - 1] + h * (1.0 + 2.0 * beta * ad) + 4.0 * ell * h) / (
                    1.0 + 4.0 * ell * h + 2.0 * c0 * h)
                C[i1, i1] = K[i1]
        rw = ker.row(C, R, q, i1, dq)
        L[i1] = rw.L
        mu[i1] = mu_of(K[i1], rw.ad(rw.L))
        return rw

    # rw always describes the current C[a, :a+1], R[a, :a+1] and q[:a+1] of
    # the row the next kernels read: close() rebuilds it after every update
    # of row i + 1.
    # F is the latest right-hand side.  Heun's step is row i + h/2 F_i, built
    # once per slice, plus h/2 times the latest F; the first pass takes row
    # i's own F there, the Euler predictor.
    hh = 0.5 * h
    F = ker.rhs(C, R, q, L, mu, 0, rw)
    for i in range(n):
        FR_i, FC_i, Fq_i = F
        baseR = R[i, : i + 1] + hh * FR_i
        baseC = C[i, : i + 1] + hh * FC_i
        baseq = float(q[i]) + hh * Fq_i
        Rnew, Cnew = R[i + 1, : i + 1], C[i + 1, : i + 1]
        for _ in range(1 + _CORRECTOR_PASSES):
            FR_n, FC_n, Fq_n = F
            np.add(baseR, hh * FR_n[: i + 1], out=Rnew)
            np.add(baseC, hh * FC_n[: i + 1], out=Cnew)
            C[: i + 1, i + 1] = Cnew
            q[i + 1] = baseq + hh * Fq_n
            rw = close(i + 1)
            F = ker.rhs(C, R, q, L, mu, i + 1, rw)

        H[i + 1] = ker.H_at(C, q, i + 1, rw, L[i + 1])
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
    solution is caught by the constant forcing in the mu bookkeeping).  The
    kernels take R(s, s) = 1 as given, so sup_res_R also covers R's diagonal
    against that boundary value.
    """
    if cfg.h != sol.h:
        raise ConfigError(f"h {cfg.h} of the config differs from the solution's {sol.h}")
    ker, _, mu_of = _closure(m, vf, cfg, sol.q_star, sol.q_o)
    C, R, q, L, mu, h = sol.C, sol.R, sol.q, sol.L, sol.mu, sol.h
    res_R = float(abs(np.diagonal(R) - 1.0).max())
    res_C = res_q = res_H = res_mu = 0.0
    for i in range(sol.n + 1):
        rw = ker.row(C, R, q, i)
        if 0 < i < sol.n:
            F_R, F_C, F_q = ker.rhs(C, R, q, L, mu, i, rw)
            fd_R = (R[i + 1, :i] - R[i - 1, :i]) / (2.0 * h)
            fd_C = (C[i + 1, :i] - C[i - 1, :i]) / (2.0 * h)
            res_R = max(res_R, float(abs(fd_R - F_R[:i]).max()))
            res_C = max(res_C, float(abs(fd_C - F_C[:i]).max()))
            res_q = max(res_q, abs((q[i + 1] - q[i - 1]) / (2.0 * h) - F_q))
        res_H = max(res_H, abs(sol.H[i] - ker.H_at(C, q, i, rw, L[i])))
        res_mu = max(res_mu, abs(mu[i] - mu_of(sol.K[i], rw.ad(L[i]))))
    return ResidualReport(res_R, res_C, res_q, res_H, res_mu)


def integrated_response(sol: TwoTimeSolution) -> np.ndarray:
    """chi(s, t) = int_0^t R(s, u) du on the full grid square.

    R vanishes above the diagonal, so chi(s, t) = chi(s, s) for t >= s.
    """
    R = sol.R
    chi = np.zeros_like(R)
    # each row's trapezoid steps up to its diagonal, zero beyond it
    chi[:, 1:] = np.cumsum(np.tril(0.5 * sol.h * (R[:, :-1] + R[:, 1:]), -1), axis=1)
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
        dist = max(
            float(abs(sol.C - sph.C).max()),
            float(abs(sol.R - sph.R).max()),
            float(abs(sol.q - sph.q).max()),
            float(abs(sol.H - sph.H).max()),
        )
        out.append(EllRecord(ell, float(abs(sol.K - 1.0).max()), dist))
    return out
