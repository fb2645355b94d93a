"""Causal solver for the two-time correlation/response limit equations.

One ``TwoTimeSolution`` is the solver's state: ``solve_dynamics`` builds it
with unit diagonals and marches inside it, and the kernels and
``residual(sol, m)`` read beta, h, variant, ell and the start ic from it.
The grid is s_i = i h, i <= n = len(q) - 1.  C is stored dense and symmetric,
R lower-triangular (row = later time); q, mu, L, H are one-time arrays, and
the squared radius K is C's diagonal.
Each slice advance is one loop of Heun-type passes with trapezoidal memory
quadrature: the Euler predictor, then correctors, with the
Lagrange-multiplier closure mu refreshed after every pass.  Each pass
evaluates the new row once and takes L, A_C(s, s) and H from its trapezoid
integrals, all dot and matrix-vector products against the stored C and R,
so a solve is O(n^3) work and O(n^2) memory.

Memory: C and R are the largest arrays of a solve, and no temporary of
their size is made.  The symmetry check compares C with C.T, and
``sup_distance`` takes max |a - b|, one block of _BLOCK rows at a time;
``chi_rows`` makes each row of chi in one scratch row, so m rows of a
sub-grid cost O(m n) and are never held together.

Per pass the row state is built from the new row alone: the kernels keep
nu'(q) as an array with one entry refreshed per row (only q at the new
slice moves during a slice), and nu' and nu'' of the row are two
``Mixture.nu`` calls; Heun's base rows are built once per slice, so a
pass writes row i + 1 of R and C with one multiply and one add each.  A
replica-symmetric start (``InitCondition.is_rs``, which stores q_star = 0)
takes the band path with nu'(q_star^2) = inf, so every L term is an exact
zero.

Variants: hard spherical constraint (K = 1), soft radial confinement with
stiffness ell (K solved semi-implicitly), and gradient flow (noise-free
scaling: unit coupling with mu equal to the diagonal kernel).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BlowUpError, ConfigError, PsdViolationWarning, check_real
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
_BLOCK = 64  # rows per block of the symmetry check and of sup_distance
_GRID_TOL = 1e-9  # largest distance of T / h from the step count n
# a bound on grid points: longer float arrays are numpy ValueErrors, not MemoryErrors
_MAX_POINTS = sys.maxsize // 16


def sup_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| of two equal-shape arrays, _BLOCK rows at a time; NaN if any is."""
    return float(np.max([np.abs(a[k:k + _BLOCK] - b[k:k + _BLOCK]).max()
                         for k in range(0, len(a), _BLOCK)]))


def grid_steps(T: float, h: float, names: tuple[str, str]) -> int:
    """The one grid rule of both engines: the step count n of a uniform grid
    on [0, T] with step h.  T and h are positive reals, and T / h is within
    _GRID_TOL of a whole number n, 1 <= n < _MAX_POINTS, so an array of n + 1
    points can be asked for; anything else is a ConfigError naming the
    field, whose names are those of T and h."""
    for name, value in zip(names, (T, h)):
        if check_real(name, value) <= 0.0:
            raise ConfigError(f"{name} must be positive, got {value}")
    ratio = T / h
    n = round(ratio) if math.isfinite(ratio) else 0
    if not 1 <= n < _MAX_POINTS or abs(ratio - n) > _GRID_TOL:
        raise ConfigError(f"{names[0]} / {names[1]} = {T:g} / {h:g} = {ratio:g} must be "
                          f"within {_GRID_TOL:g} of a whole number n, 1 <= n < {_MAX_POINTS:.3g}")
    return n


def check_variant(variant: str, ell: float | None, variants: tuple, confined: str):
    """The one stiffness rule of both engines: the variant is one of variants,
    the confined one needs a positive real 'ell', and no other takes one."""
    if variant not in variants:
        raise ConfigError(f"unknown variant {variant!r}")
    if variant == confined and (ell is None or check_real("'ell'", ell) <= 0.0):
        raise ConfigError(f"variant {confined!r} needs a positive finite 'ell', got {ell}")
    if variant != confined and ell is not None:
        raise ConfigError(f"'ell' applies only to variant {confined!r}, not {variant!r}")


@dataclass(frozen=True)
class SolverConfig:
    """Grid and closure choice for one two-time solve: the grid s_i = i h,
    i <= n, under ``grid_steps``, and the variant and its stiffness under
    ``check_variant``.  The constant slope of the smooth radial part of variant
    'f' is ``default_f0_slope``, which gives the radius zero initial drift."""

    beta: float
    T: float
    h: float
    variant: str = VARIANT_SPHERICAL
    ell: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta", check_real("beta", self.beta))
        grid_steps(self.T, self.h, ("T", "h"))
        check_variant(self.variant, self.ell,
                      (VARIANT_SPHERICAL, VARIANT_F, VARIANT_GRADFLOW), VARIANT_F)

    @property
    def n(self) -> int:
        return grid_steps(self.T, self.h, ("T", "h"))


@dataclass
class TwoTimeSolution:
    """Two-time grids plus the one-time bookkeeping arrays.

    C[i, j] = C(s_i, s_j) is symmetric (checked on construction); R[i, j] =
    R(s_i, s_j) is lower-triangular, zero above the diagonal.  beta is the
    kernels' coupling (1 for gradient flow); ic is the start the solution
    was solved from.
    """

    h: float
    C: np.ndarray
    R: np.ndarray
    q: np.ndarray
    mu: np.ndarray
    L: np.ndarray
    H: np.ndarray
    beta: float
    ic: InitCondition
    variant: str = VARIANT_SPHERICAL
    ell: float | None = None

    def __post_init__(self):
        self._check_symmetric()

    def _check_symmetric(self):
        """C == C.T, compared one block of _BLOCK rows at a time; NaN fails."""
        C = self.C
        square = C.ndim == 2 and C.shape[0] == C.shape[1]
        if not (square and all(np.array_equal(C[a:a + _BLOCK, :a + _BLOCK],
                                              C[:a + _BLOCK, a:a + _BLOCK].T)
                               for a in range(0, len(C), _BLOCK))):
            raise ConfigError("C must be a symmetric array (C == C.T)")

    @property
    def n(self) -> int:
        return len(self.q) - 1

    @property
    def s(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.h

    @property
    def K(self) -> np.ndarray:
        """Squared radius K(s) = C(s, s): the diagonal of C."""
        return np.diagonal(self.C)

    def _subgrid(self) -> np.ndarray:
        """At most 30 evenly spread grid indices: where the Gram checks look."""
        idx = np.linspace(0, self.n, 30).round().astype(int)
        # non-decreasing, so dropping repeats needs no sort
        return idx[np.diff(idx, prepend=-1) > 0]

    def gram_min_eig(self) -> float:
        idx = self._subgrid()
        g = self.C[np.ix_(idx, idx)]
        return float(np.linalg.eigvalsh(g)[0])

    def cbar_gram_min_eig(self) -> float:
        """Smallest eigenvalue of the band-centered correlation Gram matrix."""
        if self.ic.is_rs:
            raise ConfigError("an RS start has no band to center the correlation on")
        idx = self._subgrid()
        qi = self.q[idx]
        g = self.C[np.ix_(idx, idx)] - np.outer(qi, qi) / self.ic.q_star**2
        return float(np.linalg.eigvalsh(g)[0])


class _Row(NamedTuple):
    """Row a's state, built once per pass from C[a, :a+1], R[a, :a+1], q[:a+1].

    d1: nu' of C[a, :a+1]; mv: R[a, :a+1] nu''(C[a, :a+1]);
    vx, vy: drift-source partials at (q[a], C[a, 0]); dqa, d2q: nu'(q[a]) and
    nu''(q[a]).  Trapezoid integrals against R[a, :a+1] give L = L(s_a),
    I1 = beta int R(s_a, u) nu'(C(s_a, u)) du (in both A_C(s_a, s_a) and
    H(s_a)) and the unscaled A_C(s_a, s_a) = ad0 - ad_L L(s_a), whose L each
    reader applies.
    """

    d1: np.ndarray
    mv: np.ndarray
    vx: float
    vy: float
    dqa: float
    d2q: float
    L: float
    I1: float
    ad0: float
    ad_L: float

    def ad(self, La: float) -> float:
        """Unscaled A_C(s_a, s_a) with L(s_a) = La."""
        return self.ad0 - self.ad_L * La


class _Kernels:
    """Memory-integral evaluators over one ``TwoTimeSolution``.

    Quantities follow the drift decomposition of the limit equations; A_C and
    A_q are the unscaled kernels (the drifts use beta * A).  ``row`` evaluates
    row a once per pass, from the current C[a, :a+1], R[a, :a+1] and q[:a+1]
    with C[:a+1, :a+1] symmetric; ``rhs`` (the slice right-hand side) and
    ``H_at`` read that row state and the stored L and mu.  The drift source
    is solve_w(sol.ic, m), the solution's own start.  Every trapezoid
    rule is a dot product or matvec over whole rows plus endpoint
    corrections, and those corrections take R(s, s) = 1, the boundary
    condition, instead of reading R's diagonal; ``residual`` checks it.
    """

    def __init__(self, m: Mixture, sol: TwoTimeSolution):
        self.m, self.vf, self.sol = m, solve_w(sol.ic, m), sol
        self.beta, self.h, self.qs2 = sol.beta, sol.h, sol.ic.q_star**2
        # nu'(q): row(a) refreshes entry a and reads the entries below it
        self.dq = m.nu(sol.q, 1)
        # at q_star = 0 every L integrand is an exact zero: inf keeps L at 0
        self.dnu_qs2 = math.inf if sol.ic.is_rs else m.nu(self.qs2, 1)
        self.c0 = default_f0_slope(self.vf, sol.beta) if sol.variant == VARIANT_F else None

    def mu(self, K: float, ad: float) -> float:
        """The multiplier from the squared radius K and ad = A_C(s, s)."""
        if self.c0 is not None:
            return 2.0 * self.sol.ell * (K - 1.0) + self.c0
        return ad if self.sol.variant == VARIANT_GRADFLOW else 0.5 + self.beta * ad

    def row(self, a: int) -> _Row:
        """Row a's state; refreshes nu'(q[a])."""
        m, vf, beta, h, sol = self.m, self.vf, self.beta, self.h, self.sol
        Crow, Rrow = sol.C[a, : a + 1], sol.R[a, : a + 1]
        # Python floats take the scalar path of Mixture.nu inside vx and vy
        qa, c0 = float(sol.q[a]), float(Crow[0])
        d1, d2 = m.nu(Crow, 1), m.nu(Crow, 2)
        mv = Rrow * d2
        vx, vy = vf.vx(qa, c0), vf.vy(qa, c0)
        r0 = float(Rrow[0])
        I1 = beta * h * (float(Rrow @ d1) - 0.5 * (r0 * float(d1[0]) + float(d1[a])))
        ad0 = (beta * h * (float(mv @ Crow)
                           - 0.5 * (float(mv[0]) * c0 + float(d2[a]) * float(Crow[a])))
               + I1 + qa * vx + c0 * vy)
        dq, d2q = self.dq[: a + 1], m.nu(qa, 2)
        dqa = dq[a] = m.nu(qa, 1)
        L = h * (float(Rrow @ dq) - 0.5 * (r0 * float(dq[0]) + dqa)) / self.dnu_qs2
        return _Row(d1, mv, vx, vy, dqa, d2q, L, I1, ad0, beta * (qa * d2q + dqa))

    def rhs(self, a: int, rw: _Row):
        """(F_R, F_C, F_q) of row a: d/ds of R[a, :a+1], C[a, :a+1] and q[a].

        F_R carries beta^2 int_{t_j}^{s_a} R(u, t_j) R(s_a, u) nu''(C(s_a, u)) du;
        F_C and F_q carry beta times A_C(s_a, t_j), j <= a, and A_q(s_a).
        """
        beta, h, sol = self.beta, self.h, self.sol
        C, R, q = sol.C, sol.R, sol.q
        Rrow, Crow = R[a, : a + 1], C[a, : a + 1]
        Rt, Ct, qs = R[: a + 1, : a + 1], C[: a + 1, : a + 1], q[: a + 1]
        mv, d1, mua = rw.mv, rw.d1, float(sol.mu[a])
        mv0, mv_a = float(mv[0]), float(mv[a])
        qs2, La = self.qs2, float(sol.L[a])
        bh = beta * h
        # each trapezoid is a matvec over whole rows plus its endpoint terms;
        # C's columns 0 and a are its rows 0 and a, C being symmetric
        F_R = beta * bh * (Rt.T @ mv - 0.5 * mv) - (0.5 * beta * bh * mv_a + mua) * Rrow
        # A_C(s_a, t_j) = int_0^{s_a} C(t_j, u) R(s_a, u) nu''(C(s_a, u)) du
        #   + int_0^{t_j} R(t_j, u) nu'(C(s_a, u)) du + drift-source terms
        A_C = (bh * (Ct @ mv + Rt @ d1 - 0.5 * d1 - (0.5 * float(d1[0])) * R[: a + 1, 0])
               + (rw.vy - 0.5 * bh * mv0) * C[0, : a + 1])
        A_C -= (beta * rw.dqa) * sol.L[: a + 1]
        A_q = (bh * (float(mv @ qs) - 0.5 * (mv0 * float(qs[0]) + mv_a * float(qs[a])))
               - beta * qs2 * rw.d2q * La + qs2 * rw.vx + sol.ic.q_o * rw.vy)
        vx = rw.vx - beta * rw.d2q * La
        F_C = beta * (A_C + vx * qs) - (0.5 * beta * bh * mv_a + mua) * Crow
        return F_R, F_C, -mua * float(q[a]) + beta * A_q

    def H_at(self, a: int, rw: _Row):
        """H(s_a) from row a's state and the stored L(s_a); the one call of v."""
        sol = self.sol
        return (rw.I1 + self.vf.v(float(sol.q[a]), float(sol.C[a, 0]))
                - self.beta * rw.dqa * sol.L[a])


def default_f0_slope(vf: VFunction, beta: float) -> float:
    """Slope giving zero initial radial drift: 1/2 + beta (q_o vx + vy)(q_o, 1)."""
    q_o = vf.ic.q_o
    return 0.5 + beta * (q_o * vf.vx(q_o, 1.0) + vf.vy(q_o, 1.0))


def solve_dynamics(m: Mixture, ic: InitCondition, cfg: SolverConfig) -> TwoTimeSolution:
    """March the two-time system from the conditioned start to s = T; the drift
    source is solve_w(ic, m)."""
    n, h, ell = cfg.n, cfg.h, cfg.ell
    q = np.zeros(n + 1)
    q[0] = ic.q_o
    # unit diagonals from the start; variant 'f' solves C's, the radius K
    sol = TwoTimeSolution(
        h, np.eye(n + 1), np.eye(n + 1), q, np.zeros(n + 1), np.zeros(n + 1),
        np.zeros(n + 1),
        beta=1.0 if cfg.variant == VARIANT_GRADFLOW else cfg.beta, ic=ic,
        variant=cfg.variant, ell=ell)
    ker = _Kernels(m, sol)
    C, R, mu, L, H, beta = sol.C, sol.R, sol.mu, sol.L, sol.H, sol.beta

    rw = ker.row(0)
    H[0] = ker.H_at(0, rw)
    mu[0] = ker.mu(C[0, 0], rw.ad(L[0]))

    def close(i1) -> _Row:
        """Set L, mu and (variant 'f') the diagonal C = K at slice i1; return the row."""
        if cfg.variant == VARIANT_F:
            # mu ignores ad in this variant: the final row's serves
            C[i1, i1] = C[i1 - 1, i1 - 1]
            for _ in range(2):
                rw = ker.row(i1)
                ad = rw.ad(rw.L)
                C[i1, i1] = (C[i1 - 1, i1 - 1] + h * (1.0 + 2.0 * beta * ad)
                             + 4.0 * ell * h) / (1.0 + 4.0 * ell * h + 2.0 * ker.c0 * h)
        rw = ker.row(i1)
        L[i1] = rw.L
        mu[i1] = ker.mu(C[i1, i1], rw.ad(rw.L))
        return rw

    # rw always describes the current C[a, :a+1], R[a, :a+1] and q[:a+1] of
    # the row the next kernels read: close() rebuilds it after every update
    # of row i + 1.
    # F is the latest right-hand side.  Heun's step is row i + h/2 F_i, built
    # once per slice, plus h/2 times the latest F; the first pass takes row
    # i's own F there, the Euler predictor.
    hh = 0.5 * h
    F = ker.rhs(0, rw)
    # a state that overflows is caught by the check that ends each slice, which
    # names the slice: numpy's overflow and invalid-value warnings would only
    # precede that error, or stand in for it under warnings-as-errors
    with np.errstate(over="ignore", invalid="ignore"):
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
                F = ker.rhs(i + 1, rw)

            H[i + 1] = ker.H_at(i + 1, rw)
            # written so that NaN fails it too
            if not (abs(C[i + 1, : i + 2]).max() <= _BLOWUP
                    and abs(R[i + 1, : i + 2]).max() <= _BLOWUP):
                raise BlowUpError(f"|C| or |R| exceeded {_BLOWUP} or is not finite "
                                  f"at slice {i + 1}")

    sol._check_symmetric()
    _warn_on_psd(sol)
    return sol


def _warn_on_psd(sol: TwoTimeSolution):
    if sol.gram_min_eig() < -_TOL_PSD:
        warnings.warn("correlation Gram matrix not PSD within tolerance",
                      PsdViolationWarning)
    if not sol.ic.is_rs and sol.cbar_gram_min_eig() < -_TOL_PSD:
        warnings.warn("band-centered correlation Gram matrix not PSD",
                      PsdViolationWarning)


@dataclass(frozen=True)
class ResidualReport:
    sup_res_R: float
    sup_res_C: float
    sup_res_q: float
    sup_res_H: float
    sup_res_mu: float


def residual(sol: TwoTimeSolution, m: Mixture) -> ResidualReport:
    """Equation residuals of an externally supplied solution.

    Central differences in the later time against the right-hand sides, sup
    over the strict triangle; H and mu are checked as identities (a zeroed
    solution is caught by the constant forcing in the mu bookkeeping).  The
    drift source is solve_w(sol.ic, m); the kernels take R(s, s) = 1 as
    given, so sup_res_R also covers R's diagonal against that boundary value.
    """
    ker = _Kernels(m, sol)
    C, R, q, L, h = sol.C, sol.R, sol.q, sol.L, sol.h
    res_R = float(abs(np.diagonal(R) - 1.0).max())
    res_C = res_q = res_H = res_mu = 0.0
    for i in range(sol.n + 1):
        rw = ker.row(i)
        if 0 < i < sol.n:
            F_R, F_C, F_q = ker.rhs(i, rw)
            fd_R = (R[i + 1, :i] - R[i - 1, :i]) / (2.0 * h)
            fd_C = (C[i + 1, :i] - C[i - 1, :i]) / (2.0 * h)
            res_R = max(res_R, float(abs(fd_R - F_R[:i]).max()))
            res_C = max(res_C, float(abs(fd_C - F_C[:i]).max()))
            res_q = max(res_q, abs((q[i + 1] - q[i - 1]) / (2.0 * h) - F_q))
        res_H = max(res_H, abs(sol.H[i] - ker.H_at(i, rw)))
        res_mu = max(res_mu, abs(sol.mu[i] - ker.mu(C[i, i], rw.ad(L[i]))))
    return ResidualReport(res_R, res_C, res_q, res_H, res_mu)


def chi_rows(sol: TwoTimeSolution, r: int, m: int):
    """Rows of chi(s, t) = int_0^t R(s, u) du at the grid times 0, r h, ...,
    (m - 1) r h, each on those times.

    R vanishes above the diagonal, so chi(s, t) = chi(s, s) for t >= s.  A
    row is its trapezoid steps up to the diagonal, zero beyond it, summed in
    order in one scratch row, which each row yielded is a view of: O(m n)
    work, and nothing as large as R.
    """
    row = np.zeros(sol.n + 1)
    steps, hh = row[1:], 0.5 * sol.h
    for i in range(0, m * r, r):
        Ri = sol.R[i]
        np.add(Ri[:i], Ri[1: i + 1], out=steps[:i])
        steps[:i] *= hh
        steps[i:] = 0.0
        np.cumsum(steps, out=steps)
        yield row[: m * r: r]


def integrated_response(sol: TwoTimeSolution) -> np.ndarray:
    """chi on the full grid: the rows of ``chi_rows``, copied into one array."""
    return np.fromiter(chi_rows(sol, 1, sol.n + 1), np.dtype((float, sol.n + 1)), sol.n + 1)


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
        dist = max(sup_distance(getattr(sol, k), getattr(sph, k))
                   for k in ("C", "R", "q", "H"))
        out.append(EllRecord(ell, float(abs(sol.K - 1.0).max()), dist))
    return out
