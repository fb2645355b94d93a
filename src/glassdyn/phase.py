"""Critical temperatures and long-time plateau levels.

All quantities here are scalar functions of the mixture and reduce to sup /
root finding for g_beta and its derivative on [0, 1).  The scans use a coarse
grid with local refinement: the derivative diverges to -inf at x -> 1, so the
suprema are attained in the interior but may sit on narrow interior bumps for
mixed models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GammaTooSmallError, NoRootError
from .init_params import gamma_star
from .mixture import Mixture, effective_mixture, g_beta

__all__ = [
    "PhasePoint",
    "BandRelaxation",
    "beta_c_stat",
    "beta_c_dyn",
    "q_d",
    "c_inf",
    "band_relaxation_predicate",
    "classify",
]

_X_HI = 1.0 - 1e-6
_N_GRID = 10_000
_REFINE_LEVELS = 3
_PLATEAU_TOL = 1e-6  # a plateau this close to q_beta is the band


def _sup_scan(f, n=_N_GRID, levels=_REFINE_LEVELS):
    """Max of f over (0, 1) by grid scan plus local zoom refinement."""
    lo, hi = 0.0, _X_HI
    best_x, best_v = 0.0, -np.inf
    for _ in range(levels + 1):
        xs = np.linspace(lo, hi, n)
        vs = f(xs)
        k = int(np.argmax(vs))
        if vs[k] > best_v:
            best_v, best_x = float(vs[k]), float(xs[k])
        dx = xs[1] - xs[0]
        lo = max(0.0, best_x - 2.0 * dx)
        hi = min(_X_HI, best_x + 2.0 * dx)
    return best_x, best_v


def _bisect_beta(predicate, rel_tol=1e-8):
    """Smallest beta with predicate(beta) true; predicate monotone in beta."""
    hi = 1.0
    while not predicate(hi):
        hi *= 2.0
        if hi > 1e8:
            raise NoRootError("no critical beta up to beta = 1e8: the weights are too small")
    lo = 0.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _beta_sup_positive(m: Mixture, order: int) -> float:
    """Smallest beta at which sup of g_beta (order 0) or g_beta' on [0,1) is positive."""
    return _bisect_beta(
        lambda beta: _sup_scan(lambda x: g_beta(m, beta, x, order))[1] > 0.0)


def beta_c_stat(m: Mixture) -> float:
    """Inverse temperature above which sup g_beta on [0,1] turns positive."""
    return _beta_sup_positive(m, 0)


def beta_c_dyn(m: Mixture) -> float:
    """Inverse temperature above which sup g_beta' on [0,1) turns positive."""
    return _beta_sup_positive(m, 1)


def _descending_level_root(f, level: float):
    """sup {x in [0,1): f(x) >= level}, or None if no grid point qualifies.

    Descending scan locates the highest grid cell with f >= level, then a sign
    bisection on f - level pins the boundary to 1e-12.
    """
    xs = np.linspace(0.0, _X_HI, _N_GRID)
    vs = f(xs) - level
    idx = np.nonzero(vs >= 0.0)[0]
    if len(idx) == 0:
        return None
    k = int(idx[-1])
    if k == len(xs) - 1:
        return float(xs[-1])
    lo, hi = xs[k], xs[k + 1]  # f(lo) >= level > f(hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) >= level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def q_d(m: Mixture, beta: float) -> float:
    """Long-time plateau of the infinite-temperature-start correlation.

    c_inf at gamma = 1/2: largest x in [0,1) with g_beta'(x) >= 0; zero below
    the dynamical critical temperature.
    """
    return c_inf(m, beta, 0.5)


def c_inf(m: Mixture, beta: float, gamma: float) -> float:
    """Plateau level sup {x in [0,1]: g_beta'(x) >= 1/2 - gamma}.

    The one plateau rule: a level below 1e-9 is exactly 0.0.  Raises
    GammaTooSmallError when the admissible set is empty.
    """
    level = 0.5 - gamma
    root = _descending_level_root(lambda x: g_beta(m, beta, x, 1), level)
    if root is None:
        # the scan grid includes x=0 where g' = 0, so emptiness means level > 0
        raise GammaTooSmallError(
            f"no x in [0,1) has g_beta'(x) >= {level}; increase gamma"
        )
    return 0.0 if root < 1e-9 else root


@dataclass(frozen=True)
class BandRelaxation:
    """Outcome of the order-one band-relaxation criterion at overlap q_beta."""

    gamma_beta: float
    c_inf: float
    fast: bool
    beta_c_dyn_effective: float
    below_effective: bool


def band_relaxation_predicate(m: Mixture, beta: float, q_beta: float) -> BandRelaxation:
    """Does the stationary solution relax onto the q_beta band in O(1) time?

    gamma_beta is gamma_star of the Gibbs start on the band, at q_star = alpha
    = sqrt(q_beta): 1/(2(1-q_beta)) - 2 beta^2 nu'(q_beta).  Relaxation is
    fast iff the plateau of c_{gamma_beta} equals q_beta, equivalently iff
    beta is below the dynamical critical point of the band-restricted model.
    """
    bce = beta_c_dyn(effective_mixture(m, q_beta))  # a DomainError off [0, 1)
    root = math.sqrt(q_beta)
    gamma_b = gamma_star(m, beta, root, root)
    ci = c_inf(m, beta, gamma_b)
    return BandRelaxation(
        gamma_beta=gamma_b,
        c_inf=ci,
        fast=abs(ci - q_beta) < _PLATEAU_TOL,
        beta_c_dyn_effective=bce,
        below_effective=beta < bce,
    )


@dataclass(frozen=True)
class PhasePoint:
    beta: float
    beta_c_dyn: float
    beta_c_stat: float
    q_d: float
    regime: str  # "RS" | "RSB-region"


def classify(m: Mixture, beta: float, *, bcd: float | None = None,
             bcs: float | None = None) -> PhasePoint:
    """Phase data at one temperature; critical points may be passed in."""
    bcd = beta_c_dyn(m) if bcd is None else bcd
    bcs = beta_c_stat(m) if bcs is None else bcs
    qd = q_d(m, beta)
    return PhasePoint(beta, bcd, bcs, qd, "RS" if beta <= bcs else "RSB-region")
