"""Initial-condition algebra: from (q_star, V) to the drift function v(x, y).

The conditioning data V = (E, E_star, G_star, q_o) fixes a linear system for
the weight vector w through the 4x4 covariance matrix of the conditioned
values; w in turn defines the scalar field v(x, y) entering the two-time
equations.  With weights solved for any conditioned values, the same v is
the finite-N conditional mean of -H/N, so both engines take the algebra
from here.  The one ``InitCondition`` holds the start: ``sigma_nu``,
``VFunction`` and ``check_stationary`` read q_star, q_o, the branch and the
band edge off it.  This module also carries the Gibbs-initialization map, the
stationarity test, the large-time consistency residual, and the localized
band solver for pure models.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DomainError, NoRootError, SingularMatrixError,
                     check_keys, check_real)
from .mixture import Mixture, g_beta

__all__ = [
    "InitCondition",
    "VFunction",
    "StationarityReport",
    "FdtRegimeReport",
    "LocalizedBand",
    "sigma_nu",
    "solve_w",
    "solve_weights",
    "gibbs_init",
    "gamma_star",
    "check_stationary",
    "fdt_regime_residual",
    "pure_p_localized",
]

_DEGEN_TOL = 1e-12
_STATIONARY_TOL = 1e-8  # relative least-squares residual of stationary data

BRANCH_RS = "rs"
BRANCH_GENERIC = "generic"
BRANCH_PURE_P = "pure_p"
BRANCH_DEGENERATE = "degenerate"
BRANCH_PURE_P_DEGENERATE = "pure_p_degenerate"


@dataclass(frozen=True)
class InitCondition:
    """Conditioning target (q_star, V) with V = (E, E_star, G_star, q_o).

    The one RS decision: a q_star below _DEGEN_TOL is stored as exactly 0.0.
    A band start has |alpha| = |q_o| / q_star <= 1 + _DEGEN_TOL; beyond that
    edge it is a ConfigError.  So is |q_o| within _DEGEN_TOL of 1: that start
    is +-x_star, where the conditioning covariance is singular.
    """

    q_star: float
    E: float
    E_star: float = 0.0
    G_star: float = 0.0
    q_o: float = 0.0

    def __post_init__(self):
        for name in ("q_star", "E", "E_star", "G_star", "q_o"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if not 0.0 <= self.q_star <= 1.0:
            raise ConfigError("q_star must lie in [0, 1]")
        if self.q_star < _DEGEN_TOL:
            object.__setattr__(self, "q_star", 0.0)
        if self.is_rs:
            if self.E_star != 0.0 or self.G_star != 0.0 or self.q_o != 0.0:
                raise ConfigError("q_star = 0 forces E_star = G_star = q_o = 0")
        elif abs(self.alpha) > 1.0 + _DEGEN_TOL:
            raise ConfigError("|q_o| must not exceed q_star")
        if abs(abs(self.q_o) - 1.0) < _DEGEN_TOL:
            raise ConfigError(f"q_o = {self.q_o}: a start with |q_o| = 1 is +-x_star, "
                              "where the conditioning covariance is singular")

    @property
    def is_rs(self) -> bool:
        return self.q_star == 0.0

    @property
    def is_degenerate(self) -> bool:
        """On the band edge |q_o| = q_star > 0, where the z coordinate vanishes:
        the band angle alpha within _DEGEN_TOL of +-1.

        Relative to q_star: an absolute test on q_star - |q_o| would call every
        band of a q_star near _DEGEN_TOL its edge.
        """
        return not self.is_rs and abs(abs(self.alpha) - 1.0) < _DEGEN_TOL

    @property
    def alpha(self) -> float:
        return 0.0 if self.is_rs else self.q_o / self.q_star

    def branch(self, m: Mixture) -> str:
        if self.is_rs:
            return BRANCH_RS
        if m.is_pure():
            return BRANCH_PURE_P_DEGENERATE if self.is_degenerate else BRANCH_PURE_P
        return BRANCH_DEGENERATE if self.is_degenerate else BRANCH_GENERIC

    @classmethod
    def from_dict(cls, obj: dict, m: Mixture | None = None) -> "InitCondition":
        """Build from an init-spec dict: explicit V or a "gibbs" block, not both;
        a key of neither is refused."""
        try:
            if "gibbs" in obj:
                check_keys("init spec", obj, ("gibbs",))
                g = obj["gibbs"]
                check_keys("gibbs", g, ("beta0", "q_EA", "GS"))
                args = (g["beta0"], g.get("q_EA", 0.0), g.get("GS", 0.0))
            else:
                check_keys("init spec", obj, ("q_star", "V"))
                v = obj["V"]
                check_keys("V", v, ("E", "E_star", "G_star", "q_o"))
                args = (obj["q_star"], v["E"], v.get("E_star", 0.0),
                        v.get("G_star", 0.0), v.get("q_o", 0.0))
        except KeyError as err:
            raise ConfigError(f"init spec missing key {err}") from err
        except (AttributeError, TypeError) as err:
            raise ConfigError(f"init spec has a malformed value: {err}") from err
        if "gibbs" not in obj:
            return cls(*args)
        if m is None:
            raise ConfigError("gibbs init spec needs the mixture")
        return gibbs_init(m, *args)


def sigma_nu(m: Mixture, ic: InitCondition) -> np.ndarray:
    """4x4 covariance of the conditioned values at (x_0, x_star) of a band start.

    Symmetric and positive definite for |q_o| < 1 whenever the mixture is not
    pure; the fourth row/column degenerates gracefully at |q_o| = q_star.
    """
    if ic.is_rs:
        raise DomainError("sigma_nu requires q_star > 0")
    q_star, q_o = ic.q_star, ic.q_o
    qs2 = q_star**2
    root = math.sqrt(max(qs2 - q_o**2, 0.0))
    n_qo, d_qo = m.nu(q_o), m.nu(q_o, 1)
    return np.array([
        [m.nu(1.0), n_qo, q_o * d_qo / qs2, root * d_qo / qs2],
        [n_qo, m.nu(qs2), m.nu(qs2, 1), 0.0],
        [q_o * d_qo / qs2, m.nu(qs2, 1), m.psi(qs2) / qs2, 0.0],
        [root * d_qo / qs2, 0.0, 0.0, m.nu(qs2, 1) / qs2],
    ])


@dataclass(frozen=True)
class VFunction:
    """Drift source v(x, y) = <v_hat(x, y, z), w> with its partials.

    x and y are a point's overlaps with x_star and x_0, and v_hat holds the
    covariances of the field there with the conditioned values, so v is also
    the finite-N conditional mean of -H/N.  The start ic fixes the geometry
    and, with the mixture, the branch.  In the degenerate branches (including
    q_star = 0) the auxiliary coordinate z is identically zero and w4 = 0.
    Float arguments give Python floats.
    """

    w: np.ndarray
    ic: InitCondition
    mixture: Mixture
    branch: str = field(init=False)
    # z's scale sqrt(q_star^2 - q_o^2), on the branches that use z
    _root: float = field(init=False, repr=False, compare=False)
    # w as Python floats, so float arguments never meet numpy scalars
    _wf: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "branch", self.ic.branch(self.mixture))
        object.__setattr__(self, "_root", math.sqrt(self.ic.q_star**2 - self.ic.q_o**2)
                           if self.use_z else math.nan)
        object.__setattr__(self, "_wf", tuple(float(c) for c in self.w))

    @property
    def use_z(self) -> bool:
        return self.branch in (BRANCH_GENERIC, BRANCH_PURE_P)

    def _z(self, x, y):
        return (y - self.ic.q_o * x / self.ic.q_star**2) / self._root

    def v(self, x, y):
        m, (w0, w1, w2, w3) = self.mixture, self._wf
        out = w0 * m.nu(y)
        if self.branch == BRANCH_RS:
            return out
        d1 = m.nu(x, 1)
        out = out + w1 * m.nu(x) + w2 * x * d1 / self.ic.q_star**2
        if self.use_z:
            out = out + w3 * self._z(x, y) * d1
        return out

    def vx(self, x, y):
        if self.branch == BRANCH_RS:
            return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
        m, (_, w1, w2, w3) = self.mixture, self._wf
        d1, d2 = m.nu(x, 1), m.nu(x, 2)
        # (d1 + x d2) is psi(x)
        out = w1 * d1 + w2 * (d1 + x * d2) / self.ic.q_star**2
        if self.use_z:
            zx = -self.ic.q_o / (self.ic.q_star**2 * self._root)
            out = out + w3 * (zx * d1 + self._z(x, y) * d2)
        return out

    def vy(self, x, y):
        m, (w0, _, _, w3) = self.mixture, self._wf
        out = w0 * m.nu(y, 1)
        if self.use_z:
            out = out + w3 * m.nu(x, 1) / self._root
        return out


def solve_w(ic: InitCondition, m: Mixture) -> VFunction:
    """The drift source of the target data: solve_weights at (E, E_star, G_star, 0)."""
    return solve_weights(ic, m, np.array([ic.E, ic.E_star, ic.G_star, 0.0]))


def solve_weights(ic: InitCondition, m: Mixture, vhat) -> VFunction:
    """Solve Sigma w = vhat on the geometry and branch of ic; v with those weights.

    vhat holds conditioned values (start energy, critical energy, radial
    and z gradient, all as -H/N and -grad H/|x_star|).  Branches: pure
    models force w3 = 0 (their radial derivative is redundant) and solve
    the reduced system; |q_o| = q_star forces w4 = 0 and drops the z
    coordinate.  The pure models' redundant values must match their value
    rows.  Two branches keep one weight, w = (vhat_1 / nu(1), 0, 0, 0):
    q_star = 0, where v(y) = vhat_1 nu(y) / nu(1), and the pure band edge.
    """
    vhat = np.asarray(vhat, dtype=float)
    E, E_star, G_star, _ = vhat.tolist()
    branch = ic.branch(m)
    w = np.zeros(4)
    if branch in (BRANCH_PURE_P, BRANCH_PURE_P_DEGENERATE):
        p = m.p_max
        g_implied = p * E_star / ic.q_star**2
        if not (math.isfinite(g_implied)
                and abs(G_star - g_implied) <= 1e-8 * (1.0 + abs(g_implied))):
            raise ConfigError(
                f"pure p-spin requires G_star = p E_star / q_star^2 = {g_implied}")
    if branch == BRANCH_PURE_P_DEGENERATE:
        e_star_implied = E * ic.q_o**p
        if abs(E_star - e_star_implied) > 1e-8 * (1.0 + abs(E)):
            raise ConfigError(
                f"pure degenerate branch requires E_star = E q_o^p = {e_star_implied}"
            )
    if branch in (BRANCH_RS, BRANCH_PURE_P_DEGENERATE):
        w[0] = E / m.nu(1.0)
    else:
        # the solved components: pure drops w3, a degenerate band drops w4
        keep = {BRANCH_PURE_P: [0, 1, 3], BRANCH_DEGENERATE: [0, 1, 2]}.get(
            branch, [0, 1, 2, 3])
        w[keep] = _pd_solve(sigma_nu(m, ic)[np.ix_(keep, keep)],
                            vhat[keep], branch == BRANCH_DEGENERATE)
    if not np.isfinite(w).all():
        raise DomainError(f"conditioning weights overflow: w = {w}")
    return VFunction(w, ic, m)


def _pd_solve(a: np.ndarray, b: np.ndarray, degenerate: bool) -> np.ndarray:
    """Cholesky solve with least-squares fallback; an inconsistent system raises,
    with the degenerate band's constraint as the hint on that branch.

    Residuals are max norms: a sum of squares overflows near the float range.
    """
    tol = 1e-8 * (1.0 + np.abs(b).max())
    try:
        L = np.linalg.cholesky(a)
        w = np.linalg.solve(L.T, np.linalg.solve(L, b))
        if np.abs(a @ w - b).max() <= tol:
            return w
    except np.linalg.LinAlgError:
        pass
    w, _, rank, _ = np.linalg.lstsq(a, b, rcond=1e-12)
    if rank < a.shape[0]:
        warnings.warn("conditioning matrix rank-deficient; least-squares w")
    res = np.abs(a @ w - b).max()
    if not res <= tol:
        msg = f"conditioning data inconsistent with the covariance (residual {res:.3e})"
        if degenerate:
            msg += ("; on a degenerate band the on-ray values are constrained when "
                    "the mixture has fewer than three active powers")
        raise SingularMatrixError(msg)
    return w


def gibbs_init(m: Mixture, beta0: float, q_EA: float, GS_at_qstar: float = 0.0
               ) -> InitCondition:
    """Conditioning data matching an equilibrium start at inverse temperature beta0.

    q_EA = 0 selects the high-temperature branch with E = 2 beta0 nu(1).
    Otherwise q_star = sqrt(q_EA), q_o = q_EA, E_star = GS_at_qstar,
    G_star = 1/(2 beta0 (1-q_star^2)) + 2 beta0 (1-q_star^2) nu''(q_star^2)
    and E = E_star + 2 beta0 theta(q_star^2).  q_EA and the restricted
    ground-state energy are caller-supplied inputs.  Too shallow a GS gives data
    that are stationary but unstable: on {2: 1, 3: 1}, q_EA 0.5, beta0 0.358, a
    kick to q grows at rate 3.46 at GS = -1, a rate that crosses 0 near GS 0.83.
    """
    beta0, q_EA = check_real("beta0", beta0), check_real("q_EA", q_EA)
    GS_at_qstar = check_real("GS", GS_at_qstar)
    if beta0 < 0.0:
        raise ConfigError("beta0 must be nonnegative")
    if q_EA == 0.0:
        return InitCondition(0.0, 2.0 * beta0 * m.nu(1.0))
    if not 0.0 < q_EA < 1.0:
        raise ConfigError("q_EA must lie in [0, 1)")
    if beta0 * (1.0 - q_EA) == 0.0:
        raise ConfigError(f"q_EA > 0 needs beta0 > 0: G_star holds 1/(2 beta0 (1 - q_EA)), "
                          f"infinite at beta0 = {beta0}")
    G = 0.5 / (beta0 * (1.0 - q_EA)) + 2.0 * beta0 * (1.0 - q_EA) * m.nu(q_EA, 2)
    E = GS_at_qstar + 2.0 * beta0 * m.theta(q_EA)
    return InitCondition(math.sqrt(q_EA), E, GS_at_qstar, G, q_EA)


def gamma_star(m: Mixture, beta: float, q_star: float, alpha: float) -> float:
    """The one band-gamma rule: the relaxation parameter stationary data at band
    angle alpha select; exactly 1/2 at the RS start q_star = 0 (alpha = 0)."""
    if abs(alpha) >= 1.0 or (q_star == 0.0 and alpha != 0.0):
        raise DomainError("gamma_star requires |alpha| < 1, and alpha = 0 at q_star = 0")
    if q_star == 0.0:
        return 0.5
    qs2 = q_star**2
    return 0.5 / (1.0 - alpha**2) - 2.0 * beta**2 * m.nu(alpha * q_star, 1) ** 2 / m.nu(qs2, 1)


@dataclass(frozen=True)
class StationarityReport:
    admissible: bool
    residual: float


def check_stationary(ic: InitCondition, m: Mixture, beta: float) -> StationarityReport:
    """Is (q_star, V) stationary data for the dynamics at this beta?

    Builds the constraint vector and tests membership in the column space of
    the associated 4x2 matrix through a least-squares residual, admissible
    below _STATIONARY_TOL (1 + |vector|); q_star = 0 instead checks
    E = 2 beta nu(1).  The band edge (``ic.is_degenerate``) is never
    stationary (residual inf); q_star > 0 needs a nonzero beta.  A
    non-finite beta is a ConfigError.
    """
    beta = check_real("beta", beta)
    if ic.is_rs:
        res, scale = abs(ic.E - 2.0 * beta * m.nu(1.0)), abs(ic.E)
    elif ic.is_degenerate:
        return StationarityReport(False, np.inf)
    else:
        res, scale = _stationarity_residual(ic, m, beta)
    if not math.isfinite(res):
        raise DomainError(f"stationarity residual overflows at beta = {beta}")
    return StationarityReport(bool(res < _STATIONARY_TOL * (1.0 + scale)), res)


def _stationarity_residual(ic: InitCondition, m: Mixture, beta: float):
    """Least-squares residual of the constraint vector, and its norm."""
    alpha = ic.alpha
    if 2.0 * beta * (1.0 - alpha**2) == 0.0:
        raise ConfigError(f"stationarity at q_star > 0 needs a nonzero beta, got {beta}")
    qs, qo = ic.q_star, ic.q_o
    qs2 = qs**2
    b_alpha = m.nu(qo, 1) / m.nu(qs2, 1)
    lhs = np.array([
        ic.E - 2.0 * beta * (m.nu(1.0) - (1.0 - alpha**2) * m.nu(qo, 1) * b_alpha),
        ic.E_star - 2.0 * beta * m.nu(qo),
        qs * ic.G_star - 2.0 * beta * alpha * m.nu(qo, 1),
        alpha / (2.0 * beta * (1.0 - alpha**2))
        - 2.0 * beta * b_alpha * (alpha * m.psi(qo) - qs * m.nu(qo, 2)),
    ])
    cols = np.array([
        [m.nu(qo), alpha * qs * m.nu(qo, 1)],
        [m.nu(qs2), qs2 * m.nu(qs2, 1)],
        [qs * m.nu(qs2, 1), qs * m.psi(qs2)],
        [qs * m.nu(qo, 1), qs * m.psi(qo)],
    ])
    if not np.isfinite(lhs).all():
        raise DomainError(f"stationarity constraints overflow: {lhs}")
    coef, _, _, _ = np.linalg.lstsq(cols, lhs, rcond=None)
    return float(np.linalg.norm(lhs - cols @ coef)), np.linalg.norm(lhs)


@dataclass(frozen=True)
class FdtRegimeReport:
    res_new24: float
    psd_ok: bool


def fdt_regime_residual(m: Mixture, beta: float, ic: InitCondition,
                        alpha: float, alpha_hat: float, c_inf_val: float
                        ) -> FdtRegimeReport:
    """Consistency of a candidate large-time limit (alpha, alpha_hat, c_inf).

    Residual of the algebraic identity fixing alpha_hat, plus the
    positive-semidefiniteness bound on (alpha_hat - alpha)^2.
    """
    if ic.is_rs:
        raise ConfigError("large-time consistency residual needs q_star > 0")
    vf = solve_w(ic, m)
    qs, qo, alpha_o = ic.q_star, ic.q_o, ic.alpha
    gamma = 0.5 - g_beta(m, beta, c_inf_val, 1)
    mu = gamma + 2.0 * beta**2 * m.nu(1.0, 1)
    kappa1 = 2.0 * (m.nu(1.0, 1) - m.nu(c_inf_val, 1))
    kappa2 = 2.0 * (1.0 - c_inf_val)
    x, y = alpha * qs, alpha_hat * alpha_o
    rhs = (beta * qo * vf.vx(x, y) + beta * vf.vy(x, y)
           - beta**2 * qo * (m.nu(x, 2) * m.nu(x, 1) / m.nu(qs**2, 1)) * kappa2
           + beta**2 * y * kappa1)
    res = abs(mu * y - rhs)
    psd = (alpha_hat - alpha) ** 2 * alpha_o**2 <= (c_inf_val - alpha**2) * (
        1.0 - alpha_o**2) + 1e-12
    return FdtRegimeReport(res, bool(psd))


@dataclass(frozen=True)
class LocalizedBand:
    q_minus: float
    q_beta: float
    H_inf: float


def pure_p_localized(m: Mixture, beta: float, q_c: float,
                     GS_at_sqrt_qbeta: float) -> LocalizedBand:
    """Band sizes of localized no-aging states for a pure model, p >= 3.

    Solves 2 beta sqrt(nu''(q)) (1-q) = sqrt((p-1)(1-q_c)) on the ascending
    branch [0, (p-2)/p] and the descending branch [(p-2)/p, 1]; the long-time
    energy is GS(sqrt(q_beta)) + 2 beta theta(q_beta).  q_c is an input.
    """
    if not m.is_pure():
        raise ConfigError("localized-band solver applies to pure models only")
    p = m.p_max
    if p < 3:
        raise ConfigError("two-branch root structure requires p >= 3")
    if not 0.0 < q_c < 1.0:
        raise ConfigError("q_c must lie in (0, 1)")
    rhs = math.sqrt((p - 1) * (1.0 - q_c))

    def y(q):
        return 2.0 * beta * math.sqrt(m.nu(q, 2)) * (1.0 - q)

    q_peak = (p - 2) / p
    if y(q_peak) < rhs:
        raise NoRootError("peak of the band equation below the target level; beta too small")

    def bisect(lo, hi, increasing):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (y(mid) < rhs) == increasing:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    q_minus = bisect(0.0, q_peak, increasing=True)
    q_beta = bisect(q_peak, 1.0, increasing=False)
    h_inf = GS_at_sqrt_qbeta + 2.0 * beta * m.theta(q_beta)
    return LocalizedBand(q_minus, q_beta, h_inf)
