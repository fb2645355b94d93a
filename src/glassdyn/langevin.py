"""Finite-N Langevin integrator with observables and the limit-error metric.

Euler--Maruyama on a sub-grid of the observable grid; the driving Brownian
increments are recorded so the integrated-response observable is exact (it is
an inner product with the Brownian path, not a time integral).  Two drift
variants: soft radial confinement, and projected dynamics on the sphere with
renormalization after every step (the renormalization error is O(h) and is
dominated by the 1/N path fluctuations at desk scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import TwoTimeSolution, integrated_response
from .errors import ConfigError, EscapeError, GridMismatchError

__all__ = [
    "LangevinConfig",
    "Trajectory",
    "ObservableSet",
    "integrate_ensemble",
    "observables",
    "error_functional",
    "average_error",
    "ensemble_error",
    "rotation_invariance_test",
    "RotatedField",
    "random_orthogonal",
]

VARIANT_SPHERE = "spherical"
VARIANT_FCONF = "fconfined"
_R_GUARD = 2.0  # a path whose radius leaves (0.5, _R_GUARD) has escaped


@dataclass(frozen=True)
class LangevinConfig:
    beta: float
    T: float
    h_obs: float
    substeps: int = 5
    variant: str = VARIANT_SPHERE
    ell: float | None = None
    f0_slope: float = 0.5

    def __post_init__(self):
        for name in ("T", "h_obs"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if not math.isfinite(self.beta):
            raise ConfigError(f"beta must be finite, got {self.beta}")
        if self.substeps < 1:
            raise ConfigError(f"substeps must be >= 1, got {self.substeps}")
        if self.variant not in (VARIANT_SPHERE, VARIANT_FCONF):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.variant == VARIANT_FCONF and not (self.ell is not None
                                                  and 0.0 < self.ell < math.inf):
            raise ConfigError("fconfined variant needs a positive finite ell")
        if abs(self.T / self.h_obs - round(self.T / self.h_obs)) > 1e-9:
            raise ConfigError("T must be an integer multiple of h_obs")

    @property
    def n_obs(self) -> int:
        return round(self.T / self.h_obs)


@dataclass
class Trajectory:
    """State and Brownian snapshots on the observable grid."""

    h_obs: float
    x: np.ndarray  # (n_obs+1, N)
    B: np.ndarray  # (n_obs+1, N)
    seed: int | None


def _euler_maruyama(field, x0: np.ndarray, cfg: LangevinConfig, seeds: list,
                    draw) -> list[Trajectory]:
    """Step one copy of x0 per seed in lockstep, one row of X per path.

    ``draw(k)`` returns the (len(seeds), N) Brownian increments of SDE step
    k; each step makes one field.gradient_batch call for all rows, and checks
    the radii it computes anyway: an escape is an EscapeError at its step.
    """
    N, n_paths = len(x0), len(seeds)
    n_obs, sub = cfg.n_obs, cfg.substeps
    h = cfg.h_obs / sub
    X = np.tile(x0.astype(float), (n_paths, 1))
    B = np.zeros((n_paths, N))
    xs = np.empty((n_paths, n_obs + 1, N))
    Bs = np.empty((n_paths, n_obs + 1, N))
    xs[:, 0], Bs[:, 0] = X, B
    rootN = math.sqrt(N)
    spherical = cfg.variant == VARIANT_SPHERE
    r = (X * X).sum(axis=1, keepdims=True) / N
    for k in range(n_obs * sub):
        dB = draw(k)
        G = field.gradient_batch(X)
        if spherical:
            xx = (X * X).sum(axis=1, keepdims=True)
            gsp = G - ((G * X).sum(axis=1, keepdims=True) / xx) * X
            noise = dB - ((dB * X).sum(axis=1, keepdims=True) / xx) * X
            X = X + h * (-cfg.beta * gsp - (N - 1) / (2.0 * N) * X) + noise
            norm = np.linalg.norm(X, axis=1, keepdims=True)
            rad = norm[:, 0] / rootN
            X *= rootN / norm
        else:
            X = X + h * (-(2.0 * cfg.ell * (r - 1.0) + cfg.f0_slope) * X
                         - cfg.beta * G) + dB
            r = (X * X).sum(axis=1, keepdims=True) / N
            rad = np.sqrt(r[:, 0])
        out = np.flatnonzero(~((rad > 0.5) & (rad < _R_GUARD)))  # NaN fails too
        if len(out):
            i = out[0]
            raise EscapeError(f"path {i} (seed {seeds[i]}) radius {rad[i]:.3f} left "
                              f"(0.5, {_R_GUARD}) at SDE step {k + 1}")
        B = B + dB
        if (k + 1) % sub == 0:
            j = (k + 1) // sub
            xs[:, j], Bs[:, j] = X, B
    return [Trajectory(cfg.h_obs, xs[i], Bs[i], s) for i, s in enumerate(seeds)]


def integrate_ensemble(field, x0: np.ndarray, cfg: LangevinConfig,
                       n_paths: int, master_seed: int) -> list[Trajectory]:
    """Independent Brownian paths from one start point, stepped in lockstep.

    All paths share the field realization, so each step needs a single pass
    over the coupling tensors through field.gradient_batch.  Path seeds are
    derived from the master seed by a counter; a single path is the one-path
    ensemble, integrate_ensemble(field, x0, cfg, 1, seed)[0].
    """
    if n_paths < 1:
        raise ConfigError(f"n_paths must be >= 1, got {n_paths}")
    N = len(x0)
    sqrt_h = math.sqrt(cfg.h_obs / cfg.substeps)
    seeds = [master_seed + i for i in range(n_paths)]
    rngs = [np.random.default_rng(s) for s in seeds]
    return _euler_maruyama(
        field, x0, cfg, seeds,
        lambda k: np.stack([r.standard_normal(N) for r in rngs]) * sqrt_h)


@dataclass
class ObservableSet:
    """Empirical two-time and one-time observables of one path."""

    h: float
    C: np.ndarray    # (n+1, n+1) symmetric
    chi: np.ndarray  # (n+1, n+1), rows = state time, cols = noise time
    q: np.ndarray
    H: np.ndarray
    K: np.ndarray


def observables(trajs: list[Trajectory], field,
                x_star: np.ndarray | None) -> list[ObservableSet]:
    """Inner-product observables of each path; the energy uses the supplied field.

    One field.value_batch call covers the grid points of every path, so the
    energies cost one pass over the coupling tensors for the whole ensemble.
    """
    N = trajs[0].x.shape[1]
    H_all = -field.value_batch(np.concatenate([t.x for t in trajs])) / N
    ends = np.cumsum([len(t.x) for t in trajs])[:-1]
    out = []
    for t, H in zip(trajs, np.split(H_all, ends)):
        X, B = t.x, t.B
        C = X @ X.T / N
        chi = X @ B.T / N
        q = X @ x_star / N if x_star is not None else np.zeros(X.shape[0])
        out.append(ObservableSet(t.h_obs, C, chi, q, H, np.diagonal(C).copy()))
    return out


def _limit_on_grid(sol: TwoTimeSolution, h_obs: float, n_obs: int):
    ratio = h_obs / sol.h
    if abs(ratio - round(ratio)) > 1e-9:
        raise GridMismatchError("observable step not a multiple of the solver step")
    r = round(ratio)
    if n_obs * r > sol.n:
        raise GridMismatchError("solution horizon shorter than the observable window")
    idx = np.arange(n_obs + 1) * r
    Cs = sol.C[np.ix_(idx, idx)]
    return Cs, integrated_response(sol, idx), sol.q[idx], sol.H[idx]


def _errors(obs_list, sol: TwoTimeSolution, T: float) -> list[float]:
    """error_functional of each observable set, all scored against one copy
    of the limit on their common grid."""
    h = obs_list[0].h
    n_obs = round(T / h)
    if abs(T / h - n_obs) > 1e-9 or any(o.h != h or n_obs > len(o.q) - 1
                                        for o in obs_list):
        raise GridMismatchError("T incompatible with the observable grid")
    sl = slice(0, n_obs + 1)
    C_lim, chi_lim, q_lim, H_lim = _limit_on_grid(sol, h, n_obs)
    return [float(sum([
        min(float(np.abs(o.C[sl, sl] - C_lim).max()), 1.0),
        min(float(np.abs(o.chi[sl, sl] - chi_lim).max()), 1.0),
        min(float(np.abs(o.q[sl] - q_lim).max()), 1.0),
        min(float(np.abs(o.H[sl] - H_lim).max()), 1.0),
    ])) for o in obs_list]


def error_functional(obs: ObservableSet, sol: TwoTimeSolution, T: float) -> float:
    """Capped sup-norm distance between empirical and limit observables.

    Sum of min(sup-difference, 1) over correlation, integrated response,
    critical-point overlap and energy; bounded by 4.
    """
    return _errors([obs], sol, T)[0]


def average_error(obs_list, sol: TwoTimeSolution, T: float):
    """Monte Carlo mean and standard error of the path-error metric."""
    errs = np.array(_errors(obs_list, sol, T))
    se = errs.std(ddof=1) / math.sqrt(len(errs)) if len(errs) > 1 else 0.0
    return float(errs.mean()), float(se)


def ensemble_error(obs_list, sol: TwoTimeSolution, T: float) -> float:
    """Error functional of the path-averaged observables.

    Averaging the observables over Brownian paths before taking sup norms
    removes the O(1/sqrt(N)) single-path fluctuation floor and exposes the
    finite-size bias; this is the quantity the convergence tables track.
    """
    mean = ObservableSet(
        h=obs_list[0].h,
        C=np.mean([o.C for o in obs_list], axis=0),
        chi=np.mean([o.chi for o in obs_list], axis=0),
        q=np.mean([o.q for o in obs_list], axis=0),
        H=np.mean([o.H for o in obs_list], axis=0),
        K=np.mean([o.K for o in obs_list], axis=0),
    )
    return error_functional(mean, sol, T)


class RotatedField:
    """View of a field precomposed with the transpose of an orthogonal map."""

    def __init__(self, field, O: np.ndarray):
        self.field = field
        self.O = O

    def gradient_batch(self, X):
        return self.field.gradient_batch(X @ self.O) @ self.O.T

    def value_batch(self, X):
        return self.field.value_batch(X @ self.O)


def random_orthogonal(N: int, seed: int) -> np.ndarray:
    """Orthogonal matrix from a product of random Householder reflections."""
    rng = np.random.default_rng(seed)
    O = np.eye(N)
    for _ in range(4):
        v = rng.standard_normal(N)
        v /= np.linalg.norm(v)
        O = O - 2.0 * np.outer(v, v @ O)
    return O


def rotation_invariance_test(field, O: np.ndarray, x0: np.ndarray,
                             x_star: np.ndarray, cfg: LangevinConfig,
                             seed: int, tol: float = 1e-9,
                             rotate_noise: bool = True):
    """Pathwise equivariance of the observables under a global rotation.

    Runs the same Brownian increments twice: raw, and with everything
    (points, field, noise) rotated.  Returns (ok, max deviation); with
    rotate_noise=False this is the negative control and should fail.
    """
    N = len(x0)
    rng = np.random.default_rng(seed)
    h = cfg.h_obs / cfg.substeps
    dB = rng.standard_normal((cfg.n_obs * cfg.substeps, N)) * math.sqrt(h)
    t1 = _euler_maruyama(field, x0, cfg, [seed], lambda k: dB[k:k + 1])[0]
    o1 = observables([t1], field, x_star)[0]
    dB2 = dB @ O.T if rotate_noise else dB
    f2 = RotatedField(field, O)
    t2 = _euler_maruyama(f2, O @ x0, cfg, [seed], lambda k: dB2[k:k + 1])[0]
    o2 = observables([t2], f2, O @ x_star)[0]
    dev = max(
        float(np.abs(o1.C - o2.C).max()),
        float(np.abs(o1.chi - o2.chi).max()),
        float(np.abs(o1.q - o2.q).max()),
        float(np.abs(o1.H - o2.H).max()),
    )
    return dev <= tol, dev
