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

from .dynamics import (_GRID_TOL, VARIANT_SPHERICAL, TwoTimeSolution, check_variant,
                       chi_rows, grid_steps, sup_distance)
from .errors import ConfigError, EscapeError, GridMismatchError, check_count, check_real

__all__ = [
    "LangevinConfig",
    "Trajectory",
    "ObservableSet",
    "integrate_ensemble",
    "observables",
    "score",
    "error_functional",
    "average_error",
    "ensemble_error",
    "rotation_invariance_test",
    "RotatedField",
    "random_orthogonal",
]

VARIANT_FCONF = "fconfined"
_R_FLOOR, _R_GUARD = 0.5, 2.0  # a path whose radius leaves this band has escaped
_PATH_BLOCK = 4  # paths per numpy call of the score's row comparisons
_ROTATION_TOL = 1e-9  # largest observable deviation an equivariant rotation may show


@dataclass(frozen=True)
class LangevinConfig:
    """Grid and drift of one finite-N run, ``substeps`` SDE steps per
    observable step: the observable grid s_j = j h_obs, j <= n_obs, under
    ``grid_steps``, and the variant and its stiffness under ``check_variant``."""

    beta: float
    T: float
    h_obs: float
    substeps: int = 5
    variant: str = VARIANT_SPHERICAL
    ell: float | None = None
    f0_slope: float = 0.5

    def __post_init__(self):
        for name in ("beta", "f0_slope"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        grid_steps(self.T, self.h_obs, ("T", "h_obs"))
        object.__setattr__(self, "substeps", check_count("substeps", self.substeps, 1))
        check_variant(self.variant, self.ell, (VARIANT_SPHERICAL, VARIANT_FCONF),
                      VARIANT_FCONF)

    @property
    def n_obs(self) -> int:
        return grid_steps(self.T, self.h_obs, ("T", "h_obs"))


@dataclass
class Trajectory:
    """States and Brownian snapshots of every path on the observable grid, path
    index first; len() is the number of paths, and one path is an ensemble of one."""

    h_obs: float
    x: np.ndarray  # (paths, n_obs+1, N)
    B: np.ndarray  # (paths, n_obs+1, N)
    seeds: list[int]

    def __len__(self) -> int:
        return len(self.seeds)


def _check_start(x0: np.ndarray):
    """Refuse, naming x0, a start the stepper would misreport as an escape: not
    a non-empty finite 1-D array, or |x0| / sqrt(N) outside (_R_FLOOR, _R_GUARD)."""
    if np.ndim(x0) != 1 or len(x0) == 0 or not np.isfinite(x0).all():
        raise ConfigError(f"x0 must be a non-empty finite 1-D array, got shape {np.shape(x0)}")
    rad = float(np.linalg.norm(x0)) / math.sqrt(len(x0))
    if not _R_FLOOR < rad < _R_GUARD:
        raise ConfigError(f"x0 radius {rad:.3f} is outside ({_R_FLOOR}, {_R_GUARD})")


def _euler_maruyama(field, x0: np.ndarray, cfg: LangevinConfig, seeds: list,
                    draw) -> Trajectory:
    """Step one copy of x0 per seed in lockstep, one row of X per path.

    ``draw(k)`` returns the (len(seeds), N) Brownian increments of SDE step
    k; each step makes one field.gradient_batch call for all rows, and checks
    the radii it computes anyway: an escape is an EscapeError at its step.  A
    start it cannot take is a ConfigError naming x0, raised before step 1.
    """
    _check_start(x0)
    N, n_paths = len(x0), len(seeds)
    n_obs, sub = cfg.n_obs, cfg.substeps
    h = cfg.h_obs / sub
    X = np.tile(x0.astype(float), (n_paths, 1))
    B = np.zeros((n_paths, N))
    xs, Bs = np.empty((2, n_paths, n_obs + 1, N))
    xs[:, 0], Bs[:, 0] = X, B
    rootN = math.sqrt(N)
    spherical = cfg.variant == VARIANT_SPHERICAL
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
        out = np.flatnonzero(~((rad > _R_FLOOR) & (rad < _R_GUARD)))  # NaN fails too
        if len(out):
            i = out[0]
            raise EscapeError(f"path {i} (seed {seeds[i]}) radius {rad[i]:.3f} left "
                              f"({_R_FLOOR}, {_R_GUARD}) at SDE step {k + 1}")
        B = B + dB
        if (k + 1) % sub == 0:
            j = (k + 1) // sub
            xs[:, j], Bs[:, j] = X, B
    return Trajectory(cfg.h_obs, xs, Bs, seeds)


def integrate_ensemble(field, x0: np.ndarray, cfg: LangevinConfig,
                       n_paths: int, master_seed: int) -> Trajectory:
    """Independent Brownian paths from one start point, stepped in lockstep.

    All paths share the field realization, so each step needs a single pass
    over the coupling tensors through field.gradient_batch.  Path i is seeded
    master_seed + i and is row i of the record's x and B; a single path is
    the one-path ensemble, integrate_ensemble(field, x0, cfg, 1, seed).x[0].
    A start that is not a finite 1-D point inside the escape band is a
    ConfigError naming x0, raised before the first step.
    """
    n_paths = check_count("n_paths", n_paths, 1)
    master_seed = check_count("master_seed", master_seed, 0)
    sqrt_h = math.sqrt(cfg.h_obs / cfg.substeps)
    seeds = [master_seed + i for i in range(n_paths)]
    rngs = [np.random.default_rng(s) for s in seeds]
    return _euler_maruyama(
        field, x0, cfg, seeds,
        lambda k: np.stack([r.standard_normal(len(x0)) for r in rngs]) * sqrt_h)


@dataclass
class ObservableSet:
    """Empirical observables of an ensemble of paths, path index first; a
    single path is an ensemble of one, and so is the path mean."""

    h: float
    C: np.ndarray    # (paths, n+1, n+1), symmetric in its last two axes
    chi: np.ndarray  # (paths, n+1, n+1), rows = state time, cols = noise time
    q: np.ndarray    # (paths, n+1)
    H: np.ndarray    # (paths, n+1)

    @property
    def paths(self) -> int:
        return len(self.C)

    @property
    def K(self) -> np.ndarray:
        """Squared radius |x(s)|^2 / N of each path: the diagonal of C."""
        return np.diagonal(self.C, axis1=1, axis2=2)

    def mean(self) -> ObservableSet:
        """The path mean as an ensemble of one, summing the paths in order."""
        return ObservableSet(self.h, *(a.mean(axis=0, keepdims=True)
                                       for a in (self.C, self.chi, self.q, self.H)))


def observables(traj: Trajectory, field, x_star: np.ndarray | None) -> ObservableSet:
    """Inner-product observables of every path; the energy uses the supplied field.

    C, chi and q are one batched product each over the record's own x and B,
    read in place, and one field.value_batch call covers the grid points of
    every path: one pass over the coupling tensors for the ensemble.
    """
    X = traj.x
    paths, n1, N = X.shape
    H = -field.value_batch(X.reshape(-1, N)).reshape(paths, n1) / N
    q = X @ x_star / N if x_star is not None else np.zeros((paths, n1))
    C = X @ X.transpose(0, 2, 1)
    C /= N
    chi = X @ traj.B.transpose(0, 2, 1)
    chi /= N
    return ObservableSet(traj.h_obs, C, chi, q, H)


def _raise_to_row_sups(rows: np.ndarray, lim: np.ndarray, worst: np.ndarray):
    """Raise worst[p] to max |rows[p] - lim| on lim's columns for each path p,
    _PATH_BLOCK paths per call, and worst[-1] to that of the path mean, taken
    over whole rows as obs.mean() takes it (bit for bit); NaN stays NaN.  A
    block is copied beside lim tiled, so numpy subtracts it without a buffer."""
    m = len(lim)
    scratch = np.empty((2, _PATH_BLOCK, m))
    scratch[1] = lim
    sups = np.empty(len(worst))
    for b in range(0, len(rows), _PATH_BLOCK):
        d, tiled = scratch[:, :len(rows) - b]
        d[:] = rows[b:b + _PATH_BLOCK, :m]
        d -= tiled
        np.abs(d, out=d).max(axis=1, out=sups[b:b + len(d)])
    sups[-1] = np.abs(rows.mean(axis=0)[:m] - lim).max()
    np.maximum(worst, sups, out=worst)


def score(obs: ObservableSet, sol: TwoTimeSolution, T: float) -> np.ndarray:
    """Uncapped sup distances of C, chi, q and H to the limit on [0, T]: one
    row per path, then one for the path mean (that of obs.mean()).

    One pass walks the limit's rows on the observable grid; each chi row is
    made by ``chi_rows`` and compared with every path's row and the mean's as
    it is made, so no square of the grid is held.
    """
    if not (math.isfinite(T) and T >= 0.0):
        raise GridMismatchError(f"T must be finite and non-negative, got {T}")
    n_obs, ratio = round(T / obs.h), obs.h / sol.h
    r = round(ratio)
    if abs(T / obs.h - n_obs) > _GRID_TOL or n_obs > obs.q.shape[1] - 1:
        raise GridMismatchError("T incompatible with the observable grid")
    if abs(ratio - r) > _GRID_TOL:
        raise GridMismatchError("observable step not a multiple of the solver step")
    if n_obs * r > sol.n:
        raise GridMismatchError("solution horizon shorter than the observable window")
    grid = slice(0, n_obs * r + 1, r)
    terms = np.zeros((obs.paths + 1, 4))
    for a, chi_row in enumerate(chi_rows(sol, r, n_obs + 1)):
        _raise_to_row_sups(obs.C[:, a], sol.C[a * r, grid], terms[:, 0])
        _raise_to_row_sups(obs.chi[:, a], chi_row, terms[:, 1])
    _raise_to_row_sups(obs.q, sol.q[grid], terms[:, 2])
    _raise_to_row_sups(obs.H, sol.H[grid], terms[:, 3])
    return terms


def error_functional(terms: np.ndarray) -> np.ndarray:
    """Capped error of each row of ``score``'s terms: min(term, 1) summed over
    C, chi, q and H in that order, so bounded by 4."""
    return sum(np.minimum(terms, 1.0).T)


def average_error(terms: np.ndarray):
    """Monte Carlo mean and standard error of the path-error metric."""
    errs = error_functional(terms[:-1])
    se = errs.std(ddof=1) / math.sqrt(len(errs)) if len(errs) > 1 else 0.0
    return float(errs.mean()), float(se)


def ensemble_error(terms: np.ndarray) -> float:
    """Error functional of the path-averaged observables.

    Averaging the observables over Brownian paths before taking sup norms
    removes the O(1/sqrt(N)) single-path fluctuation floor and exposes the
    finite-size bias; this is the quantity the convergence tables track.
    """
    return float(error_functional(terms[-1]))


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
    N, seed = check_count("N", N, 1), check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    O = np.eye(N)
    for _ in range(4):
        v = rng.standard_normal(N)
        v /= np.linalg.norm(v)
        O = O - 2.0 * np.outer(v, v @ O)
    return O


def rotation_invariance_test(field, O: np.ndarray, x0: np.ndarray,
                             x_star: np.ndarray, cfg: LangevinConfig,
                             seed: int, rotate_noise: bool = True):
    """Pathwise equivariance of the observables under a global rotation.

    Runs the same Brownian increments twice: raw, and with everything
    (points, field, noise) rotated.  Returns (ok, max deviation); with
    rotate_noise=False this is the negative control and should fail.
    """
    N = len(x0)
    rng = np.random.default_rng(check_count("seed", seed, 0))
    h = cfg.h_obs / cfg.substeps
    dB = rng.standard_normal((cfg.n_obs * cfg.substeps, N)) * math.sqrt(h)
    t1 = _euler_maruyama(field, x0, cfg, [seed], lambda k: dB[k:k + 1])
    o1 = observables(t1, field, x_star)
    dB2 = dB @ O.T if rotate_noise else dB
    f2 = RotatedField(field, O)
    t2 = _euler_maruyama(f2, O @ x0, cfg, [seed], lambda k: dB2[k:k + 1])
    o2 = observables(t2, f2, O @ x_star)
    dev = max(sup_distance(getattr(o1, k), getattr(o2, k)) for k in ("C", "chi", "q", "H"))
    return dev <= _ROTATION_TOL, dev
