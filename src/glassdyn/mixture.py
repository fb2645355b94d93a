"""Mixed p-spin covariance polynomial and the scalar functions built from it.

A model is specified by nonnegative weights b_p^2 (p >= 2) of the covariance
polynomial nu(r) = sum_p b_p^2 r^p.  Everything downstream (phase boundaries,
initialization algebra, two-time kernels, finite-N sampling) consumes nu and
its first three derivatives through this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "Mixture",
    "nu_eval",
    "psi_eval",
    "theta_eval",
    "g_beta",
    "phi_gamma",
    "effective_mixture",
    "truncate",
]


@dataclass(frozen=True)
class Mixture:
    """Finite mixture: map p -> b_p^2 with all weights >= 0, at least one > 0.

    ``radius_bound`` is the validity radius guard r_bar; finite mixtures are
    entire so the default is +inf.  Instances are immutable and safe to share.
    """

    coeffs: dict[int, float]
    radius_bound: float = math.inf
    # dense ascending coefficient arrays for nu and its three derivatives
    _c: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    # the same coefficients as descending Python floats, for scalar Horner
    _c_desc: tuple[tuple[float, ...], ...] = field(init=False, repr=False,
                                                   compare=False)

    def __post_init__(self):
        clean = {}
        for p, b in self.coeffs.items():
            p = int(p)
            b = float(b)
            if p < 2:
                raise ConfigError(f"mixture power p={p} below 2")
            if not math.isfinite(b):
                raise ConfigError(f"non-finite weight b_{p}^2 = {b}")
            if b < 0.0:
                raise ConfigError(f"negative weight b_{p}^2 = {b}")
            if b > 0.0:
                clean[p] = b
        if not clean:
            raise ConfigError("mixture has no positive weight")
        if not self.radius_bound > 0.0:
            raise ConfigError("radius_bound must be positive")
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))
        pmax = max(clean)
        c0 = np.zeros(pmax + 1)
        for p, b in clean.items():
            c0[p] = b
        cs = [c0]
        for _ in range(3):
            prev = cs[-1]
            cs.append(prev[1:] * np.arange(1, len(prev)))
        object.__setattr__(self, "_c", tuple(cs))
        object.__setattr__(self, "_c_desc",
                           tuple(tuple(c[::-1].tolist()) for c in cs))

    @property
    def p_max(self) -> int:
        return max(self.coeffs)

    @property
    def p_min(self) -> int:
        return min(self.coeffs)

    def is_pure(self) -> bool:
        return len(self.coeffs) == 1

    def is_even(self) -> bool:
        return all(p % 2 == 0 for p in self.coeffs)

    def is_odd(self) -> bool:
        return all(p % 2 == 1 for p in self.coeffs)

    def nu(self, r, order: int = 0):
        """Evaluate nu (order 0) or its derivative of the given order at r.

        Horner over the dense ascending coefficients; r may be a scalar or an
        ndarray.  Guarded by |r| <= radius_bound**2.  A float r (including
        np.float64) takes the same Horner steps on Python floats, so the
        result is bitwise equal to the array path and is a Python float.
        """
        if order not in (0, 1, 2, 3):
            raise ConfigError(f"order must be in 0..3, got {order}")
        guard = self.radius_bound**2
        if isinstance(r, float):
            r = float(r)
            if abs(r) > guard:
                raise DomainError(f"|r| exceeds radius_bound^2 = {guard}")
            acc = 0.0
            for c in self._c_desc[order]:
                acc = acc * r + c
            return acc
        if np.any(np.abs(r) > guard):
            raise DomainError(f"|r| exceeds radius_bound^2 = {guard}")
        coeffs = self._c[order]
        acc = np.zeros_like(np.asarray(r, dtype=float))
        for c in coeffs[::-1]:
            acc = acc * r + c
        return acc if acc.ndim else float(acc)

    def psi(self, r):
        """(r nu'(r))' = nu'(r) + r nu''(r)."""
        return self.nu(r, 1) + r * self.nu(r, 2)

    def theta(self, x):
        """nu(1) - nu(x) - nu'(x)(1 - x); nonnegative on [0, 1]."""
        if np.any(np.abs(x) > 1.0):
            raise DomainError("theta requires |x| <= 1")
        return self.nu(1.0) - self.nu(x) - self.nu(x, 1) * (1.0 - x)

    def to_json(self) -> str:
        obj = {"coeffs": {str(p): b for p, b in self.coeffs.items()}}
        if math.isfinite(self.radius_bound):
            obj["radius_bound"] = self.radius_bound
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "Mixture":
        obj = json.loads(text)
        if "coeffs" not in obj:
            raise ConfigError('mixture JSON must contain a "coeffs" object')
        rb = float(obj.get("radius_bound", math.inf))
        return cls({int(p): float(b) for p, b in obj["coeffs"].items()}, rb)

    @classmethod
    def pure(cls, p: int, weight: float = 1.0) -> "Mixture":
        return cls({p: weight})


def nu_eval(m: Mixture, r, order: int = 0):
    return m.nu(r, order)


def psi_eval(m: Mixture, r):
    return m.psi(r)


def theta_eval(m: Mixture, x):
    return m.theta(x)


def g_beta(m: Mixture, beta: float, x, order: int = 0):
    """Log-moment comparison function and its derivative.

    order 0: 2 beta^2 nu(x) + x/2 + log(1-x)/2
    order 1: 2 beta^2 nu'(x) + 1/2 - 1/(2(1-x))
    Defined for x < 1.
    """
    if np.any(np.asarray(x) >= 1.0):
        raise DomainError("g_beta requires x < 1")
    if order == 0:
        return 2.0 * beta**2 * m.nu(x) + x / 2.0 + 0.5 * np.log1p(-np.asarray(x, dtype=float))
    if order == 1:
        return 2.0 * beta**2 * m.nu(x, 1) + 0.5 - 0.5 / (1.0 - x)
    raise ConfigError("g_beta supports order 0 or 1")


def phi_gamma(m: Mixture, beta: float, gamma: float, x):
    """Relaxation kernel multiplier gamma + 2 beta^2 nu'(x)."""
    return gamma + 2.0 * beta**2 * m.nu(x, 1)


def effective_mixture(m: Mixture, q: float) -> Mixture:
    """Mixture of the model restricted to a band at overlap q.

    nu_q(x) = nu(q + (1-q) x) - nu(q) - (1-q) nu'(q) x, re-expanded as a
    polynomial in x with the constant and linear terms dropped.  All resulting
    coefficients are nonnegative.
    """
    if not 0.0 <= q < 1.0:
        raise DomainError("effective_mixture requires q in [0, 1)")
    out: dict[int, float] = {}
    for p, b in m.coeffs.items():
        for k in range(2, p + 1):
            out[k] = out.get(k, 0.0) + b * math.comb(p, k) * q ** (p - k) * (1.0 - q) ** k
    return Mixture(out, m.radius_bound)


def truncate(m: Mixture, m_max: int) -> Mixture:
    """Drop powers above m_max; errors out if nothing remains."""
    kept = {p: b for p, b in m.coeffs.items() if p <= m_max}
    if not kept:
        raise ConfigError(f"truncation at {m_max} leaves an empty mixture")
    return Mixture(kept, m.radius_bound)
