"""Mixed p-spin covariance polynomial and the scalar functions built from it.

A model is specified by nonnegative weights b_p^2 (p >= 2) of the covariance
polynomial nu(r) = sum_p b_p^2 r^p.  Everything downstream (phase boundaries,
initialization algebra, two-time kernels, finite-N sampling) consumes nu and
its first three derivatives through this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, check_count, check_real

__all__ = [
    "Mixture",
    "g_beta",
    "phi_gamma",
    "effective_mixture",
]

_MAX_POWER = 1000  # from p = 1030 on, effective_mixture's comb(p, p // 2) overflows a float


@dataclass(frozen=True)
class Mixture:
    """Finite mixture: map p -> b_p^2 with all weights >= 0, at least one > 0.

    ``radius_bound`` is the validity radius guard r_bar; finite mixtures are
    entire so the default is +inf.  Instances are immutable and safe to share.
    """

    coeffs: dict[int, float]
    radius_bound: float = math.inf
    # dense coefficients of nu and its three derivatives, highest power
    # first, as Python floats for Horner
    _c_desc: tuple[tuple[float, ...], ...] = field(init=False, repr=False,
                                                   compare=False)
    # radius_bound**2, the bound on |r|
    _guard: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        clean = {}
        for p, b in self.coeffs.items():
            p = check_count("mixture power", p, 2)
            if p > _MAX_POWER:
                raise ConfigError(f"mixture power {p} exceeds the largest, {_MAX_POWER}")
            b = check_real(f"mixture weight b_{p}^2", b)
            if b < 0.0:
                raise ConfigError(f"negative weight b_{p}^2 = {b}")
            if b > 0.0:
                clean[p] = b
        if not clean:
            raise ConfigError("mixture has no positive weight")
        rb = self.radius_bound  # +inf, the default, is the one bound not finite
        if not (rb == math.inf or check_real("radius_bound", rb) > 0.0):
            raise ConfigError(f"radius_bound must be positive, got {rb!r}")
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))
        cs = [np.zeros(max(clean) + 1)]
        cs[0][list(clean)] = list(clean.values())
        for _ in range(3):
            prev = cs[-1]
            cs.append(prev[1:] * np.arange(1, len(prev)))
        object.__setattr__(self, "_c_desc",
                           tuple(tuple(c[::-1].tolist()) for c in cs))
        object.__setattr__(self, "_guard", self.radius_bound**2)

    @property
    def p_max(self) -> int:
        return max(self.coeffs)

    def is_pure(self) -> bool:
        return len(self.coeffs) == 1

    def is_even(self) -> bool:
        return all(p % 2 == 0 for p in self.coeffs)

    def is_odd(self) -> bool:
        return all(p % 2 == 1 for p in self.coeffs)

    def nu(self, r, order: int = 0):
        """Evaluate nu (order 0) or its derivative of the given order at r.

        Horner over the coefficients, from the top one down; r may be a scalar
        or an ndarray.  Guarded by |r| <= radius_bound**2.  A float r
        (including np.float64) takes the same Horner steps on Python floats,
        so the result is bitwise equal to the array path and is a Python float.
        """
        if order not in (0, 1, 2, 3):
            raise ConfigError(f"order must be in 0..3, got {order}")
        if isinstance(r, float):
            r = float(r)
            if abs(r) > self._guard:
                raise DomainError(f"|r| exceeds radius_bound^2 = {self._guard}")
            cs = self._c_desc[order]
            acc = cs[0] if cs else 0.0
            for c in cs[1:]:
                acc = acc * r + c
            return acc
        r = np.asarray(r, dtype=float)
        self.check_radius(r)
        acc = self.horner(r, order)
        return acc if acc.ndim else float(acc)

    def check_radius(self, r: np.ndarray):
        """Raise DomainError if some |r| exceeds radius_bound**2; free when it is inf."""
        if self._guard < math.inf and np.any(np.abs(r) > self._guard):
            raise DomainError(f"|r| exceeds radius_bound^2 = {self._guard}")

    def horner(self, r: np.ndarray, order: int) -> np.ndarray:
        """``nu(r, order)`` for a float array r without the radius check: the
        scalar path's steps, in place on one new array.
        """
        cs = self._c_desc[order]
        acc = np.full_like(r, cs[0] if cs else 0.0)
        for c in cs[1:]:
            acc *= r
            acc += c
        return acc

    def psi(self, r):
        """(r nu'(r))' = nu'(r) + r nu''(r)."""
        return self.nu(r, 1) + r * self.nu(r, 2)

    def theta(self, x):
        """nu(1) - nu(x) - nu'(x)(1 - x); nonnegative on [0, 1]."""
        if np.any(np.abs(x) > 1.0):
            raise DomainError("theta requires |x| <= 1")
        return self.nu(1.0) - self.nu(x) - self.nu(x, 1) * (1.0 - x)

    @classmethod
    def from_dict(cls, obj) -> "Mixture":
        """Build from {"coeffs": {"p": b_p^2, ...}} with an optional "radius_bound"."""
        if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), dict):
            raise ConfigError('mixture must contain a "coeffs" object')
        try:
            coeffs = {int(p): b for p, b in obj["coeffs"].items()}
        except ValueError as err:
            raise ConfigError(f"mixture coeffs must map integer powers: {err}") from err
        return cls(coeffs, obj.get("radius_bound", math.inf))

    @classmethod
    def pure(cls, p: int, weight: float = 1.0) -> "Mixture":
        return cls({p: weight})


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

