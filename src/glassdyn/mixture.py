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

from .errors import ConfigError, DomainError, check_count, check_keys, check_real

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

    The coefficients are all an instance holds: nu is a polynomial, finite at
    every finite r.  Instances are immutable and safe to share.
    """

    coeffs: dict[int, float]
    # dense coefficients of nu and its three derivatives, highest power
    # first, as Python floats for Horner
    _c_desc: tuple[tuple[float, ...], ...] = field(init=False, repr=False,
                                                   compare=False)

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
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))
        cs = [np.zeros(max(clean) + 1)]
        cs[0][list(clean)] = list(clean.values())
        with np.errstate(over="ignore"):  # refused below
            for _ in range(3):
                prev = cs[-1]
                cs.append(prev[1:] * np.arange(1, len(prev)))
        object.__setattr__(self, "_c_desc",
                           tuple(tuple(c[::-1].tolist()) for c in cs))
        # the coefficients are >= 0, so nu^(k)(1), their sum, bounds |nu^(k)| on [-1, 1]
        if not all(math.isfinite(sum(c)) for c in self._c_desc):
            raise ConfigError(f"mixture weights {clean} are too large: nu, nu', nu'' "
                              "and nu''' at r = 1 must be finite")

    @property
    def p_max(self) -> int:
        return max(self.coeffs)

    def is_pure(self) -> bool:
        return len(self.coeffs) == 1

    def nu(self, r, order: int = 0):
        """Evaluate nu (order 0) or its derivative of the given order at r.

        One Horner loop from the top coefficient down: on Python floats for a
        float r (np.float64 too), else in place on one new float array of r's
        shape, a float when 0-d; the two agree bitwise.  Above p_max there is
        no coefficient, and the value is the zero polynomial.
        """
        if order not in (0, 1, 2, 3):
            raise ConfigError(f"order must be in 0..3, got {order}")
        cs = self._c_desc[order]
        top = cs[0] if cs else 0.0
        if isinstance(r, float):
            r, acc = float(r), top
        else:
            r = np.asarray(r, dtype=float)
            acc = np.full_like(r, top)
        for c in cs[1:]:
            acc *= r
            acc += c
        return acc if isinstance(acc, float) or acc.ndim else float(acc)

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
        """Build from {"coeffs": {"p": b_p^2, ...}}; any other key is refused.

        A power key is its integer in canonical decimal, "3" and never "03",
        "+3" or " 3", so no two keys name the same power.
        """
        check_keys("mixture", obj, ("coeffs",))
        if not isinstance(obj.get("coeffs"), dict):
            raise ConfigError('mixture must contain a "coeffs" object')
        coeffs = {}
        for key, b in obj["coeffs"].items():
            try:
                p = int(key)
            except (TypeError, ValueError):
                p = None
            if p is None or str(p) != key:
                raise ConfigError(f"mixture coeffs key {key!r} must be a power "
                                  'written as a plain integer, like "3"')
            coeffs[p] = b
        return cls(coeffs)

    @classmethod
    def pure(cls, p: int, weight: float = 1.0) -> "Mixture":
        return cls({p: weight})


def g_beta(m: Mixture, beta: float, x, order: int = 0):
    """Log-moment comparison function and its derivative.

    order 0: 2 beta^2 nu(x) + x/2 + log(1-x)/2
    order 1: 2 beta^2 nu'(x) - x/(2(1-x))
    Defined for x < 1.  The beta-free part is written without cancellation
    near x = 0: order 0 by its series -sum_k x^k/(2k) for |x| < 1e-3, so
    -g_beta(m, 0, x) / x^2 keeps its digits as x -> 0.
    """
    if np.any(np.asarray(x) >= 1.0):
        raise DomainError("g_beta requires x < 1")
    if order == 0:
        x = np.asarray(x, dtype=float)
        # the terms k = 2..8; the first one left out, x^9/18, is < 1e-21 x^2 there
        series = -x * x * np.polyval([1 / (2 * k) for k in range(8, 1, -1)], x)
        g0 = np.where(abs(x) < 1e-3, series, x / 2.0 + 0.5 * np.log1p(-x))[()]
        return 2.0 * beta**2 * m.nu(x) + g0
    if order == 1:
        return 2.0 * beta**2 * m.nu(x, 1) - 0.5 * x / (1.0 - x)
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
    return Mixture(out)

