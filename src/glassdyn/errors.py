"""Exception and warning types, and the count, real and known-keys rules, of the package."""

import math

import numpy as np


class GlassdynError(Exception):
    """Base class for package errors."""


class DomainError(GlassdynError, ValueError):
    """Argument outside the validity domain of a model function."""


class ConfigError(GlassdynError, ValueError):
    """Invalid or inconsistent configuration / input data."""


class SingularMatrixError(GlassdynError, ValueError):
    """Conditioning covariance is singular, or the data lie outside its range."""


class GammaTooSmallError(GlassdynError, ValueError):
    """No plateau level exists for the requested relaxation parameter."""


class NoRootError(GlassdynError, ValueError):
    """A root equation has no solution for the supplied parameters."""


class BlowUpError(GlassdynError, RuntimeError):
    """A solver's state left the trust region (|C| or |R| > 1e6) or is not finite."""


class EscapeError(GlassdynError, RuntimeError):
    """Finite-N path left the radial confinement interval."""


class GridMismatchError(GlassdynError, ValueError):
    """Observable grid is not commensurate with the solution grid."""


class PsdViolationWarning(UserWarning):
    """A correlation Gram matrix failed the positive-semidefinite check."""


def check_count(name: str, value, least: int) -> int:
    """The one count rule: a whole number >= least (an int, a numpy integer or an
    integral float such as JSON's 40.0), never a bool; returned as an int."""
    whole = (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
             or isinstance(value, float) and value.is_integer())
    if not (whole and value >= least):
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_real(name: str, value) -> float:
    """The one real-number rule: a finite int, float or numpy real, never a bool
    or a string; returned as a float."""
    try:
        finite = (isinstance(value, (int, float, np.integer, np.floating))
                  and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be finite and a real number (not a bool or a "
                          f"string), got {value!r}")
    return float(value)


def check_keys(name: str, obj, known) -> None:
    """The one known-keys rule: obj is a dict (a JSON object) whose keys are all
    in known; the first unknown key, in sorted order, is named."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(known), key=str)
    if unknown:
        raise ConfigError(f"{name} key {unknown[0]!r} is not known; the keys are "
                          + ", ".join(sorted(known)))
