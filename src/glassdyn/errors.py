"""Exception and warning types shared across the package."""


class GlassdynError(Exception):
    """Base class for package errors."""


class DomainError(GlassdynError, ValueError):
    """Argument outside the validity domain of a model function."""


class ConfigError(GlassdynError, ValueError):
    """Invalid or inconsistent configuration / input data."""


class SingularMatrixError(GlassdynError, ValueError):
    """Conditioning covariance is singular (|q_o| = 1 style degeneracy)."""


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


class PlateauWarning(UserWarning):
    """Relaxation window ended before the long-time plateau was reached."""


class PsdViolationWarning(UserWarning):
    """A correlation Gram matrix failed the positive-semidefinite check."""
