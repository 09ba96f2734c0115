"""Exception types raised by the gielab library."""


class GielabError(ValueError):
    """Base class for all gielab errors."""


class InvalidDimensionError(GielabError):
    """A mode count or matrix dimension is out of range."""


class InvalidInputError(GielabError):
    """An input matrix or parameter violates a structural precondition."""


class UnphysicalStateError(GielabError):
    """A covariance matrix has a symplectic eigenvalue below one."""


class DecompositionError(GielabError):
    """A matrix decomposition failed to reach the required residual."""


class InvalidMeasurementError(GielabError):
    """A Gaussian measurement seed is outside the allowed parameter range."""


class DimensionMismatchError(GielabError):
    """Mode counts of two objects being combined do not agree."""


class NumericalDegeneracyError(GielabError):
    """A determinant or denominator degenerated to a non-positive value."""


class InvalidFamilyParamsError(GielabError):
    """Parameters violate the defining constraint of a state family."""


class WrongFamilyError(GielabError):
    """The operation is defined for a different state family."""


class InvalidThreeModeError(GielabError):
    """Three-mode parameters violate the triangle-like purity constraint."""


class DomainNotCoveredError(GielabError):
    """The requested point lies outside the proven validity domain."""
