"""Exception types shared across the library."""


class DrinfeldError(Exception):
    """Base class for all library-specific errors."""


class NotInvertible(DrinfeldError):
    """Raised when a ring element to invert is zero."""


class NotReducible(DrinfeldError):
    """Raised when a value has no image in a residue field: a denominator,
    or an element being inverted, vanishes there."""


class NotSquareFree(DrinfeldError):
    """Raised when a modulus has a repeated prime factor."""


class NotPrimitive(DrinfeldError):
    """Raised when an operation requires a primitive character."""


class ConductorMismatch(DrinfeldError):
    """Raised when a character's conductor data or constant field does not fit."""


class SignMismatch(DrinfeldError):
    """Raised when a character sign violates a required congruence."""


class LevelPrime(DrinfeldError):
    """Raised when a Hecke prime coincides with the level."""


class InsufficientDegreeBound(DrinfeldError):
    """Raised when an A-expansion degree bound cannot support a precision."""


class Unsupported(DrinfeldError):
    """Raised for parameter ranges deliberately outside the library's scope."""
