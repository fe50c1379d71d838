"""Exception types shared across the package."""


class OsczetaError(Exception):
    """Base class for all package-specific errors."""


class GammaPoleError(OsczetaError):
    """Gamma evaluated at a nonpositive integer."""


class PrecisionUnreachableError(OsczetaError):
    """The selected method cannot certify the requested tolerance."""


class DivergentSeriesError(OsczetaError):
    """Series parameters outside the convergence region."""


class TailBoundError(OsczetaError):
    """Tail estimate failed to certify the requested precision."""


class BracketFailureError(OsczetaError):
    """No inward start for a shoot: the forbidden region past the matching
    point is too shallow to damp the requested digits."""


class CertificationError(OsczetaError):
    """An eigenvalue could not be certified to the requested digits."""


class RadiusExceededError(OsczetaError):
    """Series argument outside the disk of convergence."""


class InsufficientTermsError(OsczetaError):
    """Not enough series terms / spectrum entries for the target tolerance."""


class SummationPoleError(OsczetaError):
    """Zeta summation requested at the pole s = mu."""


class UnknownIdentifierError(OsczetaError, KeyError):
    """Closed-form catalog lookup for an unknown identifier."""


class NotAMultipleError(OsczetaError, ValueError):
    """Order is not a multiple of the symmetry period."""


class DerivationTooLargeError(OsczetaError, ValueError):
    """Degree or order past the limits of the exact sum-rule derivation."""


class EliminationError(OsczetaError):
    """Symbols survive an elimination that should have removed them."""
