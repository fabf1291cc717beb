"""Exception hierarchy for corrkem.

Protocol-level decapsulation failure (the bottom symbol) is NOT an
exception; it is the ``BOTTOM`` sentinel in :mod:`corrkem.ikem`.
Exceptions here signal misuse, malformed inputs, or infeasible
operating points.
"""


class CorrkemError(Exception):
    """Base class for all corrkem errors."""


class NegativeProbability(CorrkemError):
    """A probability table entry is negative."""


class NotNormalized(CorrkemError):
    """Probabilities do not sum to 1 within the 1e-12 tolerance."""


class DimensionMismatch(CorrkemError):
    """Table entries do not match the declared alphabet sizes."""


class ProbabilityOutOfRange(CorrkemError):
    """A channel flip probability lies outside its allowed range."""


class InvalidCoordinate(CorrkemError):
    """A coordinate index is out of range or coordinates overlap."""


class UndefinedConditional(CorrkemError):
    """Conditioning on a zero-probability symbol."""


class LengthMismatch(CorrkemError):
    """A bit string or symbol vector has the wrong length."""


class RegimeTooLarge(CorrkemError):
    """Requested exhaustive enumeration exceeds the tractable regime."""


class InfeasibleKeyLength(CorrkemError):
    """The key-length bound is below one bit for the requested targets."""


class KeyTooShort(CorrkemError):
    """One-time-pad key shorter than the message."""


class BadKeyLength(CorrkemError):
    """Stream scheme requires a 256-bit key exactly."""


class QueryBudgetExceeded(CorrkemError):
    """Adversary issued more oracle queries than the game allows."""


class FormatError(CorrkemError):
    """Malformed wire data or mismatched parameter digest."""
