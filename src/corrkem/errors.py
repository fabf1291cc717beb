"""Exception hierarchy for corrkem: one class per CLI exit code.

    exit  class                 raised for
    1     FormatError           malformed input or misuse
    2     InfeasibleKeyLength   a key-length bound below one bit or the request
    3     (none)                decap failure: the ``BOTTOM`` sentinel of ikem
    4     RegimeTooLarge        an enumeration, table or width past its limit
"""


class CorrkemError(Exception):
    """Base class for all corrkem errors."""


class FormatError(CorrkemError):
    """Malformed input or misuse: a bad table, symbol vector, length, key,
    seed or wire block, or an exhausted query budget (exit 1)."""


class InfeasibleKeyLength(CorrkemError):
    """The key-length bound is below one bit for the requested targets (exit 2)."""


class RegimeTooLarge(CorrkemError):
    """Requested enumeration or width exceeds the tractable regime (exit 4)."""
