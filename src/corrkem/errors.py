"""Exception hierarchy for corrkem: each class owns its CLI exit code
and the label that ``cli.main`` prints before its message on stderr.
Exit 3, a decap failure, is ikem's ``BOTTOM`` sentinel, never an error.
"""


class CorrkemError(Exception):
    """Base class for all corrkem errors."""

    exit_code = 1
    label = "error"


class FormatError(CorrkemError):
    """Malformed input or misuse: a bad table, symbol vector, length, key,
    seed or wire block, or an exhausted query budget (exit 1)."""


class InfeasibleKeyLength(CorrkemError):
    """The key-length bound is below one bit for the requested targets (exit 2)."""

    exit_code = 2
    label = "infeasible"


class RegimeTooLarge(CorrkemError):
    """Requested enumeration or width exceeds the tractable regime (exit 4)."""

    exit_code = 4
    label = "regime too large"
