"""Exception types shared across the package, and the integer test of its settings.

The CLI maps these onto process exit codes: usage/argument/parse problems
exit with 2, numeric failures with 3, and a failed validation claim with 1.
"""

from numbers import Integral


class ChainoptError(Exception):
    """Base class for all package errors."""


class ArgumentError(ChainoptError, ValueError):
    """An argument violated an operation's contract."""


class CapacityError(ChainoptError):
    """An exact/exhaustive routine was asked to exceed its size cap."""


class ParseError(ChainoptError, ValueError):
    """A config or data file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericError(ChainoptError):
    """A numerical routine failed (factorization, overflow, ...)."""


class InternalError(ChainoptError):
    """An internal invariant was broken; indicates an implementation bug."""


def is_int(value) -> bool:
    """Whether ``value`` is an integer: an int or numpy integer, not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)
