"""Exception hierarchy shared across the package, and the input checks
that raise its ``UsageError``."""

import math


class ControkitError(Exception):
    """Base class for all controkit errors."""


class UsageError(ControkitError):
    """The caller asked for something the API cannot do (bad arguments,
    missing preconditions such as a single-class corpus)."""


class DomainError(ControkitError):
    """A numeric argument is outside its valid domain (e.g. dropout rate)."""


class DimensionError(ControkitError):
    """Array shapes do not line up for the requested operation."""


class DataFormatError(ControkitError):
    """A file or byte stream does not match its documented format.

    ``offset`` (bytes) or ``line`` (1-based) locate the problem when known.
    """

    def __init__(self, message, offset=None, line=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.offset = offset
        self.line = line


class IntegrityError(ControkitError):
    """Internal consistency violated (e.g. a crawled page not reachable
    from any seed); indicates a bug rather than bad input."""


class NumericError(ControkitError):
    """A numeric computation produced NaN/Inf or diverged."""


def require_int(what: str, value, least: int) -> None:
    """Refuse with ``UsageError`` a value that is not an int (bools refused) >= ``least``."""
    if type(value) is not int or value < least:
        raise UsageError(f"{what} must be an integer >= {least}, got {value!r}")


def require_number(what: str, value, positive: bool = False) -> None:
    """Refuse with ``UsageError`` a value that is not a finite int or float
    (bools refused) >= 0, or > 0 if ``positive``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value < 0 or (positive and value == 0)):
        raise UsageError(f"{what} must be a finite number {'> 0' if positive else '>= 0'}, "
                         f"got {value!r}")
