"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ZerotraceError(Exception):
    """Base class for every error raised by this package.  Outside the
    ResourceLimitError tree, each one is the CLI's exit 3."""


class FieldMismatchError(ZerotraceError):
    """Arithmetic attempted between elements of different fields."""


class DimensionMismatchError(ZerotraceError):
    """Vectors or matrices of incompatible shapes were combined."""


class InvalidInputError(ZerotraceError):
    """User-supplied data (JSON specs, flags, labels) failed validation."""


class ResourceLimitError(ZerotraceError):
    """A soft size limit (ground set, family size, recursion depth, flat
    count) was exceeded.  Raising instead of grinding keeps runs at desk
    scale; this class and its subclasses are the CLI's exit 2."""


class BudgetExhaustedError(ResourceLimitError):
    """A stream scan ran out of budget before reaching its goal.

    Carries the partial state so callers can report evidence (for
    example, the points an independence sequence chose before it
    stalled).
    """

    def __init__(self, message: str, *, partial=None):
        super().__init__(message)
        self.partial = partial


class StreamExhaustedError(ResourceLimitError):
    """The instance's point stream ended before enough points were found."""


class MalformedTreeError(ZerotraceError):
    """A labeled tree is missing labels or labels fall out of range."""
