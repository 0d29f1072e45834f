"""Exception hierarchy shared by all relay_bounds modules."""


class BoundsError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BoundsError, ValueError):
    """An input violates a documented precondition (range, sign, finiteness)."""


class DimensionError(DomainError):
    """Array shapes or alphabet sizes do not agree."""

