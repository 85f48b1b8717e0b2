"""Exception hierarchy shared across the package, and the one count rule."""

import operator


class FriedmanBoundsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FriedmanBoundsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def check_count(value, least: int, name: str) -> int:
    """``value`` as an int, if it is an integer >= ``least``; else a DomainError naming ``name``.

    Any integer type passes (numpy's too).  Nothing is rounded: 2.5, 2.0,
    "3", None and a bool, which has __index__ but is no count, are refused.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise DomainError(f"need {name} >= {least}, got {count}")
    return count


class TieError(FriedmanBoundsError, ValueError):
    """A row of raw scores contains tied values; the null model excludes ties."""

    def __init__(self, row: int, message: str | None = None):
        self.row = row
        super().__init__(message or f"tied scores in row {row}")


class NonFiniteError(FriedmanBoundsError, ValueError):
    """Raw scores contain NaN or infinite entries."""


class InfiniteNormError(FriedmanBoundsError, ValueError):
    """A bound was requested for a test function whose required norm is infinite."""


class BudgetError(FriedmanBoundsError, RuntimeError):
    """An exact enumeration request exceeds the configured budget cap."""


class ConvergenceError(FriedmanBoundsError, RuntimeError):
    """A quadrature or iterative scheme failed to reach the requested tolerance."""


class ParseError(FriedmanBoundsError, ValueError):
    """Malformed input data (non-rectangular CSV, non-permutation rank rows, ...)."""
