"""Error taxonomy shared across the package.

Each class maps to one failure category surfaced by the CLI:
precondition violations exit with code 2, everything else propagates.
"""

from __future__ import annotations

__all__ = [
    "ReggError",
    "InvalidParametersError",
    "InvalidMoveError",
    "BudgetExceededError",
    "NumericalDegeneracyError",
    "InsufficientDataError",
]


class ReggError(Exception):
    """Base class for all package errors."""


class InvalidParametersError(ReggError, ValueError):
    """Parameters violate a documented precondition (parity, range, norm)."""


class InvalidMoveError(ReggError, ValueError):
    """A switching was asked to act on pairs that are not edges, or an
    invalid selection."""


class BudgetExceededError(ReggError, RuntimeError):
    """An enumeration or rejection loop exceeded its configured budget."""


class NumericalDegeneracyError(ReggError, ArithmeticError):
    """A linear solve or decomposition hit a (near-)singular point."""


class InsufficientDataError(ReggError, ValueError):
    """An aggregation was asked to fit constants with no usable records."""

