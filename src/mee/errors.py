"""Exception types shared across the package."""
from __future__ import annotations


class MeeError(Exception):
    """Base class for all library errors."""


class DomainError(MeeError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ParseError(MeeError):
    """An input file or record does not match the expected schema."""


class InfeasibleError(MeeError):
    """No admissible solution exists for the requested parameters.

    ``details`` holds diagnostic quantities (bracket endpoints, residuals,
    minimum feasible epsilon, ...) for machine-readable error reports.
    """

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class NumericalError(MeeError, RuntimeError):
    """An iterative routine failed to converge to the requested tolerance, or
    a quantity it needs lies beyond the float range."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class LowAcceptanceWarning(UserWarning):
    """A rejection sampler returned fewer states than requested."""
