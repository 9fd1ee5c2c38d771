"""Exception hierarchy shared across the package.

The split mirrors the CLI exit codes: configuration and input problems
raise :class:`ValidationError` (exit code 2), runtime numerical failures
raise :class:`NumericError` (exit code 3).
"""

from __future__ import annotations


class DivlabError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DivlabError):
    """Invalid input, configuration, or out-of-contract request."""


class EnumerationLimitError(ValidationError):
    """Exact enumeration was requested beyond the supported size caps."""


class DomainError(ValidationError):
    """A parameter lies outside the domain of the requested object."""


class NumericError(DivlabError):
    """A numerical routine failed to reach its target accuracy."""


class IntegrationError(NumericError):
    """Quadrature or series summation did not converge.

    Carries the best available estimate in ``partial``.
    """

    def __init__(self, message: str, partial: float | None = None):
        super().__init__(message)
        self.partial = partial
