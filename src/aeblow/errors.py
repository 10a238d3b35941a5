"""Exception types shared across the package.

The class sets the CLI exit status: a ConfigurationError (DomainError
included) is a bad input and exits 2, any other AeblowError exits 1.
"""


class AeblowError(Exception):
    """Base class for all package errors."""


class ConfigurationError(AeblowError, ValueError):
    """Inconsistent or insufficient run configuration."""


class DomainError(ConfigurationError):
    """Argument outside the mathematical domain of an operation."""


class IntegrationError(AeblowError, RuntimeError):
    """An ODE, quadrature or time step failed: tolerance or finiteness."""


class PositivityError(AeblowError, RuntimeError):
    """A quantity that must stay positive did not."""


class InsufficientDataError(AeblowError, RuntimeError):
    """Raised when a fit is requested with too few usable records."""
