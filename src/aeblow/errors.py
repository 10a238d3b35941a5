"""Exception types shared across the package."""


class AeblowError(Exception):
    """Base class for all package errors."""


class DomainError(AeblowError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConfigurationError(AeblowError, ValueError):
    """Inconsistent or insufficient run configuration."""


class IntegrationError(AeblowError, RuntimeError):
    """An ODE or quadrature routine failed to reach its tolerance."""


class PositivityError(AeblowError, RuntimeError):
    """A quantity that must stay positive crossed zero."""


class InsufficientDataError(AeblowError, RuntimeError):
    """Raised when a fit is requested with too few usable records."""
