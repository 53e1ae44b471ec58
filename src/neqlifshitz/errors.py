"""Exception types shared across the package."""


class NeqLifshitzError(Exception):
    """Base class for package errors."""


class DomainError(NeqLifshitzError, ValueError):
    """Input outside the physically admissible domain (non-convergent
    exponents, negative temperatures, disagreeing table rows, ...)."""


class SingularityError(NeqLifshitzError, ArithmeticError):
    """An evaluation point landed on (or numerically too close to) a pole,
    branch point or vanishing denominator.  Carries the offending point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ConfigError(NeqLifshitzError, ValueError):
    """Malformed run configuration or table file; carries a line number
    when one is known, and the message without it as ``detail``."""

    def __init__(self, message, line=None):
        self.detail = message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConvergenceError(NeqLifshitzError, RuntimeError):
    """A quadrature or root polish failed to reach its tolerance."""
