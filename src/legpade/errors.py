"""Exception types shared across the package.

The CLI maps these onto exit codes, so library code should raise the most
specific class that applies rather than bare ValueError/RuntimeError.
"""

__all__ = [
    "LegpadeError",
    "DomainError",
    "PoleError",
    "InsufficientCoefficientsError",
    "SingularSystemError",
    "ResidualTooLargeError",
    "QuadratureConvergenceError",
]


class LegpadeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LegpadeError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(LegpadeError, ArithmeticError):
    """Evaluation requested at (or numerically indistinguishable from) a pole.

    ``theta`` holds the angle, or the array of angles, at which an
    approximant's denominator vanished.
    """

    def __init__(self, message, theta=None):
        super().__init__(message)
        self.theta = theta


class InsufficientCoefficientsError(LegpadeError, ValueError):
    """A series does not carry enough coefficients for the requested orders."""


class SingularSystemError(LegpadeError, RuntimeError):
    """The denominator linear system is singular to working precision."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class ResidualTooLargeError(LegpadeError, RuntimeError):
    """The enforced-zero orders of a constructed approximant did not vanish."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class QuadratureConvergenceError(LegpadeError, RuntimeError):
    """An adaptive quadrature failed to reach the requested tolerance."""
