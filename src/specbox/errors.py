"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 1,
numerical-resolution failures under --strict exit 2, anything else exit 3.
"""

from __future__ import annotations


class SpecboxError(Exception):
    """Base class for all package errors."""


class InvalidModelError(SpecboxError, ValueError):
    """A measure or model violates a construction invariant."""


class DomainError(SpecboxError, ValueError):
    """An evaluation point lies outside the operation's domain."""


class PoleError(DomainError):
    """Real energy hit an eigenvalue of the system block."""

    def __init__(self, message: str, energy: float, index: int):
        super().__init__(message)
        self.energy = energy
        self.index = index


class NearSingularError(SpecboxError, ArithmeticError):
    """|D(z)| underflowed; z is too close to a resonance for direct use."""


class OracleError(SpecboxError, RuntimeError):
    """Discretization-oracle linear solve broke down."""

    def __init__(self, message: str, condition_estimate: float | None = None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class AccuracyError(SpecboxError, RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance.

    ``reason`` names the cause in a machine-readable word."""

    def __init__(self, message: str, estimate: float, achieved: float, reason: str):
        super().__init__(message)
        self.estimate = estimate
        self.achieved = achieved
        self.reason = reason


class UnsupportedScenarioError(SpecboxError, ValueError):
    """Model does not have the shape a scenario-specific routine needs."""


class PointMassPresentError(SpecboxError):
    """A divergent boundary value signals an atom where a density was requested."""

    def __init__(self, message: str, record=None):
        super().__init__(message)
        self.record = record


class UndeterminedLimitError(SpecboxError):
    """An epsilon ladder did not converge well enough to call the limit."""

    def __init__(self, message: str, record=None):
        super().__init__(message)
        self.record = record


class ConfigError(SpecboxError, ValueError):
    """Run configuration failed structural or semantic validation."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field:
            message = f"config error at '{field}': {message}"
        super().__init__(message)
