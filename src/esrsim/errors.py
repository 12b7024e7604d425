"""Exception types shared across the library."""

__all__ = ["DimensionMismatchError", "EsrError", "EventContainsNoRegistrationError",
           "NotHermitianError", "NotNormalizedError", "NotSquareError", "ProbabilityRangeError",
           "ScenarioParseError", "ScenarioValidationError", "ZeroProbabilityBranchError"]


class EsrError(Exception):
    """Base class for all errors raised by esrsim."""


class NotSquareError(EsrError, ValueError):
    """A matrix operation received a non-square matrix."""


class NotHermitianError(EsrError, ValueError):
    """A matrix is not Hermitian within tolerance."""


class NotNormalizedError(EsrError, ValueError):
    """A state vector does not have unit norm."""


class DimensionMismatchError(EsrError, ValueError):
    """Operands act on spaces of incompatible dimension."""


class EventContainsNoRegistrationError(EsrError, ValueError):
    """A conditional probability was queried on an event containing the
    no-registration outcome."""


class ZeroProbabilityBranchError(EsrError, ValueError):
    """A post-measurement state was conditioned on an outcome that cannot
    occur."""


class ProbabilityRangeError(EsrError, ArithmeticError):
    """A computed probability fell outside [0, 1] by more than roundoff
    tolerance, indicating a logic error rather than rounding."""


class ScenarioParseError(EsrError, ValueError):
    """A scenario file could not be parsed. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ScenarioValidationError(EsrError, ValueError):
    """A scenario parsed cleanly but violates a model invariant."""
