"""Exception types shared across the toolkit."""

__all__ = [
    "CapabilityError",
    "ContractViolationError",
    "DegenerateCurvatureError",
    "DegenerateStateError",
    "NumericEvaluationError",
    "NumericInputError",
    "PsgdkitError",
]


class PsgdkitError(Exception):
    """Base class for all toolkit errors."""


class ContractViolationError(PsgdkitError, ValueError):
    """An argument violates an operation's contract (shape, symmetry, range).

    ``field`` is the name of the argument at fault, as the raising function or
    dataclass spells it, when a range check on that one argument failed;
    otherwise None. The command line reads it to name the flag that gave the
    value.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class NumericInputError(PsgdkitError, ValueError):
    """An input contains non-finite values."""


class NumericEvaluationError(PsgdkitError, ArithmeticError):
    """An evaluation produced non-finite values (loss, gradient, probe)."""


class CapabilityError(PsgdkitError, RuntimeError):
    """A problem lacks a capability the caller requested (e.g. exact Hvp)."""


class DegenerateStateError(PsgdkitError, RuntimeError):
    """A factored preconditioner state became numerically unusable."""


class DegenerateCurvatureError(PsgdkitError, RuntimeError):
    """Observed curvature vanished where a positive value is required."""
