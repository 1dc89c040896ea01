"""Exception types shared across the package, and the checks of counts, arms and betas.

Each error carries a stable ``code`` string so the CLI can report
machine-readable failure categories.
"""

import numbers


class SsateError(ValueError):
    """Base class for all package errors."""

    code = "SSATE-ERROR"


class NaCouplingViolation(SsateError):
    code = "NA-COUPLING-VIOLATION"


class DimMismatch(SsateError):
    code = "DIM-MISMATCH"


class NonfiniteValue(SsateError):
    code = "NONFINITE-VALUE"


class EmptyDataset(SsateError):
    code = "EMPTY-DATASET"


class BadIndicator(SsateError):
    code = "BAD-INDICATOR"


class BadFoldCount(SsateError):
    code = "BAD-FOLDCOUNT"


class FoldTooSmall(SsateError):
    code = "FOLD-TOO-SMALL"


class InsufficientArmData(SsateError):
    code = "INSUFFICIENT-ARM-DATA"


class SingularSystem(SsateError):
    code = "SINGULAR-SYSTEM"


class ClassAbsent(SsateError):
    code = "CLASS-ABSENT"


class DomainViolation(SsateError):
    code = "DOMAIN-VIOLATION"


class ZeroDenominator(SsateError):
    code = "ZERO-DENOMINATOR"


class BadLevel(SsateError):
    code = "BAD-LEVEL"


class BadAlpha(SsateError):
    code = "BAD-ALPHA"


class GridExcludesMinimum(SsateError):
    code = "GRID-EXCLUDES-MINIMUM"


class ReportIncomplete(SsateError):
    code = "REPORT-INCOMPLETE"

    def __init__(self, message, partial_report=None):
        super().__init__(message)
        self.partial_report = partial_report


def check_integer(name: str, value, error: type = SsateError, low=None) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer, not a bool, and at
    least ``low`` if given: numpy would truncate a fraction, or reject it naming no setting."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name} must be >= {low}, got {value!r}")


def arm_position(d) -> int:
    """Arm ``d``'s place in an (arm 1, arm 0) pair; DomainViolation unless d is 0 or 1."""
    if d not in (0, 1):  # NaN fails too
        raise DomainViolation(f"arm must be 0 or 1, got {d}")
    return int(d == 0)


def check_beta(name: str, value) -> None:
    """Raise DomainViolation naming ``name`` unless the mixture weight ``value`` is in [0, 1]."""
    if not 0.0 <= value <= 1.0:  # NaN fails too
        raise DomainViolation(f"{name} must lie in [0, 1], got {value}")
