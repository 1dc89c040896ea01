"""Exception types shared across the package, and the integer check of counts.

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


def check_integer(name: str, value, error: type = SsateError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer: a fractional
    count would be truncated or rejected by numpy, in a message that names no setting."""
    if not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
