"""Exception types shared across the package, and the one check of each kind of input.

Each error carries a stable ``code`` string so the CLI can report
machine-readable failure categories.
"""

import numbers

import numpy as np


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


def arm_rows(d, *arrays) -> np.ndarray:
    """``arm_position``'s rule row by row; DimMismatch unless ``arrays`` have one row per arm."""
    d = np.asarray(d)
    if any(np.shape(a)[:1] != d.shape for a in arrays):
        raise DimMismatch("array lengths disagree")
    for bad in d[(d != 0) & (d != 1)][:1]:  # NaN is caught too
        arm_position(bad)
    return d


def covariates(x, k=None, owner: str = "model") -> np.ndarray:
    """``x`` as float rows, a 1-D array as one column; DimMismatch on another ndim or k."""
    x = np.asarray(x, dtype=float)
    x = x[:, None] if x.ndim == 1 else x
    if x.ndim != 2:
        raise DimMismatch(f"covariates must be a 1-D or 2-D array, got {x.ndim}-D")
    if k is not None and x.shape[1] != k:
        raise DimMismatch(f"covariates have k={x.shape[1]}, the {owner} has k={k}")
    return x


def check_beta(name: str, value) -> None:
    """Raise DomainViolation naming ``name`` unless the mixture weight ``value`` is in [0, 1]."""
    if not 0.0 <= value <= 1.0:  # NaN fails too
        raise DomainViolation(f"{name} must lie in [0, 1], got {value}")
