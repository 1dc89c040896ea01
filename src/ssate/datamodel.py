"""Dataset containers, missing-value validation, fold plans and CSV I/O.

One-sample data couple the observation indicator ``o`` with the presence
of treatment and outcome: ``o == 1`` iff both are present. Missing values
are represented internally by ``None`` (never by NaN sentinels) and in
CSV files by the literal token ``NA``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    BadFoldCount,
    BadIndicator,
    DimMismatch,
    EmptyDataset,
    NaCouplingViolation,
    NonfiniteValue,
)

MISSING_TOKEN = "NA"


@dataclass(frozen=True)
class OneSampleRow:
    x: tuple
    o: int
    d: Optional[int]
    y: Optional[float]


@dataclass(frozen=True)
class LabeledRow:
    x: tuple
    d: int
    y: float


def _is_indicator(a: np.ndarray) -> bool:
    """Every value is exactly 0 or 1, checked before any integer cast."""
    return bool(np.all((a == 0) | (a == 1)))


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class OneSampleDataset:
    """Immutable array-backed one-sample dataset.

    ``d`` and ``y`` hold 0 at unlabeled positions; those slots are never
    read except through the ``o`` mask.
    """

    x: np.ndarray  # (n, k) float64
    o: np.ndarray  # (n,) int8
    d: np.ndarray  # (n,) int8, meaningful only where o == 1
    y: np.ndarray  # (n,) float64, meaningful only where o == 1

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]

    @property
    def n_labeled(self) -> int:
        return int(np.sum(self.o == 1))

    @property
    def n_unlabeled(self) -> int:
        return int(np.sum(self.o == 0))

    @property
    def labeled_mask(self) -> np.ndarray:
        return self.o == 1

    def labeled_arrays(self):
        """(x, d, y) restricted to the labeled rows, in dataset order."""
        m = self.labeled_mask
        return self.x[m], self.d[m], self.y[m]

    def rows(self) -> Iterator[OneSampleRow]:
        for i in range(self.n):
            if self.o[i] == 1:
                yield OneSampleRow(tuple(self.x[i]), 1, int(self.d[i]), float(self.y[i]))
            else:
                yield OneSampleRow(tuple(self.x[i]), 0, None, None)

    @staticmethod
    def from_arrays(x, o, d, y) -> "OneSampleDataset":
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        o = np.asarray(o)
        d = np.asarray(d)
        y = np.asarray(y, dtype=float)
        if x.shape[0] == 0:
            raise EmptyDataset("dataset must contain at least one row")
        if not (x.shape[0] == o.shape[0] == d.shape[0] == y.shape[0]):
            raise DimMismatch("array lengths disagree")
        if not np.all(np.isfinite(x)):
            raise NonfiniteValue("covariates must be finite")
        if not _is_indicator(o):
            raise BadIndicator("observation indicator must be 0 or 1")
        lab = o == 1
        if not _is_indicator(d[lab]):
            raise BadIndicator("treatment indicator must be 0 or 1 on labeled rows")
        if not np.all(np.isfinite(y[lab])):
            raise NonfiniteValue("labeled outcomes must be finite")
        o = o.astype(np.int8)
        d = np.where(lab, d, 0).astype(np.int8)
        y = np.where(lab, y, 0.0)
        return OneSampleDataset(_as_readonly(x), _as_readonly(o), _as_readonly(d), _as_readonly(y))


@dataclass(frozen=True)
class TwoSampleDataset:
    x: np.ndarray  # (m, k) labeled covariates
    d: np.ndarray  # (m,) int8
    y: np.ndarray  # (m,) float64
    z: np.ndarray  # (l, k) unlabeled covariates

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def l(self) -> int:
        return self.z.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]

    @property
    def n_total(self) -> int:
        return self.m + self.l

    def labeled_rows(self) -> Iterator[LabeledRow]:
        for j in range(self.m):
            yield LabeledRow(tuple(self.x[j]), int(self.d[j]), float(self.y[j]))

    @staticmethod
    def from_arrays(x, d, y, z) -> "TwoSampleDataset":
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if z.ndim == 1:
            z = z[:, None]
        d = np.asarray(d)
        y = np.asarray(y, dtype=float)
        if x.shape[0] == 0 or z.shape[0] == 0:
            raise EmptyDataset("both labeled and unlabeled samples must be nonempty")
        if x.shape[1] != z.shape[1]:
            raise DimMismatch(
                f"labeled covariate dimension {x.shape[1]} != unlabeled dimension {z.shape[1]}"
            )
        if not (x.shape[0] == d.shape[0] == y.shape[0]):
            raise DimMismatch("labeled array lengths disagree")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
            raise NonfiniteValue("covariates must be finite")
        if not np.all(np.isfinite(y)):
            raise NonfiniteValue("outcomes must be finite")
        if not _is_indicator(d):
            raise BadIndicator("treatment indicator must be 0 or 1")
        return TwoSampleDataset(_as_readonly(x), _as_readonly(d.astype(np.int8)), _as_readonly(y),
                                _as_readonly(z))


def validate_one_sample(rows: Sequence[OneSampleRow]) -> OneSampleDataset:
    """Check the NA coupling and dimension invariants row by row."""
    if len(rows) == 0:
        raise EmptyDataset("dataset must contain at least one row")
    k = len(rows[0].x)
    n = len(rows)
    x = np.empty((n, k))
    o = np.empty(n, dtype=np.int8)
    d = np.zeros(n, dtype=np.int8)
    y = np.zeros(n)
    for i, row in enumerate(rows):
        if len(row.x) != k:
            raise DimMismatch(f"row {i}: covariate dimension {len(row.x)} != {k}")
        if row.o not in (0, 1):
            raise BadIndicator(f"row {i}: observation indicator must be 0 or 1, got {row.o!r}")
        if row.o == 1:
            if row.d is None or row.y is None:
                raise NaCouplingViolation(f"row {i}: o=1 requires both d and y to be present")
            if row.d not in (0, 1):
                raise BadIndicator(f"row {i}: treatment must be 0 or 1, got {row.d!r}")
            if not np.isfinite(row.y):
                raise NonfiniteValue(f"row {i}: outcome must be finite")
            d[i] = row.d
            y[i] = row.y
        else:
            if row.d is not None or row.y is not None:
                raise NaCouplingViolation(f"row {i}: o=0 forbids present d or y")
        xi = np.asarray(row.x, dtype=float)
        if not np.all(np.isfinite(xi)):
            raise NonfiniteValue(f"row {i}: covariates must be finite")
        x[i] = xi
        o[i] = row.o
    return OneSampleDataset.from_arrays(x, o, d, y)


def validate_two_sample(
    labeled: Sequence[LabeledRow], unlabeled: Sequence[Sequence[float]]
) -> TwoSampleDataset:
    if len(labeled) == 0 or len(unlabeled) == 0:
        raise EmptyDataset("both labeled and unlabeled samples must be nonempty")
    k = len(labeled[0].x)
    for j, row in enumerate(labeled):
        if len(row.x) != k:
            raise DimMismatch(f"labeled row {j}: covariate dimension {len(row.x)} != {k}")
        if row.d not in (0, 1):
            raise BadIndicator(f"labeled row {j}: treatment must be 0 or 1, got {row.d!r}")
        if row.y is None or not np.isfinite(row.y):
            raise NonfiniteValue(f"labeled row {j}: outcome must be finite")
    for kk, zrow in enumerate(unlabeled):
        if len(zrow) != k:
            raise DimMismatch(f"unlabeled row {kk}: covariate dimension {len(zrow)} != {k}")
    x = np.asarray([row.x for row in labeled], dtype=float)
    d = np.asarray([row.d for row in labeled], dtype=np.int8)
    y = np.asarray([row.y for row in labeled], dtype=float)
    z = np.asarray([list(zrow) for zrow in unlabeled], dtype=float)
    return TwoSampleDataset.from_arrays(x, d, y, z)


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic balanced partition of {0..n-1} into folds 1..n_folds."""

    n: int
    n_folds: int
    seed: int
    assignment: np.ndarray = field(repr=False)  # (n,) int, values in 1..n_folds

    def indices(self, b: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == b)

    def masks(self):
        for b in range(1, self.n_folds + 1):
            yield b, self.assignment == b


def make_fold_plan(n: int, n_folds: int, seed: int) -> FoldPlan:
    """Seeded shuffle of indices followed by round-robin fold assignment."""
    if n_folds < 2 or n_folds > n:
        raise BadFoldCount(f"fold count must satisfy 2 <= L <= n, got L={n_folds}, n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    assignment[perm] = (np.arange(n) % n_folds) + 1
    return FoldPlan(n=n, n_folds=n_folds, seed=seed, assignment=_as_readonly(assignment))


# ---------------------------------------------------------------------------
# CSV schemas
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    # repr round-trips doubles exactly
    return repr(float(v))


def _parse_float(token: str, where: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise NonfiniteValue(f"{where}: cannot parse {token!r} as a number") from None


def _parse_indicator(token: str, where: str) -> int:
    """Indicators must read exactly 0 or 1; 1.5 is rejected, not truncated."""
    value = _parse_float(token, where)
    if value not in (0.0, 1.0):
        raise BadIndicator(f"{where}: indicator must be 0 or 1, got {token!r}")
    return int(value)


def read_one_sample_csv(path) -> OneSampleDataset:
    """Read `x1,...,xk,o,d,y` with MISSING spelled `NA`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyDataset(f"{path}: empty file")
        k = len(header) - 3
        if k < 1 or header[k:] != ["o", "d", "y"]:
            raise DimMismatch(f"{path}: header must be x1,...,xk,o,d,y")
        rows = []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != k + 3:
                raise DimMismatch(f"{path}, line {lineno}: expected {k + 3} fields")
            x = tuple(_parse_float(t, f"{path}, line {lineno}") for t in rec[:k])
            o = _parse_indicator(rec[k], f"{path}, line {lineno}")
            d = None if rec[k + 1] == MISSING_TOKEN else _parse_indicator(rec[k + 1], f"{path}, line {lineno}")
            y = None if rec[k + 2] == MISSING_TOKEN else _parse_float(rec[k + 2], f"{path}, line {lineno}")
            rows.append(OneSampleRow(x, o, d, y))
    return validate_one_sample(rows)


def write_one_sample_csv(data: OneSampleDataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(data.k)] + ["o", "d", "y"])
        for row in data.rows():
            rec = [_fmt(v) for v in row.x]
            rec.append(str(row.o))
            rec.append(MISSING_TOKEN if row.d is None else str(row.d))
            rec.append(MISSING_TOKEN if row.y is None else _fmt(row.y))
            writer.writerow(rec)


def read_labeled_csv(path):
    """Read `x1,...,xk,d,y` into (x, d, y) arrays of LabeledRow values."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyDataset(f"{path}: empty file")
        k = len(header) - 2
        if k < 1 or header[k:] != ["d", "y"]:
            raise DimMismatch(f"{path}: header must be x1,...,xk,d,y")
        rows = []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != k + 2:
                raise DimMismatch(f"{path}, line {lineno}: expected {k + 2} fields")
            x = tuple(_parse_float(t, f"{path}, line {lineno}") for t in rec[:k])
            d = _parse_indicator(rec[k], f"{path}, line {lineno}")
            y = _parse_float(rec[k + 1], f"{path}, line {lineno}")
            rows.append(LabeledRow(x, d, y))
    return rows


def read_unlabeled_csv(path):
    """Read `x1,...,xk` into a list of covariate tuples."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyDataset(f"{path}: empty file")
        k = len(header)
        rows = []
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != k:
                raise DimMismatch(f"{path}, line {lineno}: expected {k} fields")
            rows.append(tuple(_parse_float(t, f"{path}, line {lineno}") for t in rec))
    return rows


def read_two_sample_csv(labeled_path, unlabeled_path) -> TwoSampleDataset:
    return validate_two_sample(read_labeled_csv(labeled_path), read_unlabeled_csv(unlabeled_path))


def write_labeled_csv(data: TwoSampleDataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(data.k)] + ["d", "y"])
        for row in data.labeled_rows():
            writer.writerow([_fmt(v) for v in row.x] + [str(row.d), _fmt(row.y)])


def write_unlabeled_csv(data: TwoSampleDataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(data.k)])
        for zrow in data.z:
            writer.writerow([_fmt(v) for v in zrow])
