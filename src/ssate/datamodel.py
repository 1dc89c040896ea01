"""Dataset containers, validation, fold plans and CSV I/O.

One-sample data couple the observation indicator ``o`` with the presence
of treatment and outcome: ``o == 1`` iff both are present. The arrays
hold 0 in the ``d`` and ``y`` slots of unlabeled rows; only CSV files
spell a missing value, as the literal token ``NA``. Every dataset, read
from a file or built in memory, is validated once, by ``from_arrays``.
"""

from __future__ import annotations

import csv
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadFoldCount,
    BadIndicator,
    DimMismatch,
    EmptyDataset,
    NaCouplingViolation,
    NonfiniteValue,
    SsateError,
)

MISSING_TOKEN = "NA"


def _is_indicator(a: np.ndarray) -> np.ndarray:
    """Elementwise: the value is exactly 0 or 1, checked before any integer cast."""
    return (a == 0) | (a == 1)


def _check_rows(ok: np.ndarray, error, message: str, sample: str = "") -> None:
    """Raise ``error`` naming the first row where ``ok`` is false.

    The error carries that row and ``sample`` as ``row`` and ``sample``,
    so a CSV reader can name the file line instead.
    """
    if not ok.all():
        row = int(np.argmin(ok))
        exc = error(f"{sample}row {row}: {message}")
        exc.row, exc.sample = row, sample
        raise exc


def _covariates(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else x


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

    def rows(self, mask: np.ndarray) -> "OneSampleDataset":
        """The rows under ``mask`` as a read-only dataset. They were validated
        with this one, so ``from_arrays`` is not run again."""
        return OneSampleDataset(*(_as_readonly(a[mask]) for a in (self.x, self.o, self.d, self.y)))

    @staticmethod
    def from_arrays(x, o, d, y) -> "OneSampleDataset":
        """Validate and freeze the arrays; ``d`` and ``y`` are read only where o == 1."""
        x = _covariates(x)
        o, d, y = np.asarray(o), np.asarray(d), np.asarray(y, dtype=float)
        if x.shape[0] == 0:
            raise EmptyDataset("dataset must contain at least one row")
        if not (x.shape[0] == o.shape[0] == d.shape[0] == y.shape[0]):
            raise DimMismatch("array lengths disagree")
        _check_rows(np.isfinite(x).all(axis=1), NonfiniteValue, "covariates must be finite")
        _check_rows(_is_indicator(o), BadIndicator, "observation indicator must be 0 or 1")
        lab = o == 1
        _check_rows(~lab | _is_indicator(d), BadIndicator,
                    "treatment indicator must be 0 or 1 on labeled rows")
        _check_rows(~lab | np.isfinite(y), NonfiniteValue, "labeled outcomes must be finite")
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

    @staticmethod
    def from_arrays(x, d, y, z) -> "TwoSampleDataset":
        """Validate and freeze the labeled (x, d, y) and unlabeled z arrays."""
        x, z = _covariates(x), _covariates(z)
        d, y = np.asarray(d), np.asarray(y, dtype=float)
        if x.shape[0] == 0 or z.shape[0] == 0:
            raise EmptyDataset("both labeled and unlabeled samples must be nonempty")
        if x.shape[1] != z.shape[1]:
            raise DimMismatch(
                f"labeled covariate dimension {x.shape[1]} != unlabeled dimension {z.shape[1]}"
            )
        if not (x.shape[0] == d.shape[0] == y.shape[0]):
            raise DimMismatch("labeled array lengths disagree")
        _check_rows(np.isfinite(x).all(axis=1), NonfiniteValue, "covariates must be finite",
                    "labeled ")
        _check_rows(np.isfinite(z).all(axis=1), NonfiniteValue, "covariates must be finite",
                    "unlabeled ")
        _check_rows(np.isfinite(y), NonfiniteValue, "outcome must be finite", "labeled ")
        _check_rows(_is_indicator(d), BadIndicator, "treatment indicator must be 0 or 1",
                    "labeled ")
        return TwoSampleDataset(_as_readonly(x), _as_readonly(d.astype(np.int8)), _as_readonly(y),
                                _as_readonly(z))


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
# CSV schemas: x1,...,xk followed by each schema's own columns. Readers
# stream every token through float() into flat buffers, then hand the
# columns to from_arrays; writers format one row at a time.
# ---------------------------------------------------------------------------

def _stream(path, tail: tuple, take) -> int:
    """Check the header ``x1,...,xk`` + ``tail`` of the CSV at ``path``, then
    hand each data line's fields to ``take``; returns k.

    Every line must have the header's field count, and a token ``float``
    rejects is a NonfiniteValue naming its line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyDataset(f"{path}: empty file")
        k = len(header) - len(tail)
        if k < 1 or header[k:] != list(tail):
            raise DimMismatch(f"{path}, line 1: header must be {','.join(['x1,...,xk', *tail])}")
        for lineno, fields in enumerate(reader, start=2):
            if len(fields) != len(header):
                raise DimMismatch(f"{path}, line {lineno}: expected {len(header)} fields")
            try:
                take(fields)
            except ValueError as exc:
                raise NonfiniteValue(f"{path}, line {lineno}: {exc}") from None
    return k


@contextmanager
def _at_lines(paths: dict):
    """Re-raise a row error from ``from_arrays`` as the same class naming the
    file and line of that row; ``paths`` maps each sample prefix to its file."""
    try:
        yield
    except SsateError as exc:
        if not hasattr(exc, "row"):
            raise
        raise type(exc)(f"{paths[exc.sample]}, line {exc.row + 2}: {exc}") from None


def _write(path, k: int, tail: tuple, rows) -> None:
    """Write the header and ``rows``, taken one at a time; floats are written
    with repr, which round-trips them exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(k)] + list(tail))
        writer.writerows(rows)


def read_one_sample_csv(path) -> OneSampleDataset:
    """Read `x1,...,xk,o,d,y`, where `d` and `y` are `NA` exactly when o=0."""
    x, o, d, y, n_missing = array("d"), array("d"), array("d"), array("d"), array("b")

    def take(fields):
        x.extend(map(float, fields[:-3]))
        o.append(float(fields[-3]))
        d_missing, y_missing = fields[-2] == MISSING_TOKEN, fields[-1] == MISSING_TOKEN
        d.append(0.0 if d_missing else float(fields[-2]))
        y.append(0.0 if y_missing else float(fields[-1]))
        n_missing.append(d_missing + y_missing)

    k = _stream(path, ("o", "d", "y"), take)
    obs, n_na = np.asarray(o), np.asarray(n_missing)
    with _at_lines({"": path}):
        # the NA token is the one rule of the file itself; rows whose o is
        # not an indicator are left to from_arrays
        _check_rows((obs != 1) | (n_na == 0), NaCouplingViolation,
                    "o=1 requires both d and y to be present")
        _check_rows((obs != 0) | (n_na == 2), NaCouplingViolation, "o=0 forbids present d or y")
        return OneSampleDataset.from_arrays(np.reshape(x, (-1, k)), obs, d, y)


def write_one_sample_csv(data: OneSampleDataset, path) -> None:
    missing = (MISSING_TOKEN, MISSING_TOKEN)
    x_rows = map(np.ndarray.tolist, data.x)
    _write(path, data.k, ("o", "d", "y"), (
        [*map(repr, xi), "1", str(di), repr(yi)] if oi == 1 else [*map(repr, xi), "0", *missing]
        for xi, oi, di, yi in zip(x_rows, memoryview(data.o), memoryview(data.d),
                                  memoryview(data.y))))


def read_two_sample_csv(labeled_path, unlabeled_path) -> TwoSampleDataset:
    """Read a labeled `x1,...,xk,d,y` CSV and an unlabeled `x1,...,xk` CSV."""
    x, d, y, z = array("d"), array("d"), array("d"), array("d")

    def take_labeled(fields):
        x.extend(map(float, fields[:-2]))
        d.append(float(fields[-2]))
        y.append(float(fields[-1]))

    k = _stream(labeled_path, ("d", "y"), take_labeled)
    k_z = _stream(unlabeled_path, (), lambda fields: z.extend(map(float, fields)))
    with _at_lines({"labeled ": labeled_path, "unlabeled ": unlabeled_path}):
        return TwoSampleDataset.from_arrays(np.reshape(x, (-1, k)), d, y, np.reshape(z, (-1, k_z)))


def write_labeled_csv(data: TwoSampleDataset, path) -> None:
    x_rows = map(np.ndarray.tolist, data.x)
    _write(path, data.k, ("d", "y"), (
        [*map(repr, xi), str(di), repr(yi)]
        for xi, di, yi in zip(x_rows, memoryview(data.d), memoryview(data.y))))


def write_unlabeled_csv(data: TwoSampleDataset, path) -> None:
    _write(path, data.k, (), (map(repr, zi) for zi in map(np.ndarray.tolist, data.z)))
