"""Dataset containers, validation, fold plans and CSV I/O.

One-sample data couple the observation indicator ``o`` with the presence
of treatment and outcome: ``o == 1`` iff both are present. The arrays
hold 0 in the ``d`` and ``y`` slots of unlabeled rows; only CSV files
spell a missing value, as the literal token ``NA``. Every dataset, read
from a file or built in memory, is validated once, by ``from_arrays``.
"""

from __future__ import annotations

import csv
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadFoldCount,
    BadIndicator,
    DimMismatch,
    EmptyDataset,
    NaCouplingViolation,
    NonfiniteValue,
    SsateError,
    check_integer,
    covariates,
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
        x = covariates(x)
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

    @staticmethod
    def from_arrays(x, d, y, z) -> "TwoSampleDataset":
        """Validate and freeze the labeled (x, d, y) and unlabeled z arrays."""
        x, z = covariates(x), covariates(z)
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


def make_fold_plan(n: int, n_folds: int, seed: int) -> np.ndarray:
    """Each row's fold in 1..n_folds, read-only: a seeded shuffle of the
    indices followed by round-robin assignment."""
    check_integer("n", n)  # its range is the fold count's: 2 <= L <= n
    check_integer("n_folds", n_folds, BadFoldCount)
    if n_folds < 2 or n_folds > n:
        raise BadFoldCount(f"fold count must satisfy 2 <= L <= n, got L={n_folds}, n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    assignment[perm] = (np.arange(n) % n_folds) + 1
    return _as_readonly(assignment)


# ---------------------------------------------------------------------------
# CSV schemas: x1,...,xk followed by each schema's own columns. A reader
# parses a file in the plain dialect in bulk (``_bulk``) and streams any
# other file, or any file the bulk path cannot vouch for, through float()
# (``_stream``); either way it hands the columns to from_arrays. Writers
# format a fixed number of rows at a time, column by column.
# ---------------------------------------------------------------------------

# The plain dialect, in which every writer here writes: a header of
# printable ASCII without quotes, then data lines of these bytes only, each
# ending in \r\n or \n (the last line may end the file instead). The header
# is not blank: csv reads a blank line as no fields, not as one empty field.
_PLAIN_HEADER = re.compile(rb'[ !#-~]+\r?\n')
_PLAIN_BYTES = b"0123456789.,+-eENA\r\n"
_CHUNK_ROWS = 512
_BULK_BYTES = 1 << 16


def _check_header(path, header: list, tail: tuple) -> None:
    """Raise DimMismatch unless ``header`` is ``x1,...,xk`` + ``tail`` for some k >= 1."""
    k = len(header) - len(tail)
    if k < 1 or header != [*(f"x{j + 1}" for j in range(k)), *tail]:
        raise DimMismatch(f"{path}, line 1: header must be {','.join(['x1,...,xk', *tail])}")


def _undecodable(fields) -> bool:
    """Whether a field held bytes that are not UTF-8 (read as lone surrogates)."""
    try:
        "".join(fields).encode()
    except UnicodeEncodeError:
        return True
    return False


def _stream(path, tail: tuple, na_tail: int = 0):
    """Read the CSV at ``path``, with header ``x1,...,xk`` + ``tail``, line
    by line through float(); returns its (rows, fields) table and the mask
    of ``NA`` tokens in its last ``na_tail`` columns, which read as 0.

    Every line must have the header's field count, and a token ``float``
    rejects is a NonfiniteValue naming its line.
    """
    values, missing = array("d"), array("b")
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise EmptyDataset(f"{path}: empty file")
            if _undecodable(header):
                raise SsateError(f"{path}, line 1: not UTF-8 text")
            _check_header(path, header, tail)
            na_from = len(header) - na_tail
            for lineno, fields in enumerate(reader, start=2):
                if len(fields) != len(header):
                    raise DimMismatch(f"{path}, line {lineno}: expected {len(header)} fields")
                try:
                    values.extend(map(float, fields[:na_from]))
                    for token in fields[na_from:]:
                        missing.append(token == MISSING_TOKEN)
                        values.append(0.0 if token == MISSING_TOKEN else float(token))
                except ValueError as exc:
                    if _undecodable(fields):
                        raise SsateError(f"{path}, line {lineno}: not UTF-8 text") from None
                    raise NonfiniteValue(f"{path}, line {lineno}: {exc}") from None
        except csv.Error as exc:
            raise SsateError(f"{path}, line {reader.line_num}: {exc}") from None
    table = np.reshape(values, (-1, len(header)))
    return table, np.asarray(missing, dtype=bool).reshape(len(table), na_tail)


def _bulk(path, tail: tuple, na_tail: int = 0):
    """``_stream``'s result for the CSV at ``path``, parsed by numpy's C
    reader, or None when only ``_stream`` may read the file.

    The reader converts each token with PyOS_string_to_double, as float()
    does, so the table is returned only where that provably makes it
    ``_stream``'s: the file is in the plain dialect with a valid header; no
    line is as long as csv's field limit; the table has one row per line
    (the reader would skip a blank one) and the header's field count; and
    every value is finite but in the last ``na_tail`` columns, where a NaN
    is exactly an ``NA`` token. A file with an error is never returned.
    The file is checked a block of whole lines at a time, then parsed line by line.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        if not _PLAIN_HEADER.fullmatch(head):
            return None
        header = head.rstrip(b"\r\n").decode("ascii").split(",")
        try:
            _check_header(path, header, tail)
        except DimMismatch:
            return None
        rows, limit = 0, csv.field_size_limit()
        for lines in iter(lambda: fh.readlines(_BULK_BYTES), []):
            block = b"".join(lines)
            chars = np.frombuffer(block, np.uint8)
            ends = np.flatnonzero(chars == ord("\n"))
            # numpy would skip a blank line, and warn of it under max_rows;
            # [+-]?NAN is the only token of the dialect that reads as NaN. When
            # every N opens a field ",NA", the fields that become NAN below are
            # exactly the NA tokens not in the first column.
            if (b"\n" in lines or b"\r\n" in lines or block.translate(None, _PLAIN_BYTES)
                    or block.count(b"\r") != np.count_nonzero(chars[ends - 1] == ord("\r"))
                    or np.diff(ends, prepend=-1, append=len(block)).max() > limit
                    or na_tail and block.count(b"N") != block.count(b",NA")):
                return None
            rows += len(lines)
        if not rows:  # numpy would warn of a file without data
            return None
        fh.seek(len(head))
        lines = (line.replace(b",NA", b",NAN") for line in fh) if na_tail else fh
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, encoding="ascii",
                               max_rows=rows)
        except ValueError:
            return None
    head_cols, tail_cols = np.hsplit(table, [len(header) - na_tail])
    if table.shape != (rows, len(header)) or not np.isfinite(head_cols).all():
        return None
    missing = np.isnan(tail_cols)
    tail_cols[missing] = 0.0
    return table, missing


def _read(path, tail: tuple, na_tail: int = 0):
    """The (rows, fields) table of a CSV and its ``NA`` mask, as ``_stream`` reads them."""
    return _bulk(path, tail, na_tail) or _stream(path, tail, na_tail)


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


def _floats(a: np.ndarray) -> list:
    """repr of each value, which round-trips the float exactly."""
    return list(map(repr, a.tolist()))


def _write(path, k: int, tail: tuple, n: int, columns) -> None:
    """Write the header and ``n`` rows, ``_CHUNK_ROWS`` at a time:
    ``columns(rows)`` formats the rows under the slice ``rows`` as one list
    of strings per field. Lines end in CRLF, as csv.writer's do."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join([*(f"x{j + 1}" for j in range(k)), *tail]) + "\r\n")
        for lo in range(0, n, _CHUNK_ROWS):
            lines = map(",".join, zip(*columns(slice(lo, lo + _CHUNK_ROWS))))
            fh.write("\r\n".join(lines) + "\r\n")


def read_one_sample_csv(path) -> OneSampleDataset:
    """Read `x1,...,xk,o,d,y`, where `d` and `y` are `NA` exactly when o=0."""
    table, missing = _read(path, ("o", "d", "y"), na_tail=2)
    obs, d, y = table[:, -3:].T
    n_na = missing.sum(axis=1)
    with _at_lines({"": path}):
        # the NA token is the one rule of the file itself; rows whose o is
        # not an indicator are left to from_arrays
        _check_rows((obs != 1) | (n_na == 0), NaCouplingViolation,
                    "o=1 requires both d and y to be present")
        _check_rows((obs != 0) | (n_na == 2), NaCouplingViolation, "o=0 forbids present d or y")
        return OneSampleDataset.from_arrays(table[:, :-3], obs, d, y)


def write_one_sample_csv(data: OneSampleDataset, path) -> None:
    def columns(rows):
        o = data.o[rows] == 1
        lab = o.tolist()

        def labeled(strings):  # the labeled rows' strings in order, NA in the others
            it = iter(strings)
            return [next(it) if oi else MISSING_TOKEN for oi in lab]

        return [*map(_floats, data.x[rows].T), ["1" if oi else "0" for oi in lab],
                labeled(map(str, data.d[rows][o].tolist())), labeled(_floats(data.y[rows][o]))]

    _write(path, data.k, ("o", "d", "y"), data.n, columns)


def read_two_sample_csv(labeled_path, unlabeled_path) -> TwoSampleDataset:
    """Read a labeled `x1,...,xk,d,y` CSV and an unlabeled `x1,...,xk` CSV."""
    labeled, _ = _read(labeled_path, ("d", "y"))
    z, _ = _read(unlabeled_path, ())
    with _at_lines({"labeled ": labeled_path, "unlabeled ": unlabeled_path}):
        return TwoSampleDataset.from_arrays(labeled[:, :-2], labeled[:, -2], labeled[:, -1], z)


def write_labeled_csv(data: TwoSampleDataset, path) -> None:
    _write(path, data.k, ("d", "y"), data.m, lambda rows: [
        *map(_floats, data.x[rows].T), list(map(str, data.d[rows].tolist())),
        _floats(data.y[rows])])


def write_unlabeled_csv(data: TwoSampleDataset, path) -> None:
    _write(path, data.k, (), data.l, lambda rows: list(map(_floats, data.z[rows].T)))
