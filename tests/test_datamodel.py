import csv
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssate import OneSampleDataset, TwoSampleDataset, datamodel, make_fold_plan
from ssate.datamodel import (
    read_one_sample_csv,
    read_two_sample_csv,
    write_labeled_csv,
    write_one_sample_csv,
    write_unlabeled_csv,
)
from ssate.errors import (
    BadFoldCount,
    BadIndicator,
    DimMismatch,
    EmptyDataset,
    NaCouplingViolation,
    NonfiniteValue,
    SsateError,
)

from conftest import gaussian_k3, traced_peak


def one_sample_csv(tmp_path, text):
    path = tmp_path / "os.csv"
    path.write_text(text)
    return path


def two_sample_csvs(tmp_path, labeled, unlabeled):
    lab, unl = tmp_path / "lab.csv", tmp_path / "unl.csv"
    lab.write_text(labeled)
    unl.write_text(unlabeled)
    return lab, unl


class TestValidateOneSample:
    def test_counts(self):
        ds = OneSampleDataset.from_arrays([[0.0], [1.0]], [1, 0], [1, 0], [2.0, 0.0])
        assert ds.n == 2 and ds.n_labeled == 1 and ds.n_unlabeled == 1

    def test_na_coupling_unobserved_with_treatment(self, tmp_path):
        with pytest.raises(NaCouplingViolation):
            read_one_sample_csv(one_sample_csv(tmp_path, "x1,o,d,y\n0.0,0,1,NA\n"))

    def test_na_coupling_observed_missing_outcome(self, tmp_path):
        with pytest.raises(NaCouplingViolation):
            read_one_sample_csv(one_sample_csv(tmp_path, "x1,o,d,y\n0.0,1,1,NA\n"))

    def test_dim_mismatch(self, tmp_path):
        path = one_sample_csv(tmp_path, "x1,x2,o,d,y\n0.0,1.0,1,0,1.0\n3.0,1,0,1.0\n")
        with pytest.raises(DimMismatch):
            read_one_sample_csv(path)

    def test_nonfinite_covariate(self):
        with pytest.raises(NonfiniteValue):
            OneSampleDataset.from_arrays([[float("nan")]], [1], [1], [0.0])

    def test_bad_indicator(self):
        with pytest.raises(BadIndicator):
            OneSampleDataset.from_arrays([[0.0]], [1], [2], [0.0])

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            OneSampleDataset.from_arrays(np.empty((0, 1)), [], [], [])

    def test_idempotent(self):
        ds = OneSampleDataset.from_arrays([[0.0], [1.0]], [1, 0], [1, 0], [2.0, 0.0])
        ds2 = OneSampleDataset.from_arrays(ds.x, ds.o, ds.d, ds.y)
        assert np.array_equal(ds.x, ds2.x)
        assert np.array_equal(ds.o, ds2.o)
        assert np.array_equal(ds.d, ds2.d)
        assert np.array_equal(ds.y, ds2.y)

    @pytest.mark.parametrize("o, d, y, error, row", [
        ([1, 0, 1.5, 2], [1, 0, 1, 1], [1.0, 0.0, 1.0, 1.0], BadIndicator, 2),
        ([1, 0, 1, 1], [1, 5, 1, 0.5], [1.0, 0.0, 1.0, 1.0], BadIndicator, 3),
        ([1, 0, 1, 1], [1, 0, 1, 1], [1.0, np.nan, np.inf, np.nan], NonfiniteValue, 2),
    ])
    def test_error_names_first_bad_row(self, o, d, y, error, row):
        with pytest.raises(error, match=f"^row {row}: "):
            OneSampleDataset.from_arrays(np.zeros((4, 1)), o, d, y)

    def test_nonfinite_covariate_names_first_bad_row(self):
        x = np.zeros((4, 2))
        x[3, 0], x[1, 1] = np.nan, -np.inf
        with pytest.raises(NonfiniteValue, match="^row 1: "):
            OneSampleDataset.from_arrays(x, [1, 1, 1, 1], [1, 0, 1, 0], np.zeros(4))


class TestValidateTwoSample:
    def test_counts(self):
        ds = TwoSampleDataset.from_arrays([[0.0]], [1], [1.0], [[1.0], [2.0]])
        assert ds.m == 1 and ds.l == 2 and ds.k == 1

    def test_empty_labeled(self):
        with pytest.raises(EmptyDataset):
            TwoSampleDataset.from_arrays(np.empty((0, 1)), [], [], [[1.0]])

    def test_nonfinite_outcome(self):
        with pytest.raises(NonfiniteValue):
            TwoSampleDataset.from_arrays([[0.0]], [1], [float("nan")], [[1.0]])

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            TwoSampleDataset.from_arrays([[0.0]], [1], [1.0], [[1.0, 2.0]])

    @pytest.mark.parametrize("x, d, y, z, error, where", [
        ([[0.0], [np.nan], [np.inf]], [1, 0, 1], [1.0, 2.0, 3.0], [[0.0]], NonfiniteValue,
         "labeled row 1"),
        ([[0.0], [1.0], [2.0]], [1, 0, 1], [1.0, 2.0, 3.0], [[0.0], [0.0], [np.nan]],
         NonfiniteValue, "unlabeled row 2"),
        ([[0.0], [1.0], [2.0]], [1, 0, 1], [1.0, 2.0, -np.inf], [[0.0]], NonfiniteValue,
         "labeled row 2"),
        ([[0.0], [1.0], [2.0]], [1, 0.5, 2], [1.0, 2.0, 3.0], [[0.0]], BadIndicator,
         "labeled row 1"),
    ])
    def test_error_names_first_bad_row(self, x, d, y, z, error, where):
        with pytest.raises(error, match=f"^{where}: "):
            TwoSampleDataset.from_arrays(x, d, y, z)


class TestFoldPlan:
    def test_equal_sizes(self):
        plan = make_fold_plan(10, 2, seed=7)
        sizes = [len(np.flatnonzero(plan == b)) for b in (1, 2)]
        assert sizes == [5, 5]

    def test_near_equal_sizes(self):
        plan = make_fold_plan(7, 3, seed=1)
        sizes = sorted(len(np.flatnonzero(plan == b)) for b in (1, 2, 3))
        assert sizes == [2, 2, 3]

    def test_bad_fold_count(self):
        with pytest.raises(BadFoldCount):
            make_fold_plan(4, 5, seed=0)
        with pytest.raises(BadFoldCount):
            make_fold_plan(4, 1, seed=0)

    def test_deterministic(self):
        a = make_fold_plan(31, 4, seed=9)
        b = make_fold_plan(31, 4, seed=9)
        assert np.array_equal(a, b)

    def test_read_only(self):
        plan = make_fold_plan(10, 2, seed=7)
        with pytest.raises(ValueError):
            plan[0] = 2

    @given(
        n=st.integers(min_value=2, max_value=200),
        n_folds=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, n_folds, seed):
        if n_folds > n:
            n_folds = n
        plan = make_fold_plan(n, n_folds, seed)
        all_idx = np.concatenate([np.flatnonzero(plan == b) for b in range(1, n_folds + 1)])
        assert sorted(all_idx.tolist()) == list(range(n))
        sizes = [len(np.flatnonzero(plan == b)) for b in range(1, n_folds + 1)]
        assert max(sizes) - min(sizes) <= 1


class TestCsvRoundTrip:
    def test_one_sample_bit_exact(self, tmp_path, d1):
        from ssate import sample_one

        ds = sample_one(d1, 200, 3)
        path = tmp_path / "os.csv"
        write_one_sample_csv(ds, path)
        back = read_one_sample_csv(path)
        assert np.array_equal(ds.x, back.x)
        assert np.array_equal(ds.o, back.o)
        assert np.array_equal(ds.d, back.d)
        assert np.array_equal(ds.y, back.y)
        # second write is byte-identical
        path2 = tmp_path / "os2.csv"
        write_one_sample_csv(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_two_sample_round_trip(self, tmp_path, d2):
        from ssate import sample_two

        ds = sample_two(d2, 50, 40, 4)
        lab = tmp_path / "lab.csv"
        unl = tmp_path / "unl.csv"
        write_labeled_csv(ds, lab)
        write_unlabeled_csv(ds, unl)
        back = read_two_sample_csv(lab, unl)
        assert np.array_equal(ds.x, back.x)
        assert np.array_equal(ds.y, back.y)
        assert np.array_equal(ds.z, back.z)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,o,d,y\n0.0,1,1,2.0\n0.0,0,1,NA\n")
        with pytest.raises(NaCouplingViolation, match="row 1"):
            read_one_sample_csv(path)
        with pytest.raises(NaCouplingViolation, match="line 3"):
            read_one_sample_csv(path)

    def test_unparseable_token_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,o,d,y\n0.0,1,1,zap\n")
        with pytest.raises(NonfiniteValue, match="line 2"):
            read_one_sample_csv(path)


class TestCsvErrors:
    """Each CSV error names the file and line; from_arrays errors also name the row."""

    @pytest.mark.parametrize("line, token", [("zap,1,1,2.0", "zap"), ("0.0,1,1,zap", "zap"),
                                             ("0.0,y,1,2.0", "y"), ("0.0,1,?,2.0", "?"),
                                             ("NA,0,NA,NA", "NA")])
    def test_one_sample_unparseable_token(self, tmp_path, line, token):
        path = one_sample_csv(tmp_path, f"x1,o,d,y\n0.0,1,1,2.0\n{line}\n")
        at = re.escape(f"{path}, line 3: ") + f".*'{re.escape(token)}'"
        with pytest.raises(NonfiniteValue, match=at):
            read_one_sample_csv(path)

    @pytest.mark.parametrize("line, token", [("zap,1,2.0", "zap"), ("0.0,1,zap", "zap"),
                                             ("0.0,NA,2.0", "NA"), ("0.0,1,NA", "NA")])
    def test_labeled_unparseable_token(self, tmp_path, line, token):
        lab, unl = two_sample_csvs(tmp_path, f"x1,d,y\n0.0,1,2.0\n{line}\n", "x1\n0.0\n")
        with pytest.raises(NonfiniteValue, match=re.escape(f"{lab}, line 3: ") + f".*'{token}'"):
            read_two_sample_csv(lab, unl)

    def test_unlabeled_unparseable_token(self, tmp_path):
        lab, unl = two_sample_csvs(tmp_path, "x1,d,y\n0.0,1,2.0\n", "x1\n0.0\n1.0\nzap\n")
        with pytest.raises(NonfiniteValue, match=re.escape(f"{unl}, line 4: ") + ".*'zap'"):
            read_two_sample_csv(lab, unl)

    def test_unlabeled_short_line(self, tmp_path):
        lab, unl = two_sample_csvs(tmp_path, "x1,x2,d,y\n0.0,1.0,1,2.0\n",
                                   "x1,x2\n0.0,1.0\n0.0\n")
        with pytest.raises(DimMismatch, match=re.escape(f"{unl}, line 3: expected 2 fields")):
            read_two_sample_csv(lab, unl)

    def test_labeled_unlabeled_dimension_mismatch(self, tmp_path):
        lab, unl = two_sample_csvs(tmp_path, "x1,d,y\n0.0,1,2.0\n", "x1,x2\n0.0,1.0\n")
        with pytest.raises(DimMismatch, match="dimension 1 != unlabeled dimension 2"):
            read_two_sample_csv(lab, unl)

    @pytest.mark.parametrize("text, error", [
        ("x1,o,d,y\n0.0,1,1,2.0\n0.0,1,1,2.0\nnan,1,1,2.0\n", NonfiniteValue),
        ("x1,o,d,y\n0.0,1,1,2.0\n0.0,1,1,2.0\n0.0,1,1,inf\n", NonfiniteValue),
        ("x1,o,d,y\n0.0,1,1,2.0\n0.0,1,1,2.0\n0.0,1,2,2.0\n", BadIndicator),
        ("x1,o,d,y\n0.0,1,1,2.0\n0.0,1,1,2.0\n0.0,1.5,NA,NA\n", BadIndicator),
    ])
    def test_value_error_names_row_and_line(self, tmp_path, text, error):
        path = one_sample_csv(tmp_path, text)
        with pytest.raises(error, match=re.escape(f"{path}, line 4: row 2: ")):
            read_one_sample_csv(path)

    @pytest.mark.parametrize("labeled, unlabeled, at", [
        ("x1,d,y\n0.0,1,2.0\nnan,1,2.0\n", "x1\n0.0\n", "lab.csv, line 3: labeled row 1"),
        ("x1,d,y\n0.0,1,2.0\n0.0,1,nan\n", "x1\n0.0\n", "lab.csv, line 3: labeled row 1"),
        ("x1,d,y\n0.0,1,2.0\n", "x1\n0.0\n0.0\ninf\n", "unl.csv, line 4: unlabeled row 2"),
    ])
    def test_two_sample_value_error_names_file_and_line(self, tmp_path, labeled, unlabeled, at):
        lab, unl = two_sample_csvs(tmp_path, labeled, unlabeled)
        with pytest.raises(NonfiniteValue, match=at):
            read_two_sample_csv(lab, unl)

    def test_bad_header(self, tmp_path):
        path = one_sample_csv(tmp_path, "x1,o,y,d\n0.0,1,2.0,1\n")
        with pytest.raises(DimMismatch, match=re.escape("line 1: header must be x1,...,xk,o,d,y")):
            read_one_sample_csv(path)


class TestStrictIndicators:
    """Indicators are checked before the int8 cast, so fractions raise."""

    def test_fractional_observation_indicator(self):
        with pytest.raises(BadIndicator):
            OneSampleDataset.from_arrays(np.zeros((2, 1)), [1.5, 0], [1, 0], [1.0, 0.0])

    def test_fractional_treatment_indicator(self):
        with pytest.raises(BadIndicator):
            OneSampleDataset.from_arrays(np.zeros((2, 1)), [1, 1], [0.7, 1], [1.0, 0.0])

    def test_fractional_two_sample_treatment(self):
        from ssate import TwoSampleDataset

        with pytest.raises(BadIndicator):
            TwoSampleDataset.from_arrays(np.zeros((2, 1)), [1.9, 0], [1.0, 0.0], np.zeros((1, 1)))

    def test_integral_floats_accepted(self):
        ds = OneSampleDataset.from_arrays(np.zeros((2, 1)), [1.0, 0.0], [1.0, 0.7], [2.0, 0.0])
        assert ds.o.dtype == np.int8 and list(ds.o) == [1, 0] and list(ds.d) == [1, 0]

    def test_csv_fractional_observation_indicator(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,o,d,y\n0.0,1,1,2.0\n0.0,1.5,1,2.0\n")
        with pytest.raises(BadIndicator, match="line 3"):
            read_one_sample_csv(path)

    def test_csv_fractional_treatment(self, tmp_path):
        lab, unl = tmp_path / "lab.csv", tmp_path / "unl.csv"
        lab.write_text("x1,d,y\n0.0,0.7,2.0\n")
        unl.write_text("x1\n0.0\n")
        with pytest.raises(BadIndicator, match="line 2"):
            read_two_sample_csv(lab, unl)


# ---------------------------------------------------------------------------
# Bulk CSV path: numpy's reader must agree with the streaming reader
# ---------------------------------------------------------------------------

NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "1", "-0", "+1", "1.", ".5", "-0.0", "5e-324", "1e-310", "007",
                     "0.30000000000000004", "1.7976931348623157e+308", "1e999", "-1E-5"]),
)
ODD_TOKEN = st.sampled_from([
    "NA", "NAN", "-NAN", "nan", "inf", "+NA", "-NA", "NAA", "ANA", "1NA", "NA5", "N", "A", "E5",
    "1e", "1_0", "", " 1", "1 ", '"1"', '"1,2"', '"NA"', "0x1", "\udcff\udcfe", "\ufeff1", "\r",
])


@st.composite
def csv_file(draw, tail, na_row):
    """Bytes of a CSV with header x1,...,xk + ``tail``: mostly valid rows in
    the plain dialect, some of them perturbed, in either line ending."""
    k = draw(st.integers(1, 3))
    names = [f"x{j + 1}" for j in range(k)] + list(tail)
    if draw(st.integers(0, 9)) == 0:
        names[draw(st.integers(0, len(names) - 1))] = draw(st.sampled_from(
            ["a", " o", '"d"', "y,", "", "x\udcff"]))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        labeled = not na_row or draw(st.booleans())
        row = [draw(NUMBER) for _ in range(k)]
        if na_row:
            row += ["1", draw(st.sampled_from(["0", "1"])), draw(NUMBER)] if labeled else \
                   ["0", "NA", "NA"]
        else:
            row += [draw(st.sampled_from(["0", "1"])), draw(NUMBER)][:len(tail)]
        kind = draw(st.sampled_from(["keep"] * 12 + ["reject", "odd", "odd", "short", "long",
                                                     "blank"]))
        if kind == "reject" and tail:  # parses, but from_arrays or the NA rule rejects it
            bad = [["0", "1", "2.0"], ["1", "NA", "NA"], ["1", "1", "NA"], ["2", "0", "1.0"],
                   ["0.5", "NA", "NA"], ["1", "1", "1e999"]] if na_row else [["2"], ["0.5"]]
            bad = draw(st.sampled_from(bad))
            row[len(row) - len(tail):len(row) - len(tail) + len(bad)] = bad
        elif kind == "odd":
            row[draw(st.integers(0, len(row) - 1))] = draw(ODD_TOKEN)
        elif kind == "short":
            row = row[:-1]
        elif kind == "long":
            row.append(draw(NUMBER))
        elif kind == "blank":
            row = []
        rows.append(",".join(row))
    eol = draw(st.sampled_from(["\r\n", "\n", "mixed"]))
    lines = [",".join(names)] + rows + [""] * draw(st.sampled_from([0, 0, 0, 0, 0, 1, 2]))
    text = "".join(line + (eol if eol != "mixed" else draw(st.sampled_from(["\r\n", "\n"])))
                   for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8", "surrogateescape")


def _outcome(read, *paths):
    """A read's arrays as bytes, or its error class and message."""
    try:
        ds = read(*paths)
    except SsateError as exc:
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in vars(ds).values()]


def _streamed(read, *paths):
    with mock.patch.object(datamodel, "_bulk", lambda *args: None):
        return _outcome(read, *paths)


def _in_blocks():
    """Patch ``_bulk``'s block size to its default, then to a few bytes, so
    that each block holds one line and every check runs across blocks."""
    for size in (datamodel._BULK_BYTES, 5):
        with mock.patch.object(datamodel, "_BULK_BYTES", size):
            yield


@pytest.mark.filterwarnings("error")  # a warning from numpy's reader would reach stderr
class TestBulkRead:
    """``_bulk`` returns exactly ``_stream``'s table, or defers to it."""

    @given(text=csv_file(("o", "d", "y"), na_row=True))
    @settings(max_examples=300, deadline=None)
    def test_one_sample_agrees_with_stream(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "os.csv")
            with open(path, "wb") as fh:
                fh.write(text)
            for _ in _in_blocks():
                bulk = datamodel._bulk(path, ("o", "d", "y"), 2)
                if bulk is not None:
                    for got, want in zip(bulk, datamodel._stream(path, ("o", "d", "y"), 2)):
                        assert got.dtype == want.dtype and got.shape == want.shape
                        assert got.tobytes() == want.tobytes()
                assert _outcome(read_one_sample_csv, path) == _streamed(read_one_sample_csv, path)

    @given(labeled=csv_file(("d", "y"), na_row=False), unlabeled=csv_file((), na_row=False))
    @settings(max_examples=300, deadline=None)
    def test_two_sample_agrees_with_stream(self, labeled, unlabeled):
        with tempfile.TemporaryDirectory() as tmp:
            lab, unl = os.path.join(tmp, "lab.csv"), os.path.join(tmp, "unl.csv")
            for path, text in ((lab, labeled), (unl, unlabeled)):
                with open(path, "wb") as fh:
                    fh.write(text)
            for _ in _in_blocks():
                assert (_outcome(read_two_sample_csv, lab, unl)
                        == _streamed(read_two_sample_csv, lab, unl))

    @pytest.mark.parametrize("text", [
        "x1,o,d,y\n0.0,1,1,-NAN\n", "x1,o,d,y\n0.0,1,1,NAN\n", "x1,o,d,y\n0.0,1,+NA,1.0\n",
        "x1,o,d,y\n0.0,1,1,1.0\n0.0,NA,NA,NA\n", "x1,x2,o,d,y\n0.0,1.0,0,NA,NA\n0.0,NA,0,NA,NA\n",
        "x1,o,d,y\n0.0,1,1,1.0\r\r\n", "x1,o,d,y\n0.0,1,1,1.0\r", "x1,o,d,y\n0,1,1,1\r0,1,1,1\n",
        "x1,o,d,y\n0.0,1,1,1.0\n\n", "x1,o,d,y\r\n\r\n0.0,1,1,1.0\r\n", "x1,o,d,y\r\n",
        "x1,o,d,y", "x1,o,d,y\n0.0,1,1,1e999\n", "x1,o,d,y\n1e999,1,1,1.0\n",
        "x1,o,d,y\n0.0,0,NA,NA\n0.0,1,NA,NA\n", "x1,o,d,y\n0.0,0,NA,NA,\n",
    ])
    def test_one_sample_edge_cases_agree_with_stream(self, tmp_path, text):
        path = tmp_path / "os.csv"
        path.write_bytes(text.encode())
        for _ in _in_blocks():
            assert _outcome(read_one_sample_csv, path) == _streamed(read_one_sample_csv, path)

    @pytest.mark.parametrize("labeled, unlabeled", [
        ("x1,d,y\n0.0,NA,1.0\n", "x1\n0.0\n"), ("x1,d,y\n0.0,1,NAN\n", "x1\n0.0\n"),
        ("x1,d,y\n0.0,1,1.0\n", "x1\n0.0\n-NAN\n"), ("x1,d,y\n0.0,1,1.0\n", "x1\n0.0\r"),
        ("x1,d,y\n0.0,1,1.0\n", "\r\n0.0\r\n"),
    ])
    def test_two_sample_edge_cases_agree_with_stream(self, tmp_path, labeled, unlabeled):
        lab, unl = tmp_path / "lab.csv", tmp_path / "unl.csv"
        lab.write_bytes(labeled.encode())
        unl.write_bytes(unlabeled.encode())
        for _ in _in_blocks():
            assert _outcome(read_two_sample_csv, lab, unl) == _streamed(read_two_sample_csv, lab, unl)

    @pytest.mark.parametrize("eol", ["\r\n", "\n"])
    def test_writer_output_takes_the_bulk_path(self, tmp_path, d1, eol):
        from ssate import sample_one

        path = tmp_path / "os.csv"
        write_one_sample_csv(sample_one(d1, 300, 5), path)
        path.write_bytes(path.read_bytes().replace(b"\r\n", eol.encode()))
        for _ in _in_blocks():
            assert datamodel._bulk(path, ("o", "d", "y"), 2) is not None
            assert _outcome(read_one_sample_csv, path) == _streamed(read_one_sample_csv, path)

    def test_read_holds_no_copy_of_the_file(self, tmp_path):
        # beyond the table numpy fills and the dataset made from it, the read
        # holds a block of lines and small masks; a copy of the 3.7 MiB file would pass
        from ssate import sample_one

        path = tmp_path / "os.csv"
        write_one_sample_csv(sample_one(gaussian_k3(), 50_000, 6), path)
        ds = read_one_sample_csv(path)
        table_mib = ds.n * (ds.k + 3) * 8 / 2**20
        dataset_mib = sum(a.nbytes for a in vars(ds).values()) / 2**20
        assert traced_peak(lambda: read_one_sample_csv(path)) < table_mib + dataset_mib + 2

    def test_over_long_field_is_an_input_error(self, tmp_path):
        path = one_sample_csv(tmp_path, "x1,o,d,y\n0.0,1,1,2.0\n0.0,1,1," + "1" * 131_073 + "\n")
        assert datamodel._bulk(path, ("o", "d", "y"), 2) is None
        with pytest.raises(SsateError, match=re.escape(f"{path}, line 3: field larger")):
            read_one_sample_csv(path)

    @pytest.mark.parametrize("text, line", [(b"x1,o,d,y\n0.0,1,1,\xff\xfe\n", 2),
                                            (b"x\xff,o,d,y\n0.0,1,1,2.0\n", 1)])
    def test_non_utf8_is_an_input_error(self, tmp_path, text, line):
        path = tmp_path / "os.csv"
        path.write_bytes(text)
        with pytest.raises(SsateError, match=re.escape(f"{path}, line {line}: not UTF-8")):
            read_one_sample_csv(path)


def _reference_write(path, header, rows):
    """The writers' bytes as ``csv.writer`` makes them, one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class TestColumnWriter:
    """The chunked column writers match ``csv.writer`` byte for byte."""

    @staticmethod
    def _values(n):
        special = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 0.1 + 0.2,
                   1.7976931348623157e308, -123456789.12345678, 1e16, 1e-5, 2.0 / 3.0]
        rng = np.random.default_rng(8)
        return np.array((special * (n // len(special) + 1))[:n]) * rng.choice([1.0, -1.0], n)

    def test_one_sample(self, tmp_path, monkeypatch):
        monkeypatch.setattr(datamodel, "_CHUNK_ROWS", 7)  # several chunks and a short last one
        n = 40
        x = np.column_stack([self._values(n), self._values(n)[::-1]])
        o = np.arange(n) % 3 != 0
        ds = OneSampleDataset.from_arrays(x, o, np.arange(n) % 2, self._values(n))
        write_one_sample_csv(ds, tmp_path / "os.csv")
        _reference_write(tmp_path / "ref.csv", ["x1", "x2", "o", "d", "y"], [
            [*map(repr, xi), "1", str(di), repr(yi)] if oi == 1 else [*map(repr, xi), "0", "NA", "NA"]
            for xi, oi, di, yi in zip(ds.x.tolist(), ds.o.tolist(), ds.d.tolist(), ds.y.tolist())])
        assert (tmp_path / "os.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_two_sample(self, tmp_path, monkeypatch):
        monkeypatch.setattr(datamodel, "_CHUNK_ROWS", 7)
        m, l = 21, 15
        ds = TwoSampleDataset.from_arrays(self._values(m), np.arange(m) % 2, self._values(m)[::-1],
                                          self._values(l))
        write_labeled_csv(ds, tmp_path / "lab.csv")
        write_unlabeled_csv(ds, tmp_path / "unl.csv")
        _reference_write(tmp_path / "lab_ref.csv", ["x1", "d", "y"], [
            [*map(repr, xi), str(di), repr(yi)]
            for xi, di, yi in zip(ds.x.tolist(), ds.d.tolist(), ds.y.tolist())])
        _reference_write(tmp_path / "unl_ref.csv", ["x1"], [list(map(repr, zi)) for zi in ds.z.tolist()])
        assert (tmp_path / "lab.csv").read_bytes() == (tmp_path / "lab_ref.csv").read_bytes()
        assert (tmp_path / "unl.csv").read_bytes() == (tmp_path / "unl_ref.csv").read_bytes()
