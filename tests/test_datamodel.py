import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssate import OneSampleDataset, TwoSampleDataset, make_fold_plan
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
)


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
        sizes = [len(plan.indices(b)) for b in (1, 2)]
        assert sizes == [5, 5]

    def test_near_equal_sizes(self):
        plan = make_fold_plan(7, 3, seed=1)
        sizes = sorted(len(plan.indices(b)) for b in (1, 2, 3))
        assert sizes == [2, 2, 3]

    def test_bad_fold_count(self):
        with pytest.raises(BadFoldCount):
            make_fold_plan(4, 5, seed=0)
        with pytest.raises(BadFoldCount):
            make_fold_plan(4, 1, seed=0)

    def test_deterministic(self):
        a = make_fold_plan(31, 4, seed=9)
        b = make_fold_plan(31, 4, seed=9)
        assert np.array_equal(a.assignment, b.assignment)

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
        all_idx = np.concatenate([plan.indices(b) for b in range(1, n_folds + 1)])
        assert sorted(all_idx.tolist()) == list(range(n))
        sizes = [len(plan.indices(b)) for b in range(1, n_folds + 1)]
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
