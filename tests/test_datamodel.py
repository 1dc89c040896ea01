import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssate import (
    OneSampleDataset,
    OneSampleRow,
    LabeledRow,
    make_fold_plan,
    validate_one_sample,
    validate_two_sample,
)
from ssate.datamodel import (
    read_one_sample_csv,
    read_labeled_csv,
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


class TestValidateOneSample:
    def test_counts(self):
        rows = [
            OneSampleRow((0.0,), 1, 1, 2.0),
            OneSampleRow((1.0,), 0, None, None),
        ]
        ds = validate_one_sample(rows)
        assert ds.n == 2 and ds.n_labeled == 1 and ds.n_unlabeled == 1

    def test_na_coupling_unobserved_with_treatment(self):
        with pytest.raises(NaCouplingViolation):
            validate_one_sample([OneSampleRow((0.0,), 0, 1, None)])

    def test_na_coupling_observed_missing_outcome(self):
        with pytest.raises(NaCouplingViolation):
            validate_one_sample([OneSampleRow((0.0,), 1, 1, None)])

    def test_dim_mismatch(self):
        rows = [
            OneSampleRow((0.0, 1.0), 1, 0, 1.0),
            OneSampleRow((3.0,), 1, 0, 1.0),
        ]
        with pytest.raises(DimMismatch):
            validate_one_sample(rows)

    def test_nonfinite_covariate(self):
        with pytest.raises(NonfiniteValue):
            validate_one_sample([OneSampleRow((float("nan"),), 1, 1, 0.0)])

    def test_bad_indicator(self):
        with pytest.raises(BadIndicator):
            validate_one_sample([OneSampleRow((0.0,), 1, 2, 0.0)])

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            validate_one_sample([])

    def test_idempotent(self):
        rows = [
            OneSampleRow((0.0,), 1, 1, 2.0),
            OneSampleRow((1.0,), 0, None, None),
        ]
        ds = validate_one_sample(rows)
        ds2 = validate_one_sample(list(ds.rows()))
        assert np.array_equal(ds.x, ds2.x)
        assert np.array_equal(ds.o, ds2.o)
        assert np.array_equal(ds.d, ds2.d)
        assert np.array_equal(ds.y, ds2.y)


class TestValidateTwoSample:
    def test_counts(self):
        ds = validate_two_sample(
            [LabeledRow((0.0,), 1, 1.0)], [(1.0,), (2.0,)]
        )
        assert ds.m == 1 and ds.l == 2 and ds.k == 1

    def test_empty_labeled(self):
        with pytest.raises(EmptyDataset):
            validate_two_sample([], [(1.0,)])

    def test_nonfinite_outcome(self):
        with pytest.raises(NonfiniteValue):
            validate_two_sample([LabeledRow((0.0,), 1, float("nan"))], [(1.0,)])

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            validate_two_sample([LabeledRow((0.0,), 1, 1.0)], [(1.0, 2.0)])


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

    def test_unparseable_token_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,o,d,y\n0.0,1,1,zap\n")
        with pytest.raises(NonfiniteValue, match="line 2"):
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
