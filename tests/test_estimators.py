import numpy as np
import pytest

from ssate import (
    GModel,
    OneSampleDataset,
    ci,
    estimate_os_eff,
    estimate_os_ipw,
    estimate_os_ra,
    estimate_ts_eff,
    sample_one,
    sample_two,
    score_ts_x,
)
from ssate.errors import BadFoldCount, BadLevel, DomainViolation, NonfiniteValue
from ssate.estimators import NuisanceConfig, score_os_vec, score_ts_vec
from ssate.nuisance import FittedBasis, OutcomeModel, fit_riesz

from conftest import gaussian_k3, random_one_sample, random_two_sample, traced_peak


def const_model(x, m1, m0, clip_c=1e6):
    basis = FittedBasis(1, x.shape[1])
    return OutcomeModel(basis=basis,
                        coef={1: np.array([m1, 0.0]), 0: np.array([m0, 0.0])}, clip_c=clip_c)


def const_gmodel(x, g1, g0):
    # intercept-only multinomial weights reproducing exact class probabilities
    basis = FittedBasis(1, x.shape[1])
    rest = 1.0 - g1 - g0
    w = np.array([[np.log(g1 / rest), np.log(g0 / rest), 0.0], [0.0, 0.0, 0.0]])
    return GModel(basis=basis, weights=w, clip_eps=1e-6)


class TestCi:
    def test_standard_normal_quantile(self):
        lo, hi = ci(0.0, 1.0, 0.95)
        assert abs(hi - 1.959964) <= 1e-5
        assert abs(lo + 1.959964) <= 1e-5

    def test_degenerate(self):
        assert ci(1.3, 0.0, 0.9) == (1.3, 1.3)

    def test_bad_level(self, d1):
        with pytest.raises(BadLevel):
            ci(0.0, 1.0, 1.5)
        # 0.5 * (1 + level) rounds to 1.0, so the quantile would be infinite
        with pytest.raises(BadLevel, match="0.9999999999999999"):
            ci(0.0, 1.0, 0.9999999999999999)
        # the efficient estimators check their run arguments before any fitting
        data = sample_one(d1, 100, 1)
        with pytest.raises(BadLevel):
            estimate_os_eff(data, level=1.5)
        with pytest.raises(BadFoldCount, match=r"1 <= L <= 100, got 0"):
            estimate_os_eff(data, n_folds=0)


def score_os_row(o, d, y, mu, g):
    """score_os_vec on the single row (x=0, o, d, y) with fitted mu and g."""
    x = np.zeros((1, 1))
    return score_os_vec(np.array([o]), np.array([d]), np.array([y]), mu(1, x), mu(0, x),
                        1.0 / g(1, x), -1.0 / g(0, x))[0]


def score_ts_row(d, y, mu, v):
    """score_ts_vec on the single labeled row (x=0, d, y)."""
    x = np.zeros((1, 1))
    return score_ts_vec(np.array([d]), np.array([y]), mu(1, x), mu(0, x), v(1, x), v(0, x))[0]


class TestScoreOs:
    def test_treated_row(self):
        x = np.zeros((1, 1))
        val = score_os_row(1, 1, 3.0, const_model(x, 1.0, 0.0), const_gmodel(x, 0.5, 0.25))
        assert abs(val - 5.0) <= 1e-9

    def test_unlabeled_row(self):
        x = np.zeros((1, 1))
        val = score_os_row(0, 0, 0.0, const_model(x, 1.0, 0.0), const_gmodel(x, 0.5, 0.25))
        assert abs(val - 1.0) <= 1e-12

    def test_control_row(self):
        x = np.zeros((1, 1))
        val = score_os_row(1, 0, 2.0, const_model(x, 1.0, 0.0), const_gmodel(x, 0.5, 0.25))
        assert abs(val - (-7.0)) <= 1e-9


class TestIpw:
    def test_single_row(self):
        data = OneSampleDataset.from_arrays(np.zeros((1, 1)), [1], [1], [2.0])
        rep = estimate_os_ipw(data, lambda d, x: np.full(len(x), 0.5))
        assert rep.tau_hat == 4.0

    def test_zero_outcomes(self, d1):
        data = sample_one(d1, 200, 50)
        zeroed = OneSampleDataset.from_arrays(data.x, data.o, data.d, np.zeros(data.n))
        rep = estimate_os_ipw(zeroed, lambda d, x: np.full(len(x), 0.25))
        assert rep.tau_hat == 0.0


class TestRa:
    def test_equal_arms(self, d1):
        data = sample_one(d1, 100, 51)
        rep = estimate_os_ra(data, lambda d, x: np.ones(len(x)))
        assert rep.tau_hat == 0.0

    def test_arithmetic_mean(self):
        x = np.array([[0.0], [1.0], [1.0], [0.0]])
        data = OneSampleDataset.from_arrays(x, [1, 1, 1, 1], [1, 1, 0, 0], [0.0] * 4)
        rep = estimate_os_ra(data, lambda d, xx: (xx[:, 0] if d == 1 else np.zeros(len(xx))))
        assert rep.tau_hat == 0.5


class TestOsEff:
    def test_zero_mu_equals_ipw(self):
        rng = np.random.default_rng(52)
        g_fn = lambda d, x: np.full(len(np.atleast_2d(x)), 0.3 if d == 1 else 0.2)
        for _ in range(20):
            data = random_one_sample(rng)
            eff = estimate_os_eff(
                data, n_folds=2, seed=1,
                mu_override=lambda d, x: np.zeros(len(np.atleast_2d(x))),
                g_override=g_fn,
            )
            ipw = estimate_os_ipw(data, g_fn)
            assert eff.tau_hat == ipw.tau_hat

    def test_nonfinite_estimate_raises(self, d1):
        data = sample_one(d1, 200, 3)
        with pytest.raises(NonfiniteValue), np.errstate(invalid="ignore"):
            estimate_os_eff(data, mu_override=lambda d, x: np.full(len(np.atleast_2d(x)), np.inf))

    def test_fully_labeled_reduces_to_aipw(self, d1):
        data = sample_one(d1, 500, 53)
        full = OneSampleDataset.from_arrays(
            data.x, np.ones(data.n, dtype=np.int8),
            np.where(data.o == 1, data.d, 1), np.where(data.o == 1, data.y, 1.0),
        )
        g_fn = lambda d, x: np.full(len(np.atleast_2d(x)), 0.5)
        mu_fn = lambda d, x: (np.atleast_2d(x)[:, 0] if d == 1 else np.zeros(len(np.atleast_2d(x))))
        rep = estimate_os_eff(full, n_folds=2, seed=2,
                              mu_override=mu_fn, g_override=g_fn)
        res = np.where(full.d == 1, full.y - full.x[:, 0], full.y)
        sign = np.where(full.d == 1, 1.0, -1.0)
        aipw = np.mean(sign * res / 0.5 + full.x[:, 0])
        assert abs(rep.tau_hat - aipw) <= 1e-12

    def test_close_to_truth_across_seeds(self, d1):
        hits = 0
        for seed in range(30):
            data = sample_one(d1, 2000, 1000 + seed)
            rep = estimate_os_eff(data, n_folds=2, seed=seed)
            if abs(rep.tau_hat - 0.5) <= 4 * rep.se:
                hits += 1
        assert hits >= 27

    def test_translation_equivariance_saturated(self, d1):
        data = sample_one(d1, 1500, 54)
        cfg = NuisanceConfig(ridge_lambda=0.0)
        base = estimate_os_eff(data, n_folds=2, seed=3, config=cfg)
        c = 2.5
        shifted = OneSampleDataset.from_arrays(
            data.x, data.o, data.d,
            np.where((data.o == 1) & (data.d == 1), data.y + c, data.y),
        )
        shift = estimate_os_eff(shifted, n_folds=2, seed=3, config=cfg)
        assert abs(shift.tau_hat - base.tau_hat - c) <= 1e-9

    def test_riesz_modes_agree(self, d1_sample_4k):
        reps = {
            mode: estimate_os_eff(d1_sample_4k, n_folds=2, seed=4,
                                  config=NuisanceConfig(riesz_mode=mode))
            for mode in ("mle-g", "ls-riesz", "kl-riesz")
        }
        taus = [r.tau_hat for r in reps.values()]
        assert max(taus) - min(taus) <= 0.02

    def test_peak_memory(self):
        # a 50k-row fold's training rows are 1.5 MiB and its g fit's design and
        # class probabilities 2.7 MiB, for a 7.6 MiB peak; a fold's x and
        # predictions kept into the next fold's fits (2.7 MiB more) would pass 8 MiB
        data = sample_one(gaussian_k3(), 100_000, 9)
        assert traced_peak(lambda: estimate_os_eff(data)) < 8


def test_ts_peak_memory():
    # the peak, 8.3 MiB, is in a fold's density-ratio fit; the previous fold's
    # covariates and predictions kept into it (0.95 MiB more) would pass 8.75 MiB
    data = sample_two(gaussian_k3(), 50_000, 50_000, 9)
    assert traced_peak(lambda: estimate_ts_eff(data, beta_star=0.5)) < 8.75


def test_ts_rejects_riesz_mode(d2_sample_2k):
    # the two-sample weights come from fitted e and r; no Riesz mode exists yet
    with pytest.raises(ValueError, match="riesz_mode"):
        estimate_ts_eff(d2_sample_2k, beta_star=0.5,
                        config=NuisanceConfig(riesz_mode="kl-riesz"))


class TestScoreTs:
    def test_hand_value(self):
        x = np.zeros((1, 1))
        v = lambda d, xx: np.full(len(np.atleast_2d(xx)), 0.5)
        val = score_ts_row(1, 3.0, const_model(x, 1.0, 0.0), v)
        assert abs(val - 4.0) <= 1e-12

    def test_zero_residual(self):
        x = np.zeros((1, 1))
        v = lambda d, xx: np.full(len(np.atleast_2d(xx)), 0.123)
        val = score_ts_row(0, 1.0, const_model(x, 5.0, 1.0), v)
        assert val == 0.0

    def test_contrast(self):
        mu = lambda d, x: (np.atleast_2d(x)[:, 0] if d == 1 else np.zeros(len(np.atleast_2d(x))))
        assert score_ts_x(np.array([[1.0]]), mu)[0] == 1.0
        assert score_ts_x(np.array([[0.0]]), mu)[0] == 0.0


class TestTsEff:
    def test_beta_one_ignores_unlabeled_values(self, d2):
        ts = sample_two(d2, 300, 200, 60)
        from ssate import TwoSampleDataset

        other = TwoSampleDataset.from_arrays(ts.x, ts.d, ts.y, ts.z + 1.0)
        a = estimate_ts_eff(ts, beta_star=1.0, n_folds=2, seed=5)
        b = estimate_ts_eff(other, beta_star=1.0, n_folds=2, seed=5)
        assert a.tau_hat == b.tau_hat

    def test_collinear_in_beta_for_frozen_nuisances(self):
        rng = np.random.default_rng(61)
        mu_fn = lambda d, x: (0.5 * np.atleast_2d(x)[:, 0] if d == 1 else np.zeros(len(np.atleast_2d(x))))
        e_fn = lambda d, x: np.full(len(np.atleast_2d(x)), 0.5)
        r_fn = lambda x: np.full(len(np.atleast_2d(x)), 1.4)
        for _ in range(20):
            ts = random_two_sample(rng)
            taus = [
                estimate_ts_eff(ts, beta_star=b, n_folds=2, seed=6,
                                mu_override=mu_fn, e_override=e_fn,
                                r_override=r_fn).tau_hat
                for b in (0.0, 0.5, 1.0)
            ]
            assert abs(taus[1] - 0.5 * (taus[0] + taus[2])) <= 1e-12

    @pytest.mark.parametrize("beta", [-0.1, 1.5])
    def test_beta_star_outside_unit_interval(self, d2, beta):
        ts = sample_two(d2, 60, 40, 62)
        with pytest.raises(DomainViolation, match="beta_star") as err:
            estimate_ts_eff(ts, beta_star=beta, n_folds=2, seed=5)
        assert err.value.code == "DOMAIN-VIOLATION"

    def test_close_to_truth_across_seeds(self, d2):
        hits = 0
        for seed in range(30):
            ts = sample_two(d2, 1000, 1000, 2000 + seed)
            rep = estimate_ts_eff(ts, beta_star=0.5, n_folds=2, seed=seed)
            if abs(rep.tau_hat - 0.5) <= 4 * rep.se:
                hits += 1
        assert hits >= 27


BAD_NUISANCE = [
    {"degree": 0}, {"degree": 1.5}, {"degree": 2.0}, {"ridge_lambda": -1.0}, {"ridge_lambda": float("inf")},
    {"ridge_lambda": float("nan")}, {"clip_eps": 0.7}, {"clip_eps": 0.5}, {"clip_eps": 0.0},
    {"clip_eps": -0.1}, {"clip_eps": float("nan")}, {"clip_c": -5.0}, {"clip_c": 0.0},
    {"clip_c": float("nan")},
]


class TestNuisanceConfig:
    @pytest.mark.parametrize("bad", BAD_NUISANCE, ids=lambda b: "-".join(map(str, *b.items())))
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            NuisanceConfig(**bad)

    def test_edges_accepted(self):
        NuisanceConfig(degree=np.int64(3), ridge_lambda=0.0, clip_eps=1e-9, clip_c=1e-9)
        NuisanceConfig(clip_eps=0.4999, clip_c=float("inf"))


def test_riesz_model_is_not_a_g_override(d1):
    data = sample_one(d1, 300, 42)
    with pytest.raises(TypeError):
        estimate_os_eff(data, g_override=fit_riesz(data))


class TestEvaluationCounts:
    """Each cross-fitted nuisance is evaluated once per fold, on one transform."""

    @pytest.fixture
    def transforms(self, monkeypatch):
        calls = []
        transform = FittedBasis.transform

        def counted(self, x):
            calls.append(len(x))
            return transform(self, x)

        monkeypatch.setattr(FittedBasis, "transform", counted)
        return calls

    @pytest.mark.parametrize("mode", ["mle-g", "ls-riesz", "kl-riesz"])
    def test_os_eff(self, d1, transforms, mode):
        data = sample_one(d1, 400, 43)
        estimate_os_eff(data, n_folds=2, seed=1, config=NuisanceConfig(riesz_mode=mode))
        # per fold: the mu and weight fits, then one evaluation of each on the fold
        assert len(transforms) == 8

    def test_ts_eff(self, d2, transforms):
        data = sample_two(d2, 400, 400, 44)
        estimate_ts_eff(data, beta_star=0.5, n_folds=2, seed=1)
        # per fold: the mu, e and r fits; mu on the fold and on the unlabeled
        # fold; e and r on the fold, once each for both arms of v
        assert len(transforms) == 14

    @pytest.mark.parametrize("folds", [1, 2, 3])
    def test_os_eff_validates_once(self, d1, monkeypatch, folds):
        data = sample_one(d1, 400, 45)
        calls = []
        from_arrays = OneSampleDataset.from_arrays

        def counted(*args):
            calls.append(1)
            return from_arrays(*args)

        monkeypatch.setattr(OneSampleDataset, "from_arrays", staticmethod(counted))
        built = OneSampleDataset.from_arrays(data.x, data.o, data.d, data.y)
        estimate_os_eff(built, n_folds=folds, seed=1)
        assert len(calls) == 1  # the fold complements are sliced, not re-validated
