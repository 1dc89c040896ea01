import os
import threading
from dataclasses import replace
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from ssate import (
    McConfig,
    Misspec,
    run_infinite_unlabeled_study,
    run_mc,
    sample_one,
    sample_two,
)
from ssate import simharness
from ssate.errors import BadFoldCount, BadLevel, DomainViolation, ReportIncomplete, SsateError
from ssate.estimators import NuisanceConfig
from ssate.oracle import GaussianLinearDgp, bound_v_tilde_os
from ssate.simharness import resolve_threads

from conftest import gaussian_k3


def _no_grid(self, law):
    raise AssertionError(f"built the {law} quadrature grid")


class TestSampling:
    def test_one_sample_lln(self, d1):
        data = sample_one(d1, 10**6, 70)
        frac = np.mean((data.o == 1) & (data.d == 1))
        assert abs(frac - 0.25) <= 0.002

    def test_fully_observed_spec(self, d1):
        full = replace(d1, pi1=np.array([1.0 - 1e-12, 1.0 - 1e-12]))
        data = sample_one(full, 500, 71)
        assert data.n_unlabeled == 0

    def test_determinism(self, d1):
        a = sample_one(d1, 300, 72)
        b = sample_one(d1, 300, 72)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_two_sample_lln(self, d2):
        ts = sample_two(d2, 10**6, 10, 73)
        assert abs(np.mean(ts.d) - 0.5) <= 0.002

    def test_two_sample_single_unlabeled(self, d2):
        ts = sample_two(d2, 20, 1, 74)
        assert ts.l == 1

    @pytest.mark.parametrize("draw, message", [
        (lambda d1, d2: sample_one(d1, 10.5, 1), "n must be an integer, got 10.5"),
        (lambda d1, d2: sample_one(d1, -1, 1), "n must be >= 0, got -1"),
        (lambda d1, d2: sample_two(d2, 10.5, 5, 1), "m must be an integer, got 10.5"),
        (lambda d1, d2: sample_two(d2, 10, True, 1), "l must be an integer, got True"),
    ], ids=["n-fraction", "n-negative", "m-fraction", "l-bool"])
    def test_sizes_are_integers(self, d1, d2, draw, message):
        # numpy's own errors name no setting
        with pytest.raises(ValueError, match=f"^{message}$"):
            draw(d1, d2)

    def test_disjoint_seeds_differ(self, d2):
        a = sample_two(d2, 100, 100, 75)
        b = sample_two(d2, 100, 100, 76)
        assert not np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("seed", [77, 78])
    def test_samples_match_the_per_law_reference(self, d1, d2, seed):
        # the samplers read every law from one support lookup; the reference
        # evaluates each law on its own, in the same rng draw order
        rng = np.random.default_rng(seed)
        x = d1.sample_x(rng, 500, "p")
        o = (rng.random(500) < d1.pi(x)).astype(np.int8)
        d = (rng.random(500) < d1.e(1, x)).astype(np.int8)
        sd = np.sqrt(np.where(d == 1, d1.sigma2(1, x), d1.sigma2(0, x)))
        y = np.where(d == 1, d1.mu(1, x), d1.mu(0, x)) + sd * rng.standard_normal(500)
        one = sample_one(d1, 500, seed)
        for got, want in [(one.x, x), (one.o, o), (one.d, np.where(o == 1, d, 0)),
                          (one.y, np.where(o == 1, y, 0.0))]:
            assert got.tobytes() == want.astype(got.dtype).tobytes()

        rng = np.random.default_rng(seed)
        x = d2.sample_x(rng, 300, "p")
        d = (rng.random(300) < d2.e(1, x)).astype(np.int8)
        sd = np.sqrt(np.where(d == 1, d2.sigma2(1, x), d2.sigma2(0, x)))
        y = np.where(d == 1, d2.mu(1, x), d2.mu(0, x)) + sd * rng.standard_normal(300)
        z = d2.sample_x(rng, 200, "q")
        two = sample_two(d2, 300, 200, seed)
        for got, want in [(two.x, x), (two.d, d), (two.y, y), (two.z, z)]:
            assert got.tobytes() == want.astype(got.dtype).tobytes()


class TestRunMc:
    def test_single_rep(self, d1):
        cfg = McConfig(dgp=d1, scenario="one-sample", estimator="os-eff",
                       n=600, reps=1, seed=80)
        rep = run_mc(cfg)
        assert rep.reps_completed == 1
        assert rep.coverage in (0.0, 1.0)

    def test_determinism(self, d1):
        cfg = McConfig(dgp=d1, scenario="one-sample", estimator="os-eff",
                       n=400, reps=5, seed=81)
        assert run_mc(cfg).to_dict() == run_mc(cfg).to_dict()

    def test_thread_count_does_not_change_output(self, d1):
        cfg = McConfig(dgp=d1, scenario="one-sample", estimator="os-eff",
                       n=400, reps=4, seed=82)
        assert run_mc(cfg, threads=1).to_dict() == run_mc(cfg, threads=2).to_dict()

    def test_seed_independence(self, d1):
        cfg_a = McConfig(dgp=d1, scenario="one-sample", estimator="os-eff",
                         n=500, reps=100, seed=0)
        cfg_b = McConfig(dgp=d1, scenario="one-sample", estimator="os-eff",
                         n=500, reps=100, seed=10_000)
        a, b = run_mc(cfg_a), run_mc(cfg_b)
        pooled_se = np.hypot(a.mc_se_of_bias, b.mc_se_of_bias)
        assert abs(a.mean_tau_hat - b.mean_tau_hat) <= 3 * pooled_se

    def test_report_incomplete_on_failures(self, d1):
        # samples this small regularly miss an arm in a fold complement
        cfg = McConfig(dgp=d1, scenario="one-sample", estimator="os-eff",
                       n=8, reps=40, seed=83)
        with pytest.raises(ReportIncomplete) as err:
            run_mc(cfg)
        assert err.value.partial_report is not None
        assert err.value.partial_report.failures

    def test_true_nuisance_sanity_chain(self, d1):
        cfg = McConfig(dgp=d1, scenario="one-sample", estimator="os-eff",
                       n=10**5, reps=200, seed=84, hook=Misspec("true-nuisance"))
        rep = run_mc(cfg)
        assert abs(rep.mc_bias) <= 3 * rep.mc_se_of_bias
        # scaled variance matches the bound within Monte Carlo error
        assert abs(rep.scaled_variance - 8.25) <= 3 * np.sqrt(2.0 / 200) * 8.25

    def test_two_sample_true_nuisances(self, d2):
        cfg = McConfig(dgp=d2, scenario="two-sample", estimator="ts-eff",
                       m=2000, l=2000, beta_star=0.5, reps=100, seed=85,
                       hook=Misspec("true-nuisance"))
        rep = run_mc(cfg)
        assert abs(rep.mc_bias) <= 3 * rep.mc_se_of_bias


class TestMcConfigChecks:
    """A bad fold count, level or beta_star is rejected when the study is
    configured, not once per replication."""

    def test_fold_count(self, d1):
        for folds in (0, 101):
            with pytest.raises(BadFoldCount):
                McConfig(dgp=d1, scenario="one-sample", n=100, reps=3, n_folds=folds)
        with pytest.raises(BadFoldCount):
            McConfig(dgp=d1, scenario="two-sample", estimator="ts-eff", m=100, l=40,
                     beta_star=0.5, reps=3, n_folds=41)
        McConfig(dgp=d1, scenario="one-sample", n=100, reps=3, n_folds=100)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5])
    def test_level(self, d1, level):
        with pytest.raises(BadLevel):
            McConfig(dgp=d1, scenario="one-sample", n=100, reps=3, level=level)

    @pytest.mark.parametrize("beta", [-0.1, 1.5])
    def test_beta_star(self, d1, beta):
        with pytest.raises(DomainViolation) as err:
            McConfig(dgp=d1, scenario="two-sample", estimator="ts-eff", m=50, l=50,
                     beta_star=beta, reps=2)
        assert err.value.code == "DOMAIN-VIOLATION"

    @pytest.mark.parametrize("scenario, field", [
        ("one-sample", "n_folds"), ("one-sample", "reps"), ("one-sample", "n"),
        ("one-sample", "m"), ("two-sample", "n_folds"), ("two-sample", "reps"),
        ("two-sample", "m"), ("two-sample", "l")])
    def test_counts_are_integers(self, d1, scenario, field):
        # a fractional or bool count is rejected here, not truncated or met by a TypeError in a
        # rep; so is one the scenario does not read
        study = ({"n": 100} if scenario == "one-sample"
                 else {"estimator": "ts-eff", "m": 100, "l": 100, "beta_star": 0.5})
        for value in (2.5, True):
            with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value!r}$"):
                McConfig(dgp=d1, scenario=scenario, **{"reps": 3, **study, field: value})

    @pytest.mark.parametrize("study, message", [
        ({"scenario": "one-sample", "estimator": "ts-eff", "n": 100},
         "estimator 'ts-eff' not valid for one-sample"),
        ({"scenario": "two-sample", "estimator": "os-ipw", "m": 50, "l": 50, "beta_star": 0.5},
         "estimator 'os-ipw' not valid for two-sample"),
        ({"scenario": "two-sample", "estimator": "ts-eff", "m": 50, "l": 50},
         "two-sample studies need beta_star"),
    ], ids=["ts-eff-one-sample", "os-ipw-two-sample", "no-beta-star"])
    def test_study_shape(self, d1, study, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            McConfig(dgp=d1, reps=3, **study)

    def test_unknown_hook_kind(self):
        with pytest.raises(ValueError, match="^unknown misspecification kind 'true-pi'$"):
            Misspec("true-pi")

    def test_one_sample_beta_star(self, d1):
        # no one-sample estimator reads beta_star, but tau0 would be taken at it
        with pytest.raises(ValueError, match="take no beta_star"):
            McConfig(dgp=d1, scenario="one-sample", n=100, reps=3, beta_star=0.0)

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.5, float("nan")])
    def test_hook_constant_outside_unit_interval(self, c):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
            Misspec("constant-g", c)

    @pytest.mark.parametrize("estimator, kind", [("os-eff", "true-e"), ("os-ipw", "zero-mu"),
                                                 ("os-ra", "constant-g")])
    def test_hook_that_changes_nothing(self, d1, estimator, kind):
        with pytest.raises(ValueError, match="overrides no nuisance"):
            McConfig(dgp=d1, scenario="one-sample", estimator=estimator, n=200, reps=3,
                     hook=Misspec(kind))
        with pytest.raises(ValueError, match="overrides no nuisance"):
            McConfig(dgp=d1, scenario="two-sample", estimator="ts-eff", m=50, l=50,
                     beta_star=0.5, reps=3, hook=Misspec("constant-g"))
        McConfig(dgp=d1, scenario="one-sample", estimator=estimator, n=200, reps=3,
                 hook=Misspec("true-nuisance"))

    def test_ts_riesz_mode(self, d1):
        # the two-sample weights come from fitted e and r, in every replication alike
        with pytest.raises(SsateError, match="riesz_mode"):
            McConfig(dgp=d1, scenario="two-sample", estimator="ts-eff", m=50, l=50,
                     beta_star=0.5, reps=2, nuisance=NuisanceConfig(riesz_mode="ls-riesz"))
        McConfig(dgp=d1, scenario="one-sample", n=100, reps=2,
                 nuisance=NuisanceConfig(riesz_mode="ls-riesz"))

    def test_oracle_before_replications(self, d1, monkeypatch):
        # no observation law: the bound rejects the DGP before any rep is drawn
        calls, draw = [], simharness.sample_one
        monkeypatch.setattr(simharness, "sample_one", lambda *a: calls.append(a) or draw(*a))
        with pytest.raises(DomainViolation):
            run_mc(McConfig(dgp=replace(d1, pi1=None), scenario="one-sample", n=100, reps=3),
                   threads=1)
        assert calls == []

    @pytest.mark.parametrize("field, study, hook, message", [
        ("pi1", {"scenario": "one-sample", "n": 100}, "true-g", "observation probability pi0"),
        ("q", {"scenario": "two-sample", "estimator": "ts-eff", "m": 50, "l": 50,
               "beta_star": 0.5}, "true-r", "unlabeled covariate law q0"),
        ("q", {"scenario": "two-sample", "estimator": "ts-eff", "m": 50, "l": 50,
               "beta_star": 1.0}, "true-r", "unlabeled covariate law q0"),
    ], ids=["true-g", "true-r-beta-0.5", "true-r-beta-1"])
    def test_true_hook_without_its_law(self, d1, monkeypatch, field, study, hook, message):
        # the estimator takes the forced nuisance, so the study is built; the
        # oracle step then names the missing law before any rep is drawn
        calls = []
        for name in ("sample_one", "sample_two"):
            monkeypatch.setattr(simharness, name, lambda *a: calls.append(a))
        config = McConfig(dgp=replace(d1, **{field: None}), reps=3, hook=Misspec(hook), **study)
        with pytest.raises(DomainViolation, match=message):
            run_mc(config, threads=1)
        assert calls == []

    def test_true_r_hook_on_a_gaussian_q0(self, monkeypatch):
        # a normal q0 is positive everywhere, however narrow, so p0/q0 is defined;
        # the check builds no quadrature grid, on whose far nodes q0 underflows to 0
        dgp = GaussianLinearDgp(p_mean=[0.0], p_var=[1.0], mu1_coef=[1.0, 0.5],
                                mu0_coef=[0.0, 0.2], s2_1=1.0, s2_0=1.0, e_coef=[0.0, 0.3],
                                q_mean=[0.0], q_var=[0.05])
        monkeypatch.setattr(GaussianLinearDgp, "_node_blocks", _no_grid)
        for kind in ("true-r", "true-nuisance"):
            McConfig(dgp, "two-sample", estimator="ts-eff", m=100, l=100, beta_star=0.5,
                     hook=Misspec(kind))

    def test_infinite_unlabeled_study_is_checked(self, d1):
        with pytest.raises(BadFoldCount):
            run_infinite_unlabeled_study(d1, n_labeled=20, ratio=10, reps=2, n_folds=1000)
        with pytest.raises(DomainViolation):
            run_infinite_unlabeled_study(d1, n_labeled=20, ratio=10, reps=2,
                                         scenario="two-sample", beta_star=1.5)
        for bad in ({"n_labeled": 0}, {"n_labeled": 20, "scenario": "bogus"},
                    {"n_labeled": 20, "beta_star": 0.5}):
            with pytest.raises(ValueError):
                run_infinite_unlabeled_study(d1, **{"ratio": 10, "reps": 2, **bad})
        with pytest.raises(ValueError, match="needs an observation probability"):
            run_infinite_unlabeled_study(replace(d1, pi1=None), n_labeled=20, ratio=10, reps=2)
        # a fractional or bool count names its setting, in either regime
        for bad, setting in (({"n_labeled": 20.5}, "n_labeled"), ({"n_labeled": True}, "n_labeled"),
                             ({"ratio": 10.5}, "ratio"), ({"reps": 2.5}, "reps"),
                             ({"n_folds": 2.5}, "n_folds")):
            for regime in ({}, {"scenario": "two-sample", "beta_star": 0.5}):
                with pytest.raises(ValueError, match=f"^{setting} must be an integer"):
                    run_infinite_unlabeled_study(
                        d1, **{"n_labeled": 20, "ratio": 10, "reps": 2, **regime, **bad})


class TestInfiniteUnlabeled:
    @pytest.mark.parametrize("pi_coef", [[0.4, 0.2, 0.1, -0.1], None], ids=["pi", "no-pi"])
    def test_one_sample_needs_a_discrete_dgp(self, monkeypatch, pi_coef):
        # the family is checked before the DGP's quadrature grid is built
        monkeypatch.setattr(GaussianLinearDgp, "_node_blocks", _no_grid)
        with pytest.raises(ValueError, match="discrete DGPs only"):
            run_infinite_unlabeled_study(replace(gaussian_k3(), pi_coef=pi_coef),
                                         n_labeled=20, ratio=10, reps=2)

    def test_ratio_floor(self, d1):
        with pytest.raises(ValueError):
            run_infinite_unlabeled_study(d1, n_labeled=100, ratio=5)

    def test_population_normalized_variance_monotone_in_ratio(self, d1):
        # the exact normalized population variance is the reduced bound
        # plus shrink * heterogeneity, so it decreases toward the limit
        # as the unlabeled multiple grows
        xp, wp = d1.nodes_p()
        e_pi = float(np.sum(wp * d1.pi(xp)))
        het = 0.25
        vals = []
        for ratio in (10, 100):
            shrink = 1.0 / ((1 + ratio) * e_pi)
            vals.append(bound_v_tilde_os(d1) + shrink * het)
        assert vals[1] < vals[0]
        assert abs(vals[1] - bound_v_tilde_os(d1)) < abs(vals[0] - bound_v_tilde_os(d1))

    def test_one_sample_smoke(self, d1):
        rep = run_infinite_unlabeled_study(d1, n_labeled=300, ratio=10,
                                           reps=30, seed=86)
        assert rep.bound_value == 8.0
        assert 5.0 < rep.scaled_variance < 13.0

    def test_two_sample_smoke(self, d2):
        rep = run_infinite_unlabeled_study(d2, n_labeled=500, ratio=10,
                                           reps=30, seed=87,
                                           scenario="two-sample", beta_star=0.5)
        assert rep.bound_value == 4.0
        assert 2.0 < rep.scaled_variance < 7.0


class TestThreads:
    def test_explicit_wins(self):
        assert resolve_threads(3) == 3

    def test_env_honored(self, monkeypatch):
        monkeypatch.setenv("SSATE_THREADS", "5")
        assert resolve_threads(None) == 5

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_1(self, monkeypatch, count):
        # a worker count below 1 is an error naming its source, not one worker
        monkeypatch.setenv("SSATE_THREADS", "2")
        with pytest.raises(ValueError, match=f"^threads must be >= 1, got {count}$"):
            resolve_threads(count)
        monkeypatch.setenv("SSATE_THREADS", str(count))
        with pytest.raises(ValueError, match=f"^SSATE_THREADS must be >= 1, got '{count}'$"):
            resolve_threads(None)

    @pytest.mark.parametrize("count", [1.5, "2", 2.0, True])
    def test_explicit_not_an_integer(self, d1, monkeypatch, count):
        # int() would truncate 1.5 to one worker; no study runs on a count it was not given
        monkeypatch.setenv("SSATE_THREADS", "2")
        message = f"^threads must be an integer, got {count!r}$"
        with pytest.raises(ValueError, match=message):
            resolve_threads(count)
        with pytest.raises(ValueError, match=message):
            run_mc(McConfig(dgp=d1, scenario="one-sample", n=50, reps=2), threads=count)

    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_env_not_an_integer(self, monkeypatch, value):
        monkeypatch.setenv("SSATE_THREADS", value)
        with pytest.raises(ValueError, match=f"^SSATE_THREADS must be an integer, got '{value}'$"):
            resolve_threads(None)


def _report(cfg, threads):
    """run_mc's report, or the partial report of a study with too many failures."""
    try:
        return run_mc(cfg, threads=threads).to_dict()
    except ReportIncomplete as err:
        return err.partial_report.to_dict()


needs_two_cpus = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: {0})(0)) < 2,
    reason="run_mc starts a pool only where two CPUs are usable")


@needs_two_cpus
class TestPool:
    """run_mc reuses one chunked worker pool per process; reports equal the
    one-process reports whatever the chunking, the order of calls or a pool
    that broke in between."""

    @pytest.mark.parametrize("reps", [7, 11])
    def test_uneven_chunks_with_failures(self, d1, reps):
        # n=24 misses an arm in some fold complements: failures and
        # completed replications land in different chunks
        cfg = McConfig(dgp=d1, scenario="one-sample", n=24, reps=reps, seed=83)
        serial = _report(cfg, 1)
        assert serial["failures"] and serial["reps_completed"]
        assert _report(cfg, 2) == serial

    def test_consecutive_configs(self, d1, d2):
        os_cfg = McConfig(dgp=d1, scenario="one-sample", n=400, reps=9, seed=91)
        ts_cfg = McConfig(dgp=d2, scenario="two-sample", estimator="ts-eff",
                          m=300, l=300, beta_star=0.5, reps=9, seed=92)
        assert run_mc(os_cfg, threads=2).to_dict() == run_mc(os_cfg, threads=1).to_dict()
        assert run_mc(ts_cfg, threads=2).to_dict() == run_mc(ts_cfg, threads=1).to_dict()

    def test_concurrent_calls_with_different_worker_counts(self, d1, monkeypatch):
        # threads asking for 2 and 3 workers take turns rebuilding the one
        # pool; a call must never see it shut down under it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        cfg = McConfig(dgp=d1, scenario="one-sample", n=200, reps=6, seed=95)
        expected = run_mc(cfg, threads=1).to_dict()
        results = []

        def call(workers):
            for _ in range(3):
                results.append(run_mc(cfg, threads=workers).to_dict() == expected)

        callers = [threading.Thread(target=call, args=(w,)) for w in (2, 3, 2, 3)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in callers)
        assert results == [True] * 12

    def test_broken_pool_is_replaced(self, d1):
        cfg = McConfig(dgp=d1, scenario="one-sample", n=300, reps=6, seed=93)
        run_mc(cfg, threads=2)
        killed = simharness._pool[1].submit(os._exit, 1)
        assert isinstance(killed.exception(timeout=60), BrokenProcessPool)
        assert run_mc(cfg, threads=2).to_dict() == run_mc(cfg, threads=1).to_dict()


def test_workers_capped_at_usable_cpus(d1, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-CPU process must not start a worker pool")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(simharness, "ProcessPoolExecutor", no_pool)
    cfg = McConfig(dgp=d1, scenario="one-sample", n=300, reps=3, seed=94)
    assert run_mc(cfg, threads=64).reps_completed == 3
