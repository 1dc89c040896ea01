"""End-to-end acceptance checks: closed-form oracle values, Monte Carlo
behavior of every estimator against its bound, representer and TMLE
identities, and CLI determinism."""

import json
import math
import time

import numpy as np
import pytest

from ssate import (
    LSIF,
    UKL,
    FittedBasis,
    McConfig,
    Misspec,
    RieszModel,
    beta_star,
    bound_v_ipw,
    bound_v_os,
    bound_v_tilde_os,
    bound_v_tilde_ts,
    bound_v_ts,
    brute_force_riesz,
    ddml_iterate,
    estimate_os_eff,
    estimate_os_ipw,
    estimate_ts_eff,
    fit_outcome_both,
    fit_riesz,
    riesz_loss,
    run_infinite_unlabeled_study,
    run_mc,
    sample_one,
    tmle_fluctuate,
    true_ate,
)
from ssate.cli import main
from ssate.nuisance import riesz_loss_grad
from ssate.oracle import dgp_to_dict

from conftest import random_one_sample, random_two_sample


@pytest.fixture(scope="module")
def efficiency_study(d1):
    """Criterion 2/3 study, shared with criterion 5's comparison."""
    cfg = McConfig(dgp=d1, scenario="one-sample", estimator="os-eff",
                   n=4000, reps=1000, seed=100)
    return run_mc(cfg)


def test_criterion_01_oracle_exactness(d1, d2):
    t0 = time.time()
    assert abs(bound_v_os(d1) - 8.25) <= 1e-12
    assert abs(bound_v_tilde_os(d1) - 8.0) <= 1e-12
    assert abs(bound_v_ipw(d1) - 10.0) <= 1e-12
    assert abs(bound_v_ts(d2, 0.5, 0.5) - 8.25) <= 1e-12
    assert abs(bound_v_tilde_ts(d2, 0.5) - 4.0) <= 1e-12
    assert abs(true_ate(d1) - 0.5) <= 1e-12
    assert time.time() - t0 < 1.0


def test_criterion_02_efficiency(efficiency_study):
    rep = efficiency_study
    assert 7.4 <= rep.scaled_variance <= 9.1
    assert abs(rep.mc_bias) * math.sqrt(4000) < 0.15


def test_criterion_03_coverage(efficiency_study):
    assert 0.93 <= efficiency_study.coverage <= 0.97


@pytest.mark.parametrize("hook", [Misspec("zero-mu"), Misspec("constant-g", 0.3)])
def test_criterion_04_double_robustness(d1, hook):
    cfg = McConfig(dgp=d1, scenario="one-sample", estimator="os-eff",
                   n=5000, reps=500, seed=200, hook=hook)
    rep = run_mc(cfg)
    assert abs(rep.mc_bias) <= 3 * rep.mc_se_of_bias


def test_criterion_05_ipw_inefficiency(d1, efficiency_study):
    cfg = McConfig(dgp=d1, scenario="one-sample", estimator="os-ipw",
                   n=20000, reps=300, seed=300, hook=Misspec("true-g"))
    rep = run_mc(cfg)
    assert abs(rep.scaled_variance - 10.0) / 10.0 <= 0.15
    assert rep.scaled_variance > efficiency_study.scaled_variance


def test_criterion_06_riesz_oracle_equivalence(d1):
    t0 = time.time()
    data = sample_one(d1, 50000, 42)
    grid = np.array([[0.0], [1.0]])
    for gen in (LSIF, UKL):
        model = fit_riesz(data, gen=gen)
        assert np.all(np.abs(model.a1_a0(grid)[0] - 4.0) <= 0.1)
        assert np.all(np.abs(model.a1_a0(grid)[1] + 4.0) <= 0.1)
    a1, a0 = brute_force_riesz(d1, LSIF, grid_lo=-8.0, grid_hi=8.0, grid_step=0.01)
    assert np.array_equal(a1, np.array([4.0, 4.0]))
    assert np.array_equal(a0, np.array([-4.0, -4.0]))
    assert time.time() - t0 < 120.0


def test_criterion_07_gradient_checks(d1):
    data = sample_one(d1, 400, 43)
    basis = FittedBasis(1, data.k)
    rng = np.random.default_rng(44)
    residuals = rng.uniform(0.3, 2.0, size=data.n_labeled)
    checked = 0
    for gen in (LSIF, UKL):
        for res in (None, residuals):
            for _ in range(20):
                theta = rng.normal(scale=0.5, size=4)
                model = RieszModel(generator=gen, basis=basis,
                                   theta1=theta[:2], theta0=theta[2:])
                g1, g0 = riesz_loss_grad(model, data, res)
                grad = np.concatenate([g1, g0])
                fd = np.empty(4)
                h = 1e-5
                for j in range(4):
                    tp = theta.copy(); tp[j] += h
                    tm = theta.copy(); tm[j] -= h
                    mp = RieszModel(generator=gen, basis=basis,
                                    theta1=tp[:2], theta0=tp[2:])
                    mm = RieszModel(generator=gen, basis=basis,
                                    theta1=tm[:2], theta0=tm[2:])
                    fd[j] = (riesz_loss(mp, data, res)
                             - riesz_loss(mm, data, res)) / (2 * h)
                rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8)
                assert rel <= 1e-5
                checked += 1
    assert checked == 80


def test_criterion_08_tmle_identity():
    rng = np.random.default_rng(45)
    for case in range(50):
        data = random_one_sample(rng, n=int(rng.integers(60, 200)))
        xl, dl, yl = data.labeled_arrays()
        mu0 = fit_outcome_both(xl, dl, yl)
        alpha = fit_riesz(data, gen=LSIF)
        mu1 = tmle_fluctuate(mu0, alpha, xl, dl, yl)
        av = np.where(dl == 1, *alpha.a1_a0(xl))
        assert abs(np.sum(av * (yl - mu1.predict_rows(dl, xl)))) <= 1e-8 * data.n
        if case % 10 == 0:
            _, _, trace = ddml_iterate(data, n_steps=2)
            assert all(t <= 1e-8 for t in trace)


def test_criterion_09_two_sample_efficiency(d2):
    cfg = McConfig(dgp=d2, scenario="two-sample", estimator="ts-eff",
                   m=2000, l=2000, beta_star=0.5, reps=500, seed=400)
    rep = run_mc(cfg)
    assert abs(rep.scaled_variance - 8.25) / 8.25 <= 0.15
    assert abs(beta_star(d2, 0.5, grid_step=0.01) - 0.5) <= 0.01
    assert abs(beta_star(d2, 0.3, grid_step=0.01) - 0.3) <= 0.01


def test_criterion_10_infinite_unlabeled_limits(d1, d2):
    os_rep = run_infinite_unlabeled_study(d1, n_labeled=1000, ratio=100,
                                          reps=300, seed=11)
    assert abs(os_rep.scaled_variance - 8.0) / 8.0 <= 0.15
    ts_rep = run_infinite_unlabeled_study(d2, n_labeled=2000, ratio=100,
                                          reps=500, seed=500,
                                          scenario="two-sample", beta_star=0.5)
    assert abs(ts_rep.scaled_variance - 4.0) / 4.0 <= 0.15
    # exact heterogeneity-term identity
    assert abs(bound_v_os(d1) - bound_v_tilde_os(d1) - 0.25) <= 1e-12


def test_criterion_11_estimator_identities():
    rng = np.random.default_rng(46)
    g_fn = lambda d, x: np.full(len(np.atleast_2d(x)), 0.35 if d == 1 else 0.25)
    zero_mu = lambda d, x: np.zeros(len(np.atleast_2d(x)))
    for _ in range(50):
        data = random_one_sample(rng, n=int(rng.integers(40, 150)))
        eff = estimate_os_eff(data, n_folds=2, seed=1,
                              mu_override=zero_mu, g_override=g_fn)
        ipw = estimate_os_ipw(data, g_fn)
        assert eff.tau_hat == ipw.tau_hat
    mu_fn = lambda d, x: (np.atleast_2d(x)[:, 0] * 0.7
                          if d == 1 else 0.1 * np.ones(len(np.atleast_2d(x))))
    e_fn = lambda d, x: np.full(len(np.atleast_2d(x)), 0.6 if d == 1 else 0.4)
    r_fn = lambda x: np.full(len(np.atleast_2d(x)), 0.8)
    for _ in range(50):
        ts = random_two_sample(rng, m=int(rng.integers(40, 120)),
                               l=int(rng.integers(30, 100)))
        taus = [estimate_ts_eff(ts, beta_star=b, n_folds=2, seed=2,
                                mu_override=mu_fn, e_override=e_fn,
                                r_override=r_fn).tau_hat
                for b in (0.0, 0.5, 1.0)]
        assert abs(taus[1] - 0.5 * (taus[0] + taus[2])) <= 1e-12


def test_criterion_12_cli_determinism(tmp_path, d1):
    from ssate.datamodel import write_one_sample_csv

    os_csv = tmp_path / "os.csv"
    write_one_sample_csv(sample_one(d1, 500, 47), os_csv)
    spec = tmp_path / "d1.json"
    spec.write_text(json.dumps(dgp_to_dict(d1)))
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "dgp": dgp_to_dict(d1), "scenario": "one-sample",
        "estimator": "os-eff", "n": 300, "reps": 5, "seed": 48,
    }))
    commands = [
        ["estimate-os", "--input", str(os_csv), "--seed", "9"],
        ["bounds", "--dgp", str(spec), "--alpha", "0.5"],
        ["simulate", "--config", str(sim_cfg)],
    ]
    for i, argv in enumerate(commands):
        a, b = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
