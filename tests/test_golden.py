"""Exact estimator outputs, pinned.

Each case below must reproduce its recorded tau_hat, se, ci and
diagnostics (and, for the Monte Carlo cases, the whole report) with ==,
not within a tolerance: refactoring the estimators must not move a
single bit. Regenerate the table only for a change that is meant to
alter the arithmetic, and say so where the change is logged. The CSV
writers' output is pinned the same way, by the sha256 of its bytes.
"""

import hashlib
import json

import numpy as np
import pytest

from ssate import (
    McConfig,
    Misspec,
    estimate_os_eff,
    estimate_os_ipw,
    estimate_os_ra,
    estimate_ts_eff,
    fit_gmodel_mle,
    fit_outcome_both,
    fit_riesz,
    run_infinite_unlabeled_study,
    run_mc,
    sample_one,
    sample_two,
)
from ssate.cli import main
from ssate.datamodel import write_labeled_csv, write_one_sample_csv, write_unlabeled_csv
from ssate.errors import ReportIncomplete
from ssate.estimators import NuisanceConfig
from ssate.nuisance import LSIF, UKL, ddml_iterate, tmle_fluctuate
from ssate.oracle import GaussianLinearDgp, dgp_to_dict
from ssate.oracle import DiscreteXDgp
from ssate import dgp_d1, oracle

from conftest import gaussian_k3


def gaussian_dgp():
    """k=2 Gaussian-linear process with both a labeling law and a q0."""
    return GaussianLinearDgp(
        p_mean=np.array([0.0, 0.5]), p_var=np.array([1.0, 0.8]),
        mu1_coef=np.array([1.0, 0.5, -0.3]), mu0_coef=np.array([0.0, 0.2, 0.1]),
        s2_1=1.0, s2_0=1.2,
        e_coef=np.array([0.1, 0.3, -0.2]), pi_coef=np.array([0.3, 0.2, 0.1]),
        q_mean=np.array([0.2, 0.4]), q_var=np.array([1.1, 0.9]),
    )


DGP = gaussian_dgp()


def true_r(x):
    return DGP.p_pdf(x) / DGP.q_pdf(x)


def _estimate_cases():
    cases = {}
    for mode in ("mle-g", "ls-riesz", "kl-riesz"):
        for folds in (1, 2, 3):
            cases[f"os-eff/{mode}/{folds}"] = (
                lambda one, two, mode=mode, folds=folds: estimate_os_eff(
                    one, n_folds=folds, seed=5, config=NuisanceConfig(riesz_mode=mode)))
    cases["os-eff/kl-riesz/degree-2"] = lambda one, two: estimate_os_eff(
        one, n_folds=2, seed=6, config=NuisanceConfig(degree=2, riesz_mode="kl-riesz"))
    cases["os-eff/mu-override"] = lambda one, two: estimate_os_eff(
        one, n_folds=2, seed=7, mu_override=DGP.mu)
    cases["os-eff/g-override"] = lambda one, two: estimate_os_eff(
        one, n_folds=3, seed=7, config=NuisanceConfig(riesz_mode="ls-riesz"),
        g_override=DGP.g)
    cases["os-eff/both-overrides"] = lambda one, two: estimate_os_eff(
        one, n_folds=2, seed=8, mu_override=DGP.mu, g_override=DGP.g)
    for folds in (1, 2, 3):
        cases[f"ts-eff/fitted/{folds}"] = (
            lambda one, two, folds=folds: estimate_ts_eff(
                two, beta_star=0.4, n_folds=folds, seed=9))
    cases["ts-eff/overrides"] = lambda one, two: estimate_ts_eff(
        two, beta_star=0.4, n_folds=2, seed=9,
        mu_override=DGP.mu, e_override=DGP.e, r_override=true_r)
    cases["os-ipw/fitted"] = lambda one, two: estimate_os_ipw(one, fit_gmodel_mle(one))
    cases["os-ra/fitted"] = lambda one, two: estimate_os_ra(
        one, fit_outcome_both(*one.labeled_arrays()))
    return cases


def _mc_cases():
    one = dict(dgp=DGP, scenario="one-sample", n=250, reps=4, seed=11)
    two = dict(dgp=DGP, scenario="two-sample", estimator="ts-eff", m=200, l=150,
               beta_star=0.6, reps=4, seed=12)
    return {
        "mc/os-eff": McConfig(**one),
        "mc/os-eff/zero-mu": McConfig(**one, hook=Misspec("zero-mu")),
        "mc/os-eff/true-g": McConfig(**one, hook=Misspec("true-g")),
        "mc/os-ipw": McConfig(**one, estimator="os-ipw"),
        "mc/os-ra": McConfig(**one, estimator="os-ra"),
        "mc/ts-eff": McConfig(**two),
        "mc/ts-eff/true-r": McConfig(**two, hook=Misspec("true-r")),
    }


def _digest(*arrays):
    return hashlib.sha256(np.stack(arrays).tobytes()).hexdigest()


def _outcome_pins(mu, data):
    """Both arms of a fitted outcome model and its arm-matched predictions
    on every row, as sha256 digests of the float64 bytes."""
    return {"arms_sha256": _digest(mu(1, data.x), mu(0, data.x)),
            "predict_rows_sha256": _digest(mu.predict_rows(data.d, data.x))}


def _ddml(one, gen):
    mu, alpha, trace = ddml_iterate(one, n_steps=3, gen=gen)
    return {"trace": trace, "theta1": alpha.theta1.tolist(),
            "theta0": alpha.theta0.tolist(), **_outcome_pins(mu, one)}


def _tmle_stacked(one):
    """Two fluctuations, LSIF then UKL, on the labeled ridge fit."""
    xl, dl, yl = one.labeled_arrays()
    mu = fit_outcome_both(xl, dl, yl)
    for gen in (LSIF, UKL):
        mu = tmle_fluctuate(mu, fit_riesz(one, gen=gen), xl, dl, yl)
    return {"eps": [eps for _, eps in mu.fluctuations], **_outcome_pins(mu, one)}


# the fitted-model paths that no estimator reaches
FIT_CASES = {
    "ddml/LSIF/3": lambda one: _ddml(one, LSIF),
    "ddml/UKL/3": lambda one: _ddml(one, UKL),
    "tmle/LSIF+UKL": _tmle_stacked,
}
ESTIMATE_CASES = _estimate_cases()
MC_CASES = _mc_cases()


@pytest.fixture(scope="module")
def samples():
    return sample_one(DGP, 360, 70), sample_two(DGP, 300, 240, 71)


def pinned(rep):
    d = rep.to_dict()
    return {key: d[key] for key in ("tau_hat", "se", "ci", "diagnostics")}


@pytest.mark.parametrize("case", sorted(ESTIMATE_CASES))
def test_estimate_is_pinned(case, samples):
    assert pinned(ESTIMATE_CASES[case](*samples)) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(FIT_CASES))
def test_fit_is_pinned(case, samples):
    assert FIT_CASES[case](samples[0]) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(MC_CASES))
def test_mc_report_is_pinned(case):
    assert run_mc(MC_CASES[case], threads=1).to_dict() == GOLDEN[case]


# os-ra on samples of 4 and 6 rows: every rep that fails lacks arm data, in one of four
# ways (arm 1 or arm 0, with 0 or 1 rows), and the report keeps the reps that succeed.
# Failures are pinned as {message: reps} and compared as the report's rep-ordered list.
OS_RA_FAILURE_PINS = {
    'n=4': {'bound_value': None,
            'coverage': 0.0,
            'estimator': 'os-ra',
            'failures': {'arm 0 has 0 rows, need at least 2': [8, 23, 25, 27, 38, 40, 57],
                         'arm 0 has 1 rows, need at least 2': [6, 10, 16, 17, 33, 34, 37, 41,
                                                               46, 53, 59],
                         'arm 1 has 0 rows, need at least 2': [9, 12, 13, 14, 15, 18, 28, 32,
                                                               35, 36, 39, 45, 48, 54, 60],
                         'arm 1 has 1 rows, need at least 2': [1, 2, 4, 7, 11, 19, 20, 21, 22,
                                                               24, 26, 30, 31, 42, 43, 44, 47,
                                                               49, 50, 51, 52, 55, 56, 58]},
            'level': 0.95,
            'mc_bias': -1.2606972161284191,
            'mc_se_of_bias': 0.30155139808224374,
            'mean_se': 0.19345384741416596,
            'mean_tau_hat': -0.760697216128419,
            'reps_completed': 3,
            'scaled_variance': 1.09119894822427,
            'scenario': 'one-sample',
            'seed': 0,
            'sizes': {'n': 4},
            'tau0': 0.5},
    'n=6': {'bound_value': None,
            'coverage': 0.36363636363636365,
            'estimator': 'os-ra',
            'failures': {'arm 0 has 0 rows, need at least 2': [12, 22, 24, 36, 39, 43],
                         'arm 0 has 1 rows, need at least 2': [17, 20, 21, 31, 33, 37, 41, 42,
                                                               45, 49, 52, 56, 59],
                         'arm 1 has 0 rows, need at least 2': [4, 10, 16, 34, 35, 44, 53],
                         'arm 1 has 1 rows, need at least 2': [1, 6, 7, 9, 11, 13, 14, 15, 18,
                                                               19, 25, 26, 28, 29, 32, 46, 47,
                                                               48, 51, 54, 55, 58, 60]},
            'level': 0.95,
            'mc_bias': 0.006741202798987933,
            'mc_se_of_bias': 0.24018349333681807,
            'mean_se': 0.1872098337164587,
            'mean_tau_hat': 0.5067412027989879,
            'reps_completed': 11,
            'scaled_variance': 3.807415291117504,
            'scenario': 'one-sample',
            'seed': 0,
            'sizes': {'n': 6},
            'tau0': 0.5},
}


@pytest.mark.parametrize("case", sorted(OS_RA_FAILURE_PINS))
def test_os_ra_failures_are_pinned(case):
    pin = dict(OS_RA_FAILURE_PINS[case])
    n = pin["sizes"]["n"]
    with pytest.raises(ReportIncomplete) as info:
        run_mc(McConfig(dgp=dgp_d1(), estimator="os-ra", n=n, reps=60, seed=0), threads=1)
    pin["failures"] = sorted(
        ({"error": f"INSUFFICIENT-ARM-DATA: {msg}", "rep": rep}
         for msg, reps in pin["failures"].items() for rep in reps),
        key=lambda f: f["rep"])
    assert info.value.partial_report.to_dict() == pin


def test_riesz_model_is_not_a_probability(samples):
    one, _ = samples
    with pytest.raises(TypeError):
        estimate_os_ipw(one, fit_riesz(one))


# recorded with the row-object CSV writers, before the columnar ones
CSV_SHA256 = {
    "one-sample": "767b5e06437106c3eddc0ba6aadc9e767e83fcc3a6f09ae1c26881c17376d3b2",
    "labeled": "9a19d11e1c50b1969b3e0e0abf35fc0aaaf5d86ff59c4417737ccc21288da1e9",
    "unlabeled": "c12fbb4d1e6d2fcf95c54777ea2ad269d8d407163a8901c30b09704c51e009f6",
}


def test_csv_bytes_are_pinned(tmp_path, d1, d2):
    one, two = sample_one(d1, 200, 3), sample_two(d2, 50, 40, 4)
    writes = {"one-sample": lambda path: write_one_sample_csv(one, path),
              "labeled": lambda path: write_labeled_csv(two, path),
              "unlabeled": lambda path: write_unlabeled_csv(two, path)}
    for name, write in writes.items():
        path = tmp_path / f"{name}.csv"
        write(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_SHA256[name], name


# what each command writes to --output, recorded before the commands shared
# one exit-code policy; the files are named relative to the working directory
# so that no temporary path is echoed in the config
ENVELOPE_SHA256 = {
    "estimate-os": "504a22b18e651732b0b4d841a83ed9c4c889e03ae58a51a5ea0cdb6f76444af6",
    "estimate-ts": "4030846f7dcb502122767aeaf685031e636641b71a9f650fc9333683c0dcf23d",
    "bounds": "7c0c3a02b10980874ee6737a421f9ebd9686df203d56e94769fbb9578b528342",
    "simulate/mc": "70828795949884c258d9bb190684c46ce94ea7a4cf5caa3ac4b49fdb1ef5b235",
    "simulate/incomplete": "77ebfda7f73e4f9224ae34ca18954ffe530fd01b2545f255f303aedc104c0799",
}
ENVELOPE_ARGV = {
    "estimate-os": (["estimate-os", "--input", "os.csv", "--seed", "3"], 0),
    "estimate-ts": (["estimate-ts", "--labeled", "lab.csv", "--unlabeled", "unl.csv",
                     "--beta-star", "0.5"], 0),
    "bounds": (["bounds", "--dgp", "d1.json", "--alpha", "0.5"], 0),
    "simulate/mc": (["simulate", "--config", "mc.json"], 0),
    "simulate/incomplete": (["simulate", "--config", "incomplete.json"], 4),
}


def test_cli_envelopes_are_pinned(tmp_path, monkeypatch, d1):
    monkeypatch.chdir(tmp_path)
    write_one_sample_csv(sample_one(d1, 300, 5), "os.csv")
    two = sample_two(d1, 200, 150, 6)
    write_labeled_csv(two, "lab.csv")
    write_unlabeled_csv(two, "unl.csv")
    spec = dgp_to_dict(d1)
    (tmp_path / "d1.json").write_text(json.dumps(spec))
    (tmp_path / "mc.json").write_text(json.dumps(
        {"dgp": spec, "n": 300, "reps": 4, "seed": 9, "threads": 1}))
    (tmp_path / "incomplete.json").write_text(json.dumps(
        {"dgp": spec, "n": 20, "reps": 20, "seed": 9, "threads": 1}))
    for name, (argv, code) in ENVELOPE_ARGV.items():
        assert main(argv + ["--output", "out.json"]) == code, name
        digest = hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest()
        assert digest == ENVELOPE_SHA256[name], name


# recorded before the estimators shared one cross-fitting loop
GOLDEN = {'os-eff/both-overrides': {'tau_hat': 0.9823852668128906,
                           'se': 0.16016483061651876,
                           'ci': [0.6684679672145557, 1.2963025664112255],
                           'diagnostics': [{'n_train': 180}, {'n_train': 180}]},
 'os-eff/g-override': {'tau_hat': 0.9208796395288038,
                       'se': 0.1672760727601568,
                       'ci': [0.5930245614435949, 1.2487347176140127],
                       'diagnostics': [{'n_train': 240},
                                       {'n_train': 240},
                                       {'n_train': 240}]},
 'os-eff/kl-riesz/1': {'tau_hat': 0.9733325004395835,
                       'se': 0.17950987679823294,
                       'ci': [0.6214996070458247, 1.3251653938333423],
                       'diagnostics': [{'n_train': 360, 'riesz_converged': True}]},
 'os-eff/kl-riesz/2': {'tau_hat': 0.9392227784861666,
                       'se': 0.1891954636496269,
                       'ci': [0.568406483694541, 1.3100390732777922],
                       'diagnostics': [{'n_train': 180, 'riesz_converged': True},
                                       {'n_train': 180, 'riesz_converged': True}]},
 'os-eff/kl-riesz/3': {'tau_hat': 0.9576844206697628,
                       'se': 0.1927630599900453,
                       'ci': [0.5798757655395401, 1.3354930757999854],
                       'diagnostics': [{'n_train': 240, 'riesz_converged': True},
                                       {'n_train': 240, 'riesz_converged': True},
                                       {'n_train': 240, 'riesz_converged': True}]},
 'os-eff/kl-riesz/degree-2': {'tau_hat': 1.2828806514378184,
                              'se': 0.40012963858185074,
                              'ci': [0.4986409706703625, 2.067120332205274],
                              'diagnostics': [{'n_train': 180, 'riesz_converged': True},
                                              {'n_train': 180,
                                               'riesz_converged': True}]},
 'os-eff/ls-riesz/1': {'tau_hat': 0.9458100039479456,
                       'se': 0.17108652266454435,
                       'ci': [0.6104865812852429, 1.2811334266106482],
                       'diagnostics': [{'n_train': 360, 'riesz_converged': True}]},
 'os-eff/ls-riesz/2': {'tau_hat': 0.8851937497031438,
                       'se': 0.18058434903927598,
                       'ci': [0.5312549294145525, 1.239132569991735],
                       'diagnostics': [{'n_train': 180, 'riesz_converged': True},
                                       {'n_train': 180, 'riesz_converged': True}]},
 'os-eff/ls-riesz/3': {'tau_hat': 0.9527801901567137,
                       'se': 0.1824657885326122,
                       'ci': [0.5951538162220922, 1.3104065640913352],
                       'diagnostics': [{'n_train': 240, 'riesz_converged': True},
                                       {'n_train': 240, 'riesz_converged': True},
                                       {'n_train': 240, 'riesz_converged': True}]},
 'os-eff/mle-g/1': {'tau_hat': 0.9651297416586061,
                    'se': 0.16743013003047835,
                    'ci': [0.6369727168720104, 1.2932867664452017],
                    'diagnostics': [{'n_train': 360, 'g_converged': True}]},
 'os-eff/mle-g/2': {'tau_hat': 0.9319959312846188,
                    'se': 0.17824267898184776,
                    'ci': [0.5826466999722627, 1.281345162596975],
                    'diagnostics': [{'n_train': 180, 'g_converged': True},
                                    {'n_train': 180, 'g_converged': True}]},
 'os-eff/mle-g/3': {'tau_hat': 0.9637622640851295,
                    'se': 0.17883250442060722,
                    'ci': [0.6132569961556393, 1.3142675320146198],
                    'diagnostics': [{'n_train': 240, 'g_converged': True},
                                    {'n_train': 240, 'g_converged': True},
                                    {'n_train': 240, 'g_converged': True}]},
 'os-eff/mu-override': {'tau_hat': 0.989021446692592,
                        'se': 0.16903177527273147,
                        'ci': [0.6577252549151702, 1.3203176384700137],
                        'diagnostics': [{'n_train': 180, 'g_converged': True},
                                        {'n_train': 180, 'g_converged': True}]},
 'os-ipw/fitted': {'tau_hat': 0.9991962366975566,
                   'se': 0.18063175561789627,
                   'ci': [0.6451645012222393, 1.353227972172874],
                   'diagnostics': []},
 'os-ra/fitted': {'tau_hat': 0.9458099966862288,
                  'se': 0.023133799702774613,
                  'ci': [0.9004685824432271, 0.9911514109292304],
                  'diagnostics': []},
 'ts-eff/fitted/1': {'tau_hat': 0.726400747377497,
                     'se': 0.12425819170911716,
                     'ci': [0.4828591668435539, 0.9699423279114402],
                     'diagnostics': [{'m_train': 300,
                                      'l_train': 240,
                                      'e_converged': True,
                                      'r_converged': True}]},
 'ts-eff/fitted/2': {'tau_hat': 0.7051691465326115,
                     'se': 0.13295939382904007,
                     'ci': [0.4445735232214159, 0.9657647698438072],
                     'diagnostics': [{'m_train': 150,
                                      'l_train': 120,
                                      'e_converged': True,
                                      'r_converged': True},
                                     {'m_train': 150,
                                      'l_train': 120,
                                      'e_converged': True,
                                      'r_converged': True}]},
 'ts-eff/fitted/3': {'tau_hat': 0.6797107426520356,
                     'se': 0.13331758974319036,
                     'ci': [0.418413068249696, 0.9410084170543751],
                     'diagnostics': [{'m_train': 200,
                                      'l_train': 160,
                                      'e_converged': True,
                                      'r_converged': True},
                                     {'m_train': 200,
                                      'l_train': 160,
                                      'e_converged': True,
                                      'r_converged': True},
                                     {'m_train': 200,
                                      'l_train': 160,
                                      'e_converged': True,
                                      'r_converged': True}]},
 'ts-eff/overrides': {'tau_hat': 0.7067718527901266,
                      'se': 0.125457231375217,
                      'ci': [0.46088019769459276, 0.9526635078856603],
                      'diagnostics': [{'m_train': 150, 'l_train': 120},
                                      {'m_train': 150, 'l_train': 120}]},
 'mc/os-eff': {'scenario': 'one-sample',
               'estimator': 'os-eff',
               'sizes': {'n': 250},
               'reps_completed': 4,
               'mean_tau_hat': 0.7450690560640381,
               'tau0': 0.8,
               'mc_bias': -0.054930943935961984,
               'mc_se_of_bias': 0.04964587480552389,
               'scaled_variance': 2.4647128852057514,
               'bound_value': 8.027082627883315,
               'coverage': 1.0,
               'mean_se': 0.1964973440877283,
               'level': 0.95,
               'seed': 11,
               'failures': []},
 'mc/os-eff/true-g': {'scenario': 'one-sample',
                      'estimator': 'os-eff',
                      'sizes': {'n': 250},
                      'reps_completed': 4,
                      'mean_tau_hat': 0.7740750268736956,
                      'tau0': 0.8,
                      'mc_bias': -0.025924973126304485,
                      'mc_se_of_bias': 0.049830624747868243,
                      'scaled_variance': 2.483091162762859,
                      'bound_value': 8.027082627883315,
                      'coverage': 1.0,
                      'mean_se': 0.17252966743590264,
                      'level': 0.95,
                      'seed': 11,
                      'failures': []},
 'mc/os-eff/zero-mu': {'scenario': 'one-sample',
                       'estimator': 'os-eff',
                       'sizes': {'n': 250},
                       'reps_completed': 4,
                       'mean_tau_hat': 0.7903741225746773,
                       'tau0': 0.8,
                       'mc_bias': -0.009625877425322726,
                       'mc_se_of_bias': 0.061936786725067326,
                       'scaled_variance': 3.8361655498264757,
                       'bound_value': 8.027082627883315,
                       'coverage': 1.0,
                       'mean_se': 0.23019210036332177,
                       'level': 0.95,
                       'seed': 11,
                       'failures': []},
 'mc/os-ipw': {'scenario': 'one-sample',
               'estimator': 'os-ipw',
               'sizes': {'n': 250},
               'reps_completed': 4,
               'mean_tau_hat': 0.7819500980789982,
               'tau0': 0.8,
               'mc_bias': -0.018049901921001865,
               'mc_se_of_bias': 0.05743945250088066,
               'scaled_variance': 3.2992907036009256,
               'bound_value': 11.019013879835335,
               'coverage': 1.0,
               'mean_se': 0.20833241180701367,
               'level': 0.95,
               'seed': 11,
               'failures': []},
 'mc/os-ra': {'scenario': 'one-sample',
              'estimator': 'os-ra',
              'sizes': {'n': 250},
              'reps_completed': 4,
              'mean_tau_hat': 0.7937223184803146,
              'tau0': 0.8,
              'mc_bias': -0.006277681519685441,
              'mc_se_of_bias': 0.05638776001417399,
              'scaled_variance': 3.1795794794160788,
              'bound_value': None,
              'coverage': 0.5,
              'mean_se': 0.027784248257439595,
              'level': 0.95,
              'seed': 11,
              'failures': []},
 'mc/ts-eff': {'scenario': 'two-sample',
               'estimator': 'ts-eff',
               'sizes': {'m': 200, 'l': 150},
               'reps_completed': 4,
               'mean_tau_hat': 0.7857543873059266,
               'tau0': 0.84,
               'mc_bias': -0.05424561269407335,
               'mc_se_of_bias': 0.02794527252181436,
               'scaled_variance': 1.0933135588458618,
               'bound_value': 8.33394117476774,
               'coverage': 1.0,
               'mean_se': 0.15561761378866895,
               'level': 0.95,
               'seed': 12,
               'failures': []},
 'mc/ts-eff/true-r': {'scenario': 'two-sample',
                      'estimator': 'ts-eff',
                      'sizes': {'m': 200, 'l': 150},
                      'reps_completed': 4,
                      'mean_tau_hat': 0.7717921219504603,
                      'tau0': 0.84,
                      'mc_bias': -0.06820787804953965,
                      'mc_se_of_bias': 0.02212789073688339,
                      'scaled_variance': 0.6855009678488295,
                      'bound_value': 8.33394117476774,
                      'coverage': 1.0,
                      'mean_se': 0.15472943940814368,
                      'level': 0.95,
                      'seed': 12,
                      'failures': []}}


# recorded before the fitted models evaluated both arms from one transform
GOLDEN.update({
    'ddml/LSIF/3': {'trace': [1.973729821555834e-17, 9.86864910777917e-18,
                              9.86864910777917e-18],
                    'theta1': [2.982066133205793, -0.5618642848050727, 0.603224003233667],
                    'theta0': [-4.037108428033801, 0.010876713587654662, 0.8421371895191598],
                    'arms_sha256':
                        '526282754c6c3430e947ab024d042ab75175e9b492f695ac133e8b471451062d',
                    'predict_rows_sha256':
                        'd0db6bff19d9c8b11df56248c70d62b114ff49195a1d2dbc025010fffe087d29'},
    'ddml/UKL/3': {'trace': [3.947459643111668e-17, 9.86864910777917e-18,
                             1.973729821555834e-17],
                   'theta1': [0.6171748521298673, -0.2817979844812866, 0.3049434383751175],
                   'theta0': [1.0859253032410592, -0.004108719507600337, -0.33723620632231766],
                   'arms_sha256':
                       '376d5da802a25b17b93c2b0eb2571126b5495e222c5156746ee0bd25a8a3ebea',
                   'predict_rows_sha256':
                       '18bd5edc5d13d41981e1286326a911ac13acf317cda5cb0dfadac2757823a424'},
    'tmle/LSIF+UKL': {'eps': [9.710393359631247e-10, 0.0036155918255764115],
                      'arms_sha256':
                          'c2d3c5bb561931cec3f4fc78334697a7d2eb2db825e3d8e198cebdd6f1876de5',
                      'predict_rows_sha256':
                          'f0852526677155b82aba852eb0ccefcc87953cb074017ee8e1b0af5565391bea'},
})


# recorded before each law's quadrature nodes were built once per call: the
# float hex of each oracle value, and the sha256 of each law's node and weight bytes
ORACLE_DGPS = {"d1": dgp_d1, "gaussian-k2": gaussian_dgp, "gaussian-k3": gaussian_k3}
ORACLE_PINS = {
    'd1': {
        'beta_star': '0x1.0000000000000p-1',
        'nodes_p': 'cbbb244432b54e0be34590f66a20714a33a65a7519092c7f8357682f62f9fedb',
        'nodes_q': 'cbbb244432b54e0be34590f66a20714a33a65a7519092c7f8357682f62f9fedb',
        'report/beta_star': '0x1.0000000000000p-1',
        'report/tau0': '0x1.0000000000000p-1',
        'report/v_hahn': '0x1.1000000000000p+2',
        'report/v_ipw': '0x1.4000000000000p+3',
        'report/v_os': '0x1.0800000000000p+3',
        'report/v_tilde_os': '0x1.0000000000000p+3',
        'report/v_tilde_ts': '0x1.0000000000000p+2',
        'report/v_ts/0.0': '0x1.1000000000000p+3',
        'report/v_ts/0.5': '0x1.0800000000000p+3',
        'report/v_ts/1.0': '0x1.1000000000000p+3',
        'true_ate/0.5': '0x1.0000000000000p-1',
        'true_ate/1': '0x1.0000000000000p-1',
        'v_hahn': '0x1.1000000000000p+2',
        'v_ipw': '0x1.4000000000000p+3',
        'v_os': '0x1.0800000000000p+3',
        'v_tilde_os': '0x1.0000000000000p+3',
        'v_tilde_ts/0.3': '0x1.0000000000000p+2',
        'v_ts/0.0': '0x1.1000000000000p+3',
        'v_ts/0.3': '0x1.0947ae147ae14p+3',
        'v_ts/1.0': '0x1.1000000000000p+3',
    },
    'gaussian-k2': {
        'beta_star': '0x1.947ae147ae148p-1',
        'nodes_p': 'a2a9728476af7913b8b3cec83aa717663f157c8382fa1016ef9a672034e9d9e7',
        'nodes_q': 'c9c420d328c7f467175566cd431359dd7ace1643c211b2a1029a22b87270066b',
        'report/beta_star': '0x1.947ae147ae148p-1',
        'report/tau0': '0x1.999999999999ap-1',
        'report/v_hahn': '0x1.30687da3e535dp+2',
        'report/v_ipw': '0x1.609bc2ff0202cp+3',
        'report/v_os': '0x1.00dddc63218dfp+3',
        'report/v_tilde_os': '0x1.f3c80280a1512p+2',
        'report/v_tilde_ts': '0x1.2497ab7b9dcaep+2',
        'report/v_ts/0.0': '0x1.4f3a4a60ad654p+3',
        'report/v_ts/0.5': '0x1.327e9726bbd50p+3',
        'report/v_ts/0.79': '0x1.2e055eae57dfdp+3',
        'report/v_ts/1.0': '0x1.30687da3e535dp+3',
        'true_ate/0.5': '0x1.b333333333333p-1',
        'true_ate/1': '0x1.999999999999ap-1',
        'v_hahn': '0x1.30687da3e535dp+2',
        'v_ipw': '0x1.609bc2ff0202cp+3',
        'v_os': '0x1.00dddc63218dfp+3',
        'v_tilde_os': '0x1.f3c80280a1512p+2',
        'v_tilde_ts/0.3': '0x1.31d8c73c2c3adp+2',
        'v_ts/0.0': '0x1.4f3a4a60ad654p+3',
        'v_ts/0.3': '0x1.3ac786a20837cp+3',
        'v_ts/1.0': '0x1.30687da3e535dp+3',
    },
    'gaussian-k3': {
        'beta_star': '0x1.23d70a3d70a3ep-1',
        'nodes_p': '797ed447cc9541f4d20140208ed3c2af68f6c8c344d6933034d5a6ea0fd0de36',
        'nodes_q': '11e5a00bc6f9c69a9a6280d437ad3eb170c9b174135e067fb86986826a0f03b5',
        'report/beta_star': '0x1.23d70a3d70a3ep-1',
        'report/tau0': '0x1.05604189374bcp+0',
        'report/v_hahn': '0x1.207ce1b7b03b2p+2',
        'report/v_ipw': '0x1.6c2484c98f12ep+3',
        'report/v_os': '0x1.d8f507eb3d049p+2',
        'report/v_tilde_os': '0x1.c33762d9a0242p+2',
        'report/v_tilde_ts': '0x1.0c3a392daa43fp+2',
        'report/v_ts/0.0': '0x1.278036c857966p+3',
        'report/v_ts/0.5': '0x1.177f8b183ce16p+3',
        'report/v_ts/0.5700000000000001': '0x1.1740916b9ef22p+3',
        'report/v_ts/1.0': '0x1.207ce1b7b03b2p+3',
        'true_ate/0.5': '0x1.045a1cac08312p+0',
        'true_ate/1': '0x1.05604189374bcp+0',
        'v_hahn': '0x1.207ce1b7b03b2p+2',
        'v_ipw': '0x1.6c2484c98f12ep+3',
        'v_os': '0x1.d8f507eb3d049p+2',
        'v_tilde_os': '0x1.c33762d9a0242p+2',
        'v_tilde_ts/0.3': '0x1.0e72684070f73p+2',
        'v_ts/0.0': '0x1.278036c857966p+3',
        'v_ts/0.3': '0x1.1ae66ed2a54f8p+3',
        'v_ts/1.0': '0x1.207ce1b7b03b2p+3',
    },
}


def _node_digest(nodes):
    x, w = nodes
    return hashlib.sha256(x.tobytes() + w.tobytes()).hexdigest()


def _oracle_pins(dgp) -> dict:
    values = {
        "true_ate/1": oracle.true_ate(dgp), "true_ate/0.5": oracle.true_ate(dgp, 0.5),
        "v_os": oracle.bound_v_os(dgp), "v_tilde_os": oracle.bound_v_tilde_os(dgp),
        "v_ipw": oracle.bound_v_ipw(dgp), "v_hahn": oracle.bound_v_hahn(dgp),
        "v_tilde_ts/0.3": oracle.bound_v_tilde_ts(dgp, 0.3),
        **{f"v_ts/{b}": oracle.bound_v_ts(dgp, b, 0.5) for b in (0.0, 0.3, 1.0)},
        "beta_star": oracle.beta_star(dgp, 0.5),
    }
    report = oracle.oracle_bounds(dgp, alpha=0.5)
    values.update({f"report/{key}": val for key, val in vars(report).items() if key != "v_ts"})
    values.update({f"report/v_ts/{b}": val for b, val in report.v_ts.items()})
    return {"nodes_p": _node_digest(dgp.nodes_p()), "nodes_q": _node_digest(dgp.nodes_q()),
            **{key: float(val).hex() for key, val in values.items()}}


@pytest.mark.parametrize("name", sorted(ORACLE_PINS))
def test_oracle_is_pinned(name):
    assert _oracle_pins(ORACLE_DGPS[name]()) == ORACLE_PINS[name]


# recorded before the g fit multiplied by contiguous weights: a 25k-row fold is
# past OpenBLAS's threading threshold, which no 360-row pin above reaches
LARGE_N_PINS = {
    1: {'tau_hat': '0x1.07a8137d166aep+0', 'se': '0x1.8d80927b34913p-7',
        'ci': ['0x1.0191e5602328ap+0', '0x1.0dbe419a09ad2p+0']},
    3: {'tau_hat': '0x1.07cc28ef25630p+0', 'se': '0x1.8f0a21945896dp-7',
        'ci': ['0x1.01aff41925e5ep+0', '0x1.0de85dc524e02p+0']},
}


@pytest.fixture(scope="module")
def large_sample():
    return sample_one(gaussian_k3(), 50_000, 23)


@pytest.mark.parametrize("degree", sorted(LARGE_N_PINS))
def test_large_n_estimate_is_pinned(degree, large_sample):
    rep = estimate_os_eff(large_sample, n_folds=2, seed=4, config=NuisanceConfig(degree=degree))
    assert {"tau_hat": rep.tau_hat.hex(), "se": rep.se.hex(),
            "ci": [v.hex() for v in rep.ci]} == LARGE_N_PINS[degree]


# recorded before the limit study ran one run_mc call for both regimes and the
# brute-force oracle minimized all cells at once: the limit study's whole report
# for each regime, and the float hex of each brute-force argmin
LIMIT_STUDY_CASES = {
    "limit/one-sample": {"scenario": "one-sample"},
    "limit/two-sample": {"scenario": "two-sample", "beta_star": 0.5},
}
LIMIT_STUDY_PINS = {
    'limit/one-sample': {'bound_value': 8.0,
                         'coverage': 1.0,
                         'estimator': 'os-eff',
                         'failures': [],
                         'level': 0.95,
                         'mc_bias': -0.5001381532714915,
                         'mc_se_of_bias': 0.26746380904411426,
                         'mean_se': 0.5588592365203088,
                         'mean_tau_hat': -0.00013815327149143317,
                         'reps_completed': 6,
                         'scaled_variance': 42.92213348903185,
                         'scenario': 'one-sample',
                         'seed': 13,
                         'sizes': {'n': 550},
                         'tau0': 0.5},
    'limit/two-sample': {'bound_value': 4.0,
                         'coverage': 1.0,
                         'estimator': 'ts-eff',
                         'failures': [],
                         'level': 0.95,
                         'mc_bias': 0.16515352389477755,
                         'mc_se_of_bias': 0.13341927704224915,
                         'mean_se': 0.31981416190866047,
                         'mean_tau_hat': 0.6651535238947776,
                         'reps_completed': 6,
                         'scaled_variance': 5.340211045942928,
                         'scenario': 'two-sample',
                         'seed': 13,
                         'sizes': {'l': 500, 'm': 50},
                         'tau0': 0.5},
}


@pytest.mark.parametrize("case", sorted(LIMIT_STUDY_CASES))
def test_limit_study_is_pinned(case):
    report = run_infinite_unlabeled_study(dgp_d1(), n_labeled=50, ratio=10, reps=6, seed=13,
                                          threads=1, **LIMIT_STUDY_CASES[case])
    assert report.to_dict() == LIMIT_STUDY_PINS[case]


def three_cell_dgp():
    """A 3-point support whose g(1|x) and g(0|x) differ from cell to cell."""
    return DiscreteXDgp(
        xs=np.array([[0.0], [1.0], [2.0]]), p=np.array([0.3, 0.5, 0.2]),
        pi1=np.array([0.6, 0.8, 0.5]), e1=np.array([0.4, 0.5, 0.7]),
        mu1=np.array([0.5, 1.0, 2.0]), mu0=np.array([0.0, 0.3, 0.4]),
        s2_1=np.array([1.0, 0.5, 2.0]), s2_0=np.array([1.0, 1.5, 0.8]),
        q=np.array([0.2, 0.3, 0.5]))


BRUTE_FORCE_DGPS = {"d1": dgp_d1, "three-cell": three_cell_dgp}
BRUTE_FORCE_GENS = {"LSIF": LSIF, "UKL": UKL}
BRUTE_FORCE_PINS = {
    'd1/LSIF': {'a0': ['-0x1.0000000000000p+2', '-0x1.0000000000000p+2'],
                'a1': ['0x1.0000000000000p+2', '0x1.0000000000000p+2']},
    'd1/UKL': {'a0': ['-0x1.0000000000000p+2', '-0x1.0000000000000p+2'],
               'a1': ['0x1.0000000000000p+2', '0x1.0000000000000p+2']},
    'three-cell/LSIF': {'a0': ['-0x1.63d70a3d70a3ep+1', '-0x1.4000000000000p+1',
                               '-0x1.aae147ae147aep+2'],
                        'a1': ['0x1.0ae147ae147aep+2', '0x1.4000000000000p+1',
                               '0x1.6e147ae147ae0p+1']},
    'three-cell/UKL': {'a0': ['-0x1.63d70a3d70a3ep+1', '-0x1.4000000000000p+1',
                              '-0x1.aae147ae147aep+2'],
                       'a1': ['0x1.0ae147ae147aep+2', '0x1.4000000000000p+1',
                              '0x1.6e147ae147ae0p+1']},
}


@pytest.mark.parametrize("case", sorted(BRUTE_FORCE_PINS))
def test_brute_force_riesz_is_pinned(case):
    dgp, gen = case.split("/")
    a1, a0 = oracle.brute_force_riesz(BRUTE_FORCE_DGPS[dgp](), BRUTE_FORCE_GENS[gen])
    assert {"a1": [float(v).hex() for v in a1],
            "a0": [float(v).hex() for v in a0]} == BRUTE_FORCE_PINS[case]
