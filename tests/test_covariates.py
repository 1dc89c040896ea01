"""Every covariate array is read by one check, ``ssate.errors.covariates``: by the
datasets, the fits, every fitted model, the DGP laws and the simulation hooks. A
1-D array is one covariate column, any other ndim than 1 or 2 is a DimMismatch,
and so is a column count other than the model's or the DGP's k, naming both.
The fits that take raw arrays read their arms by ``arm_position``'s rule, row by
row, and reject arrays of different lengths."""

import numpy as np
import pytest

from ssate import (
    DiscreteXDgp,
    GaussianLinearDgp,
    OneSampleDataset,
    TwoSampleDataset,
    assemble_v_beta,
    dgp_d1,
    fit_density_ratio,
    fit_e_model,
    fit_gmodel_mle,
    fit_outcome_both,
    fit_riesz,
    tmle_fluctuate,
)
from ssate.errors import DimMismatch, DomainViolation
from ssate.simharness import Misspec, _hook_overrides


@pytest.fixture(scope="module")
def k1_data():
    """k=1 continuous covariates with both arms labeled and unlabeled rows."""
    rng = np.random.default_rng(7)
    n = 200
    x = rng.normal(size=(n, 1))
    o = (rng.random(n) < 0.7).astype(np.int8)
    d = np.where(o == 1, rng.random(n) < 0.5, 0).astype(np.int8)
    y = np.where(o == 1, x[:, 0] + d + rng.normal(size=n), 0.0)
    return OneSampleDataset.from_arrays(x, o, d, y)


@pytest.fixture(scope="module")
def k1_models(k1_data):
    """Each fitted model of the k=1 sample, as a function of x alone."""
    xl, dl, yl = k1_data.labeled_arrays()
    mu, g, e = fit_outcome_both(xl, dl, yl), fit_gmodel_mle(k1_data), fit_e_model(xl, dl)
    r, alpha = fit_density_ratio(xl, k1_data.x[k1_data.o == 0]), fit_riesz(k1_data)
    v = assemble_v_beta(e, r, 0.3)
    return {"OutcomeModel": lambda x: mu(1, x), "GModel": lambda x: g(0, x),
            "EModel": lambda x: e(1, x), "DensityRatioModel": r,
            "RieszModel": lambda x: alpha.a1_a0(x)[0], "VBeta": lambda x: v(1, x)}


@pytest.fixture(params=["OutcomeModel", "GModel", "EModel", "DensityRatioModel", "RieszModel",
                        "VBeta"])
def model(request, k1_models):
    return k1_models[request.param]


def bad_shapes(owner: str) -> dict:
    """Covariate shapes a k=1 reader rejects, each with its DimMismatch message."""
    return {(3, 2): f"^covariates have k=2, the {owner} has k=1$",
            (): "^covariates must be a 1-D or 2-D array, got 0-D$",
            (3, 1, 1): "^covariates must be a 1-D or 2-D array, got 3-D$"}


def test_fitted_model_rejects_another_k_or_ndim(model):
    for shape, message in bad_shapes("model").items():
        with pytest.raises(DimMismatch, match=message):
            model(np.zeros(shape))


def test_fitted_model_reads_1d_as_one_column(model):
    x = np.linspace(-1.0, 1.0, 5)
    assert np.array_equal(model(x), model(x[:, None]))
    assert model(x).shape == (5,)


def gaussian_k1():
    return GaussianLinearDgp(p_mean=[0.0], p_var=[1.0], mu1_coef=[1.0, 0.8],
                             mu0_coef=[0.2, 0.3], s2_1=1.5, s2_0=0.7, e_coef=[0.0, 0.5],
                             pi_coef=[0.1, 0.2], q_mean=[0.5], q_var=[1.5])


DGPS = {"DiscreteX": dgp_d1, "GaussianLinear": gaussian_k1}
LAWS = {
    "mu": lambda dgp, x: dgp.mu(1, x), "sigma2": lambda dgp, x: dgp.sigma2(0, x),
    "e": lambda dgp, x: dgp.e(1, x), "g": lambda dgp, x: dgp.g(0, x),
    "pi": lambda dgp, x: dgp.pi(x), "p_pdf": lambda dgp, x: dgp.p_pdf(x),
    "q_pdf": lambda dgp, x: dgp.q_pdf(x),
}


@pytest.fixture(params=[(family, law) for family in sorted(DGPS) for law in LAWS],
                ids=lambda param: "-".join(param))
def law(request):
    family, name = request.param
    dgp = DGPS[family]()
    return lambda x: LAWS[name](dgp, x)


def test_dgp_law_rejects_another_k_or_ndim(law):
    for shape, message in bad_shapes("DGP").items():
        with pytest.raises(DimMismatch, match=message):
            law(np.zeros(shape))


def test_dgp_law_reads_1d_as_one_column(law):
    x = np.array([0.0, 1.0, 1.0])  # support points of the discrete DGP too
    assert np.array_equal(law(x), law(x[:, None]))
    assert law(x).shape == (3,)


def test_1d_support_lists_k1_points():
    dgp = DiscreteXDgp(xs=[0.0, 1.0], p=[0.5, 0.5], e1=[0.5, 0.5], mu1=[0.0, 1.0],
                       mu0=[0.0, 0.0], s2_1=[1.0, 1.0], s2_0=[1.0, 1.0])
    assert dgp.k == 1 and dgp.xs.shape == (2, 1)
    assert np.array_equal(dgp.mu(1, [1.0, 0.0]), [1.0, 0.0])


@pytest.mark.parametrize("x", [np.zeros((3, 2, 2)), np.float64(1.0)], ids=["3-d", "0-d"])
def test_from_arrays_rejects_another_ndim(x):
    with pytest.raises(DimMismatch, match="^covariates must be a 1-D or 2-D array"):
        OneSampleDataset.from_arrays(x, [1, 1, 0], [1, 0, 0], [1.0, 2.0, 0.0])
    with pytest.raises(DimMismatch, match="^covariates must be a 1-D or 2-D array"):
        TwoSampleDataset.from_arrays(x, [1, 0, 0], [1.0, 2.0, 0.0], np.zeros((2, 2)))
    with pytest.raises(DimMismatch, match="^covariates must be a 1-D or 2-D array"):
        TwoSampleDataset.from_arrays(np.zeros((3, 2)), [1, 0, 0], [1.0, 2.0, 0.0], x)


@pytest.mark.parametrize("kind", ["zero-mu", "constant-g", "constant-e"])
def test_constant_hook_gives_one_value_per_row_of_1d_x(kind):
    (forced,) = _hook_overrides(Misspec(kind, 0.4), dgp_d1(), (
        "mu_override", "g_override", "e_override")).values()
    assert forced(1, np.linspace(0.0, 1.0, 5)).shape == (5,)
    assert forced(1, np.zeros((5, 1))).shape == (5,)


def test_density_ratio_rejects_unlabeled_of_another_k():
    with pytest.raises(DimMismatch, match="^covariates have k=3, the labeled sample has k=2$"):
        fit_density_ratio(np.zeros((5, 2)), np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# Arms and lengths in the fits that take raw arrays
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fitted(k1_data):
    xl, dl, yl = k1_data.labeled_arrays()
    mu = fit_outcome_both(xl, dl, yl)
    return xl, dl, yl, mu, fit_riesz(k1_data)


RAW_FITS = {
    "fit_outcome_both": lambda x, d, y, mu, alpha: fit_outcome_both(x, d, y),
    "fit_e_model": lambda x, d, y, mu, alpha: fit_e_model(x, d),
    "tmle_fluctuate": lambda x, d, y, mu, alpha: tmle_fluctuate(mu, alpha, x, d, y),
    "predict_rows": lambda x, d, y, mu, alpha: mu.predict_rows(d, x),
}


@pytest.mark.parametrize("fit", sorted(RAW_FITS))
@pytest.mark.parametrize("arm", [2, -1, 0.5, float("nan")])
def test_raw_fit_rejects_a_bad_arm(fitted, fit, arm):
    x, d, y, mu, alpha = fitted
    bad = d.astype(np.asarray(arm).dtype)  # so the message prints the arm as given
    bad[3] = arm
    with pytest.raises(DomainViolation, match=f"^arm must be 0 or 1, got {arm}$"):
        RAW_FITS[fit](x, bad, y, mu, alpha)


@pytest.mark.parametrize("fit, short", [(fit, short) for fit in sorted(RAW_FITS)
                                         for short in ("x", "d", "y")
                                         if short != "y" or fit in ("fit_outcome_both",
                                                                    "tmle_fluctuate")])
def test_raw_fit_rejects_arrays_of_different_lengths(fitted, fit, short):
    x, d, y, mu, alpha = fitted
    arrays = {"x": x, "d": d, "y": y}
    arrays[short] = arrays[short][:-1]
    with pytest.raises(DimMismatch, match="^array lengths disagree$"):
        RAW_FITS[fit](arrays["x"], arrays["d"], arrays["y"], mu, alpha)
