"""Semi-supervised average treatment effect estimation with auxiliary
unlabeled covariates: efficient cross-fitted estimators for the
one-sample (censoring) and two-sample (case-control) scenarios,
generalized Riesz regression for the weighting nuisances, closed-form
efficiency-bound oracles, and a Monte Carlo harness."""

__version__ = "0.1.0"

from .datamodel import (
    FoldPlan,
    OneSampleDataset,
    TwoSampleDataset,
    make_fold_plan,
    read_one_sample_csv,
    read_two_sample_csv,
    write_one_sample_csv,
)
from .errors import SsateError
from .estimators import (
    EstimateReport,
    NuisanceConfig,
    ci,
    estimate_os_eff,
    estimate_os_ipw,
    estimate_os_ra,
    estimate_ts_eff,
    score_ts_x,
)
from .nuisance import (
    LSIF,
    UKL,
    BasisSpec,
    BregmanGenerator,
    DensityRatioModel,
    EModel,
    GModel,
    OutcomeModel,
    RieszModel,
    assemble_v_beta,
    ddml_iterate,
    fit_density_ratio,
    fit_e_model,
    fit_gmodel_mle,
    fit_outcome_both,
    fit_riesz,
    riesz_loss,
    tmle_fluctuate,
)
from .oracle import (
    BoundReport,
    DiscreteXDgp,
    GaussianLinearDgp,
    beta_star,
    bound_v_hahn,
    bound_v_ipw,
    bound_v_os,
    bound_v_tilde_os,
    bound_v_tilde_ts,
    bound_v_ts,
    brute_force_riesz,
    dgp_d1,
    dgp_d2,
    dgp_from_dict,
    dgp_to_dict,
    oracle_bounds,
    true_ate,
)
from .simharness import (
    McConfig,
    McReport,
    Misspec,
    run_infinite_unlabeled_study,
    run_mc,
    sample_one,
    sample_two,
)
