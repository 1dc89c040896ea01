import numpy as np
import pytest

from ssate import (
    LSIF,
    UKL,
    BregmanGenerator,
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
    sample_one,
    sample_two,
    tmle_fluctuate,
)
from ssate import nuisance
from ssate.datamodel import OneSampleDataset
from ssate.errors import (
    ClassAbsent,
    InsufficientArmData,
    NonfiniteValue,
    SingularSystem,
    ZeroDenominator,
)
from ssate.nuisance import FittedBasis, _riesz_arm_objectives, riesz_loss_grad
from ssate.optimize import OptimizerConfig, minimize_gd, minimize_newton

from conftest import gaussian_k3, random_one_sample, traced_peak


def zero_outcome_model(x):
    basis = FittedBasis(1, x.shape[1])
    p = basis.dim
    return OutcomeModel(basis=basis, coef={1: np.zeros(p), 0: np.zeros(p)}, clip_c=1e6)


class TestFitOutcome:
    def test_degree_below_one(self):
        x, d, y = np.zeros((4, 1)), np.array([1, 1, 0, 0]), np.zeros(4)
        with pytest.raises(ValueError, match="degree"):
            fit_outcome_both(x, d, y, degree=0)

    def test_interpolation(self):
        x = np.array([[0.0], [1.0]])
        d = np.array([1, 1])
        y = np.array([0.0, 1.0])
        m = fit_outcome_both(x, d, y, ridge_lambda=0.0)
        grid = np.array([[0.0], [0.5], [1.0]])
        assert np.allclose(m(1, grid), grid.ravel(), atol=1e-12)

    def test_huge_ridge_shrinks_to_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 1))
        y = rng.normal(size=50) + 3
        m = fit_outcome_both(x, np.ones(50), y, ridge_lambda=1e12)
        assert np.max(np.abs(m(1, x))) < 1e-6

    def test_ridge_monotonicity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(60, 2))
        y = rng.normal(size=60) + x[:, 0]
        norms = []
        for lam in (1e-6, 1e-2, 1.0, 100.0):
            m = fit_outcome_both(x, np.ones(60), y, ridge_lambda=lam)
            norms.append(np.linalg.norm(m.coef[1]))
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_consistency_on_reference_dgp(self, d1):
        data = sample_one(d1, 40000, 5)
        xl, dl, yl = data.labeled_arrays()
        m = fit_outcome_both(xl, dl, yl)
        grid = np.array([[0.0], [1.0]])
        assert np.allclose(m(1, grid), [0.0, 1.0], atol=0.05)

    def test_insufficient_arm(self):
        x = np.array([[0.0]])
        with pytest.raises(InsufficientArmData):
            fit_outcome_both(x, np.array([0]), np.array([1.0]))(1, x)

    def test_arm_without_rows_is_unfitted(self):
        x = np.array([[0.0], [1.0], [2.0]])
        m = fit_outcome_both(x, np.zeros(3), np.array([1.0, 2.0, 3.0]), ridge_lambda=0.0)
        assert np.allclose(m(0, x), [1.0, 2.0, 3.0], atol=1e-12)
        with pytest.raises(InsufficientArmData, match="arm 1 has 0 rows"):
            m(1, x)

    def test_clipping(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 100.0, 200.0])
        m = fit_outcome_both(x, np.ones(3), y, ridge_lambda=0.0, clip_c=50.0)
        assert np.all(np.abs(m(1, np.array([[10.0]]))) <= 50.0)


class TestGModel:
    def test_intercept_only_recovers_frequencies(self):
        x = np.zeros((40, 1))
        o = np.array([1] * 20 + [0] * 20, dtype=np.int8)
        d = np.array([1] * 10 + [0] * 10 + [0] * 20, dtype=np.int8)
        y = np.zeros(40)
        data = OneSampleDataset.from_arrays(x, o, d, y)
        g = fit_gmodel_mle(data, clip_eps=0.001)
        assert np.allclose(g(1, x[:1]), 0.25, atol=1e-4)
        assert np.allclose(g(0, x[:1]), 0.25, atol=1e-4)

    def test_reference_dgp_fit(self, d1):
        data = sample_one(d1, 20000, 6)
        g = fit_gmodel_mle(data)
        grid = np.array([[0.0], [1.0]])
        assert np.allclose(g(1, grid), 0.25, atol=0.03)
        assert np.allclose(g(0, grid), 0.25, atol=0.03)

    def test_clamp(self):
        basis = FittedBasis(1, 1)
        # weights force a tiny raw probability for class (o=1, d=1)
        weights = np.array([[-10.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        g = GModel(basis=basis, weights=weights, clip_eps=0.05)
        assert np.allclose(g(1, np.zeros((1, 1))), 0.05)

    def test_class_absent(self):
        x = np.zeros((4, 1))
        data = OneSampleDataset.from_arrays(
            x, np.ones(4, dtype=np.int8), np.ones(4, dtype=np.int8), np.zeros(4)
        )
        with pytest.raises(ClassAbsent):
            fit_gmodel_mle(data)

    def test_fully_labeled_sample_fits_e(self, d1):
        # with no o=0 row pi is 1, so g(d|x) = e(d|x)
        x, d, y = sample_one(d1, 2000, 8).labeled_arrays()
        data = OneSampleDataset.from_arrays(x, np.ones(len(x)), d, y)
        got = fit_gmodel_mle(data, clip_eps=0.02).arms(x)
        want = fit_e_model(x, d, clip_eps=0.02).arms(x)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_peak_memory(self):
        # phi is 1.5 MiB at 50k rows and degree 1, and each (n, 3) array of
        # class probabilities 1.1 MiB: the peak, 4.8 MiB, is the Hessian's weighted
        # copy of phi beside them; one more (n,) array kept through the fit (0.4 MiB)
        # would pass 5 MiB
        data = sample_one(gaussian_k3(), 50_000, 9)
        assert traced_peak(lambda: fit_gmodel_mle(data)) < 5


class TestRieszLoss:
    def test_hand_example_lsif(self):
        x = np.array([[0.0]])
        data = OneSampleDataset.from_arrays(x, [1], [1], [0.0])
        basis = FittedBasis(1, x.shape[1])
        model = RieszModel(generator=LSIF, basis=basis,
                           theta1=np.array([4.0, 0.0]), theta0=np.array([-4.0, 0.0]))
        # -2 * (4 - (-4)) + 16 = 0
        assert abs(riesz_loss(model, data)) < 1e-12

    def test_zero_model(self, d1):
        data = sample_one(d1, 100, 7)
        basis = FittedBasis(1, data.k)
        model = RieszModel(generator=LSIF, basis=basis,
                           theta1=np.zeros(2), theta0=np.zeros(2))
        assert riesz_loss(model, data) == 0.0

    def test_moment_term_uses_unlabeled_rows(self):
        # same labeled rows, extra unlabeled row changes the loss through
        # the all-row representer-moment average
        x = np.array([[0.0], [0.0]])
        lab = OneSampleDataset.from_arrays(x[:1], [1], [1], [0.0])
        both = OneSampleDataset.from_arrays(x, [1, 0], [1, 0], [0.0, 0.0])
        basis = FittedBasis(1, x.shape[1])
        model = RieszModel(generator=LSIF, basis=basis,
                           theta1=np.array([3.0, 0.0]), theta0=np.array([0.0, 0.0]))
        loss_lab = riesz_loss(model, lab)     # (-6 + 9) / 1
        loss_both = riesz_loss(model, both)   # (-12 + 9) / 2
        assert abs(loss_lab - 3.0) < 1e-12
        assert abs(loss_both - (-1.5)) < 1e-12

    @pytest.mark.parametrize("gen", [LSIF, UKL])
    def test_gradient_matches_finite_differences(self, gen, d1):
        data = sample_one(d1, 300, 8)
        basis = FittedBasis(1, data.k)
        rng = np.random.default_rng(9)
        residuals = rng.uniform(0.5, 2.0, size=data.n_labeled)
        for weighted in (False, True):
            res = residuals if weighted else None
            for _ in range(5):
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
                    mp = RieszModel(generator=gen, basis=basis, theta1=tp[:2], theta0=tp[2:])
                    mm = RieszModel(generator=gen, basis=basis, theta1=tm[:2], theta0=tm[2:])
                    fd[j] = (riesz_loss(mp, data, res) - riesz_loss(mm, data, res)) / (2 * h)
                denom = max(np.linalg.norm(fd), 1e-8)
                assert np.linalg.norm(grad - fd) / denom <= 1e-5


class TestFitRiesz:
    @pytest.mark.parametrize("gen", [LSIF, UKL])
    def test_reference_dgp_targets(self, gen, d1):
        data = sample_one(d1, 20000, 10)
        model = fit_riesz(data, gen=gen)
        grid = np.array([[0.0], [1.0]])
        assert np.allclose(model.a1(grid), 4.0, atol=0.15)
        assert np.allclose(model.a0(grid), -4.0, atol=0.15)
        if gen is UKL:
            assert np.all(model.a1(grid) > 1.0) and np.all(model.a0(grid) < -1.0)

    def test_no_unlabeled_rows_degenerate(self, d1):
        data = sample_one(d1, 400, 11)
        lab_mask = data.labeled_mask
        lab_only = OneSampleDataset.from_arrays(
            data.x[lab_mask], data.o[lab_mask], data.d[lab_mask], data.y[lab_mask]
        )
        model = fit_riesz(lab_only, gen=LSIF)
        # the moment term averages over all rows, which here are all labeled
        assert lab_only.n_unlabeled == 0
        assert model.converged

    def test_unit_weights_match_unweighted(self, d1):
        data = sample_one(d1, 1000, 12)
        unweighted = fit_riesz(data, gen=LSIF)
        weighted = fit_riesz(data, gen=LSIF, residuals=np.ones(data.n_labeled))
        assert np.array_equal(unweighted.theta1, weighted.theta1)
        assert np.array_equal(unweighted.theta0, weighted.theta0)

    def test_constant_weight_same_argmin(self, d1):
        data = sample_one(d1, 1000, 13)
        a = fit_riesz(data, gen=LSIF, residuals=np.ones(data.n_labeled))
        b = fit_riesz(data, gen=LSIF, residuals=2.0 * np.ones(data.n_labeled))
        assert np.allclose(a.theta1, b.theta1, atol=1e-5)
        assert np.allclose(a.theta0, b.theta0, atol=1e-5)

    def test_heteroskedastic_weights_near_targets(self, d1):
        data = sample_one(d1, 20000, 14)
        rng = np.random.default_rng(15)
        residuals = rng.uniform(0.5, 1.5, size=data.n_labeled)
        model = fit_riesz(data, gen=LSIF, residuals=residuals)
        grid = np.array([[0.0], [1.0]])
        assert np.allclose(model.a1(grid), 4.0, atol=0.2)
        assert np.allclose(model.a0(grid), -4.0, atol=0.2)


    @pytest.mark.parametrize("weighted", [False, True])
    def test_lsif_fit_is_stationary(self, weighted, d1):
        data = sample_one(d1, 1000, 25)
        rng = np.random.default_rng(26)
        res = rng.uniform(0.5, 1.5, size=data.n_labeled) if weighted else None
        model = fit_riesz(data, gen=LSIF, residuals=res)
        g1, g0 = riesz_loss_grad(model, data, res)
        assert np.linalg.norm(np.concatenate([g1, g0])) <= 1e-10
        assert model.converged

    def test_ukl_fit_converged_flag_is_honest(self, d1):
        data = sample_one(d1, 400, 3)
        opt = OptimizerConfig()
        model = fit_riesz(data, gen=UKL)
        g1, g0 = riesz_loss_grad(model, data)
        assert model.converged
        assert np.linalg.norm(np.concatenate([g1, g0])) <= opt.tol
        refit = fit_riesz(data, gen=UKL)
        assert np.array_equal(model.theta1, refit.theta1)
        assert np.array_equal(model.theta0, refit.theta0)

    @pytest.mark.parametrize("gen", [LSIF, UKL])
    def test_collinear_basis_gives_same_representer(self, gen, d1):
        # x is binary, so x**2 == x: the degree-2 Gram matrices are singular
        # but the moment lies in their range and a1, a0 stay unique
        data = sample_one(d1, 400, 28)
        linear = fit_riesz(data, gen=gen)
        quadratic = fit_riesz(data, gen=gen, degree=2)
        assert quadratic.converged
        assert np.allclose(quadratic.a1(data.x), linear.a1(data.x), rtol=0, atol=1e-9)
        assert np.allclose(quadratic.a0(data.x), linear.a0(data.x), rtol=0, atol=1e-9)
        # the minimum-norm minimizer splits the weight evenly over x and x**2
        assert quadratic.theta1[1] == pytest.approx(quadratic.theta1[2], abs=1e-9)

    @pytest.mark.parametrize("gen", [LSIF, UKL])
    def test_arm_on_one_x_is_singular(self, gen):
        # every labeled treated row sits at x = 0.5, so that arm's Gram
        # matrix under the intercept + x basis has rank 1
        x = np.array([[0.5], [0.5], [0.5], [0.0], [1.0], [2.0], [1.5]])
        o = [1, 1, 1, 1, 1, 1, 0]
        d = [1, 1, 1, 0, 0, 0, 0]
        data = OneSampleDataset.from_arrays(x, o, d, np.zeros(7))
        with pytest.raises(SingularSystem):
            fit_riesz(data, gen=gen)

    @pytest.mark.parametrize("gen", [LSIF, UKL])
    def test_nonfinite_gram_matrix_raises(self, gen, d1):
        # covariates near 1e200 overflow the weighted Gram matrix to inf/NaN
        data = sample_one(d1, 400, 1)
        big = OneSampleDataset.from_arrays(data.x * 1e200, data.o, data.d, data.y)
        with np.errstate(all="ignore"), pytest.raises(NonfiniteValue, match="Gram matrix"):
            fit_riesz(big, gen=gen)


def test_unknown_generator_tag_rejected():
    with pytest.raises(ValueError, match="unknown generator"):
        BregmanGenerator("foo")


class TestMinimizeGd:
    def test_iteration_cap_is_not_convergence(self):
        # condition number 1e3: after 1,000 steps the gradient norm is
        # still ~0.4; the large constant checks that the size of the loss
        # does not loosen the gradient test
        scales = np.array([1.0, 1e3])

        def fun_grad(x):
            return 1e6 + 0.5 * float(np.sum(scales * x * x)), scales * x

        opt = OptimizerConfig(max_iter=1000)
        res = minimize_gd(fun_grad, np.ones(2), opt)
        assert res.n_iter == opt.max_iter
        assert res.grad_norm > opt.tol
        assert not res.converged

class TestMinimizeNewton:
    def test_roundoff_does_not_stall(self):
        # on this arm the last Newton step's predicted decrease is below
        # the loss's round-off while the gradient norm is ~1e-8
        data = random_one_sample(np.random.default_rng(35), n=300)
        fun_grad_hess = _riesz_arm_objectives(data, UKL, FittedBasis(1, data.k))[1]
        res = minimize_newton(fun_grad_hess, np.zeros(2))
        assert res.converged
        assert res.n_iter < 20

    def test_hessian_built_only_for_a_direction(self, d2, monkeypatch):
        # a logistic propensity fit whose full Newton steps are all accepted:
        # one Hessian per iteration, none at the converged point
        runs = []

        def counting(objective, x0, config=OptimizerConfig()):
            counts = {"fun": 0, "hess": 0}

            def counted(x):
                counts["fun"] += 1
                loss, grad, hess = objective(x)

                def built():
                    counts["hess"] += 1
                    return hess()

                return loss, grad, built

            res = minimize_newton(counted, x0, config)
            runs.append((res, counts))
            return res

        monkeypatch.setattr(nuisance, "minimize_newton", counting)
        ts = sample_two(d2, 2000, 10, 36)
        fit_e_model(ts.x, ts.d)
        (res, counts), = runs
        assert res.converged and res.n_iter > 1
        assert counts["fun"] == res.n_iter + 1  # no rejected line-search trial
        assert counts["hess"] == res.n_iter


class TestTmle:
    def test_constant_representer_on_treated(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(50, 1))
        d = np.array([1] * 25 + [0] * 25)
        y = rng.normal(size=50) + 2.0 * d
        mu = zero_outcome_model(x)
        basis = mu.basis
        alpha = RieszModel(generator=LSIF, basis=basis,
                           theta1=np.array([1.0, 0.0]), theta0=np.zeros(2))
        out = tmle_fluctuate(mu, alpha, x, d, y)
        r_bar = float(np.mean(y[d == 1]))
        assert np.allclose(out(1, x) - mu(1, x), r_bar)
        av = np.where(d == 1, alpha.a1(x), alpha.a0(x))
        assert abs(np.sum(av * (y - out.predict_rows(d, x)))) <= 1e-8 * len(y)

    def test_orthogonal_residuals_fixed_point(self):
        x = np.array([[0.0], [0.0]])
        d = np.array([1, 1])
        y = np.array([1.0, -1.0])  # residuals sum to zero against constant alpha
        mu = zero_outcome_model(x)
        alpha = RieszModel(generator=LSIF, basis=mu.basis,
                           theta1=np.array([1.0, 0.0]), theta0=np.zeros(2))
        out = tmle_fluctuate(mu, alpha, x, d, y)
        assert out.fluctuations[-1][1] == 0.0
        assert np.array_equal(out(1, x), mu(1, x))

    def test_zero_denominator(self):
        x = np.array([[0.0]])
        mu = zero_outcome_model(x)
        alpha = RieszModel(generator=LSIF, basis=mu.basis,
                           theta1=np.zeros(2), theta0=np.zeros(2))
        with pytest.raises(ZeroDenominator):
            tmle_fluctuate(mu, alpha, x, np.array([1]), np.array([1.0]))

    def test_score_identity_true_alpha(self, d1):
        data = sample_one(d1, 2000, 17)
        xl, dl, yl = data.labeled_arrays()
        mu = zero_outcome_model(xl)
        # representer at the population truth +/- 4
        alpha = RieszModel(generator=LSIF, basis=mu.basis,
                           theta1=np.array([4.0, 0.0]), theta0=np.array([-4.0, 0.0]))
        out = tmle_fluctuate(mu, alpha, xl, dl, yl)
        av = np.where(dl == 1, alpha.a1(xl), alpha.a0(xl))
        assert abs(np.sum(av * (yl - out.predict_rows(dl, xl)))) <= 1e-8 * data.n


class TestDdml:
    def test_single_step_composition(self, d1):
        data = sample_one(d1, 800, 18)
        mu, alpha, trace = ddml_iterate(data, n_steps=1)
        xl, dl, yl = data.labeled_arrays()
        mu0 = fit_outcome_both(xl, dl, yl)
        res = yl - mu0.predict_rows(dl, xl)
        alpha_direct = fit_riesz(data, gen=LSIF, residuals=res)
        mu_direct = tmle_fluctuate(mu0, alpha_direct, xl, dl, yl)
        assert np.array_equal(alpha.theta1, alpha_direct.theta1)
        assert mu.fluctuations[-1][1] == mu_direct.fluctuations[-1][1]

    def test_score_identity_every_step(self, d1):
        data = sample_one(d1, 600, 19)
        mu, alpha, trace = ddml_iterate(data, n_steps=3)
        assert len(trace) == 3
        assert all(t <= 1e-8 for t in trace)

    def test_plugin_estimate_near_truth(self, d1):
        data = sample_one(d1, 20000, 20)
        mu, alpha, _ = ddml_iterate(data, n_steps=3)
        av = alpha.alpha(data.o, data.d, data.x)
        res = np.where(data.o == 1, data.y - mu.predict_rows(data.d, data.x), 0.0)
        tau = np.mean(av * res + mu(1, data.x) - mu(0, data.x))
        assert abs(tau - 0.5) < 0.1


class TestEModel:
    def test_intercept_only_fraction(self):
        x = np.zeros((10, 1))
        d = np.array([1] * 4 + [0] * 6)
        m = fit_e_model(x, d)
        assert np.allclose(m(1, x[:1]), 0.4, atol=1e-6)

    def test_reference_dgp(self, d2):
        ts = sample_two(d2, 20000, 10, 21)
        m = fit_e_model(ts.x, ts.d)
        grid = np.array([[0.0], [1.0]])
        assert np.allclose(m(1, grid), 0.5, atol=0.03)

    def test_all_treated(self):
        with pytest.raises(ClassAbsent):
            fit_e_model(np.zeros((5, 1)), np.ones(5))


class TestDensityRatio:
    def test_same_distribution_near_one(self):
        rng = np.random.default_rng(22)
        xa = rng.normal(size=(10000, 1))
        xb = rng.normal(size=(10000, 1))
        m = fit_density_ratio(xa, xb)
        grid = np.array([[-1.0], [0.0], [1.0]])
        assert np.allclose(m(grid), 1.0, atol=0.1)

    def test_trivial_classifier_exact_one(self):
        from ssate.nuisance import DensityRatioModel

        basis = FittedBasis(1, 1)
        m = DensityRatioModel(basis=basis, weights=np.zeros(2),
                              prior_correction=1.0, clip=(0.01, 100.0))
        assert np.allclose(m(np.array([[5.0]])), 1.0)

    def test_clip(self):
        from ssate.nuisance import DensityRatioModel

        basis = FittedBasis(1, 1)
        m = DensityRatioModel(basis=basis, weights=np.array([0.0, 10.0]),
                              prior_correction=1.0, clip=(0.5, 2.0))
        vals = m(np.array([[-5.0], [5.0]]))
        assert vals[0] == 0.5 and vals[1] == 2.0


class TestAssembleVBeta:
    def test_ratio_one_reduces_to_e(self):
        e = lambda d, x: np.full(len(np.atleast_2d(x)), 0.7 if d == 1 else 0.3)
        r = lambda x: np.ones(len(np.atleast_2d(x)))
        for beta in (0.0, 0.3, 1.0):
            v = assemble_v_beta(e, r, beta)
            assert np.allclose(v(1, np.zeros((3, 1))), 0.7)

    def test_beta_one_reduces_to_e(self):
        e = lambda d, x: np.full(len(np.atleast_2d(x)), 0.6)
        r = lambda x: np.full(len(np.atleast_2d(x)), 3.7)
        v = assemble_v_beta(e, r, 1.0)
        assert np.allclose(v(1, np.zeros((2, 1))), 0.6)

    def test_beta_zero_covariate_shift(self):
        e = lambda d, x: np.full(len(np.atleast_2d(x)), 0.6)
        r = lambda x: np.full(len(np.atleast_2d(x)), 2.0)
        v = assemble_v_beta(e, r, 0.0)
        assert np.allclose(v(1, np.zeros((2, 1))), 1.2)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def continuous():
    """k=2 continuous covariates, so every row has its own features."""
    rng = np.random.default_rng(41)
    n = 300
    x = rng.normal(size=(n, 2))
    o = (rng.random(n) < 0.7).astype(np.int8)
    d = np.where(o == 1, rng.random(n) < 0.5, 0).astype(np.int8)
    y = np.where(o == 1, x[:, 0] + d * (1.0 + x[:, 1]) + rng.normal(size=n), 0.0)
    return OneSampleDataset.from_arrays(x, o, d, y)


def count_transforms(monkeypatch):
    calls = []
    transform = nuisance.FittedBasis.transform

    def counted(self, x):
        calls.append(len(x))
        return transform(self, x)

    monkeypatch.setattr(nuisance.FittedBasis, "transform", counted)
    return calls


class TestArms:
    """``arms(f, x)`` is ``(f(1, x), f(0, x))`` to the bit, from one transform."""

    def models(self, data):
        xl, dl, yl = data.labeled_arrays()
        mu = fit_outcome_both(xl, dl, yl, degree=2)
        fluctuated = mu
        for gen in (LSIF, UKL):
            fluctuated = tmle_fluctuate(fluctuated, fit_riesz(data, gen=gen), xl, dl, yl)
        e = fit_e_model(xl, dl)
        r = fit_density_ratio(xl, data.x[data.o == 0])
        plain_e = lambda d, x: np.full(len(x), 0.3 if d == 1 else 0.7)
        plain_r = lambda x: 1.0 + x[:, 0] ** 2
        return {
            "mu": (mu, 1), "mu-fluctuated": (fluctuated, 3),
            "g": (fit_gmodel_mle(data), 1), "e": (e, 1),
            "v-fitted": (assemble_v_beta(e, r, 0.3), 2),
            "v-plain-e": (assemble_v_beta(plain_e, r, 0.3), 1),
            "v-plain-r": (assemble_v_beta(e, plain_r, 0.3), 1),
            "v-plain": (assemble_v_beta(plain_e, plain_r, 0.3), 0),
        }

    def test_fitted_kinds_match_two_calls(self, continuous, monkeypatch):
        x = continuous.x
        for name, (model, transforms) in self.models(continuous).items():
            one, zero = model(1, x), model(0, x)
            calls = count_transforms(monkeypatch)
            pair = nuisance.arms(model, x)
            monkeypatch.undo()
            assert same_bits(pair[0], one) and same_bits(pair[1], zero), name
            assert len(calls) == transforms, name

    def test_predict_rows_is_arm_matched(self, continuous):
        mu = self.models(continuous)["mu-fluctuated"][0]
        x, d = continuous.x, continuous.d
        assert same_bits(mu.predict_rows(d, x), np.where(d == 1, mu(1, x), mu(0, x)))

    def test_plain_callable(self):
        f = lambda d, x: np.full(len(x), float(d) + 0.5)
        one, zero = nuisance.arms(f, np.zeros((3, 1)))
        assert np.array_equal(one, [1.5] * 3) and np.array_equal(zero, [0.5] * 3)

    @pytest.mark.parametrize("gen", [LSIF, UKL], ids=["LSIF", "UKL"])
    def test_riesz_pair(self, continuous, gen):
        model = fit_riesz(continuous, gen=gen, degree=2)
        a1, a0 = model.a1_a0(continuous.x)
        assert same_bits(a1, model.a1(continuous.x))
        assert same_bits(a0, model.a0(continuous.x))

    def test_riesz_model_has_no_arms(self, continuous):
        model = fit_riesz(continuous)
        with pytest.raises(TypeError):
            nuisance.arms(model, continuous.x)

    def test_unfitted_arm_raises(self):
        x = np.array([[0.0], [1.0], [2.0]])
        mu = fit_outcome_both(x, np.ones(3, dtype=int), np.array([0.0, 1.0, 2.0]), ridge_lambda=0.0)
        assert np.allclose(mu(1, x), [0.0, 1.0, 2.0])  # the fitted arm still evaluates
        with pytest.raises(InsufficientArmData):
            mu(0, x)
        with pytest.raises(InsufficientArmData):
            nuisance.arms(mu, x)
        with pytest.raises(InsufficientArmData):
            mu.predict_rows(np.ones(3, dtype=int), x)


class TestProperties:
    def test_ukl_domain_random_datasets(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            data = random_one_sample(rng)
            model = fit_riesz(data, gen=UKL)
            assert np.all(model.a1(data.x) > 1.0)
            assert np.all(model.a0(data.x) < -1.0)
