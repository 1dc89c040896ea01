import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ssate import (
    LSIF,
    UKL,
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
    sample_one,
    true_ate,
)
from ssate.cli import main
from ssate.errors import BadAlpha, DimMismatch, DomainViolation, GridExcludesMinimum
from ssate.estimators import score_os_vec
from ssate.oracle import dgp_from_dict, dgp_to_dict, oracle_bounds

from conftest import gaussian_k3, traced_peak


def random_discrete_dgp(rng, two_sample=False):
    s = rng.integers(2, 5)
    masses = rng.uniform(0.2, 1.0, size=s)
    masses /= masses.sum()
    q = None
    if two_sample:
        q = rng.uniform(0.2, 1.0, size=s)
        q /= q.sum()
    return DiscreteXDgp(
        xs=np.arange(s, dtype=float)[:, None],
        p=masses,
        pi1=rng.uniform(0.2, 0.8, size=s),
        e1=rng.uniform(0.2, 0.8, size=s),
        mu1=rng.uniform(-2, 2, size=s),
        mu0=rng.uniform(-2, 2, size=s),
        s2_1=rng.uniform(0.5, 2.0, size=s),
        s2_0=rng.uniform(0.5, 2.0, size=s),
        q=q,
    )


class TestReferenceValues:
    def test_closed_forms_exact(self, d1, d2):
        assert abs(true_ate(d1) - 0.5) <= 1e-12
        assert abs(bound_v_os(d1) - 8.25) <= 1e-12
        assert abs(bound_v_tilde_os(d1) - 8.0) <= 1e-12
        assert abs(bound_v_ipw(d1) - 10.0) <= 1e-12
        assert abs(bound_v_hahn(d1) - 4.25) <= 1e-12
        assert abs(bound_v_ts(d2, 0.5, 0.5) - 8.25) <= 1e-12
        assert abs(bound_v_tilde_ts(d2, 0.5) - 4.0) <= 1e-12

    def test_equal_arms_zero_ate(self, d1):
        from dataclasses import replace

        flat = replace(d1, mu1=d1.mu0)
        assert true_ate(flat) == 0.0

    def test_two_sample_ate_mixture(self, d2):
        for beta in (0.0, 0.3, 1.0):
            assert abs(true_ate(d2, beta) - 0.5) <= 1e-12


class TestBoundStructure:
    def test_degenerate_bound_zero(self):
        dgp = DiscreteXDgp(
            xs=np.array([[0.0], [1.0]]), p=[0.5, 0.5],
            pi1=[0.5, 0.5], e1=[0.5, 0.5],
            mu1=[1.0, 1.0], mu0=[0.0, 0.0],
            s2_1=[1e-12, 1e-12], s2_0=[1e-12, 1e-12],
        )
        assert bound_v_os(dgp) < 1e-10

    def test_doubling_sigma2_doubles_weighted_terms(self, d1):
        from dataclasses import replace

        doubled = replace(d1, s2_1=2 * d1.s2_1, s2_0=2 * d1.s2_0)
        het = bound_v_os(d1) - bound_v_tilde_os(d1)
        assert abs(bound_v_tilde_os(doubled) - 2 * bound_v_tilde_os(d1)) <= 1e-12
        assert abs((bound_v_os(doubled) - het) - 2 * bound_v_tilde_os(d1)) <= 1e-12

    def test_ipw_vs_os_inequality_random_specs(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            dgp = random_discrete_dgp(rng)
            assert bound_v_ipw(dgp) >= bound_v_os(dgp) - 1e-12

    def test_ipw_equality_when_mu_zero(self):
        rng = np.random.default_rng(31)
        from dataclasses import replace

        for _ in range(20):
            dgp = random_discrete_dgp(rng)
            flat = replace(dgp, mu1=np.zeros_like(dgp.mu1), mu0=np.zeros_like(dgp.mu0))
            assert abs(bound_v_ipw(flat) - bound_v_os(flat)) <= 1e-12

    def test_tilde_decomposition_identity(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            dgp = random_discrete_dgp(rng)
            x, w = dgp.nodes_p()
            tau0 = true_ate(dgp)
            het = float(np.sum(w * (dgp.mu(1, x) - dgp.mu(0, x) - tau0) ** 2))
            assert abs(bound_v_os(dgp) - bound_v_tilde_os(dgp) - het) <= 1e-12

    def test_hahn_equals_os_when_fully_observed(self):
        rng = np.random.default_rng(33)
        from dataclasses import replace

        for _ in range(20):
            dgp = random_discrete_dgp(rng)
            full = replace(dgp, pi1=np.full_like(dgp.pi1, 1.0 - 1e-12))
            assert abs(bound_v_hahn(full) - bound_v_os(full)) <= 1e-6

    def test_ts_decomposition(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            dgp = random_discrete_dgp(rng, two_sample=True)
            beta, alpha = rng.uniform(0.05, 0.95, size=2)
            tau0 = true_ate(dgp, beta)
            xp, wp = dgp.nodes_p()
            xq, wq = dgp.nodes_q()
            het_p = float(np.sum(wp * (dgp.mu(1, xp) - dgp.mu(0, xp) - tau0) ** 2))
            het_q = float(np.sum(wq * (dgp.mu(1, xq) - dgp.mu(0, xq) - tau0) ** 2))
            expect = (bound_v_tilde_ts(dgp, beta) / alpha
                      + beta**2 / alpha * het_p
                      + (1 - beta) ** 2 / (1 - alpha) * het_q)
            assert abs(bound_v_ts(dgp, beta, alpha) - expect) <= 1e-12

    def test_bad_alpha(self, d2):
        with pytest.raises(BadAlpha):
            bound_v_ts(d2, 0.5, 1.5)

    def test_common_support_validation(self):
        with pytest.raises(DomainViolation):
            DiscreteXDgp(
                xs=np.array([[0.0]]), p=[1.0], pi1=[0.5], e1=[0.0],
                mu1=[0.0], mu0=[0.0], s2_1=[1.0], s2_0=[1.0],
            )


class TestBetaStar:
    def test_equal_laws_returns_alpha(self, d2):
        for alpha in np.arange(0.1, 0.95, 0.1):
            bs = beta_star(d2, float(alpha), grid_step=0.01)
            assert abs(bs - alpha) <= 0.011

    def test_grid_tie_toward_smaller(self):
        # constant treatment effect: heterogeneity terms vanish; with
        # p = q the first term is beta-free, so 0 wins the tie-break
        dgp = DiscreteXDgp(
            xs=np.array([[0.0], [1.0]]), p=[0.5, 0.5],
            pi1=[0.5, 0.5], e1=[0.5, 0.5],
            mu1=[1.0, 1.0], mu0=[0.0, 0.0],
            s2_1=[1.0, 1.0], s2_0=[1.0, 1.0],
            q=[0.5, 0.5],
        )
        assert beta_star(dgp, 0.5, 0.01) == 0.0

    @pytest.mark.parametrize("step", [0.0, -0.01, float("nan")])
    def test_bad_grid_step_rejected(self, d1, d2, step):
        with pytest.raises(ValueError, match="grid_step must be positive"):
            beta_star(d2, 0.5, grid_step=step)
        # checked also where no alpha asks for beta_star
        with pytest.raises(ValueError, match="grid_step must be positive"):
            oracle_bounds(d1, grid_step=step)


class TestBruteForce:
    def test_lsif_reference(self, d1):
        a1, a0 = brute_force_riesz(d1, LSIF)
        assert np.allclose(a1, 4.0, atol=1e-12)
        assert np.allclose(a0, -4.0, atol=1e-12)

    def test_ukl_reference(self, d1):
        a1, a0 = brute_force_riesz(d1, UKL)
        assert np.allclose(a1, 4.0, atol=0.011)
        assert np.allclose(a0, -4.0, atol=0.011)

    def test_grid_excludes_minimum(self, d1):
        with pytest.raises(GridExcludesMinimum):
            brute_force_riesz(d1, LSIF, grid_lo=0.0, grid_hi=2.0)


class TestGaussianFamily:
    def make(self):
        return GaussianLinearDgp(
            p_mean=[0.0], p_var=[1.0],
            mu1_coef=[1.0, 0.8], mu0_coef=[0.2, 0.3],
            s2_1=1.5, s2_0=0.7,
            e_coef=[0.0, 0.0], pi_coef=[0.0, 0.0],
            q_mean=[0.5], q_var=[1.5],
        )

    def test_quadrature_matches_closed_form(self):
        dgp = self.make()
        # constant g = 0.25; heterogeneity variance (0.8 - 0.3)^2
        expect = 1.5 / 0.25 + 0.7 / 0.25 + 0.5**2
        assert abs(bound_v_os(dgp) - expect) <= 1e-10
        assert abs(true_ate(dgp) - 0.8) <= 1e-10

    def test_ts_decomposition_holds(self):
        dgp = self.make()
        alpha, beta = 0.4, 0.3
        tau0 = true_ate(dgp, beta)
        xp, wp = dgp.nodes_p()
        xq, wq = dgp.nodes_q()
        het_p = float(np.sum(wp * (dgp.mu(1, xp) - dgp.mu(0, xp) - tau0) ** 2))
        het_q = float(np.sum(wq * (dgp.mu(1, xq) - dgp.mu(0, xq) - tau0) ** 2))
        expect = (bound_v_tilde_ts(dgp, beta) / alpha
                  + beta**2 / alpha * het_p
                  + (1 - beta) ** 2 / (1 - alpha) * het_q)
        assert abs(bound_v_ts(dgp, beta, alpha) - expect) <= 1e-10

    def test_round_trip(self):
        dgp = self.make()
        back = dgp_from_dict(dgp_to_dict(dgp))
        assert abs(bound_v_os(back) - bound_v_os(dgp)) <= 1e-15

    def test_discrete_round_trip(self, d1):
        back = dgp_from_dict(dgp_to_dict(d1))
        assert abs(bound_v_os(back) - 8.25) <= 1e-12


class TestSpecLengths:
    """Every tabulated or coefficient array must match the covariate layout."""

    @pytest.mark.parametrize("name", ["p", "e1", "mu1", "mu0", "s2_1", "s2_0", "pi1", "q"])
    def test_discrete_array_per_support_point(self, d1, name):
        spec = dgp_to_dict(d1)
        spec[name] = [0.25, 0.25, 0.5]  # three entries for two support points
        with pytest.raises(DimMismatch, match=name):
            dgp_from_dict(spec)

    @pytest.mark.parametrize("name, value", [
        ("p_var", [1.0, 1.0]), ("q_mean", [0.5, 0.5]), ("q_var", [[1.5]]),
        ("mu1_coef", [1.0]), ("mu0_coef", [0.2, 0.3, 0.1]), ("e_coef", [0.0]),
        ("pi_coef", [0.0, 0.0, 0.0]),
    ])
    def test_gaussian_vector_lengths(self, name, value):
        spec = dgp_to_dict(TestGaussianFamily().make())
        spec[name] = value
        with pytest.raises(DimMismatch, match=name):
            dgp_from_dict(spec)

    @pytest.mark.parametrize("change", ["list", "missing", "unknown"])
    def test_malformed_spec_rejected(self, d1, change):
        spec = dgp_to_dict(d1)
        if change == "list":
            spec = list(spec)
        elif change == "missing":
            del spec["mu0"]
        else:
            spec["mu2"] = spec["mu1"]
        with pytest.raises(DomainViolation):
            dgp_from_dict(spec)


NAN = float("nan")
# each would pass a check written ``np.any(v <= 0)``, which NaN passes
BAD_VALUES = [
    ("DiscreteX", {"q": [1.5, -0.5]}, "q masses must be nonnegative and sum to 1"),
    ("DiscreteX", {"e1": [NAN, 0.5]}, "e1 must be finite"),
    ("DiscreteX", {"mu1": [NAN, 1.0]}, "mu1 must be finite"),
    ("DiscreteX", {"s2_0": [1.0, float("inf")]}, "s2_0 must be finite"),
    ("GaussianLinear", {"p_var": [NAN]}, "p_var must be finite"),
    ("GaussianLinear", {"mu0_coef": [0.2, NAN]}, "mu0_coef must be finite"),
    ("GaussianLinear", {"s2_1": NAN}, "conditional variances must be positive and finite"),
    ("GaussianLinear", {"s2_0": float("inf")}, "conditional variances must be positive and finite"),
]


@pytest.mark.parametrize("family, change, message", BAD_VALUES,
                         ids=[f"{family}-{next(iter(change))}" for family, change, _ in BAD_VALUES])
def test_nonfinite_or_negative_spec_rejected(d1, family, change, message):
    base = d1 if family == "DiscreteX" else TestGaussianFamily().make()
    with pytest.raises(DomainViolation, match=re.escape(message)):
        dgp_from_dict({**dgp_to_dict(base), **change})


def test_nonfinite_spec_bounds_exit_2(d1, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**dgp_to_dict(d1), "e1": [NAN, 0.5]}))
    assert main(["bounds", "--dgp", str(path), "--alpha", "0.5"]) == 2
    assert capsys.readouterr().err == "bounds: e1 must be finite, got [nan, 0.5]\n"


def test_repeated_support_point_rejected():
    # a lookup would map the repeated point to one table row, so true_ate
    # would read 1.8 where the tables give 0.3 * 1 + 0.3 * 3 = 1.2
    spec = dict(xs=[[0.0], [0.0], [1.0]], p=[0.3, 0.3, 0.4], e1=[0.5] * 3,
                mu1=[1.0, 3.0, 0.0], mu0=[0.0] * 3, s2_1=[1.0] * 3, s2_0=[1.0] * 3)
    with pytest.raises(DomainViolation, match="distinct"):
        DiscreteXDgp(**spec)
    spec["xs"] = [[0.0], [0.5], [1.0]]
    assert abs(true_ate(DiscreteXDgp(**spec)) - 1.2) <= 1e-12


def test_readme_dgp_specs_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    specs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.S)]
    assert {spec["family"] for spec in specs} == {"DiscreteX", "GaussianLinear"}
    for spec in specs:
        report = oracle_bounds(dgp_from_dict(spec), alpha=0.5)
        assert np.isfinite(report.v_os) and np.isfinite(report.v_tilde_ts)


class TestMonteCarloAgreement:
    def test_score_second_moment_matches_bound(self, d1):
        data = sample_one(d1, 10**6, 40)
        alpha1 = 1.0 / d1.g(1, data.x)
        alpha0 = -1.0 / d1.g(0, data.x)
        s = score_os_vec(data.o, data.d, data.y,
                         d1.mu(1, data.x), d1.mu(0, data.x), alpha1, alpha0)
        second = float(np.mean((s - 0.5) ** 2))
        assert abs(second - 8.25) / 8.25 <= 0.01


class TestLawsCarried:
    """Each family states the laws beyond p0, e0, mu0 and sigma0^2 that it carries,
    and ``oracle_bounds`` reports the bounds those laws allow."""

    def test_discrete(self, d1):
        assert (d1.has_pi, d1.has_q) == (True, True)
        no_pi, no_q = replace(d1, pi1=None), replace(d1, q=None)
        assert (no_pi.has_pi, no_pi.has_q) == (False, True)
        assert (no_q.has_pi, no_q.has_q) == (True, False)
        report = oracle_bounds(no_pi, alpha=0.5)
        assert report.v_os is report.v_tilde_os is report.v_ipw is None
        assert report.v_hahn == bound_v_hahn(d1) and report.beta_star == 0.5
        report = oracle_bounds(no_q, alpha=0.5)
        assert report.v_ts is report.v_tilde_ts is report.beta_star is None
        assert report.v_os == bound_v_os(d1)

    def test_gaussian(self):
        dgp = gaussian_k3()
        assert (dgp.has_pi, dgp.has_q) == (True, True)
        no_laws = replace(dgp, pi_coef=None, q_mean=None, q_var=None)
        assert (no_laws.has_pi, no_laws.has_q) == (False, False)
        report = oracle_bounds(no_laws, alpha=0.5)
        assert report.v_os is report.v_ts is None and report.v_hahn == bound_v_hahn(dgp)


class TestOneGridPerLaw:
    """Each law's quadrature nodes are built once per call, the p nodes' laws summed
    before the q nodes are built, and no settings error waits for a grid."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []

        def counted(dgp, law, build=GaussianLinearDgp._node_blocks):
            calls.append(law)
            return build(dgp, law)
        monkeypatch.setattr(GaussianLinearDgp, "_node_blocks", counted)
        return calls

    def test_oracle_bounds_builds_each_law_once(self, builds):
        report = oracle_bounds(gaussian_k3(), alpha=0.5)
        assert report.v_os is not None and report.beta_star is not None
        assert builds == ["p", "q"]

    @pytest.mark.parametrize("call", [
        lambda dgp: bound_v_ts(dgp, 0.5, 1.5),
        lambda dgp: beta_star(dgp, 0.0),
        lambda dgp: beta_star(dgp, 0.5, grid_step=-0.01),
        lambda dgp: oracle_bounds(dgp, alpha=1.0),
        lambda dgp: oracle_bounds(dgp, grid_step=float("nan")),
    ], ids=["bound_v_ts-alpha", "beta_star-alpha", "beta_star-grid_step",
            "oracle_bounds-alpha", "oracle_bounds-grid_step"])
    def test_settings_checked_before_any_grid(self, builds, call):
        with pytest.raises(ValueError):  # BadAlpha is one
            call(gaussian_k3())
        assert builds == []

    def test_true_ate_peak_memory(self):
        # the laws are evaluated one block of 64^2 nodes at a time, so only the
        # 2 MiB arrays of weights, tau(x) and their product are whole: a 6 MiB
        # array of all the 64^3 points, or a copy of one, would pass 8 MiB
        assert traced_peak(lambda: true_ate(gaussian_k3(), 0.5)) < 8

    def test_oracle_bounds_peak_memory(self):
        # the p pass holds the weights and six laws of 2 MiB each at 64^3 nodes,
        # and one product of them; the points of all nodes (6 MiB) would pass 20 MiB
        assert traced_peak(lambda: oracle_bounds(gaussian_k3(), alpha=0.5)) < 20
