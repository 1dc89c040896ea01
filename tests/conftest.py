import numpy as np
import pytest

from ssate import dgp_d1, dgp_d2, sample_one, sample_two


@pytest.fixture(scope="session")
def d1():
    return dgp_d1()


@pytest.fixture(scope="session")
def d2():
    return dgp_d2()


@pytest.fixture(scope="session")
def d1_sample_4k(d1):
    return sample_one(d1, 4000, 1)


@pytest.fixture(scope="session")
def d2_sample_2k(d2):
    return sample_two(d2, 2000, 2000, 1)


def random_one_sample(rng, n=120, k=1):
    """Small random one-sample dataset with both labeled arms present."""
    from ssate import OneSampleDataset

    while True:
        x = rng.integers(0, 2, size=(n, k)).astype(float)
        o = (rng.random(n) < 0.6).astype(np.int8)
        d = (rng.random(n) < 0.5).astype(np.int8)
        y = rng.normal(size=n) + x[:, 0] * d
        d = np.where(o == 1, d, 0).astype(np.int8)
        y = np.where(o == 1, y, 0.0)
        lab = o == 1
        if np.sum(lab & (d == 1)) >= 3 and np.sum(lab & (d == 0)) >= 3:
            return OneSampleDataset.from_arrays(x, o, d, y)


def random_two_sample(rng, m=80, l=60, k=1):
    from ssate import TwoSampleDataset

    while True:
        x = rng.normal(size=(m, k))
        d = (rng.random(m) < 0.5).astype(np.int8)
        y = rng.normal(size=m) + x[:, 0] * d
        z = rng.normal(size=(l, k)) * 1.2 + 0.3
        if np.sum(d == 1) >= 3 and np.sum(d == 0) >= 3:
            return TwoSampleDataset.from_arrays(x, d, y, z)


def gaussian_k3():
    """k=3 Gaussian-linear process with both a labeling law and a q0, near the
    benchmark's; its 64^3 quadrature nodes make the oracle's largest arrays."""
    from ssate import GaussianLinearDgp

    return GaussianLinearDgp(
        p_mean=[0.02, -0.03, 0.01], p_var=[1.04, 0.97, 1.01],
        mu1_coef=[1.0, 0.5, -0.3, 0.2], mu0_coef=[0.0, 0.2, 0.1, -0.1],
        s2_1=1.03, s2_0=0.98,
        e_coef=[0.0, 0.3, -0.2, 0.1], pi_coef=[0.4, 0.2, 0.1, -0.1],
        q_mean=[0.12, -0.01, -0.09], q_var=[1.1, 0.95, 0.93],
    )
