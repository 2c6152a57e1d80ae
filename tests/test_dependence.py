"""Pseudo-observations and the nonparametric dependence samplers."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from mtsgen import (ArmaGarchParams, EmpiricalBetaCopula, EmpiricalCopula,
                    IndependenceCopula, InputError, PseudoSample, QuantileMaps,
                    pseudo_observations)
from mtsgen.datagen import GaussianCopulaSampler, equicorrelation, simulate_mts


class TestPseudoObservations:
    def test_rank_formula(self):
        ps = pseudo_observations(np.array([3.1, -0.2, 0.7]))
        np.testing.assert_allclose(ps.u[:, 0], [0.75, 0.25, 0.5])

    def test_single_row(self):
        assert pseudo_observations(np.array([7.0])).u[0, 0] == 0.5

    def test_increasing_column(self):
        n = 12
        ps = pseudo_observations(np.arange(n, dtype=float))
        np.testing.assert_allclose(ps.u[:, 0], np.arange(1, n + 1) / (n + 1))

    def test_column_multiset(self):
        y = np.random.default_rng(0).standard_normal((40, 3))
        ps = pseudo_observations(y)
        expected = np.arange(1, 41) / 41.0
        for j in range(3):
            np.testing.assert_allclose(np.sort(ps.u[:, j]), expected)

    def test_u_matches_ranks(self):
        y = np.random.default_rng(1).standard_normal((25, 2))
        ps = pseudo_observations(y)
        np.testing.assert_allclose(ps.u, ps.ranks / 26.0)

    def test_u_keeps_its_bytes(self):
        # u is derived from the ranks on first use: the bytes it had when stored
        ps = pseudo_observations(np.random.default_rng(5).standard_normal((300, 4)))
        assert ps.u.dtype == np.float64 and ps.u is ps.u
        assert hashlib.sha256(ps.u.tobytes()).hexdigest() == (
            "87739ce3800d8e0f4535fdd86ab19fbefe75b3c036e9fa51497f3bac2015341f")

    def test_ties_stable(self):
        ps = pseudo_observations(np.array([1.0, 1.0, 0.0]))
        # first occurrence gets the lower rank
        np.testing.assert_array_equal(ps.ranks[:, 0], [2, 3, 1])

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            pseudo_observations(np.array([1.0, np.inf]))

    @pytest.mark.parametrize("y", [np.empty(0), np.empty((0, 3))], ids=["1d", "2d"])
    def test_rejects_no_rows(self, y):
        with pytest.raises(InputError, match="at least one row"):
            pseudo_observations(y)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (17, 2),
                  elements=st.floats(-100, 100, allow_nan=False).map(
                      lambda v: round(v, 3))))
    def test_monotone_transform_invariance(self, y):
        # rounding keeps the transforms injective in floats, so ties in y
        # stay ties and distinct values stay distinct
        base = pseudo_observations(y).ranks
        np.testing.assert_array_equal(
            pseudo_observations(np.exp(y / 50.0)).ranks, base)
        np.testing.assert_array_equal(
            pseudo_observations(3.0 * y + 1.0).ranks, base)


class TestEmpiricalCopula:
    def test_rows_are_input_rows(self):
        ps = pseudo_observations(np.random.default_rng(2).standard_normal((30, 3)))
        cop = EmpiricalCopula(ps)
        out = cop.sample(200, np.random.default_rng(3))
        rows = {tuple(r) for r in ps.u}
        assert all(tuple(r) in rows for r in out)

    def test_single_row_input(self):
        ps = pseudo_observations(np.array([[0.3, 0.4]]))
        out = EmpiricalCopula(ps).sample(5, np.random.default_rng(0))
        assert np.all(out == ps.u[0])

    def test_selection_frequencies_uniform(self):
        n = 10
        ps = pseudo_observations(np.arange(n, dtype=float)[:, None])
        out = EmpiricalCopula(ps).sample(10**5, np.random.default_rng(4))
        counts = np.array([(out[:, 0] == u).sum() for u in ps.u[:, 0]])
        # 3 sigma binomial band around 10^4
        sigma = np.sqrt(10**5 * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - 10**4) < 3 * sigma)


class TestEmpiricalBetaCopula:
    def test_single_observation_is_uniform(self):
        cop = EmpiricalBetaCopula(PseudoSample(np.array([[1]])))
        out = cop.sample(10**4, np.random.default_rng(5))
        assert stats.kstest(out[:, 0], "uniform").pvalue > 0.01

    def test_margins_uniform(self):
        y = np.random.default_rng(6).standard_normal((50, 2))
        ps = pseudo_observations(y)
        cop = EmpiricalBetaCopula(ps)
        out = cop.sample(10**4, np.random.default_rng(7))
        for j in range(2):
            assert stats.kstest(out[:, j], "uniform").pvalue > 0.01

    def test_component_means(self):
        y = np.random.default_rng(8).standard_normal((20, 2))
        ps = pseudo_observations(y)
        cop = EmpiricalBetaCopula(ps)
        out = cop.sample(10**4, np.random.default_rng(9))
        target = ps.ranks.mean(axis=0) / (ps.n + 1)
        # se of the mean of a mixture of betas, bounded by uniform variance
        se = np.sqrt(1 / 12 / 10**4)
        assert np.all(np.abs(out.mean(axis=0) - target) < 3 * se)

    def test_bad_ranks_rejected(self):
        with pytest.raises(InputError):
            EmpiricalBetaCopula(PseudoSample(np.array([[0], [1], [2]])))
        with pytest.raises(InputError):
            EmpiricalBetaCopula(PseudoSample(np.array([[1], [2], [4]])))


class TestIndependenceCopula:
    def test_entries_strictly_interior(self):
        out = IndependenceCopula(3).sample(10**4, np.random.default_rng(10))
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_columns_uncorrelated(self):
        out = IndependenceCopula(4).sample(10**4, np.random.default_rng(11))
        c = np.corrcoef(out, rowvar=False)
        off = c[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off) < 4 / np.sqrt(10**4))

    def test_deterministic(self):
        a = IndependenceCopula(2).sample(50, np.random.default_rng(12))
        b = IndependenceCopula(2).sample(50, np.random.default_rng(12))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("d", [2.7, 2.0, True, "2", None, 0, -1])
    def test_dimension_is_a_count(self, d):
        with pytest.raises(InputError, match="must be an integer of at least 1"):
            IndependenceCopula(d)

    def test_numpy_integer_dimension(self):
        assert IndependenceCopula(np.int64(3)).d == 3


@pytest.mark.parametrize("make", [
    lambda ps: EmpiricalCopula(ps),
    lambda ps: EmpiricalBetaCopula(ps),
    lambda ps: IndependenceCopula(ps.d),
])
def test_common_contract(make):
    ps = pseudo_observations(np.random.default_rng(13).standard_normal((30, 3)))
    out = make(ps).sample(64, np.random.default_rng(14))
    assert out.shape == (64, 3)
    assert np.all((out > 0.0) & (out < 1.0))
    qmaps = QuantileMaps.scaled_t([5.0, 6.0, 7.0])
    dep = make(ps)
    assert np.array_equal(dep.from_noise([dep.noise(64, np.random.default_rng(14))], qmaps)[0],
                          qmaps(out))


class TestGaussianCopulaSampler:
    @pytest.mark.parametrize("corr", [np.eye(3)[:2], np.ones(3)], ids=["2x3", "1d"])
    def test_corr_must_be_square(self, corr):
        with pytest.raises(InputError, match="square matrix"):
            GaussianCopulaSampler(corr)

    def test_simulate_needs_one_copula_dimension_per_margin(self):
        params = ArmaGarchParams(mu=0.0, phi=[0.2], gamma=[0.0], omega=0.05, alpha=[0.1],
                                 beta=[0.85], nu=6.0)
        with pytest.raises(InputError, match="copula dimension"):
            simulate_mts([params] * 2, GaussianCopulaSampler(equicorrelation(3, 0.5)), 10,
                          np.random.default_rng(0))

    def test_sample_is_the_cdf_of_correlated_normals(self):
        cop = GaussianCopulaSampler(equicorrelation(3, 0.4))
        z = np.random.default_rng(15).standard_normal((50, 3))
        want = stats.norm.cdf(z @ np.linalg.cholesky(equicorrelation(3, 0.4)).T)
        assert np.array_equal(cop.sample(50, np.random.default_rng(15)), want)

    def test_normal_cdf_is_scipy_stats_bit_for_bit(self):
        # identity correlation: the noise passes the matrix product unchanged
        cop = GaussianCopulaSampler(np.eye(2))
        z = np.concatenate([stats.norm.ppf(np.linspace(0.001, 0.999, 999)),
                            [0.0, -0.0, 1e-300, -8.0, 8.0, -40.0, 40.0]])
        noise = np.stack([z, -z], axis=1)
        got, want = cop.from_noise([noise])[0], stats.norm.cdf(noise)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_each_noise_maps_as_its_own_sample(self):
        cop = GaussianCopulaSampler(equicorrelation(2, -0.3))
        qmaps = QuantileMaps.scaled_t([5.0, 6.0])
        noises = [cop.noise(n, np.random.default_rng(n)) for n in (7, 40)]
        for n, y in zip((7, 40), cop.from_noise(noises, qmaps)):
            assert np.array_equal(y, qmaps(cop.sample(n, np.random.default_rng(n))))


class TestEquicorrelation:
    @pytest.mark.parametrize("rho", [-5.0, 0.0, 0.95])
    def test_one_dimension(self, rho):
        assert np.array_equal(equicorrelation(1, rho), [[1.0]])

    @pytest.mark.parametrize("d, rho", [(0, 0.5), (1, 1.0), (1, float("nan"))])
    def test_invalid_rejected(self, d, rho):
        with pytest.raises(InputError):
            equicorrelation(d, rho)
