"""Margin model tests: scaled-t distribution, filtering, simulation, fitting."""

import numpy as np
import pytest
from scipy import integrate, stats

from mtsgen import (ArmaGarchParams, InputError, LaggedState,
                    arma_garch_filter, arma_garch_simulate, fit_arma_garch,
                    scaled_t_quantile)
from mtsgen.errors import NumericalError
from mtsgen.margins import scaled_t_cdf, scaled_t_logpdf


def garch_params(**kw):
    defaults = dict(mu=0.0, phi=[0.0], gamma=[0.0], omega=0.1,
                    alpha=[0.2], beta=[0.7], nu=6.0)
    defaults.update(kw)
    return ArmaGarchParams(**defaults)


class TestScaledT:
    def test_median_is_zero(self):
        assert scaled_t_quantile(0.5, 5) == pytest.approx(0.0, abs=1e-12)

    def test_large_nu_approaches_normal(self):
        for p in (0.01, 0.5, 0.99):
            assert scaled_t_quantile(p, 1e6) == pytest.approx(
                stats.norm.ppf(p), abs=1e-3)

    def test_unit_variance(self):
        # low-discrepancy grid in place of random uniforms
        u = (np.arange(10**6) + 0.5) / 10**6
        z = scaled_t_quantile(u, 4.0)
        assert np.var(z) == pytest.approx(1.0, abs=0.01)

    def test_density_integrates_to_one(self):
        val, _ = integrate.quad(lambda z: np.exp(scaled_t_logpdf(z, 4.5)),
                                -50, 50, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_cdf_inverts_quantile(self):
        p = np.array([0.05, 0.3, 0.77])
        assert scaled_t_cdf(scaled_t_quantile(p, 7.0), 7.0) == pytest.approx(p)

    def test_domain_errors(self):
        with pytest.raises(InputError):
            scaled_t_quantile(0.5, 2.0)
        with pytest.raises(InputError):
            scaled_t_quantile(0.0, 5.0)
        with pytest.raises(InputError):
            scaled_t_quantile(1.0, 5.0)


class TestParams:
    def test_invariants_enforced(self):
        with pytest.raises(InputError):
            garch_params(omega=0.0)
        with pytest.raises(InputError):
            garch_params(alpha=[-0.1])
        with pytest.raises(InputError):
            garch_params(alpha=[0.5], beta=[0.5])
        with pytest.raises(InputError):
            garch_params(nu=2.0)
        with pytest.raises(InputError):
            garch_params(phi=[1.0])

    def test_unconditional_variance(self):
        p = garch_params(omega=0.1, alpha=[0.2], beta=[0.7])
        assert p.uncond_variance == pytest.approx(1.0)


class TestFilter:
    def test_constant_variance_degenerate(self):
        p = garch_params(alpha=[0.0], beta=[0.0], omega=0.1)
        x = np.array([1.0, -1.0, 2.0])
        out = arma_garch_filter(p, x)
        np.testing.assert_allclose(out.sigma2_t, [0.1, 0.1, 0.1])
        np.testing.assert_allclose(out.z_t, x / np.sqrt(0.1))

    def test_hand_recursion(self):
        # stationary start puts the variance lags at omega/(1-alpha-beta) = 1
        p = garch_params(omega=0.1, alpha=[0.2], beta=[0.7])
        out = arma_garch_filter(p, np.array([1.0, 1.0]))
        assert out.sigma2_t[0] == pytest.approx(1.0)
        assert out.sigma2_t[1] == pytest.approx(0.1 + 0.2 * 1.0 + 0.7 * 1.0)

    def test_sigma2_at_least_omega(self):
        p = garch_params()
        rng = np.random.default_rng(3)
        out = arma_garch_filter(p, rng.standard_normal(500))
        assert np.all(out.sigma2_t >= p.omega)

    def test_z_definition_holds(self):
        p = garch_params(mu=0.1, phi=[0.4], gamma=[-0.2])
        x = np.random.default_rng(0).standard_normal(200)
        out = arma_garch_filter(p, x)
        np.testing.assert_allclose(out.z_t * np.sqrt(out.sigma2_t) + out.mu_t, x)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            arma_garch_filter(garch_params(), np.array([1.0, np.nan]))


class TestSimulate:
    def test_zero_innovations_constant_mean(self):
        p = garch_params(mu=0.3, phi=[0.0], gamma=[0.0],
                         alpha=[0.0], beta=[0.0], omega=0.04)
        np.testing.assert_allclose(arma_garch_simulate(p, np.zeros(5)),
                                   np.full(5, 0.3))

    def test_hand_arithmetic(self):
        p = garch_params(alpha=[0.0], beta=[0.0], omega=0.04)
        np.testing.assert_allclose(arma_garch_simulate(p, np.array([1.0, -2.0])),
                                   [0.2, -0.4])

    def test_round_trip(self):
        p = garch_params(mu=0.05, phi=[0.3], gamma=[-0.2],
                         omega=0.05, alpha=[0.1], beta=[0.8])
        rng = np.random.default_rng(11)
        z = rng.standard_t(6, size=600) / np.sqrt(6 / 4)
        x = arma_garch_simulate(p, z)
        out = arma_garch_filter(p, x)
        assert np.max(np.abs(out.z_t[50:] - z[50:])) < 1e-8

    def test_missing_lags_rejected(self):
        p = garch_params(phi=[0.3])
        bad = LaggedState(x=np.empty(0), resid=np.zeros(1),
                          resid2=np.ones(1), sigma2=np.ones(1))
        with pytest.raises(InputError):
            arma_garch_simulate(p, np.ones(3), bad)

    def test_deterministic(self):
        p = garch_params()
        z = np.random.default_rng(2).standard_normal(50)
        np.testing.assert_array_equal(arma_garch_simulate(p, z),
                                      arma_garch_simulate(p, z))


class TestLaggedState:
    def test_from_filter_continues_recursion(self):
        # filtering in two halves with carried state equals one full pass
        p = garch_params(mu=0.02, phi=[0.4], gamma=[0.1])
        x = np.random.default_rng(8).standard_normal(300)
        full = arma_garch_filter(p, x)
        first = arma_garch_filter(p, x[:200])
        state = LaggedState.from_filter(p, x[:200], first)
        second = arma_garch_filter(p, x[200:], state)
        np.testing.assert_allclose(second.sigma2_t, full.sigma2_t[200:], rtol=1e-12)
        np.testing.assert_allclose(second.mu_t, full.mu_t[200:], rtol=1e-12)

    def test_at_equals_prefix_filter(self):
        # the state read from one full pass equals the state of a prefix filter,
        # including prefixes shorter than the longest lag
        p = ArmaGarchParams(mu=0.01, phi=[0.3, -0.1], gamma=[0.2], omega=0.05,
                            alpha=[0.1], beta=[0.5, 0.2], nu=6.0)
        x = np.random.default_rng(9).standard_normal(60)
        full = arma_garch_filter(p, x)
        for t in (1, 2, 3, 17, 60):
            a = LaggedState.at(p, x, full, t)
            b = LaggedState.from_filter(p, x[:t], arma_garch_filter(p, x[:t]))
            for name in ("x", "resid", "resid2", "sigma2"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.fixture(scope="module")
def fitted_margin():
    true = ArmaGarchParams(mu=0.0, phi=[0.3], gamma=[-0.2], omega=0.05,
                           alpha=[0.1], beta=[0.8], nu=6.0)
    rng = np.random.default_rng(42)
    u = rng.random(5000) * (1 - 2e-12) + 1e-12
    z = scaled_t_quantile(u, true.nu)
    x = arma_garch_simulate(true, z)
    return true, x, fit_arma_garch(x)


class TestFit:
    def test_loglik_beats_truth(self, fitted_margin):
        true, x, res = fitted_margin
        from mtsgen.margins import _loglik
        assert res.loglik >= _loglik(true, x)

    def test_residual_moments(self, fitted_margin):
        _, _, res = fitted_margin
        assert abs(np.mean(res.filter.z_t)) < 0.05
        assert np.var(res.filter.z_t) == pytest.approx(1.0, abs=0.1)

    def test_parameters_near_truth(self, fitted_margin):
        true, _, res = fitted_margin
        assert res.params.alpha[0] == pytest.approx(true.alpha[0], abs=0.05)
        assert res.params.beta[0] == pytest.approx(true.beta[0], abs=0.10)

    def test_short_series_rejected(self):
        with pytest.raises(InputError):
            fit_arma_garch(np.ones(10))

    def test_constant_series_rejected(self):
        with pytest.raises(NumericalError):
            fit_arma_garch(np.ones(100))

    def test_fix_mu_zero(self):
        x = np.random.default_rng(5).standard_normal(400) + 3.0
        res = fit_arma_garch(x, fix_mu_zero=True)
        assert res.params.mu == 0.0
