"""Forecasting tests: quantile maps, path simulation, VaR."""

import numpy as np
import pytest
from scipy import stats

from mtsgen import (ArmaGarchParams, BootstrapMixture, EmpiricalBetaCopula,
                    EmpiricalCopula, IndependenceCopula, InputError,
                    MarginalFitResult, MtsModel, PcaTransform, QuantileMaps,
                    arma_garch_filter, forecast_paths, pseudo_observations,
                    scaled_t_quantile, var_forecast)
from mtsgen.forecast import _ORIGIN_BLOCK, _filters, _paths, empirical_quantile, rolling_var
from mtsgen.margins import scaled_t_cdf


def make_model(params_list, dependence=None, qmaps=None):
    margins = [MarginalFitResult(params=p, filter=None, loglik=0.0, converged=True)
               for p in params_list]
    d = len(params_list)
    if dependence is None:
        dependence = IndependenceCopula(d)
    if qmaps is None:
        qmaps = QuantileMaps.scaled_t([p.nu for p in params_list])
    return MtsModel(margins=margins, pca=PcaTransform.identity(d),
                    dependence=dependence, quantile_maps=qmaps, tau=100)


def flat_params(mu=0.0, omega=0.04, nu=6.0):
    return ArmaGarchParams(mu=mu, phi=[0.0], gamma=[0.0], omega=omega,
                           alpha=[0.0], beta=[0.0], nu=nu)


class TestEmpiricalQuantile:
    def test_order_statistic_index(self):
        vals = np.arange(1.0, 101.0)
        assert empirical_quantile(vals, 0.05) == 5.0

    def test_extremes_clamped(self):
        vals = np.array([1.0, 2.0, 3.0])
        assert empirical_quantile(vals, 1e-9) == 1.0
        assert empirical_quantile(vals, 1.0) == 3.0

    def test_monotone(self):
        vals = np.sort(np.random.default_rng(0).standard_normal(37))
        ps = np.linspace(0.01, 0.99, 25)
        q = empirical_quantile(vals, ps)
        assert np.all(np.diff(q) >= 0)


class TestQuantileMaps:
    def test_scaled_t_mode(self):
        qm = QuantileMaps.scaled_t([5.0, 9.0])
        u = np.array([[0.3, 0.8]])
        out = qm(u)
        assert out[0, 0] == pytest.approx(scaled_t_quantile(0.3, 5.0))
        assert out[0, 1] == pytest.approx(scaled_t_quantile(0.8, 9.0))

    def test_empirical_mode(self):
        y = np.array([[3.0, 0.0], [1.0, 1.0], [2.0, -1.0]])
        qm = QuantileMaps.empirical(y)
        out = qm(np.array([[0.34, 0.99]]))
        # ceil(0.34*3)=2 -> second order statistic; ceil(0.99*3)=3 -> max
        assert out[0, 0] == 2.0
        assert out[0, 1] == 1.0

    @pytest.mark.parametrize("kwargs", [{}, {"nus": [5.0], "tables": [[0.0, 1.0]]}],
                             ids=["neither", "both"])
    def test_one_of_nus_or_tables(self, kwargs):
        with pytest.raises(InputError, match="either nus or tables"):
            QuantileMaps(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"nus": ["x"]}, {"nus": [[5.0], [6.0, 7.0]]},
                                        {"tables": [["x", 1.0]]}, {"tables": 5}],
                             ids=["nu_text", "nus_ragged", "table_text", "tables_not_iterable"])
    def test_values_must_be_real_numbers(self, kwargs):
        with pytest.raises(InputError, match="real numbers"):
            QuantileMaps(**kwargs)
        if "nus" in kwargs:
            with pytest.raises(InputError, match="real numbers"):
                QuantileMaps.scaled_t(kwargs["nus"])

    @pytest.mark.parametrize("nus", [[np.nan], [1.5], [np.inf], [6.0, 2.0], [[6.0]], 6.0],
                             ids=["nan", "below_2", "inf", "one_at_2", "two_dim", "scalar"])
    def test_nus_follow_the_scaled_t_rule(self, nus):
        # refused at construction, not at the first draw
        with pytest.raises(InputError, match="finite nus > 2"):
            QuantileMaps.scaled_t(nus)

    @pytest.mark.parametrize("maps", [QuantileMaps.scaled_t([6.0]),
                                      QuantileMaps.empirical([[0.0], [1.0]])],
                             ids=["scaled_t", "empirical"])
    @pytest.mark.parametrize("u", [np.full((2, 2), 0.5), np.full(2, 0.5), np.full((2, 0), 0.5)],
                             ids=["two_columns", "one_dim", "no_column"])
    def test_u_must_have_one_column_per_map(self, maps, u):
        with pytest.raises(InputError, match=r"shape \(n, 1\)"):
            maps(u)


class TestModelMaps:
    """A bootstrap mixture owns its inverse margins; other models take the model's."""

    def mixture(self):
        return BootstrapMixture(components=[IndependenceCopula(1)] * 2,
                                component_quantiles=[QuantileMaps.empirical([[0.0], [1.0]]),
                                                     QuantileMaps.empirical([[5.0], [6.0]])])

    def test_mixture_with_maps_rejected(self):
        with pytest.raises(InputError, match="bootstrap mixture"):
            make_model([flat_params()], dependence=self.mixture())

    @pytest.mark.parametrize("dependence", [
        IndependenceCopula(1),
        EmpiricalCopula(pseudo_observations(np.arange(5.0))),
        EmpiricalBetaCopula(pseudo_observations(np.arange(5.0))),
    ], ids=["independence", "empirical", "empirical_beta"])
    def test_other_model_without_maps_rejected(self, dependence):
        margins = make_model([flat_params()]).margins
        with pytest.raises(InputError, match="needs them"):
            MtsModel(margins=margins, pca=PcaTransform.identity(1), dependence=dependence,
                     quantile_maps=None, tau=100)

    def test_margins_must_match_the_pca_dimension(self):
        margins = make_model([flat_params()] * 2).margins
        with pytest.raises(InputError, match="2 margins but PCA dimension 3"):
            MtsModel(margins=margins, pca=PcaTransform.identity(3),
                     dependence=IndependenceCopula(3),
                     quantile_maps=QuantileMaps.scaled_t([6.0] * 3), tau=100)

    def test_scaled_t_nu_must_be_the_margins(self):
        with pytest.raises(InputError, match="degrees of freedom"):
            make_model([flat_params(nu=6.0), flat_params(nu=8.0)],
                       qmaps=QuantileMaps.scaled_t([6.0, 7.0]))

    def test_mixture_draws_through_its_replicates(self):
        margins = make_model([flat_params()]).margins
        model = MtsModel(margins=margins, pca=PcaTransform.identity(1),
                         dependence=self.mixture(), quantile_maps=None, tau=100)
        dep = model.dependence
        y = dep.from_noise([dep.noise(100, np.random.default_rng(0))], model.draw_maps)[0]
        assert np.array_equal(y, dep.from_noise([dep.noise(100, np.random.default_rng(0))],
                                                dep.component_quantiles)[0])
        assert set(np.unique(y)) == {0.0, 1.0, 5.0, 6.0}


class TestForecastPaths:
    def test_shape_and_determinism(self):
        model = make_model([flat_params(), flat_params()])
        hist = np.random.default_rng(1).standard_normal((120, 2))
        a = forecast_paths(model, hist, 50, 3, np.random.default_rng(2))
        b = forecast_paths(model, hist, 50, 3, np.random.default_rng(2))
        assert a.shape == (50, 3, 2)
        np.testing.assert_array_equal(a, b)

    def test_conditioning_only(self):
        # paths depend on the history handed in, nothing else
        p = ArmaGarchParams(mu=0.0, phi=[0.5], gamma=[0.1], omega=0.05,
                            alpha=[0.1], beta=[0.8], nu=6.0)
        model = make_model([p])
        hist = np.random.default_rng(3).standard_normal((100, 1))
        a = forecast_paths(model, hist, 20, 2, np.random.default_rng(4))
        b = forecast_paths(model, hist.copy(), 20, 2, np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)

    def test_one_step_distribution_flat_model(self):
        # no serial dynamics: X = mu + sqrt(omega) * F^{-1}(U)
        mu, omega = 0.3, 0.25
        model = make_model([flat_params(mu=mu, omega=omega)])
        hist = np.zeros((60, 1))
        fp = forecast_paths(model, hist, 10**4, 1, np.random.default_rng(5))
        x = fp[:, 0, 0]
        assert x.mean() == pytest.approx(mu, abs=3 * np.sqrt(omega / 10**4))
        assert x.std() == pytest.approx(np.sqrt(omega), rel=0.05)

    def test_one_step_pit_uniform(self):
        # analytic one-step CDF under the true model
        p = ArmaGarchParams(mu=0.0, phi=[0.3], gamma=[0.0], omega=0.05,
                            alpha=[0.1], beta=[0.8], nu=6.0)
        model = make_model([p])
        hist = np.random.default_rng(6).standard_normal((200, 1)) * 0.5
        fp = forecast_paths(model, hist, 10**4, 1, np.random.default_rng(7))
        filt = arma_garch_filter(p, hist[:, 0])
        resid = hist[-1, 0] - filt.mu_t[-1]
        mu1 = p.phi[0] * hist[-1, 0]
        s21 = p.omega + p.alpha[0] * resid**2 + p.beta[0] * filt.sigma2_t[-1]
        pit = scaled_t_cdf((fp[:, 0, 0] - mu1) / np.sqrt(s21), p.nu)
        assert stats.kstest(pit, "uniform").pvalue > 0.01

    def test_short_history_rejected(self):
        p = ArmaGarchParams(mu=0.0, phi=[0.5], gamma=[0.0], omega=0.05,
                            alpha=[0.1], beta=[0.8], nu=6.0)
        model = make_model([p])
        with pytest.raises(InputError):
            forecast_paths(model, np.empty((0, 1)), 5, 1, np.random.default_rng(8))

    def test_history_shorter_than_lags_rejected(self):
        # orders (2, 1, 1, 2): the recursions reach back two steps
        p = ArmaGarchParams(mu=0.0, phi=[0.5, 0.1], gamma=[0.0], omega=0.05,
                            alpha=[0.1], beta=[0.5, 0.2], nu=6.0)
        model = make_model([p])
        with pytest.raises(InputError, match="history must cover at least 2 steps"):
            forecast_paths(model, np.zeros((1, 1)), 5, 1, np.random.default_rng(8))

    def test_one_dim_history_is_one_series(self):
        model = make_model([flat_params()])
        hist = np.random.default_rng(10).standard_normal(50)
        a = forecast_paths(model, hist, 20, 3, np.random.default_rng(11))
        b = forecast_paths(model, hist[:, None], 20, 3, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_phase_one_holds_one_block_of_noise(self, monkeypatch):
        import tracemalloc
        n_origins, n_pth, d = 4 * _ORIGIN_BLOCK, 2000, 2
        model = make_model([flat_params()] * d)
        x = np.random.default_rng(12).standard_normal((n_origins + 1, d))
        filters = _filters(model, x)
        noise = IndependenceCopula.noise
        held = []

        def spy(self, n, rng):
            out = noise(self, n, rng)
            held.append(tracemalloc.get_traced_memory()[0] - base)
            return out

        monkeypatch.setattr(IndependenceCopula, "noise", spy)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _paths(model, x, filters, np.arange(1, n_origins + 1), n_pth, 1,
                   np.random.SeedSequence(13).spawn(n_origins))
        finally:
            tracemalloc.stop()
        assert len(held) == n_origins
        # besides the paths, one block of noise: no earlier block's noise or draws
        paths, block = n_origins * n_pth * d * 8, _ORIGIN_BLOCK * n_pth * d * 8
        assert max(held) - paths < block + 64 * 1024

    def test_wrong_width_rejected(self):
        model = make_model([flat_params(), flat_params()])
        with pytest.raises(InputError):
            forecast_paths(model, np.zeros((50, 3)), 5, 1, np.random.default_rng(9))

    @pytest.mark.parametrize("n_pth, h", [(0, 1), (1, 0), (-1, 1), (1, -1), (2.5, 1),
                                          (True, 1), (1, 2.0), (1, True)])
    def test_counts_must_be_positive_integers(self, n_pth, h):
        # an empty ensemble used to come back, and a float or bool failed untyped
        u = pseudo_observations(np.random.default_rng(15).standard_normal((100, 3)))
        model = make_model([flat_params()] * 3, EmpiricalCopula(u))
        with pytest.raises(InputError, match="must be an integer of at least 1"):
            forecast_paths(model, np.zeros((50, 3)), n_pth, h, np.random.default_rng(16))


class TestVarForecast:
    def test_fifth_order_statistic(self):
        assert var_forecast(np.arange(1.0, 101.0), 0.05) == 5.0

    def test_point_mass(self):
        assert var_forecast(np.full(50, 3.3), 0.1) == 3.3

    def test_monotone_in_alpha(self):
        agg = np.random.default_rng(12).standard_normal(500)
        qs = [var_forecast(agg, a) for a in (0.01, 0.05, 0.25, 0.5, 0.9)]
        assert qs == sorted(qs)

    def test_alpha_bounds(self):
        with pytest.raises(InputError):
            var_forecast(np.ones(10), 0.0)

    @pytest.mark.parametrize("alpha", [None, "0.05", True, np.nan])
    def test_alpha_must_be_a_real_level(self, alpha):
        with pytest.raises(InputError, match=r"must lie in \(0, 1\)"):
            var_forecast([1.0, 2.0], alpha)

    @pytest.mark.parametrize("sample", [[], np.empty(0), np.ones((4, 5))])
    def test_sample_must_be_nonempty_and_1d(self, sample):
        with pytest.raises(InputError, match="nonempty 1-d"):
            var_forecast(sample, 0.05)


class TestRollingVar:
    def test_one_var_per_origin(self):
        paths = np.random.default_rng(13).standard_normal((4, 50, 3))
        expected = [var_forecast(paths[i].sum(axis=1), 0.1) for i in range(4)]
        np.testing.assert_array_equal(rolling_var(paths, 0.1), expected)

    @pytest.mark.parametrize("paths", [np.zeros((3, 4)), np.zeros(5), np.zeros((2, 3, 4, 5))])
    def test_paths_must_be_3d(self, paths):
        with pytest.raises(InputError, match=r"shape \(n_t, n_pth, d\)"):
            rolling_var(paths, 0.05)

    def test_no_paths_rejected(self):
        with pytest.raises(InputError):
            rolling_var(np.zeros((3, 0, 2)), 0.05)
