"""Bootstrap mixture tests."""

import numpy as np
import pytest
from scipy import stats

from mtsgen import (BootstrapMixture, EmpiricalCopula, IndependenceCopula,
                    InputError, QuantileMaps, bootstrap_fit)
from mtsgen.dependence import DependenceModel


def tables(*columns):
    """Empirical quantile maps with one table per given column."""
    return QuantileMaps("empirical", tables=columns)


def empirical_fitter(ps):
    return EmpiricalCopula(ps)


@pytest.fixture
def y_train():
    return np.random.default_rng(0).standard_normal((50, 2))


class TestBootstrapFit:
    def test_single_component_matches_direct_sampling(self, y_train):
        mix = bootstrap_fit(y_train, 1, empirical_fitter, np.random.default_rng(1))
        assert mix.n_bt == 1
        u, ids = mix.sample_components(100, np.random.default_rng(2))
        assert np.all(ids == 0)
        rows = {tuple(r) for r in mix.components[0].ps.u}
        assert all(tuple(r) in rows for r in u)

    def test_resampled_rows_come_from_input(self, y_train):
        seen = []

        def recording_fitter(ps):
            seen.append(ps)
            return IndependenceCopula(ps.d)

        mix = bootstrap_fit(y_train, 5, recording_fitter, np.random.default_rng(3))
        # quantile tables hold sorted resampled values, all drawn from y_train
        for maps in mix.component_quantiles:
            for j, table in enumerate(maps.tables):
                assert set(table).issubset(set(y_train[:, j]))

    def test_component_count_and_dimension(self, y_train):
        mix = bootstrap_fit(y_train, 7, empirical_fitter, np.random.default_rng(4))
        assert len(mix.components) == 7
        assert mix.d == 2

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            bootstrap_fit(np.empty((0, 2)), 3, empirical_fitter,
                          np.random.default_rng(5))


class TestSampleMixture:
    def test_ids_in_range(self, y_train):
        mix = bootstrap_fit(y_train, 4, empirical_fitter, np.random.default_rng(6))
        _, ids = mix.sample_components(500, np.random.default_rng(7))
        assert ids.min() >= 0 and ids.max() <= 3

    def test_selection_frequencies_uniform(self, y_train):
        n_bt = 100

        def counting_fitter(ps):
            return IndependenceCopula(ps.d)

        mix = bootstrap_fit(y_train, n_bt, counting_fitter, np.random.default_rng(8))
        _, ids = mix.sample_components(10**5, np.random.default_rng(9))
        counts = np.bincount(ids, minlength=n_bt)
        expect = 10**5 / n_bt
        sigma = np.sqrt(10**5 * (1 / n_bt) * (1 - 1 / n_bt))
        assert np.all(np.abs(counts - expect) < 3 * sigma + 1)

    def test_two_identical_independence_components_uniform(self):
        mix = BootstrapMixture(
            components=[IndependenceCopula(2), IndependenceCopula(2)],
            component_quantiles=[tables(np.zeros(1), np.zeros(1))] * 2, n_bt=2)
        u, _ = mix.sample_components(10**4, np.random.default_rng(10))
        for j in range(2):
            assert stats.kstest(u[:, j], "uniform").pvalue > 0.01

    def test_deterministic(self, y_train):
        mix = bootstrap_fit(y_train, 3, empirical_fitter, np.random.default_rng(11))
        a = mix.sample_components(50, np.random.default_rng(12))
        b = mix.sample_components(50, np.random.default_rng(12))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class ConstantCopula(DependenceModel):
    """Every draw is 0.4 in its one coordinate."""

    d = 1

    def sample(self, n, rng):
        return np.full((n, 1), 0.4)


class TestApplyQuantiles:
    def test_per_component_tables(self):
        tables_a = tables(np.array([0.0, 10.0]))
        tables_b = tables(np.array([100.0, 110.0]))
        mix = BootstrapMixture(
            components=[ConstantCopula(), ConstantCopula()],
            component_quantiles=[tables_a, tables_b], n_bt=2)
        y = mix.sample_quantiles(50, np.random.default_rng(4), None)
        ids = np.random.default_rng(4).integers(0, 2, size=50)
        assert set(ids) == {0, 1}
        # ceil(0.4 * 2) = 1 -> first order statistic of each table
        assert np.all(y[ids == 0, 0] == 0.0)
        assert np.all(y[ids == 1, 0] == 100.0)

    def test_sample_quantiles_uses_component_tables(self):
        mix = BootstrapMixture(
            components=[IndependenceCopula(1), IndependenceCopula(1)],
            component_quantiles=[tables(np.array([0.0, 10.0])),
                                 tables(np.array([100.0, 110.0]))],
            n_bt=2)
        qmaps = QuantileMaps.scaled_t([6.0])    # not used by a mixture
        y = mix.sample_quantiles(200, np.random.default_rng(3), qmaps)
        u, ids = mix.sample_components(200, np.random.default_rng(3))
        want = np.empty_like(u)
        for b in range(2):
            want[ids == b] = mix.component_quantiles[b](u[ids == b])
        assert np.array_equal(y, want)
        assert set(np.unique(y)) == {0.0, 10.0, 100.0, 110.0}

    def test_mismatched_components_rejected(self):
        with pytest.raises(InputError):
            BootstrapMixture(components=[IndependenceCopula(2),
                                         IndependenceCopula(3)],
                             component_quantiles=[tables(), tables()], n_bt=2)

    def test_table_count_must_match_dimension(self):
        with pytest.raises(InputError, match="2 quantile tables, one per dimension"):
            BootstrapMixture(components=[IndependenceCopula(2), IndependenceCopula(2)],
                             component_quantiles=[tables(np.zeros(1), np.zeros(1)),
                                                  tables(np.zeros(1))],
                             n_bt=2)
