"""Inverse margins by lookup on the rank grid equal the per-draw quantiles, bit for bit."""

import sys
import threading

import numpy as np
import pytest

from mtsgen import (ArmaGarchParams, EmpiricalBetaCopula, EmpiricalCopula,
                    InputError, PipelineConfig, PseudoSample, QuantileMaps,
                    forecast_paths, load_model, save_model)
from mtsgen import forecast as forecast_module
from mtsgen.datagen import GaussianCopulaSampler, equicorrelation, simulate_mts
from mtsgen.pipeline import Dataset, fit_mts, rolling_forecasts

KINDS = {
    "gmmn": {"dependence": "gmmn", "gmmn_n_epo": 3, "gmmn_hidden_dims": (8,)},
    "empirical": {"dependence": "empirical"},
}


def dataset(n_test=20):
    params = ArmaGarchParams(mu=0.0, phi=[0.2], gamma=[0.0], omega=0.05,
                             alpha=[0.1], beta=[0.8], nu=6.0)
    x = simulate_mts([params] * 3, GaussianCopulaSampler(equicorrelation(3, 0.6)),
                     110 + n_test, np.random.default_rng(80))
    return Dataset(name="g", times=list(range(len(x))), values=x,
                   columns=["a", "b", "c"], transform="none", tau=110)


@pytest.fixture(scope="module")
def data():
    return dataset()


@pytest.fixture(scope="module", params=[(k, pca) for k in sorted(KINDS) for pca in (False, True)],
                ids=lambda p: f"{p[0]}-{'pca' if p[1] else 'no_pca'}")
def model(request, data):
    kind, pca = request.param
    m = fit_mts(PipelineConfig(pca_enabled=pca, pca_k_min=1, seed=81, **KINDS[kind]), data)
    assert m.quantile_maps.mode == ("empirical" if pca else "scaled_t")
    return m


@pytest.fixture
def per_draw(monkeypatch):
    """Switches the rank-grid lookup back to the per-draw `quantile_maps(ranks / (n + 1))`."""
    def switch():
        monkeypatch.setattr(QuantileMaps, "on_grid", lambda self, ranks, n: self(ranks / (n + 1.0)))
    return switch


class TestSampleQuantiles:
    @pytest.mark.parametrize("n", [1, 57, 57, 200])
    def test_equals_quantiles_of_sample(self, model, n):
        dep, qm = model.dependence, model.quantile_maps
        got = dep.from_noise([dep.noise(n, np.random.default_rng(n))], qm)[0]
        want = qm(dep.sample(n, np.random.default_rng(n)))
        assert np.array_equal(got, want)

    def test_forecast_paths_equal_per_draw_paths(self, model, data, per_draw):
        got = forecast_paths(model, data.values, 40, 3, np.random.default_rng(82))
        per_draw()
        want = forecast_paths(model, data.values, 40, 3, np.random.default_rng(82))
        assert np.array_equal(got, want)

    def test_rolling_paths_equal_per_draw_paths(self, model, data, per_draw):
        # spawning children advances a SeedSequence, so each run gets a fresh one
        got = rolling_forecasts(model, data, 30, np.random.SeedSequence(83))
        per_draw()
        assert np.array_equal(got, rolling_forecasts(model, data, 30, np.random.SeedSequence(83)))

    def test_rolling_paths_survive_round_trip(self, model, data, tmp_path):
        path = tmp_path / "model.npz"
        save_model(model, path)
        assert np.array_equal(rolling_forecasts(model, data, 30, np.random.SeedSequence(84)),
                              rolling_forecasts(load_model(path), data, 30,
                                                np.random.SeedSequence(84)))


class TestGridTable:
    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []

        def counting(p, nu):
            counted.append(np.shape(p))
            return quantile(p, nu)

        quantile = forecast_module.scaled_t_quantile
        monkeypatch.setattr(forecast_module, "scaled_t_quantile", counting)
        return counted

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_one_table_per_margin_per_grid(self, data, calls, kind):
        model = fit_mts(PipelineConfig(seed=85, **KINDS[kind]), data)
        paths = rolling_forecasts(model, data, 25, np.random.SeedSequence(86))
        assert paths.shape[0] == 20
        # the grid is the draw size for the GMMN, the training sample for resampling
        grid = 25 if kind == "gmmn" else data.tau
        assert calls == [(grid,)] * data.d

    def test_one_slot_cache(self, data):
        # scaled-t maps without PCA, empirical maps with it: one table either way
        for pca in (False, True):
            model = fit_mts(PipelineConfig(pca_enabled=pca, pca_k_min=1, seed=87,
                                           **KINDS["gmmn"]), data)
            dep, qm = model.dependence, model.quantile_maps
            for n in (50, 80):
                dep.from_noise([dep.noise(n, np.random.default_rng(n))], qm)
            n, table = qm._grid
            assert n == 80 and table.shape == (80, qm.d)
            assert np.array_equal(table, qm(np.arange(1, 81)[:, None] / 81.0 + np.zeros(qm.d)))


    def test_concurrent_calls_equal_sequential(self):
        nus = [6.0, 9.0]
        rng = np.random.default_rng(88)
        # thread w asks for grid size sizes[w] only, so the threads keep
        # replacing each other's table
        sizes = (30, 45, 60)
        calls = [(n, rng.integers(1, n + 1, size=(40, 2))) for n in sizes * 30]
        seq = QuantileMaps.scaled_t(nus)
        want = [seq.on_grid(ranks, n) for n, ranks in calls]
        shared = QuantileMaps.scaled_t(nus)
        got = [None] * len(calls)
        start = threading.Barrier(len(sizes))

        def run(w):
            start.wait(timeout=60)
            for i in range(w, len(calls), len(sizes)):
                got[i] = shared.on_grid(calls[i][1], calls[i][0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # switch threads as often as possible
        try:
            threads = [threading.Thread(target=run, args=(w,)) for w in range(len(sizes))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(g is not None and np.array_equal(g, x) for g, x in zip(got, want))


class TestEmpiricalPseudoSample:
    def ps(self):
        return PseudoSample(np.array([[1, 3], [3, 1], [2, 2]]))

    def test_consistent_sample_accepted(self):
        assert EmpiricalCopula(self.ps()).d == 2

    @pytest.mark.parametrize("edit", [
        lambda ps: PseudoSample(ps.ranks.astype(float)),
        lambda ps: PseudoSample(ps.ranks - 1),
        lambda ps: PseudoSample(ps.ranks[:, 0]),
    ], ids=["float_ranks", "rank_zero", "one_dim"])
    def test_inconsistent_sample_rejected(self, edit):
        for cls in (EmpiricalCopula, EmpiricalBetaCopula):
            with pytest.raises(InputError, match="integer ranks"):
                cls(edit(self.ps()))
