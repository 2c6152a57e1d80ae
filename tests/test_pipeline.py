"""Pipeline, serialization and CLI tests on small synthetic datasets."""

import csv
import dataclasses
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtsgen import (ArmaGarchParams, BootstrapMixture, ConfigError, InputError,
                    MarginalFitResult, MtsgenError, MtsModel, PcaTransform, PipelineConfig,
                    QuantileMaps, forecast_paths, load_dataset, load_model, run_pipeline,
                    save_model)
from mtsgen.datagen import GaussianCopulaSampler, equicorrelation, simulate_mts
from mtsgen.dependence import EmpiricalCopula, IndependenceCopula, pseudo_observations
from mtsgen.pipeline import (METRICS_HEADER, Dataset, fit_mts, rolling_forecasts,
                             write_metrics)

# the CLI tests' child processes import the working tree's mtsgen, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))}


def write_csv(path, values, times=None):
    d = values.shape[1]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"s{j}" for j in range(d)])
        for i, row in enumerate(values):
            w.writerow([times[i] if times else i] + [repr(float(v)) for v in row])


@pytest.fixture(scope="module")
def synthetic_csv(tmp_path_factory):
    """A small 2-dim series with GARCH margins and a Gaussian copula."""
    params = [ArmaGarchParams(mu=0.0, phi=[0.2], gamma=[0.0], omega=0.05,
                              alpha=[0.1], beta=[0.8], nu=6.0)
              for _ in range(2)]
    cop = GaussianCopulaSampler(equicorrelation(2, 0.6))
    x = simulate_mts(params, cop, 260, np.random.default_rng(0))
    path = tmp_path_factory.mktemp("data") / "series.csv"
    write_csv(path, x)
    return str(path)


class TestLoadDataset:
    def test_difference_transform(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, np.array([[1.0], [3.0], [6.0]]))
        ds = load_dataset(p, transform="difference", tau=1)
        np.testing.assert_allclose(ds.values[:, 0], [2.0, 3.0])

    def test_log_returns(self, tmp_path):
        p = tmp_path / "lr.csv"
        write_csv(p, np.array([[1.0], [np.e], [np.e]]))
        ds = load_dataset(p, transform="log_returns", tau=1)
        assert ds.values[0, 0] == pytest.approx(1.0)

    def test_log_returns_nonpositive_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(p, np.array([[1.0], [-2.0], [3.0]]))
        with pytest.raises(InputError, match="row 2, column 1"):
            load_dataset(p, transform="log_returns", tau=1)

    def test_unknown_transform_rejected(self, tmp_path):
        p = tmp_path / "u.csv"
        write_csv(p, np.array([[1.0], [2.0], [3.0]]))
        with pytest.raises(ConfigError, match="unknown transform 'returns'"):
            load_dataset(p, transform="returns", tau=1)

    def test_non_numeric_cell_named(self, tmp_path):
        p = tmp_path / "nn.csv"
        p.write_text("t,a\n0,1.0\n1,oops\n2,2.0\n")
        with pytest.raises(InputError, match="row 3, column 2"):
            load_dataset(p, tau=1)

    def test_unsorted_times_rejected(self, tmp_path):
        p = tmp_path / "ts.csv"
        write_csv(p, np.ones((3, 1)) * [[1], [2], [3]], times=[3, 1, 2])
        with pytest.raises(InputError, match="strictly increasing"):
            load_dataset(p, tau=1)

    def test_iso_dates_compare_as_text(self, tmp_path):
        # dated labels, as of FX or yield data, are ordered lexicographically
        times = [f"2020-{m:02d}-{d:02d}" for m in (1, 2) for d in range(1, 21)]
        p = tmp_path / "dates.csv"
        write_csv(p, np.random.default_rng(1).standard_normal((40, 2)), times=times)
        ds = load_dataset(p, transform="difference")
        assert ds.times == times[1:] and ds.tau == 27

    def test_out_of_order_dates_rejected(self, tmp_path):
        times = ["2020-01-01", "2020-01-03", "2020-01-02", "2020-01-04"]
        p = tmp_path / "dates.csv"
        write_csv(p, np.ones((4, 1)), times=times)
        with pytest.raises(InputError, match="strictly increasing"):
            load_dataset(p, tau=1)

    @pytest.mark.parametrize("text, match", [
        ("t,a,b\n0,1.0,2.0\n1,1.5\n2,2.0,3.0\n", "row 3 has 2 cells, expected 3"),
        ("t,a\n0,1.0\n1,inf\n2,2.0\n", "non-finite value at row 3, column 2"),
        ("t,a\n0,1.0\n1,2.0\n2,nan\n", "non-finite value at row 4, column 2"),
        ("t,a\n", "need a header and at least two data rows"),
        ("t\n0\n1\n2\n", "need a time column and at least one value column"),
    ], ids=["ragged_row", "inf_cell", "nan_cell", "header_only", "no_value_column"])
    def test_malformed_table_rejected(self, tmp_path, text, match):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(InputError, match=match):
            load_dataset(p, tau=1)

    def test_default_train_fraction(self, tmp_path):
        p = tmp_path / "tf.csv"
        write_csv(p, np.arange(10, dtype=float)[:, None] ** 1.5)
        assert load_dataset(p).tau == 7

    def test_missing_file(self):
        with pytest.raises(InputError):
            load_dataset("/no/such/file.csv")

    def test_tau_bounds(self):
        with pytest.raises(InputError):
            Dataset(name="x", times=[0, 1], values=np.ones((2, 1)),
                    columns=["a"], transform="none", tau=2)

    @pytest.mark.parametrize("tau", [60.0, True], ids=["float", "bool"])
    def test_tau_must_be_an_integer(self, tau):
        with pytest.raises(InputError, match="must be an integer"):
            Dataset(name="x", times=list(range(80)), values=np.ones((80, 1)),
                    columns=["a"], transform="none", tau=tau)

    def test_numpy_integer_tau_accepted(self):
        ds = Dataset(name="x", times=list(range(80)), values=np.ones((80, 1)),
                     columns=["a"], transform="none", tau=np.int64(60))
        assert ds.values[:ds.tau].shape == (60, 1)

    @pytest.mark.parametrize("values, columns, match", [
        (np.ones(80), ["a"], "with at least one series"),
        (np.ones((80, 0)), [], "with at least one series"),
        (np.ones((80, 1), dtype=bool), ["a"], "real"),
        (np.ones((80, 1)).tolist(), ["a"], "real"),
        (np.where(np.arange(80) == 70, np.nan, 1.0)[:, None], ["a"], "observation 70, series 0"),
        (np.where(np.arange(80) == 5, -np.inf, 1.0)[:, None], ["a"], "observation 5, series 0"),
        (np.ones((80, 2)), ["a"], "1 column names for 2 series"),
        (np.ones((80, 1)), ["a", "b"], "2 column names for 1 series"),
    ], ids=["1d", "no_series", "bool", "list", "nan_test_row", "inf_train_row",
            "short_columns", "long_columns"])
    def test_bad_series_rejected(self, values, columns, match):
        with pytest.raises(InputError, match=match):
            Dataset(name="x", times=list(range(80)), values=values,
                    columns=columns, transform="none", tau=60)

    def test_overflowing_test_row_refused_before_any_fit(self, tmp_path, monkeypatch, capsys):
        # the differenced last row overflows to -inf, in the test period that no margin fit reads
        from mtsgen import _par, pipeline
        from mtsgen.cli import main
        monkeypatch.setattr(_par, "_WORKERS", 1)   # the fits run, if at all, in this process
        fits = []
        monkeypatch.setattr(pipeline, "fit_arma_garch", lambda *a, **kw: fits.append(a))
        x = np.random.default_rng(0).standard_normal((120, 2))
        x[-2:, 1] = [1e308, -1e308]
        write_csv(tmp_path / "x.csv", x)
        code = main(["fit", "--data", str(tmp_path / "x.csv"), "--seed", "0",
                     "--transform", "difference", "--out", str(tmp_path / "m.npz")])
        assert code == 2 and fits == []
        assert "non-finite value at observation 118, series 1" in capsys.readouterr().err


def model_of(dependence, tau=100):
    """A model of `dependence` over identical GARCH margins, with scaled-t maps unless
    `dependence` is a bootstrap mixture."""
    params = ArmaGarchParams(mu=0.0, phi=[0.2], gamma=[0.0], omega=0.05,
                             alpha=[0.1], beta=[0.8], nu=6.0)
    fit = MarginalFitResult(params=params, filter=None, loglik=0.0, converged=True)
    d = dependence.d
    maps = (None if isinstance(dependence, BootstrapMixture)
            else QuantileMaps.scaled_t([params.nu] * d))
    return MtsModel(margins=[fit] * d, pca=PcaTransform.identity(d), dependence=dependence,
                    quantile_maps=maps, tau=tau)


class TestPipelineConfig:
    def test_round_trip_dict(self):
        cfg = PipelineConfig(dependence="empirical", seed=9)
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"not_a_key": 1})

    def test_unknown_dependence_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(dependence="vine")

    def test_hash_stable_and_sensitive(self):
        a = PipelineConfig(seed=1)
        b = PipelineConfig(seed=1)
        c = PipelineConfig(seed=2)
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash
        assert len(a.config_hash) == 12

    @pytest.mark.parametrize("numpy, plain", [
        ({"n_pth": np.int64(50)}, {"n_pth": 50}),
        ({"vs_order": np.float32(0.5)}, {"vs_order": 0.5}),
        ({"pca_threshold": np.float64(0.9), "seed": np.uint8(3)},
         {"pca_threshold": 0.9, "seed": 3}),
        ({"orders": (np.int64(2), 1, np.int32(1), 1), "gmmn_hidden_dims": (np.int16(8),)},
         {"orders": (2, 1, 1, 1), "gmmn_hidden_dims": (8,)}),
        ({"orders": [2, 1, 1, 1], "gmmn_hidden_dims": [8]},
         {"orders": (2, 1, 1, 1), "gmmn_hidden_dims": (8,)}),
        ({"orders": np.array([2, 1, 1, 1]), "gmmn_hidden_dims": np.array([8])},
         {"orders": (2, 1, 1, 1), "gmmn_hidden_dims": (8,)}),
    ])
    def test_numpy_scalars_hash_as_python_numbers(self, numpy, plain):
        cfg, twin = PipelineConfig(**numpy), PipelineConfig(**plain)
        assert cfg == twin
        assert cfg.config_hash == twin.config_hash
        assert cfg.canonical_json() == twin.canonical_json()


@pytest.fixture(scope="module")
def small_cfg():
    return PipelineConfig(dependence="empirical", n_pth=200, n_rep=10, seed=7)


@pytest.fixture(scope="module")
def pipeline_run(synthetic_csv, small_cfg):
    ds = load_dataset(synthetic_csv, tau=200)
    return ds, run_pipeline(small_cfg, ds)


class TestRunPipeline:
    def test_one_row_per_metric(self, pipeline_run, small_cfg):
        _, result = pipeline_run
        metrics = {r["metric"] for r in result.metrics}
        assert metrics == {"AMMD", "AMSE", "AVS^0.25", "VEAR_0.05"}
        assert all(r["config_hash"] == small_cfg.config_hash
                   for r in result.metrics)

    def test_rerun_is_byte_identical(self, pipeline_run, small_cfg):
        ds, result = pipeline_run
        again = run_pipeline(small_cfg, ds)
        assert again.metrics == result.metrics

    def test_shapes(self, pipeline_run):
        ds, result = pipeline_run
        n_test = ds.n_obs - ds.tau
        assert result.paths.shape == (n_test, 200, 2)
        assert result.u_test.shape == (n_test, 2)
        assert result.var_series.shape == (n_test,)

    def test_metrics_file_format(self, pipeline_run, tmp_path):
        _, result = pipeline_run
        out = tmp_path / "metrics.csv"
        write_metrics(result.metrics, out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert set(rows[0]) == {"dataset", "model", "metric", "value",
                                "n_pth", "n_rep", "seed", "config_hash"}


class TestPcaPath:
    def test_reduction_and_empirical_margins(self, synthetic_csv):
        cfg = PipelineConfig(dependence="independence", pca_enabled=True,
                             pca_k_min=1, pca_threshold=0.5,
                             n_pth=100, n_rep=5, seed=3)
        ds = load_dataset(synthetic_csv, tau=200)
        model = fit_mts(cfg, ds)
        assert model.quantile_maps.mode == "empirical"
        assert 1 <= model.pca.k <= 2

    def test_no_reduction_uses_scaled_t(self, pipeline_run):
        _, result = pipeline_run
        assert result.model.quantile_maps.mode == "scaled_t"
        assert result.model.pca.k == 2


class TestBootstrapPath:
    def test_mixture_forecasts_run(self, synthetic_csv):
        cfg = PipelineConfig(dependence="empirical", bootstrap_n_bt=3,
                             n_pth=100, n_rep=5, seed=4)
        ds = load_dataset(synthetic_csv, tau=200)
        result = run_pipeline(cfg, ds)
        assert result.model.dependence.n_bt == 3
        assert all(r["model"] == "empirical_bt" for r in result.metrics)

    def test_gmmn_replicate_seeds(self, monkeypatch):
        # replicate b trains from word b of one array drawn from the
        # dependence stream of the master seed
        import mtsgen.pipeline as pipeline
        inner, seeds = pipeline.train_gmmn, []

        def train_gmmn(u, cfg):
            seeds.append(cfg.seed)
            return inner(u, cfg)

        monkeypatch.setattr(pipeline, "train_gmmn", train_gmmn)
        x = np.random.default_rng(61).standard_normal((60, 2))
        ds = Dataset(name="s", times=list(range(60)), values=x,
                     columns=["a", "b"], transform="none", tau=50)
        cfg = PipelineConfig(dependence="gmmn", bootstrap_n_bt=3, gmmn_n_epo=1,
                             gmmn_hidden_dims=(4,), seed=62)
        fit_mts(cfg, ds)
        words = pipeline.seed_streams(62)[0].generate_state(3, dtype=np.uint64)
        assert seeds == [int(w) for w in words]


class TestModelLabel:
    def test_dependence_model_without_a_kind_rejected(self, pipeline_run, small_cfg):
        class Unlisted(IndependenceCopula):
            pass

        ds, result = pipeline_run
        model = dataclasses.replace(result.model, dependence=Unlisted(ds.d))
        with pytest.raises(InputError, match="no metrics label for dependence model Unlisted"):
            run_pipeline(small_cfg, ds, model)


class TestSerialization:
    def test_round_trip_forecasts_identical(self, pipeline_run, tmp_path):
        ds, result = pipeline_run
        path = tmp_path / "model.npz"
        save_model(result.model, path)
        loaded = load_model(path)
        from mtsgen import forecast_paths
        a = forecast_paths(result.model, ds.values[:200], 50, 1,
                           np.random.default_rng(5))
        b = forecast_paths(loaded, ds.values[:200], 50, 1,
                           np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_bootstrap_round_trip(self, synthetic_csv, tmp_path):
        cfg = PipelineConfig(dependence="empirical_beta", bootstrap_n_bt=2,
                             n_pth=50, n_rep=5, seed=6)
        ds = load_dataset(synthetic_csv, tau=200)
        model = fit_mts(cfg, ds)
        path = tmp_path / "mix.npz"
        save_model(model, path)
        loaded = load_model(path)
        a = model.dependence.sample(30, np.random.default_rng(7))
        b = loaded.dependence.sample(30, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_version_mismatch_rejected(self, pipeline_run, tmp_path):
        import json
        _, result = pipeline_run
        path = tmp_path / "model.npz"
        save_model(result.model, path)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["__meta__"]).decode())
        meta["version"] = "something-else"
        data["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **data)
        with pytest.raises(InputError, match="version"):
            load_model(path)

    def test_truncated_file_rejected(self, pipeline_run, tmp_path):
        _, result = pipeline_run
        path = tmp_path / "model.npz"
        save_model(result.model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 3])
        with pytest.raises(InputError):
            load_model(path)


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "mtsgen.cli", *args],
                              capture_output=True, text=True, env=CHILD_ENV)

    def test_fit_assess_report(self, synthetic_csv, tmp_path):
        model_path = tmp_path / "m.npz"
        r = self.run_cli("fit", "--data", synthetic_csv, "--seed", "7",
                         "--tau", "200", "--dependence", "empirical",
                         "--out", str(model_path))
        assert r.returncode == 0, r.stderr
        assert model_path.exists()

        metrics_path = tmp_path / "metrics.csv"
        r = self.run_cli("assess", "--data", synthetic_csv, "--seed", "7",
                         "--tau", "200", "--dependence", "empirical",
                         "--n-pth", "100", "--n-rep", "5",
                         "--model", str(model_path), "--out", str(metrics_path))
        assert r.returncode == 0, r.stderr

        report_path = tmp_path / "report.csv"
        r = self.run_cli("report", str(metrics_path), "--out", str(report_path))
        assert r.returncode == 0, r.stderr
        assert "AMMD" in report_path.read_text()

    def test_forecast_subcommand(self, synthetic_csv, tmp_path):
        model_path = tmp_path / "m.npz"
        self.run_cli("fit", "--data", synthetic_csv, "--seed", "1",
                     "--tau", "200", "--dependence", "independence",
                     "--out", str(model_path))
        out = tmp_path / "fc.npz"
        r = self.run_cli("forecast", "--data", synthetic_csv, "--seed", "1",
                         "--tau", "200", "--n-pth", "50",
                         "--model", str(model_path), "--out", str(out))
        assert r.returncode == 0, r.stderr
        saved = np.load(out)
        assert saved["paths"].shape == (60, 50, 2)

    def test_forecast_equals_run_pipeline(self, pipeline_run, small_cfg, synthetic_csv,
                                          tmp_path):
        from mtsgen.cli import main
        ds, result = pipeline_run
        model_path, out = tmp_path / "m.npz", tmp_path / "fc.npz"
        save_model(result.model, model_path)
        code = main(["forecast", "--data", synthetic_csv, "--seed", str(small_cfg.seed),
                     "--tau", "200", "--dependence", "empirical",
                     "--n-pth", str(small_cfg.n_pth), "--model", str(model_path),
                     "--out", str(out)])
        assert code == 0
        want = run_pipeline(small_cfg, ds, load_model(model_path))
        saved = np.load(out)
        assert np.array_equal(saved["paths"], want.paths)
        assert np.array_equal(saved["var_series"], want.var_series)

    def test_forecast_out_is_the_file_written(self, pipeline_run, small_cfg, synthetic_csv,
                                              tmp_path, capsys):
        from mtsgen.cli import main
        _, result = pipeline_run
        model_path, out = tmp_path / "m.npz", tmp_path / "fc"
        save_model(result.model, model_path)
        code = main(["forecast", "--data", synthetic_csv, "--seed", str(small_cfg.seed),
                     "--tau", "200", "--n-pth", str(small_cfg.n_pth),
                     "--model", str(model_path), "--out", str(out)])
        assert code == 0
        assert f"written to {out}" in capsys.readouterr().out
        assert not (tmp_path / "fc.npz").exists()
        with np.load(out) as saved:
            assert saved["paths"].shape[1] == small_cfg.n_pth

    @pytest.mark.parametrize("label, fit_args", [
        ("empirical_bt", ["bootstrap", "--dependence", "empirical", "--n-bt", "2"]),
        ("gmmn", ["fit", "--dependence", "gmmn", "--epochs", "3"]),
    ])
    def test_assess_labels_the_model_in_the_file(self, synthetic_csv, tmp_path, label,
                                                 fit_args):
        # assessed without --dependence or a config, whose default is independence
        from mtsgen.cli import main
        model_path, metrics_path = tmp_path / "m.npz", tmp_path / "metrics.csv"
        common = ["--data", synthetic_csv, "--seed", "5", "--tau", "200"]
        assert main([*fit_args, *common, "--out", str(model_path)]) == 0
        assert main(["assess", *common, "--n-pth", "20", "--n-rep", "2",
                     "--model", str(model_path), "--out", str(metrics_path)]) == 0
        with open(metrics_path, newline="") as fh:
            assert {row["model"] for row in csv.DictReader(fh)} == {label}

    # each override flag, the config key it sets, its value, and the file's value
    OVERRIDES = [(["--dependence", "gmmn"], "dependence", "gmmn", "empirical"),
                 (["--pca"], "pca_enabled", True, False),
                 (["--n-pth", "7"], "n_pth", 7, 9),
                 (["--n-rep", "3"], "n_rep", 3, 5),
                 (["--epochs", "4"], "gmmn_n_epo", 4, 6),
                 (["--n-bt", "2"], "bootstrap_n_bt", 2, 5),
                 (["--seed", "8"], "seed", 8, 1)]

    @staticmethod
    def bootstrap_args(*flags):
        """`mtsgen bootstrap` args with `flags`, and its required flags where not given."""
        from mtsgen.cli import build_parser
        argv = ["bootstrap", "--data", "x.csv", "--out", "m.npz", *flags]
        for flag, value in (("--seed", "1"), ("--n-bt", "1")):
            if flag not in flags:
                argv += [flag, value]
        return build_parser().parse_args(argv)

    @pytest.mark.parametrize("flag, key, value, in_file", OVERRIDES,
                             ids=[o[1] for o in OVERRIDES])
    def test_flag_sets_its_config_key(self, tmp_path, flag, key, value, in_file):
        from mtsgen.cli import _build_config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: in_file}))
        assert getattr(_build_config(self.bootstrap_args(*flag)), key) == value
        assert getattr(_build_config(self.bootstrap_args(*flag, "--config", str(cfg))),
                       key) == value

    def test_only_override_flags_store_config_keys(self):
        args = self.bootstrap_args()
        assert (set(vars(args)) & set(PipelineConfig.__dataclass_fields__)
                == {key for _, key, _, _ in self.OVERRIDES})
        # an unset override leaves the file's value, or the default
        assert {key: getattr(args, key) for _, key, _, _ in self.OVERRIDES} == {
            "dependence": None, "pca_enabled": None, "n_pth": None, "n_rep": None,
            "gmmn_n_epo": None, "bootstrap_n_bt": 1, "seed": 1}

    def test_missing_data_exit_code(self, tmp_path):
        r = self.run_cli("fit", "--data", "/no/such.csv", "--seed", "1",
                         "--out", str(tmp_path / "m.npz"))
        assert r.returncode == 2

    def test_bad_config_exit_code(self, synthetic_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"dependence": "vine"}')
        r = self.run_cli("fit", "--data", synthetic_csv, "--seed", "1",
                         "--config", str(cfg), "--out", str(tmp_path / "m.npz"))
        assert r.returncode == 2

    def test_constant_series_numerical_exit_code(self, tmp_path):
        p = tmp_path / "const.csv"
        vals = np.ones((120, 1))
        write_csv(p, vals)
        r = self.run_cli("fit", "--data", str(p), "--seed", "1",
                         "--tau", "100", "--out", str(tmp_path / "m.npz"))
        assert r.returncode == 3


class TestRollingForecasts:
    """One filter pass per margin gives the paths of a per-origin refit."""

    @pytest.mark.parametrize("cfg", [
        PipelineConfig(dependence="empirical", seed=11),
        PipelineConfig(dependence="empirical_beta", pca_enabled=True,
                       pca_k_min=1, bootstrap_n_bt=2, seed=12),
        PipelineConfig(dependence="independence", orders=(2, 1, 1, 2), seed=13),
    ], ids=["scaled_t", "pca_bootstrap", "orders_2112"])
    def test_equals_forecast_paths_per_origin(self, cfg):
        params = ArmaGarchParams(mu=0.0, phi=[0.2], gamma=[0.0], omega=0.05,
                                 alpha=[0.1], beta=[0.8], nu=6.0)
        x = simulate_mts([params] * 3, GaussianCopulaSampler(equicorrelation(3, 0.6)),
                         140, np.random.default_rng(cfg.seed))
        ds = Dataset(name="s", times=list(range(140)), values=x,
                     columns=["a", "b", "c"], transform="none", tau=110)
        model = fit_mts(cfg, ds)
        n_pth = 40
        paths = rolling_forecasts(model, ds, n_pth, np.random.SeedSequence(cfg.seed))
        rngs = [np.random.default_rng(s)
                for s in np.random.SeedSequence(cfg.seed).spawn(ds.n_obs - ds.tau)]
        expected = np.stack([
            forecast_paths(model, ds.values[:t], n_pth, 1, rng)[:, 0, :]
            for t, rng in zip(range(ds.tau, ds.n_obs), rngs)])
        assert paths.shape == (30, n_pth, 3)
        assert np.array_equal(paths, expected)

    @pytest.mark.parametrize("n_pth", [0, -1, 2.5, True])
    def test_path_count_must_be_a_positive_integer(self, n_pth):
        x = np.random.default_rng(15).standard_normal((200, 3))
        ds = Dataset(name="s", times=list(range(200)), values=x,
                     columns=["a", "b", "c"], transform="none", tau=150)
        model = model_of(EmpiricalCopula(pseudo_observations(x[:150])), tau=150)
        with pytest.raises(InputError, match="must be an integer of at least 1"):
            rolling_forecasts(model, ds, n_pth, np.random.SeedSequence(0))

    def test_history_shorter_than_lags_rejected(self):
        x = np.random.default_rng(14).standard_normal((140, 2))
        ds = Dataset(name="s", times=list(range(140)), values=x,
                     columns=["a", "b"], transform="none", tau=110)
        model = fit_mts(PipelineConfig(orders=(2, 1, 1, 2)), ds)
        # a test period from t=1 has one step of history before its first origin
        short = dataclasses.replace(ds, tau=1)
        with pytest.raises(InputError, match="history must cover at least 2 steps"):
            rolling_forecasts(dataclasses.replace(model, tau=1), short, 5,
                              np.random.SeedSequence(0))


class TestTrainingWindow:
    """Test origins may not lie inside the window the model was fitted on."""

    def test_earlier_test_period_rejected(self, pipeline_run, synthetic_csv):
        _, result = pipeline_run
        with pytest.raises(InputError, match="tau=150.*tau=200"):
            rolling_forecasts(result.model, load_dataset(synthetic_csv, tau=150), 5,
                              np.random.SeedSequence(0))

    def test_later_test_period_accepted(self, pipeline_run, synthetic_csv):
        _, result = pipeline_run
        paths = rolling_forecasts(result.model, load_dataset(synthetic_csv, tau=230), 5,
                                  np.random.SeedSequence(0))
        assert paths.shape == (30, 5, 2)

    def test_cli_exit_code(self, pipeline_run, synthetic_csv, tmp_path):
        from mtsgen.cli import main
        path = tmp_path / "model.npz"
        save_model(pipeline_run[1].model, path)
        code = main(["assess", "--data", synthetic_csv, "--seed", "7", "--tau", "150",
                     "--model", str(path), "--out", str(tmp_path / "metrics.csv")])
        assert code == 2


class TestDataWidth:
    """Data whose width is not the model's margin count exit 2 before any filter runs."""

    @pytest.fixture(scope="class")
    def three_margins(self, tmp_path_factory):
        params = ArmaGarchParams(mu=0.0, phi=[0.2], gamma=[0.0], omega=0.05,
                                 alpha=[0.1], beta=[0.8], nu=6.0)
        margins = [MarginalFitResult(params=params, filter=None, loglik=0.0, converged=True)
                   for _ in range(3)]
        model = MtsModel(margins=margins, pca=PcaTransform.identity(3),
                         dependence=IndependenceCopula(3),
                         quantile_maps=QuantileMaps.scaled_t([6.0] * 3), tau=200)
        path = tmp_path_factory.mktemp("width") / "m.npz"
        save_model(model, path)
        return str(path)

    @pytest.mark.parametrize("command", ["forecast", "assess"])
    @pytest.mark.parametrize("width", [2, 4])
    def test_cli_exit_code(self, synthetic_csv, three_margins, tmp_path, monkeypatch, capsys,
                           command, width):
        import mtsgen.forecast as forecast
        from mtsgen.cli import main

        def arma_garch_filter(*args, **kw):
            raise AssertionError("a margin filter ran before the width check")

        monkeypatch.setattr(forecast, "arma_garch_filter", arma_garch_filter)
        x = np.loadtxt(synthetic_csv, delimiter=",", skiprows=1)[:, 1:]
        data = tmp_path / "x.csv"
        write_csv(data, x[:, np.arange(width) % 2])
        code = main([command, "--data", str(data), "--seed", "1", "--tau", "200",
                     "--model", three_margins, "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"has 3 margins, one per column, but the data have shape (260, {width})" in (
            capsys.readouterr().err)


def nan_omega(meta, data):
    meta["margins"][0]["omega"] = float("nan")


def rank_off_grid(meta, data):
    data["dep/ranks"] = data["dep/ranks"].copy()
    data["dep/ranks"][0, 0] = len(data["dep/ranks"]) + 1


def set_pca_k(k):
    def edit(meta, data):
        meta["pca_k"] = k
    return edit


def bootstrap_dim(k):
    """Give every replicate of a 2-d bootstrap file k columns and k tables."""
    def edit(meta, data):
        for b in range(meta["dep"]["n_bt"]):
            data[f"dep/c{b}/ranks"] = data[f"dep/c{b}/ranks"][:, np.arange(k) % 2]
            for j in range(k):
                data[f"dep/q{b}_{j}"] = data[f"dep/q{b}_{j % 2}"]
    return edit


def flatten_gamma(meta, data):
    data["pca/gamma"] = data["pca/gamma"].ravel()


def empty_table(key):
    def edit(meta, data):
        data[key] = np.empty(0)
    return edit


def two_dim_table(key):
    def edit(meta, data):
        data[key] = np.stack([data[key], data[key]])
    return edit


# edits of a 2-d bootstrap file that make its parts disagree in dimension,
# and the message that names the mismatch
DIMENSION_MISMATCHES = [
    (set_pca_k(0), r"k must be in \[1, 2\], got 0"),
    (set_pca_k(1), "PCA k=1, dependence dimension 2"),
    (set_pca_k(7), r"k must be in \[1, 2\], got 7"),
    (bootstrap_dim(1), "PCA k=2, dependence dimension 1"),
    (bootstrap_dim(3), "PCA k=2, dependence dimension 3"),
    (flatten_gamma, "corrupt model file .*: IndexError"),
]
MISMATCH_EDITS = [edit for edit, _ in DIMENSION_MISMATCHES]


def nest_mixture(meta, data):
    """Make replicate 0 a mixture of two copies of itself, with its own tables."""
    meta["dep/c0"] = {"kind": "bootstrap_mixture", "n_bt": 2}
    for b in range(2):
        meta[f"dep/c0/c{b}"] = meta["dep/c1"]
        data[f"dep/c0/c{b}/ranks"] = data["dep/c0/ranks"]
        for j in range(2):
            data[f"dep/c0/q{b}_{j}"] = data[f"dep/q0_{j}"]


def set_tau(tau):
    def edit(meta, data):
        meta["tau"] = tau
    return edit


# values a model file may not hold, and the message that names each
BAD_TAUS = ["abc", None, 0, -5, 2.5, True]
BAD_MODEL_VALUES = ([(nest_mixture, "must be single dependence models")]
                    + [(set_tau(t), "must be a positive integer") for t in BAD_TAUS])


@pytest.fixture(scope="module")
def bootstrap_model(synthetic_csv):
    cfg = PipelineConfig(dependence="empirical_beta", bootstrap_n_bt=2, seed=6)
    return fit_mts(cfg, load_dataset(synthetic_csv, tau=200))


@pytest.fixture(scope="module")
def pca_model(synthetic_csv):
    """A file of this model holds its empirical quantile tables `qmap/t*`."""
    cfg = PipelineConfig(dependence="empirical_beta", pca_enabled=True, pca_k_min=1, seed=6)
    return fit_mts(cfg, load_dataset(synthetic_csv, tau=200))


@pytest.fixture(scope="module")
def pca_bootstrap_model(synthetic_csv):
    """A file of this model holds each replicate's quantile tables `dep/q*`."""
    cfg = PipelineConfig(dependence="empirical_beta", pca_enabled=True, pca_k_min=1,
                         bootstrap_n_bt=2, seed=6)
    return fit_mts(cfg, load_dataset(synthetic_csv, tau=200))


class TestCorruptModelFile:
    def corrupt(self, model, path, drop_meta=None, drop_array=None, edit=None):
        import json
        save_model(model, path)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["__meta__"]).decode())
        if drop_meta:
            del meta[drop_meta]
        if drop_array:
            del data[drop_array]
        if edit:
            edit(meta, data)
        data["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **data)

    @pytest.mark.parametrize("drop", [{"drop_meta": "margins"},
                                      {"drop_meta": "pca_k"},
                                      {"drop_array": "margin0/phi"},
                                      {"drop_array": "pca/gamma"}])
    def test_missing_key_is_input_error(self, pipeline_run, tmp_path, drop):
        _, result = pipeline_run
        path = tmp_path / "model.npz"
        self.corrupt(result.model, path, **drop)
        with pytest.raises(InputError, match="corrupt model file"):
            load_model(path)

    def test_non_json_metadata_is_input_error(self, pipeline_run, tmp_path):
        _, result = pipeline_run
        path = tmp_path / "model.npz"
        save_model(result.model, path)
        data = dict(np.load(path))
        data["__meta__"] = np.frombuffer(b"{not json", dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        with pytest.raises(InputError):
            load_model(path)

    @pytest.mark.parametrize("entry", ["dep", "dep/c1"])
    def test_unknown_dependence_kind(self, bootstrap_model, tmp_path, entry):
        path = tmp_path / "model.npz"
        self.corrupt(bootstrap_model, path,
                     edit=lambda meta, data: meta[entry].update(kind="vine"))
        with pytest.raises(InputError, match="unknown dependence kind 'vine'"):
            load_model(path)

    @pytest.mark.parametrize("meta", [b"[1, 2]", b"3", b'"text"', b"null"])
    def test_metadata_must_be_an_object(self, pipeline_run, tmp_path, meta):
        path = tmp_path / "model.npz"
        save_model(pipeline_run[1].model, path)
        data = dict(np.load(path))
        data["__meta__"] = np.frombuffer(meta, dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        with pytest.raises(InputError, match="metadata is not a JSON object"):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [(nan_omega, "finite"),
                                               (rank_off_grid, "ranks")],
                             ids=["nan_omega", "rank_off_grid"])
    def test_inconsistent_values_are_input_errors(self, pipeline_run, tmp_path,
                                                  edit, message):
        # JSON writes the NaN as a bare NaN token, which json.loads reads back
        _, result = pipeline_run
        path = tmp_path / "model.npz"
        self.corrupt(result.model, path, edit=edit)
        with pytest.raises(InputError, match=message):
            load_model(path)

    @pytest.mark.parametrize("edit, message", DIMENSION_MISMATCHES,
                             ids=["pca_k_0", "pca_k_1", "pca_k_7", "dep_dim_1", "dep_dim_3",
                                  "gamma_1d"])
    def test_dimension_mismatch_is_named(self, bootstrap_model, tmp_path, edit, message):
        path = tmp_path / "model.npz"
        self.corrupt(bootstrap_model, path, edit=edit)
        with pytest.raises(InputError, match=message):
            load_model(path)

    @pytest.mark.parametrize("drop", [{"drop_meta": "margins"},
                                      {"drop_array": "margin1/beta"},
                                      {"edit": nan_omega},
                                      {"edit": rank_off_grid}]
                             + [{"edit": edit} for edit in MISMATCH_EDITS])
    def test_cli_exit_code(self, pipeline_run, bootstrap_model, synthetic_csv, tmp_path,
                           drop):
        from mtsgen.cli import main
        model = (bootstrap_model if drop.get("edit") in MISMATCH_EDITS
                 else pipeline_run[1].model)
        path = tmp_path / "model.npz"
        self.corrupt(model, path, **drop)
        code = main(["assess", "--data", synthetic_csv, "--seed", "7",
                     "--tau", "200", "--model", str(path),
                     "--out", str(tmp_path / "metrics.csv")])
        assert code == 2

    @pytest.mark.parametrize("bad", [lambda r: r.astype(float), lambda r: r[:, 0]],
                             ids=["float", "one_dim"])
    def test_bad_ranks_exit_code(self, pca_model, synthetic_csv, tmp_path, bad):
        from mtsgen.cli import main

        def edit(meta, data):
            assert meta["dep"]["kind"] == "empirical_beta"
            data["dep/ranks"] = bad(data["dep/ranks"])

        path = tmp_path / "model.npz"
        self.corrupt(pca_model, path, edit=edit)
        with pytest.raises(InputError, match="integer ranks"):
            load_model(path)
        code = main(["assess", "--data", synthetic_csv, "--seed", "7",
                     "--tau", "200", "--model", str(path),
                     "--out", str(tmp_path / "metrics.csv")])
        assert code == 2

    @pytest.mark.parametrize("key", ["qmap/t0", "dep/q0_0"])
    @pytest.mark.parametrize("bad", [empty_table, two_dim_table], ids=["empty", "2d"])
    def test_bad_quantile_table_exit_code(self, pca_model, pca_bootstrap_model, synthetic_csv,
                                          tmp_path, bad, key):
        from mtsgen.cli import main
        path = tmp_path / "model.npz"
        model = pca_model if key.startswith("qmap/") else pca_bootstrap_model
        self.corrupt(model, path, edit=bad(key))
        with pytest.raises(InputError, match="nonempty 1-d arrays"):
            load_model(path)
        code = main(["assess", "--data", synthetic_csv, "--seed", "7",
                     "--tau", "200", "--model", str(path),
                     "--out", str(tmp_path / "metrics.csv")])
        assert code == 2

    @pytest.mark.parametrize("edit, message", BAD_MODEL_VALUES,
                             ids=["nested_mixture"] + [f"tau_{t}" for t in BAD_TAUS])
    def test_bad_value_named_without_traceback(self, bootstrap_model, synthetic_csv,
                                               tmp_path, capsys, edit, message):
        from mtsgen.cli import main
        path, metrics = tmp_path / "model.npz", tmp_path / "metrics.csv"
        self.corrupt(bootstrap_model, path, edit=edit)
        with pytest.raises(InputError, match=message):
            load_model(path)
        code = main(["assess", "--data", synthetic_csv, "--seed", "7", "--tau", "200",
                     "--model", str(path), "--out", str(metrics)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not metrics.exists()


# GMMN values of the wrong type; their range checks would raise TypeError
BAD_GMMN_TYPES = [{"gmmn_dropout": "x"}, {"gmmn_n_bat": "7"}, {"gmmn_hidden_dims": [8, 2.5]}]


class TestGmmnFailFast:
    """GMMN settings are checked before any margin is fitted."""

    @pytest.fixture
    def no_margin_fits(self, monkeypatch):
        import mtsgen.pipeline as pipeline
        calls = []

        def fit_arma_garch(*args, **kw):
            calls.append(args)
            raise AssertionError("margin MLE ran before the config check")

        monkeypatch.setattr(pipeline, "fit_arma_garch", fit_arma_garch)
        return calls

    @pytest.mark.parametrize("bad", [
        {"gmmn_n_bat": 3}, {"gmmn_n_bat": 1}, {"gmmn_n_epo": 0},
        {"gmmn_dropout": 1.0}, {"gmmn_dropout": -0.1},
        {"gmmn_hidden_dims": (0,)}, {"gmmn_hidden_dims": ()},
        *BAD_GMMN_TYPES,
    ])
    def test_bad_gmmn_config_raises_before_margins(self, bad, no_margin_fits):
        x = np.random.default_rng(60).standard_normal((120, 2))
        ds = Dataset(name="s", times=list(range(120)), values=x,
                     columns=["a", "b"], transform="none", tau=100)
        with pytest.raises(ConfigError):
            fit_mts(PipelineConfig(dependence="gmmn", **bad), ds)
        assert no_margin_fits == []

    def test_other_dependence_ignores_gmmn_keys(self):
        x = np.random.default_rng(61).standard_normal((120, 2))
        ds = Dataset(name="s", times=list(range(120)), values=x,
                     columns=["a", "b"], transform="none", tau=100)
        fit_mts(PipelineConfig(dependence="independence", gmmn_n_bat=3), ds)

    def test_cli_exit_code(self, synthetic_csv, tmp_path, no_margin_fits):
        from mtsgen.cli import main
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"dependence": "gmmn", "gmmn_n_bat": 7}')
        code = main(["fit", "--data", synthetic_csv, "--seed", "1", "--tau", "200",
                     "--config", str(cfg), "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert no_margin_fits == []

    @pytest.mark.parametrize("bad", BAD_GMMN_TYPES)
    def test_bad_type_cli_exit_code(self, synthetic_csv, tmp_path, no_margin_fits, bad):
        from mtsgen.cli import main
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dependence": "gmmn", **bad}))
        code = main(["fit", "--data", synthetic_csv, "--seed", "1", "--tau", "200",
                     "--config", str(cfg), "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert no_margin_fits == []
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("command", [["fit"], ["bootstrap", "--n-bt", "2"]])
    def test_non_finite_training_exit_code(self, synthetic_csv, tmp_path,
                                           monkeypatch, command):
        from mtsgen import gmmn
        from mtsgen.cli import main

        glorot_init = gmmn.glorot_init

        def glorot_with_inf(*args, **kw):
            model = glorot_init(*args, **kw)
            model.weights[-1][0, 0] = np.inf
            return model

        monkeypatch.setattr(gmmn, "glorot_init", glorot_with_inf)
        out = tmp_path / "m.npz"
        code = main([*command, "--data", synthetic_csv, "--seed", "1", "--tau", "200",
                     "--dependence", "gmmn", "--epochs", "2", "--out", str(out)])
        assert code == 3
        assert not out.exists()


class TestFitCommand:
    """`fit` and `bootstrap` run one command; `bootstrap` also needs --n-bt >= 1."""

    def test_bootstrap_needs_a_replicate(self, synthetic_csv, tmp_path, monkeypatch):
        import mtsgen.pipeline as pipeline
        from mtsgen.cli import main

        def fit_arma_garch(*args, **kw):
            raise AssertionError("margin MLE ran before the --n-bt check")

        monkeypatch.setattr(pipeline, "fit_arma_garch", fit_arma_garch)
        out = tmp_path / "m.npz"
        code = main(["bootstrap", "--n-bt", "0", "--data", synthetic_csv, "--seed", "1",
                     "--tau", "200", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, config, message", [
        (["fit"], None, "fitted model (empirical_beta)"),
        (["bootstrap", "--n-bt", "2"], None, "bootstrap mixture (2 x empirical_beta)"),
        (["fit"], {"bootstrap_n_bt": 2}, "bootstrap mixture (2 x empirical_beta)"),
    ], ids=["fit", "bootstrap", "fit_bootstrap_config"])
    def test_message(self, synthetic_csv, tmp_path, capsys, command, config, message):
        # the message names the model fitted, whichever command or key asked for it
        from mtsgen.cli import main
        if config is not None:
            config_path = tmp_path / "c.json"
            config_path.write_text(json.dumps(config))
            command = [*command, "--config", str(config_path)]
        out = tmp_path / "m.npz"
        code = main([*command, "--data", synthetic_csv, "--seed", "1", "--tau", "200",
                     "--dependence", "empirical_beta", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out.startswith(f"{message} written to {out} [config ")
        assert load_model(out).dependence is not None


class TestUnreadableInput:
    """A text input that cannot be decoded or parsed exits 2, with no traceback."""

    @pytest.fixture
    def binary(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(bytes(range(256)) * 4)   # not UTF-8
        return str(path)

    @pytest.fixture
    def long_field(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("t,s0\n0," + "9" * 200_000 + "\n1,1.0\n2,2.0\n")
        return str(path)

    @pytest.mark.parametrize("which", ["binary", "long_field"])
    def test_data(self, tmp_path, capsys, request, which):
        from mtsgen.cli import main
        path = request.getfixturevalue(which)
        code = main(["fit", "--data", path, "--seed", "1", "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_config(self, synthetic_csv, binary, tmp_path, capsys):
        from mtsgen.cli import main
        code = main(["fit", "--data", synthetic_csv, "--seed", "1", "--config", binary,
                     "--out", str(tmp_path / "m.npz")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config {binary}: ")

    @pytest.mark.parametrize("which", ["binary", "long_field"])
    def test_report(self, capsys, request, which):
        from mtsgen.cli import main
        path = request.getfixturevalue(which)
        assert main(["report", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_no_traceback(self, synthetic_csv, binary, tmp_path):
        r = subprocess.run([sys.executable, "-m", "mtsgen.cli", "fit", "--data", binary,
                            "--seed", "1", "--out", str(tmp_path / "m.npz")],
                           capture_output=True, text=True, env=CHILD_ENV)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr

    def test_forecast_needs_a_model(self, synthetic_csv, tmp_path, capsys):
        from mtsgen.cli import main
        with pytest.raises(SystemExit) as exit_:
            main(["forecast", "--data", synthetic_csv, "--seed", "1",
                  "--out", str(tmp_path / "fc.npz")])
        assert exit_.value.code == 2
        assert "the following arguments are required: --model" in capsys.readouterr().err


class TestZeroGarchOrders:
    def test_cli_assess(self, synthetic_csv, tmp_path):
        # no GARCH terms: each margin has a constant variance
        from mtsgen.cli import main
        config, out = tmp_path / "c.json", tmp_path / "metrics.csv"
        config.write_text(json.dumps({"orders": [1, 1, 0, 0]}))
        code = main(["assess", "--data", synthetic_csv, "--seed", "1", "--tau", "200",
                     "--config", str(config), "--n-pth", "20", "--n-rep", "2",
                     "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            assert all(np.isfinite(float(row["value"])) for row in csv.DictReader(fh))


class TestNonFiniteMetric:
    def test_cli_assess_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # an AVS order of 1e6 overflows the powered gaps, and AVS comes out NaN
        from mtsgen.cli import main
        params = [ArmaGarchParams(mu=0.0, phi=[0.2], gamma=[0.1], omega=0.05,
                                  alpha=[0.1], beta=[0.8], nu=6.0)] * 3
        data, config, out = tmp_path / "x.csv", tmp_path / "c.json", tmp_path / "metrics.csv"
        write_csv(data, simulate_mts(params, GaussianCopulaSampler(equicorrelation(3, 0.5)),
                                     300, np.random.default_rng(0)))
        config.write_text(json.dumps({"vs_order": 1e6, "n_pth": 50, "n_rep": 2}))
        code = main(["assess", "--data", str(data), "--seed", "0", "--config", str(config),
                     "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "numerical failure: metric AVS^1e+06 is nan, not finite\n"
        assert not out.exists()


def metrics_row(dataset, model, metric, value) -> dict:
    return {"dataset": dataset, "model": model, "metric": metric, "value": value,
            "n_pth": 10, "n_rep": 2, "seed": 1, "config_hash": "h"}


class TestReport:
    def test_merge(self, tmp_path, capsys):
        from mtsgen.cli import main
        first, second, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "report.csv"
        write_metrics([metrics_row("B", "gmmn", "AMSE", "4.0"),
                       metrics_row("B", "gmmn", "AMMD", "3.0"),
                       metrics_row("A", "gmmn", "AMMD", "1.0"),
                       metrics_row("A", "gmmn", "AMSE", "2.0")], first)
        # the empirical model has no AMSE
        write_metrics([metrics_row("A", "empirical", "AMMD", "5.0")], second)
        assert main(["report", str(first), str(second), "--out", str(out)]) == 0
        want = [["dataset", "model", "AMMD", "AMSE"],
                ["A", "empirical", "5.0", ""],
                ["A", "gmmn", "1.0", "2.0"],
                ["B", "gmmn", "3.0", "4.0"]]
        printed = capsys.readouterr().out.splitlines()
        assert printed == ["\t".join(row) for row in want] + [f"report table written to {out}"]
        with open(out, newline="") as fh:
            assert list(csv.reader(fh)) == want

    @pytest.mark.parametrize("row", ["A,gmmn,AMMD", "A,gmmn,AMMD,1.0,10,2,1,h,extra"],
                             ids=["short", "long"])
    def test_row_with_missing_or_extra_cell(self, tmp_path, capsys, row):
        from mtsgen.cli import main
        path = tmp_path / "m.csv"
        path.write_text(",".join(METRICS_HEADER) + "\n" + row + "\n")
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: metrics file {path} has a row with a missing or extra cell\n")

    def test_empty_file(self, tmp_path, capsys):
        from mtsgen.cli import main
        path = tmp_path / "m.csv"
        path.write_text("")
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: metrics file {path} is missing required columns\n"


class TestUnwritableOut:
    """An `--out` that cannot be written exits 2 before any work, naming the path."""

    @pytest.mark.parametrize("command", [
        ["fit"], ["bootstrap", "--n-bt", "2"], ["forecast", "--model", "m.npz"], ["assess"],
    ], ids=["fit", "bootstrap", "forecast", "assess"])
    @pytest.mark.parametrize("out", ["/nonexistent/x", "."], ids=["no_dir", "a_dir"])
    def test_exit_code_before_any_fit(self, synthetic_csv, monkeypatch, capsys, command, out):
        import mtsgen.pipeline as pipeline
        from mtsgen.cli import main

        def fit_arma_garch(*args, **kw):
            raise AssertionError("margin MLE ran before the --out check")

        monkeypatch.setattr(pipeline, "fit_arma_garch", fit_arma_garch)
        code = main([*command, "--data", synthetic_csv, "--seed", "1", "--tau", "200",
                     "--out", out])
        assert code == 2
        assert capsys.readouterr().err == (f"error: cannot write --out {out}: "
                                           "not a file in an existing directory\n")

    def test_report(self, tmp_path, capsys):
        from mtsgen.cli import main
        code = main(["report", str(tmp_path / "metrics.csv"), "--out", "/nonexistent/x"])
        assert code == 2
        assert "cannot write --out /nonexistent/x" in capsys.readouterr().err

    def test_no_traceback(self, synthetic_csv):
        r = subprocess.run([sys.executable, "-m", "mtsgen.cli", "fit", "--data", synthetic_csv,
                            "--seed", "1", "--out", "/nonexistent/x"],
                           capture_output=True, text=True, env=CHILD_ENV)
        assert r.returncode == 2
        assert r.stderr.startswith("error: cannot write --out /nonexistent/x")
        assert "Traceback" not in r.stderr

    def test_failed_write_exit_code(self, synthetic_csv, tmp_path, monkeypatch, capsys):
        from mtsgen import cli
        out = tmp_path / "m.npz"

        def save_model(model, path):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(cli, "save_model", save_model)
        code = cli.main(["fit", "--data", synthetic_csv, "--seed", "1", "--tau", "200",
                         "--out", str(out)])
        assert code == 2
        assert str(out) in capsys.readouterr().err


# every kind of JSON value: scalars, with small counts and rates among them, and
# nested lists and objects of them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-1, 4) | st.floats()
    | st.floats(0.0, 1.0) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)
# dicts of any subset of the config keys, each holding its default or any JSON value
DEFAULTS = json.loads(PipelineConfig().canonical_json())
CONFIG_DICTS = st.sets(st.sampled_from(sorted(DEFAULTS))).flatmap(
    lambda keys: st.fixed_dictionaries({k: st.just(DEFAULTS[k]) | JSON_VALUES for k in keys}))


class TestConfigFailFast:
    """Every config value is checked when the config is built, before any fit."""

    BAD = [{"n_pth": 0}, {"n_pth": -3}, {"n_rep": 0}, {"vs_order": 0.0},
           {"var_alpha": 1.5}, {"var_alpha": 0.0}, {"pca_threshold": 0.0},
           {"pca_threshold": 1.5}, {"pca_k_min": 0}, {"bootstrap_n_bt": -1},
           {"horizon": 1}, {"n_pth": "many"}, {"n_pth": 10.5}, {"orders": 5},
           {"orders": [1.5, 1, 1, 1]}, {"gmmn_hidden_dims": 5},
           {"pca_enabled": "no"}, {"fix_mu_zero": "false"}, {"n_pth": True},
           {"bootstrap_n_bt": True}, {"vs_order": True}, {"orders": [1, 1, True, 1]},
           {"vs_order": float("nan")}, {"vs_order": float("inf")},
           # the gmmn_* keys enter config_hash, so they are checked for every kind
           {"dependence": "empirical", "gmmn_n_epo": 0}, {"gmmn_dropout": 5.0},
           {"dependence": "empirical_beta", "gmmn_hidden_dims": []}, {"gmmn_n_bat": 1}]

    @pytest.mark.parametrize("bad", BAD)
    def test_bad_value_raises_config_error(self, bad):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(bad)

    def test_config_file_must_hold_an_object(self, synthetic_csv, tmp_path):
        from mtsgen.cli import main
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["fit", "--data", synthetic_csv, "--seed", "1", "--config", str(cfg),
                     "--out", str(tmp_path / "m.npz")]) == 2

    @pytest.mark.parametrize("bad", [{"vs_order": "x"}, {"var_alpha": None}, {"seed": -1}])
    def test_bad_value_from_constructor(self, bad):
        with pytest.raises(ConfigError):
            PipelineConfig(**bad)

    @pytest.mark.parametrize("dims", [5, None, True])
    def test_hidden_dims_not_a_list(self, dims):
        with pytest.raises(ConfigError, match="hidden_dims must be a nonempty list"):
            PipelineConfig(gmmn_hidden_dims=dims)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(CONFIG_DICTS)
    def test_json_values_give_config_or_config_error(self, d):
        try:
            cfg = PipelineConfig.from_dict(d)
        except ConfigError:
            return
        assert PipelineConfig.from_dict(json.loads(cfg.canonical_json())) == cfg

    @pytest.fixture
    def no_margin_fits(self, monkeypatch):
        import mtsgen.pipeline as pipeline

        def fit_arma_garch(*args, **kw):
            raise AssertionError("margin MLE ran before the config check")

        monkeypatch.setattr(pipeline, "fit_arma_garch", fit_arma_garch)

    @pytest.mark.parametrize("command", ["fit", "assess"])
    def test_negative_seed_exit_code(self, synthetic_csv, tmp_path, capsys, no_margin_fits,
                                     command):
        # the seed is not in BAD: --seed overrides the config file's seed
        from mtsgen.cli import main
        out = tmp_path / "out"
        assert main([command, "--data", synthetic_csv, "--seed", "-1", "--tau", "200",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: seed=-1 must be nonnegative")
        assert not out.exists()

    def test_edge_values_accepted(self):
        PipelineConfig(n_pth=1, n_rep=1, pca_threshold=1.0, pca_k_min=1,
                       bootstrap_n_bt=0)

    @pytest.mark.parametrize("bad", BAD)
    def test_cli_exit_code(self, synthetic_csv, tmp_path, no_margin_fits, bad):
        from mtsgen.cli import main
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        code = main(["assess", "--data", synthetic_csv, "--seed", "1", "--tau", "200",
                     "--config", str(cfg), "--out", str(tmp_path / "metrics.csv")])
        assert code == 2
        assert not (tmp_path / "metrics.csv").exists()


ROUND_TRIP_KINDS = {
    "independence": {"dependence": "independence"},
    "empirical": {"dependence": "empirical"},
    "empirical_beta": {"dependence": "empirical_beta"},
    "gmmn": {"dependence": "gmmn", "gmmn_n_epo": 3, "gmmn_hidden_dims": (8,)},
    "empirical_beta_bt": {"dependence": "empirical_beta", "bootstrap_n_bt": 2},
    "gmmn_bt": {"dependence": "gmmn", "gmmn_n_epo": 3, "gmmn_hidden_dims": (8,),
                "bootstrap_n_bt": 2},
}


@pytest.fixture(scope="module")
def small_dataset():
    params = ArmaGarchParams(mu=0.0, phi=[0.2], gamma=[0.0], omega=0.05,
                             alpha=[0.1], beta=[0.8], nu=6.0)
    x = simulate_mts([params] * 3, GaussianCopulaSampler(equicorrelation(3, 0.6)),
                     140, np.random.default_rng(70))
    return Dataset(name="s", times=list(range(140)), values=x,
                   columns=["a", "b", "c"], transform="none", tau=110)


class TestRoundTrip:
    @pytest.mark.parametrize("pca", [False, True], ids=["no_pca", "pca"])
    @pytest.mark.parametrize("kind", sorted(ROUND_TRIP_KINDS))
    def test_forecasts_identical_after_load(self, small_dataset, tmp_path, kind, pca):
        cfg = PipelineConfig(pca_enabled=pca, pca_k_min=1, seed=71,
                             **ROUND_TRIP_KINDS[kind])
        model = fit_mts(cfg, small_dataset)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        a = forecast_paths(model, small_dataset.values, 60, 2, np.random.default_rng(72))
        b = forecast_paths(loaded, small_dataset.values, 60, 2, np.random.default_rng(72))
        assert np.array_equal(a, b)

    @staticmethod
    def assert_loads_with_old_entries(ds, model, path, add):
        # mtsgen-model-v1 files written before some entries were dropped
        # carry them; `add(meta, data)` puts them back into a saved file
        save_model(model, path)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["__meta__"]).decode())
        add(meta, data)
        data["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        a = forecast_paths(model, ds.values[:200], 50, 1, np.random.default_rng(5))
        b = forecast_paths(load_model(path), ds.values[:200], 50, 1,
                           np.random.default_rng(5))
        assert np.array_equal(a, b)

    @classmethod
    def assert_loads_with_dropped_keys(cls, ds, model, path, keys, entry=None):
        """Metadata `keys` at the top level of the metadata or in its `entry`."""
        def add(meta, data):
            part = meta if entry is None else meta[entry]
            assert not set(keys) & set(part)
            part.update(keys)

        cls.assert_loads_with_old_entries(ds, model, path, add)

    @classmethod
    def assert_loads_with_dropped_key(cls, pipeline_run, path, key, value):
        ds, result = pipeline_run
        cls.assert_loads_with_dropped_keys(ds, result.model, path, {key: value})

    def test_file_with_pca_enabled_key_loads(self, pipeline_run, tmp_path):
        self.assert_loads_with_dropped_key(pipeline_run, tmp_path / "model.npz",
                                           "pca_enabled", False)

    def test_file_with_d_key_loads(self, pipeline_run, tmp_path):
        d = pipeline_run[1].model.d
        self.assert_loads_with_dropped_key(pipeline_run, tmp_path / "model.npz", "d", d)

    def test_gmmn_file_with_old_net_keys_loads(self, small_dataset, tmp_path):
        model = fit_mts(PipelineConfig(seed=71, **ROUND_TRIP_KINDS["gmmn"]), small_dataset)
        old = {"kind": "gmmn", "bn_momentum": 0.99, "bn_eps": 1e-5, "seed": 12345,
               "kernel": [0.001, 0.01, 0.15, 0.25, 0.5, 0.75]}
        self.assert_loads_with_dropped_keys(small_dataset, model, tmp_path / "model.npz",
                                            old, entry="dep/net")

    def test_empirical_beta_file_with_n_key_loads(self, small_dataset, tmp_path):
        # n is the row count of the rank matrix; an edited n changes nothing
        cfg = PipelineConfig(seed=71, **ROUND_TRIP_KINDS["empirical_beta_bt"])
        model = fit_mts(cfg, small_dataset)
        self.assert_loads_with_dropped_keys(small_dataset, model, tmp_path / "model.npz",
                                            {"n": 10**6}, entry="dep/c0")

    def test_bootstrap_file_with_d_key_loads(self, small_dataset, tmp_path):
        cfg = PipelineConfig(seed=71, **ROUND_TRIP_KINDS["empirical_beta_bt"])
        model = fit_mts(cfg, small_dataset)
        self.assert_loads_with_dropped_keys(small_dataset, model, tmp_path / "model.npz",
                                            {"d": 3}, entry="dep")


STORED_ONCE_KINDS = {
    "independence": {"dependence": "independence"},
    "empirical": {"dependence": "empirical"},
    "empirical_beta": {"dependence": "empirical_beta"},
    "gmmn": ROUND_TRIP_KINDS["gmmn"],
}


@pytest.fixture(scope="module", params=[(kind, pca, n_bt) for kind in sorted(STORED_ONCE_KINDS)
                                        for pca in (False, True) for n_bt in (0, 2)],
                ids=lambda p: f"{p[0]}-{'pca' if p[1] else 'no_pca'}-{'bt' if p[2] else 'no_bt'}")
def every_model(request, small_dataset):
    """A config of each dependence kind, with and without PCA and bootstrap, and its model."""
    kind, pca, n_bt = request.param
    cfg = PipelineConfig(pca_enabled=pca, pca_k_min=1, bootstrap_n_bt=n_bt, seed=76,
                         **STORED_ONCE_KINDS[kind])
    return cfg, fit_mts(cfg, small_dataset)


def add_dropped_entries(cfg, meta, data):
    """The entries that earlier writers stored although other entries fix them."""
    k = meta["pca_k"]
    for prefix, entry in list(meta.items()):
        if isinstance(entry, dict) and entry.get("kind") == "independence":
            entry["d"] = k
        if isinstance(entry, dict) and entry.get("kind") == "empirical":
            ranks = data[f"{prefix}/ranks"]
            data[f"{prefix}/u"] = ranks / (len(ranks) + 1.0)
    if meta["dep"]["kind"] == "bootstrap_mixture":
        # a mixture's model-level maps, which nothing read: without PCA the
        # margins' nu, with PCA k tables (here the first replicate's)
        meta["qmap_mode"] = "empirical" if cfg.pca_enabled else "scaled_t"
        for j in range(k if cfg.pca_enabled else 0):
            data[f"qmap/t{j}"] = data[f"dep/q0_{j}"]
    if meta["qmap_mode"] == "scaled_t":
        data["qmap/nus"] = np.array([m["nu"] for m in meta["margins"]])
    else:
        meta["qmap_n"] = k


class TestStoredOnce:
    """A model file holds no value that other entries already fix."""

    def test_no_derived_entries(self, every_model, tmp_path):
        save_model(every_model[1], tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz") as data:
            keys = set(data.files)
            meta = json.loads(bytes(data["__meta__"]).decode())
        assert "qmap_n" not in meta and "qmap/nus" not in keys
        assert not any(key.endswith("/u") for key in keys)
        assert not any("d" in entry for entry in meta.values() if isinstance(entry, dict))
        mixture = meta["dep"]["kind"] == "bootstrap_mixture"
        assert mixture == ("qmap_mode" not in meta)
        assert not (mixture and any(key.startswith("qmap/") for key in keys))

    def test_loader_reads_exactly_the_keys_written(self, every_model, tmp_path, monkeypatch):
        import mtsgen.serialize as serialize

        read = set()

        class Spy(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        unpack = serialize._unpack_model
        monkeypatch.setattr(serialize, "_unpack_model",
                            lambda arrays, meta: unpack(Spy(arrays), meta))
        save_model(every_model[1], tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz") as data:
            written = set(data.files)
        load_model(tmp_path / "model.npz")
        assert read | {"__meta__"} == written

    def test_file_with_dropped_entries_loads(self, every_model, small_dataset, tmp_path):
        cfg, model = every_model
        TestRoundTrip.assert_loads_with_old_entries(
            small_dataset, model, tmp_path / "model.npz",
            lambda meta, data: add_dropped_entries(cfg, meta, data))


class _Independence(IndependenceCopula):
    """A subclass, which a model file cannot tell from its parent."""


def _mixture_of(component):
    tables = [np.arange(1.0, 6.0)] * component.d
    return BootstrapMixture(components=[component],
                            component_quantiles=[QuantileMaps(tables=tables)])


class TestSaveExactClass:
    """A dependence model is saved only under the kind of its exact class."""

    @pytest.mark.parametrize("dep, name", [
        (_Independence(2), "_Independence"),
        (GaussianCopulaSampler(equicorrelation(2, 0.5)), "GaussianCopulaSampler"),
        (_mixture_of(_Independence(2)), "_Independence"),
    ], ids=["subclass", "sampler", "mixture_of_subclass"])
    def test_refused(self, tmp_path, dep, name):
        with pytest.raises(InputError, match=f"cannot serialize dependence model {name}"):
            save_model(model_of(dep), tmp_path / "model.npz")
        assert not (tmp_path / "model.npz").exists()


@pytest.fixture(scope="module")
def model_files(small_dataset, tmp_path_factory):
    """The arrays of saved models that between them use every kind of entry."""
    files = []
    for i, cfg in enumerate([
            PipelineConfig(dependence="empirical", seed=73),
            PipelineConfig(dependence="independence", seed=73),
            PipelineConfig(pca_enabled=True, pca_k_min=1, seed=74,
                           **ROUND_TRIP_KINDS["gmmn_bt"]),
            PipelineConfig(pca_enabled=True, pca_k_min=1, seed=75,
                           **ROUND_TRIP_KINDS["empirical_beta"])]):
        path = tmp_path_factory.mktemp("fuzz") / f"m{i}.npz"
        save_model(fit_mts(cfg, small_dataset), path)
        with np.load(path) as data:
            files.append({k: data[k] for k in data.files})
    return files


def meta_leaves(node):
    """(container, key) of every value in parsed JSON metadata that is no object or list."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, (dict, list)):
            yield from meta_leaves(value)
        else:
            yield node, key


JSON_LEAVES = st.one_of(st.text(max_size=3), st.none(), st.booleans(), st.floats(),
                        st.lists(st.integers(-3, 9), max_size=3))


class TestLoaderFuzz:
    @pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
    def test_non_real_arrays_rejected(self, model_files):
        # such arrays would load, then fail untyped inside a forecast
        for arrays in model_files:
            for key in arrays:
                for dtype in ("U3", "complex128"):
                    buf = io.BytesIO()
                    np.savez(buf, **{**arrays, key: arrays[key].astype(dtype)})
                    with pytest.raises(InputError):
                        load_model(io.BytesIO(buf.getvalue()))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning",
                                "ignore::numpy.exceptions.ComplexWarning")
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_only_typed_errors(self, model_files, small_dataset, data):
        arrays = dict(data.draw(st.sampled_from(model_files)))
        how = data.draw(st.sampled_from(["drop_meta", "drop_array", "dtype", "truncate",
                                         "meta_value"]))
        if how in ("drop_meta", "meta_value"):
            meta = json.loads(bytes(arrays["__meta__"]).decode())
            if how == "drop_meta":
                del meta[data.draw(st.sampled_from(sorted(meta)))]
            else:
                # one leaf becomes a JSON value of another type
                node, key = data.draw(st.sampled_from(list(meta_leaves(meta))))
                node[key] = data.draw(JSON_LEAVES.filter(lambda v: type(v) is not type(node[key])))
            arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        elif how == "drop_array":
            del arrays[data.draw(st.sampled_from(sorted(arrays)))]
        elif how == "dtype":
            key = data.draw(st.sampled_from(sorted(arrays)))
            dtype = data.draw(st.sampled_from(["int8", "int64", "bool", "float32",
                                               "complex128", "U3"]))
            arrays[key] = arrays[key].astype(dtype)
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        raw = buf.getvalue()
        if how == "truncate":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
        try:
            model = load_model(io.BytesIO(raw))
        except InputError:
            return
        # what loads must forecast, or fail with a typed error
        try:
            forecast_paths(model, small_dataset.values, 5, 1, np.random.default_rng(0))
        except MtsgenError:
            pass


@pytest.fixture(scope="module")
def gmmn_file(small_dataset, tmp_path_factory):
    """A directory with a saved GMMN model of `small_dataset` and the data as CSV."""
    base = tmp_path_factory.mktemp("gmmn")
    save_model(fit_mts(PipelineConfig(seed=71, **ROUND_TRIP_KINDS["gmmn"]), small_dataset),
               base / "m.npz")
    write_csv(base / "x.csv", small_dataset.values)
    return base


class TestBnStatistics:
    """A GMMN file whose BN running statistics do not fit the net exits 2 at load."""

    @pytest.mark.parametrize("entry, bad", [
        (None, None),
        ("bn_mean0", np.zeros(0)), ("bn_mean0", np.zeros((8, 1))),
        ("bn_var0", np.ones(0)), ("bn_var0", np.ones((1, 8))),
        ("bn_var0", np.full(8, np.nan)), ("bn_var0", np.full(8, np.inf)),
        ("bn_var0", -np.ones(8)), ("bn_var0", np.zeros(8)),
    ], ids=["valid", "mean_empty", "mean_2d", "var_empty", "var_2d", "var_nan", "var_inf",
            "var_negative", "var_zero"])
    def test_forecast_exit_code(self, gmmn_file, small_dataset, tmp_path, capsys, entry, bad):
        from mtsgen.cli import main
        with np.load(gmmn_file / "m.npz") as data:
            arrays = {k: data[k] for k in data.files}
        if entry is not None:
            assert arrays[f"dep/net/{entry}"].shape == (8,)
            arrays[f"dep/net/{entry}"] = bad
        np.savez(tmp_path / "m.npz", **arrays)
        out = tmp_path / "fc.npz"
        code = main(["forecast", "--data", str(gmmn_file / "x.csv"), "--seed", "1",
                     "--tau", str(small_dataset.tau), "--n-pth", "20",
                     "--model", str(tmp_path / "m.npz"), "--out", str(out)])
        err = capsys.readouterr().err
        if entry is None:
            assert code == 0 and out.exists()
            return
        assert code == 2
        assert err.startswith("error: ") and entry in err and "Traceback" not in err
        assert not out.exists()


def set_meta(entry, key, value):
    """An edit of a model file's metadata: entry[key] becomes value, or value(entry[key])."""
    def edit(meta):
        node = meta
        for k in entry:
            node = node[k]
        node[key] = value(node[key]) if callable(value) else value
    return edit


META_REFUSALS = {
    **{f"dropout_{v}": (set_meta(["dep/net"], "dropout_rate", v), "dropout_rate must lie in [0, 1)")
       for v in ("x", None, 1.0, 2.0)},
    "no_hidden_layer": (set_meta(["dep/net"], "layer_dims", lambda dims: [dims[0], dims[-1]]),
                        "need at least one hidden layer"),
    "loglik_str": (set_meta(["margins", 0], "loglik", "abc"), "loglik='abc' must be a real number"),
    "converged_str": (set_meta(["margins", 1], "converged", "yes"),
                      "converged='yes' must be true or false"),
}


class TestMetaValueRefused:
    """A GMMN file whose net or margin metadata breaks its class's rules exits 2 at load."""

    @pytest.mark.parametrize("command", ["forecast", "assess"])
    @pytest.mark.parametrize("case", list(META_REFUSALS))
    def test_exit_code(self, gmmn_file, small_dataset, tmp_path, capsys, command, case):
        from mtsgen.cli import main
        edit, message = META_REFUSALS[case]
        with np.load(gmmn_file / "m.npz") as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        edit(meta)
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(tmp_path / "m.npz", **arrays)
        out = tmp_path / "out"
        code = main([command, "--data", str(gmmn_file / "x.csv"), "--seed", "1",
                     "--tau", str(small_dataset.tau), "--n-pth", "20",
                     "--model", str(tmp_path / "m.npz"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {message}\n"
        assert not out.exists()


class TestNonConvergedFit:
    """A margin whose best start did not converge is kept, with one logged warning."""

    @pytest.fixture
    def cut_short(self, monkeypatch):
        from mtsgen import margins
        monkeypatch.setattr(margins, "_MAXITER", 1)

    def run(self, small_dataset):
        cfg = PipelineConfig(dependence="empirical", n_pth=40, n_rep=3, seed=90)
        return run_pipeline(cfg, small_dataset)

    def test_warning_names_each_margin(self, small_dataset, cut_short, caplog):
        with caplog.at_level("WARNING", logger="mtsgen"):
            result = self.run(small_dataset)
        assert not any(m.converged for m in result.model.margins)
        assert [(r.name, r.levelname) for r in caplog.records] == [("mtsgen.pipeline", "WARNING")] * 3
        for j, (record, column) in enumerate(zip(caplog.records, small_dataset.columns)):
            assert record.getMessage().startswith(f"margin {j} ({column}):")

    def test_no_warning_when_converged(self, small_dataset, caplog):
        with caplog.at_level("WARNING", logger="mtsgen"):
            result = self.run(small_dataset)
        assert all(m.converged for m in result.model.margins)
        assert caplog.records == []

    def test_metrics_do_not_depend_on_logging(self, small_dataset, cut_short, caplog):
        with caplog.at_level("WARNING", logger="mtsgen"):
            logged = self.run(small_dataset)
        with caplog.at_level("CRITICAL", logger="mtsgen"):
            silent = self.run(small_dataset)
        assert logged.metrics == silent.metrics

    def test_silent_by_default(self, tmp_path):
        script = (
            "import numpy as np\n"
            "from mtsgen import PipelineConfig, fit_mts, margins\n"
            "from mtsgen.pipeline import Dataset\n"
            "margins._MAXITER = 1\n"
            "x = np.random.default_rng(0).standard_normal((80, 2))\n"
            "ds = Dataset(name='s', times=list(range(80)), values=x,\n"
            "             columns=['a', 'b'], transform='none', tau=60)\n"
            "model = fit_mts(PipelineConfig(), ds)\n"
            "print(sum(not m.converged for m in model.margins))\n")
        r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env=CHILD_ENV)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "2\n"
        assert r.stderr == ""


class TestVerbose:
    """-v/-vv send the `mtsgen` log to stderr for one CLI call; silent otherwise."""

    def run_main(self, capsys, *args):
        from mtsgen import cli
        logger = logging.getLogger("mtsgen")
        handlers, level = list(logger.handlers), logger.level
        code = cli.main(list(args))
        assert (logger.handlers, logger.level) == (handlers, level)
        return code, capsys.readouterr().err

    def gmmn_args(self, command, synthetic_csv, out, *extra):
        return (command, "--data", synthetic_csv, "--seed", "3", "--tau", "200",
                "--dependence", "gmmn", "--epochs", "4", "--out", str(out), *extra)

    def test_debug_prints_training_summary(self, synthetic_csv, tmp_path, capsys):
        code, err = self.run_main(capsys, *self.gmmn_args("fit", synthetic_csv,
                                                          tmp_path / "m.npz"), "-vv")
        assert code == 0
        assert "DEBUG mtsgen.gmmn: GMMN training: 4 steps, loss first" in err
        code, err = self.run_main(capsys, *self.gmmn_args("fit", synthetic_csv,
                                                          tmp_path / "m.npz"), "-v")
        assert code == 0 and "GMMN training" not in err
        code, err = self.run_main(capsys, *self.gmmn_args("fit", synthetic_csv,
                                                          tmp_path / "m.npz"))
        assert code == 0 and err == ""

    def test_metrics_identical_with_logging(self, synthetic_csv, tmp_path, capsys):
        quiet, loud = tmp_path / "quiet.csv", tmp_path / "loud.csv"
        extra = ("--n-pth", "50", "--n-rep", "3")
        assert self.run_main(capsys, *self.gmmn_args("assess", synthetic_csv, quiet,
                                                     *extra))[0] == 0
        code, err = self.run_main(capsys, *self.gmmn_args("assess", synthetic_csv, loud,
                                                          *extra, "-vv"))
        assert code == 0 and "GMMN training" in err
        assert quiet.read_bytes() == loud.read_bytes()

    def test_every_subcommand_takes_the_flag(self):
        from mtsgen import cli
        parser = cli.build_parser()
        for args in (["fit", "--data", "x", "--seed", "1", "--out", "o"],
                     ["bootstrap", "--data", "x", "--seed", "1", "--n-bt", "2", "--out", "o"],
                     ["forecast", "--data", "x", "--seed", "1", "--model", "m", "--out", "o"],
                     ["assess", "--data", "x", "--seed", "1", "--out", "o"],
                     ["report", "m.csv"]):
            assert parser.parse_args(args + ["-vv"]).verbose == 2
            assert parser.parse_args(args).verbose == 0
