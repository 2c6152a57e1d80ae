"""Draws and metrics pinned bit for bit, whatever the number of workers.

The pins in ``data/draw_pins`` were recorded with the sequential draw path
that preceded the two-phase draws (one ``sample_quantiles`` call per origin,
one margin after another, one AMMD repetition after another), together with
a model file per case saved by that code.  Every case's rolling paths,
``forecast_paths`` (h=3) and metrics rows must keep those bytes, from the
fitted model and from the saved file, for 1, 2 and 3 workers.

The bytes depend on numpy's and scipy's floating-point kernels, so the
comparison runs only under the versions the pins were recorded with.  To
record them anew (under a source tree on ``PYTHONPATH``)::

    python tests/test_draw_pins.py
"""

import hashlib
import json
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy

from mtsgen import _par, forecast_paths, load_model, run_pipeline, save_model
from mtsgen.datagen import GaussianCopulaSampler, equicorrelation, simulate_mts
from mtsgen.margins import ArmaGarchParams
from mtsgen.pipeline import Dataset, PipelineConfig, fit_mts

PINS = Path(__file__).parent / "data" / "draw_pins"
KINDS = ("independence", "empirical", "empirical_beta", "gmmn")
CASES = [f"{kind}-pca{int(pca)}-bt{n_bt}" for kind in KINDS for pca in (0, 1) for n_bt in (0, 3)]
# 130 test origins span three blocks of forecast._ORIGIN_BLOCK; 12 AMMD
# repetitions span two of assess._REP_BLOCK
TAU, T, H = 120, 250, 3


def config(case: str) -> PipelineConfig:
    kind, pca, n_bt = case.split("-")
    return PipelineConfig(dependence=kind, pca_enabled=pca == "pca1", pca_k_min=1,
                          bootstrap_n_bt=int(n_bt[2:]), gmmn_n_epo=3, gmmn_hidden_dims=(8,),
                          n_pth=30, n_rep=12, seed=CASES.index(case))


def dataset() -> Dataset:
    params = ArmaGarchParams(mu=0.0, phi=[0.2], gamma=[0.0], omega=0.05,
                             alpha=[0.1], beta=[0.8], nu=6.0)
    x = simulate_mts([params] * 4, GaussianCopulaSampler(equicorrelation(4, 0.8)), T,
                     np.random.default_rng(90))
    return Dataset(name="pins", times=list(range(T)), values=x, columns=list("abcd"),
                   transform="none", tau=TAU)


def outputs(cfg: PipelineConfig, ds: Dataset, model) -> dict:
    """sha256 of the rolling paths and of forecast_paths, and the metrics rows."""
    result = run_pipeline(cfg, ds, model=model)
    paths = forecast_paths(model, ds.values[:TAU + 7], cfg.n_pth, H,
                           np.random.default_rng(cfg.seed))
    return {"rolling": hashlib.sha256(result.paths.tobytes()).hexdigest(),
            "forecast": hashlib.sha256(paths.tobytes()).hexdigest(),
            "metrics": result.metrics}


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def record() -> None:
    PINS.mkdir(parents=True, exist_ok=True)
    ds = dataset()
    pins = {"versions": versions(), "cases": {}}
    for case in CASES:
        cfg = config(case)
        model = fit_mts(cfg, ds)
        save_model(model, PINS / f"{case}.npz")
        pins["cases"][case] = outputs(cfg, ds, model)
    (PINS / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")


@pytest.fixture(scope="module")
def pins():
    pins = json.loads((PINS / "pins.json").read_text())
    if pins["versions"] != versions():
        pytest.skip(f"pins recorded under {pins['versions']}, running {versions()}")
    return pins["cases"]


@pytest.fixture(scope="module")
def data():
    return dataset()


@pytest.fixture(scope="module", params=CASES)
def case(request, data):
    cfg = config(request.param)
    return request.param, cfg, fit_mts(cfg, data)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("source", ["fitted", "file"])
def test_outputs_keep_their_bytes(case, source, workers, pins, data, monkeypatch):
    name, cfg, model = case
    if source == "file":
        model = load_model(PINS / f"{name}.npz")
    monkeypatch.setattr(_par, "_WORKERS", workers)
    before = set(threading.enumerate())
    assert outputs(cfg, data, model) == pins[name]
    assert set(threading.enumerate()) == before    # no thread outlives run_pipeline


if __name__ == "__main__":
    record()
