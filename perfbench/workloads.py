"""The benchmark's workloads and the seeded inputs each one hands to mtsgen.

Every workload simulates T observations of d ARMA(1,1)-GARCH(1,1) margins
with scaled-t innovations joined by a Gaussian copula, then fits on the first
TAU rows and assesses one-step forecasts at the remaining T - TAU origins
with the paper's defaults for n_pth and n_rep.  mtsgen receives only the
generated inputs: a Dataset and a PipelineConfig, or a CSV file and a JSON
config for the command line.

This module imports numpy and mtsgen only inside `prepare`, so the parent
process (run.py) can read the workload table without paying for them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Everything a run writes: inputs, model files, results, spans, tables.
OUT = ROOT / ".bench_build" / "perfbench"

T = 1000
TAU = 700
N_TEST = T - TAU
N_PTH = 1000
N_REP = 100
MARGIN = {"mu": 0.0, "phi": 0.2, "gamma": 0.0, "omega": 0.05, "alpha": 0.1,
          "beta": 0.85, "nu": 6.0}
# The metrics the table must hold, named as run_pipeline names them for the
# default vs_order 0.25 and var_alpha 0.05.
TABLE_METRICS = ("AMMD", "AMSE", "AVS^0.25", "VEAR_0.05")


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    rho: float            # equicorrelation of the Gaussian copula
    config: dict          # PipelineConfig keys besides n_pth, n_rep and seed
    cli: bool             # drive mtsgen.cli.main (model on disk) instead of the API
    why: str
    busy_layers: tuple    # layers the traced run must see working
    idle_layers: tuple = field(default=())  # layers that must record no call


WORKLOADS = {w.name: w for w in (
    Workload(
        "emp-d5", 5, 0.5, {"dependence": "empirical"}, False,
        "d=5 rho 0.5 empirical, no PCA, API with in-memory model: bound by "
        "rolling forecasts and AMMD; the GMMN does no work, so it bypasses "
        "any gmmn change",
        busy_layers=("margins", "dependence", "forecast", "assess", "pipeline"),
        idle_layers=("gmmn",)),
    Workload(
        "gmmn-d5", 5, 0.5,
        {"dependence": "gmmn", "gmmn_n_epo": 100, "gmmn_hidden_dims": [100],
         "gmmn_dropout": 0.5}, False,
        "d=5 rho 0.5 gmmn, 100 full-batch epochs, hidden (100,), dropout 0.5: "
        "bound by training (MMD kernel, backprop, Adam); eval samples the net "
        "300x1000 times",
        busy_layers=("margins", "gmmn", "forecast", "assess", "pipeline")),
    Workload(
        "pca-d30-boot", 30, 0.95,
        {"pca_enabled": True, "dependence": "empirical_beta",
         "bootstrap_n_bt": 10}, True,
        "d=30 rho 0.95, PCA k=3, empirical_beta bootstrap n_bt=10 via mtsgen "
        "bootstrap/assess: 30 MLEs, model on disk, 30-margin forecasts, 4 GB AVS; "
        "no GMMN work, so it bypasses gmmn changes",
        busy_layers=("margins", "pca", "dependence", "forecast", "assess",
                     "bootstrap", "pipeline", "serialize", "cli"),
        idle_layers=("gmmn",)),
)}


def sizes(w: Workload) -> dict:
    """Input sizes printed next to the times."""
    return {"T": T, "tau": TAU, "n_test": N_TEST, "d": w.d, "n_pth": N_PTH,
            "n_rep": N_REP}


@dataclass
class Inputs:
    """What one workload hands to mtsgen; API or CLI fields are set, not both."""

    dataset: object = None
    config: object = None
    bootstrap_argv: list = None
    assess_argv: list = None
    model_path: Path = None
    metrics_path: Path = None


def simulate(w: Workload, seed: int):
    """The T x d series for `seed`: the same seed gives the same array."""
    import numpy as np
    from mtsgen import datagen, margins

    params = margins.ArmaGarchParams(**MARGIN)
    copula = datagen.GaussianCopulaSampler(datagen.equicorrelation(w.d, w.rho))
    return datagen.simulate_mts([params] * w.d, copula, T,
                                np.random.default_rng(seed))


def prepare(w: Workload, seed: int, work: Path) -> Inputs:
    """Generate the series and build the Dataset, or write the CSV and config."""
    from mtsgen import pipeline

    x = simulate(w, seed)
    columns = [f"x{j}" for j in range(w.d)]
    config = {**w.config, "n_pth": N_PTH, "n_rep": N_REP}
    if not w.cli:
        dataset = pipeline.Dataset(name=w.name, times=[str(t) for t in range(T)],
                                   values=x, columns=columns, transform="none",
                                   tau=TAU)
        return Inputs(dataset=dataset,
                      config=pipeline.PipelineConfig.from_dict({**config, "seed": seed}))

    work.mkdir(parents=True, exist_ok=True)
    data, config_path = work / "series.csv", work / "config.json"
    model, metrics = work / "model.npz", work / "metrics.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", *columns])
        # repr is the shortest text that parses back to the same double
        writer.writerows([t, *map(repr, row)] for t, row in enumerate(x.tolist()))
    config_path.write_text(json.dumps(config))
    common = ["--data", str(data), "--config", str(config_path), "--seed", str(seed),
              "--tau", str(TAU), "--dataset-name", w.name]
    return Inputs(
        bootstrap_argv=["bootstrap", *common, "--n-bt", str(w.config["bootstrap_n_bt"]),
                        "--out", str(model)],
        assess_argv=["assess", *common, "--model", str(model), "--out", str(metrics)],
        model_path=model, metrics_path=metrics)
