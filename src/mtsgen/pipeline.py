"""End-to-end orchestration: ingest, fit, reduce, learn dependence, forecast, assess.

The pipeline runs per-column filtering of serial dependence, optional
principal-component reduction, pseudo-observation construction, dependence
fitting, rolling one-step forecasts over the test period, extraction of the
test-period dependence structure, and all assessment metrics.  Every
emitted number is reproducible from (input file, config, seed).
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _par, assess
from .bootstrap import BootstrapMixture, bootstrap_fit
from .dependence import (EmpiricalBetaCopula, EmpiricalCopula,
                         IndependenceCopula, QuantileMaps, pseudo_observations)
from .errors import ConfigError, InputError, NumericalError, is_integer, is_real
from .forecast import MtsModel, _filters, _paths, rolling_var
from .gmmn import GmmnCopula, TrainConfig, train_gmmn
from .margins import fit_arma_garch, valid_orders
from .pca import PcaTransform, _check_selection, fit_pca, project, select_k

__all__ = [
    "Dataset",
    "PipelineConfig",
    "PipelineResult",
    "load_dataset",
    "fit_mts",
    "run_pipeline",
    "seed_streams",
    "write_metrics",
    "METRICS_HEADER",
]

TRANSFORMS = ("none", "difference", "log_returns")
_KIND_OF = {IndependenceCopula: "independence", EmpiricalCopula: "empirical",
            EmpiricalBetaCopula: "empirical_beta", GmmnCopula: "gmmn"}
DEPENDENCE_KINDS = tuple(_KIND_OF.values())   # the config's `dependence` values
_TRAIN_FRAC = 0.7   # training share of the rows when load_dataset gets no tau

_log = logging.getLogger(__name__)

METRICS_HEADER = ["dataset", "model", "metric", "value", "n_pth", "n_rep",
                  "seed", "config_hash"]


# ---------------------------------------------------------------------------
# data ingestion
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    name: str
    times: list
    values: np.ndarray
    columns: list
    transform: str
    tau: int

    def __post_init__(self):
        x = self.values
        if not (isinstance(x, np.ndarray) and x.dtype.kind in "fiu" and x.ndim == 2
                and x.shape[1] >= 1):
            raise InputError("values must be a real (observations, series) array "
                             "with at least one series")
        if not np.isfinite(x).all():
            row, col = np.argwhere(~np.isfinite(x))[0]
            raise InputError(f"non-finite value at observation {row}, series {col}")
        if len(self.columns) != x.shape[1]:
            raise InputError(f"{len(self.columns)} column names for {x.shape[1]} series")
        if not is_integer(self.tau) or not 0 < self.tau < x.shape[0]:
            raise InputError(
                f"training cut tau={self.tau!r} must be an integer strictly inside "
                f"the {x.shape[0]} observations")

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]


def _apply_transform(raw: np.ndarray, transform: str) -> np.ndarray:
    if transform == "none":
        return raw
    if transform == "difference":
        with np.errstate(over="ignore"):   # Dataset refuses the infinite differences
            return np.diff(raw, axis=0)
    if transform == "log_returns":
        if np.any(raw <= 0.0):
            bad = np.argwhere(raw <= 0.0)[0]
            raise InputError(
                f"log-returns require strictly positive values; "
                f"row {bad[0] + 1}, column {bad[1] + 1} is nonpositive")
        return np.diff(np.log(raw), axis=0)
    raise ConfigError(f"unknown transform {transform!r}")


def load_dataset(path, transform: str = "none", tau: int | None = None,
                 name: str | None = None) -> Dataset:
    """Parse a delimited text table: time label first, numeric columns after.

    The configured transform is applied (difference / log-returns drop the
    first row).  When `tau` is not given, the training cut is placed at
    _TRAIN_FRAC of the transformed length.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if len(rows) < 3:
        raise InputError(f"{path}: need a header and at least two data rows")
    header = rows[0]
    if len(header) < 2:
        raise InputError(f"{path}: need a time column and at least one value column")
    columns = header[1:]
    times = []
    values = np.empty((len(rows) - 1, len(columns)))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise InputError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
        times.append(row[0])
        for j, cell in enumerate(row[1:], start=1):
            try:
                values[i - 2, j - 1] = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}: non-numeric cell at row {i}, column {j + 1}: {cell!r}") from None
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise InputError(f"{path}: non-finite value at row {bad[0] + 2}, column {bad[1] + 2}")

    # time labels: numeric if they all parse, lexicographic otherwise
    try:
        keys = [float(t) for t in times]
    except ValueError:
        keys = times
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise InputError(f"{path}: time labels must be strictly increasing")

    out = _apply_transform(values, transform)
    if transform != "none":
        times = times[1:]
    if tau is None:
        tau = int(round(_TRAIN_FRAC * out.shape[0]))
    return Dataset(name=name or str(path), times=times, values=out,
                   columns=columns, transform=transform, tau=tau)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    orders: tuple = (1, 1, 1, 1)
    fix_mu_zero: bool = False
    pca_enabled: bool = False
    pca_threshold: float = 0.95
    pca_k_min: int = 3
    dependence: str = "independence"
    bootstrap_n_bt: int = 0
    gmmn_n_epo: int = 1000
    gmmn_n_bat: int | None = None
    gmmn_hidden_dims: tuple = (100,)
    gmmn_dropout: float = 0.5
    n_pth: int = 1000
    n_rep: int = 100
    vs_order: float = 0.25
    var_alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.dependence not in DEPENDENCE_KINDS:
            raise ConfigError(f"dependence must be one of {DEPENDENCE_KINDS}")
        if not valid_orders(self.orders):
            raise ConfigError("orders must be four nonnegative integers")
        for key in ("fix_mu_zero", "pca_enabled"):
            if not isinstance(getattr(self, key), bool):
                raise ConfigError(f"{key} must be true or false")
        for key in ("n_pth", "bootstrap_n_bt", "seed"):
            if not is_integer(getattr(self, key)):
                raise ConfigError(f"{key} must be an integer")
        for key in ("vs_order", "var_alpha"):
            if not is_real(getattr(self, key)):
                raise ConfigError(f"{key} must be a real number")
        for key in ("bootstrap_n_bt", "seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key}={getattr(self, key)} must be nonnegative")
        # n_rep, the gmmn_* and the pca_* keys, checked for every dependence kind
        self.assess_config()
        self.train_config(self.seed)
        _check_selection(self.pca_threshold, self.pca_k_min)
        # NumPy scalars as Python numbers, which the canonical JSON can hold
        for key in self.__dataclass_fields__:
            v = getattr(self, key)
            if isinstance(v, (tuple, list, np.ndarray)):
                object.__setattr__(self, key, tuple(int(h) for h in v))
            elif is_integer(v):
                object.__setattr__(self, key, int(v))
            elif is_real(v):
                object.__setattr__(self, key, float(v))
        if self.n_pth < 1:
            raise ConfigError(f"n_pth={self.n_pth} must be at least 1")
        if not 0.0 < self.vs_order < math.inf:
            raise ConfigError(f"vs_order={self.vs_order} must be positive and finite")
        if not 0.0 < self.var_alpha < 1.0:
            raise ConfigError(f"var_alpha={self.var_alpha} must lie in (0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]

    def assess_config(self) -> assess.AssessConfig:
        return assess.AssessConfig(n_rep=self.n_rep)

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(n_epo=self.gmmn_n_epo, n_bat=self.gmmn_n_bat,
                           hidden_dims=self.gmmn_hidden_dims,
                           dropout_rate=self.gmmn_dropout, seed=seed)


# ---------------------------------------------------------------------------
# fitting and orchestration
# ---------------------------------------------------------------------------

def seed_streams(seed: int) -> tuple:
    """The two children of the master seed, the whole seed lineage of a run.

    `fit_mts` fits the dependence model from the first and draws the bootstrap
    resamples from the second; forecasts draw from the first, AMMD from the second.
    """
    return tuple(np.random.SeedSequence(seed).spawn(2))


def _fit_dependence(cfg: PipelineConfig, ps, seed: int):
    """The cfg.dependence model of the PseudoSample `ps`; a GMMN trains from `seed`."""
    if cfg.dependence == "independence":
        return IndependenceCopula(ps.d)
    if cfg.dependence == "empirical":
        return EmpiricalCopula(ps)
    if cfg.dependence == "empirical_beta":
        return EmpiricalBetaCopula(ps)
    return GmmnCopula(train_gmmn(ps.u, cfg.train_config(seed)))


def fit_mts(cfg: PipelineConfig, dataset: Dataset) -> MtsModel:
    """deGARCH each column, optionally reduce, and fit the dependence model.

    A margin whose best MLE start did not converge is kept, and a warning
    naming it goes to the ``mtsgen`` logger.
    """
    n_bat = cfg.gmmn_n_bat
    if cfg.dependence == "gmmn" and n_bat is not None and dataset.tau % n_bat != 0:
        # training would refuse it only after the margin fits
        raise ConfigError(f"gmmn_n_bat={n_bat} must divide tau={dataset.tau}")
    x_train = dataset.values[:dataset.tau]
    d = dataset.d
    margins = _par.fork_map(lambda j: fit_arma_garch(x_train[:, j], orders=cfg.orders,
                                                     fix_mu_zero=cfg.fix_mu_zero), range(d))
    for j, m in enumerate(margins):
        if not m.converged:
            _log.warning("margin %d (%s): the best start of the MLE did not converge",
                         j, dataset.columns[j])
    z = np.column_stack([m.filter.z_t for m in margins])

    if cfg.pca_enabled:
        pca = fit_pca(z)
        k = select_k(pca.lambdas, cfg.pca_threshold, cfg.pca_k_min)
        pca = pca.with_k(k)
    else:
        pca = PcaTransform.identity(d)
    y = project(pca, z)

    dep_ss, boot_ss = seed_streams(cfg.seed)
    # fit b, the model or replicate b (bootstrap_fit's call b), takes word b
    seeds = iter(dep_ss.generate_state(max(cfg.bootstrap_n_bt, 1), dtype=np.uint64).tolist())
    if cfg.bootstrap_n_bt > 0:
        # each replicate holds the inverse margins of its own resample
        dep = bootstrap_fit(y, cfg.bootstrap_n_bt, lambda ps: _fit_dependence(cfg, ps, next(seeds)),
                            np.random.default_rng(boot_ss))
        qmaps = None
    else:
        dep = _fit_dependence(cfg, pseudo_observations(y), next(seeds))
        qmaps = (QuantileMaps.empirical(y) if cfg.pca_enabled
                 else QuantileMaps.scaled_t([m.params.nu for m in margins]))

    return MtsModel(margins=margins, pca=pca, dependence=dep,
                    quantile_maps=qmaps, tau=dataset.tau)


def _test_dependence(model: MtsModel, dataset: Dataset, filters: list) -> np.ndarray:
    """Pseudo-observations of the projected test-period residuals."""
    z = np.column_stack([f.z_t for f in filters])
    y_test = project(model.pca, z[dataset.tau:])
    return pseudo_observations(y_test).u


def _one_step_paths(model: MtsModel, dataset: Dataset, filters: list, n_pth: int,
                    seed_seq: np.random.SeedSequence) -> np.ndarray:
    """:func:`rolling_forecasts` from the given filter pass of each margin."""
    if dataset.tau < model.tau:
        raise InputError(f"the test period starts at tau={dataset.tau}, inside the "
                         f"model's training window (tau={model.tau})")
    origins = np.arange(dataset.tau, dataset.n_obs)
    return _paths(model, dataset.values, filters, origins, n_pth, 1,
                  seed_seq.spawn(len(origins)))[:, :, 0]


def rolling_forecasts(model: MtsModel, dataset: Dataset, n_pth: int,
                      seed_seq: np.random.SeedSequence) -> np.ndarray:
    """One-step paths for every test origin t = tau .. T-1, shape (n_test, n_pth, d).

    Origin t draws from its own child of `seed_seq` and continues each
    margin from the lags after x[:t]; the paths equal those of
    forecast_paths(model, x[:t], n_pth, 1, rng_t).  The test period must
    not start inside the model's training window.
    """
    return _one_step_paths(model, dataset, _filters(model, dataset.values), n_pth, seed_seq)


def _model_name(dep) -> str:
    """The metrics' `model` label of `dep`: its kind, with "_bt" for a bootstrap mixture."""
    if isinstance(dep, BootstrapMixture):
        return _model_name(dep.components[0]) + "_bt"
    if type(dep) not in _KIND_OF:
        raise InputError(f"no metrics label for dependence model {type(dep).__name__}")
    return _KIND_OF[type(dep)]


@dataclass
class PipelineResult:
    model: MtsModel
    paths: np.ndarray
    u_test: np.ndarray
    var_series: np.ndarray
    metrics: list


def run_pipeline(cfg: PipelineConfig, dataset: Dataset,
                 model: MtsModel | None = None) -> PipelineResult:
    """Full fit -> forecast -> assess run; pass `model` to skip refitting; it names the metrics.

    A metric that is not finite raises NumericalError.
    """
    if model is None:
        model = fit_mts(cfg, dataset)
    model_name = _model_name(model.dependence)

    fc_ss, ammd_ss = seed_streams(cfg.seed)
    # one filter pass per margin serves the forecasts and the test residuals
    filters = _filters(model, dataset.values)
    paths = _one_step_paths(model, dataset, filters, cfg.n_pth, fc_ss)
    u_test = _test_dependence(model, dataset, filters)
    x_test = dataset.values[dataset.tau:]

    var_series = rolling_var(paths, cfg.var_alpha)
    s_actual = x_test.sum(axis=1)

    acfg = cfg.assess_config()
    values = {
        "AMMD": assess.ammd(u_test, model.dependence, acfg,
                            np.random.default_rng(ammd_ss)),
        "AMSE": assess.amse(paths, x_test),
        f"AVS^{cfg.vs_order:g}": assess.avs(paths, x_test, cfg.vs_order),
        f"VEAR_{cfg.var_alpha:g}": assess.vear(s_actual, var_series, cfg.var_alpha),
    }
    for k, v in values.items():
        if not np.isfinite(v):
            raise NumericalError(f"metric {k} is {v!r}, not finite")
    metrics = [
        {"dataset": dataset.name, "model": model_name, "metric": k,
         "value": repr(v), "n_pth": cfg.n_pth, "n_rep": cfg.n_rep,
         "seed": cfg.seed, "config_hash": cfg.config_hash}
        for k, v in values.items()]
    return PipelineResult(model=model, paths=paths, u_test=u_test,
                          var_series=var_series, metrics=metrics)


def write_metrics(rows: list, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRICS_HEADER)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
