"""Rolling h-step-ahead path simulation and portfolio VaR extraction.

Given a fitted multivariate model, paths are simulated by drawing joint
uniforms from the dependence model, mapping them through the inverse
margins, lifting back to the full dimension, and continuing the marginal
mean/variance recursions from the filtered history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dependence import DependenceModel
from .errors import InputError
from .margins import (LaggedState, arma_garch_filter, arma_garch_simulate,
                      scaled_t_quantile)
from .pca import PcaTransform, lift

__all__ = [
    "QuantileMaps",
    "empirical_quantile",
    "MtsModel",
    "PredictivePaths",
    "forecast_paths",
    "aggregate_returns",
    "var_forecast",
    "rolling_var",
]


def empirical_quantile(sorted_values: np.ndarray, p) -> np.ndarray:
    """Lower empirical quantile: the order statistic at index ceil(p * n).

    `sorted_values` must be ascending.  The lower convention is conservative
    for small levels in a risk context and exactly testable.
    """
    p = np.asarray(p, dtype=float)
    n = len(sorted_values)
    idx = np.clip(np.ceil(p * n).astype(int) - 1, 0, n - 1)
    return sorted_values[idx]


class QuantileMaps:
    """Componentwise inverse margins for the dependence sample.

    Parametric mode applies the scaled-t quantile of each fitted margin
    (used when no dimension reduction is in play); empirical mode uses
    per-component quantile tables of the training components.
    """

    def __init__(self, mode: str, nus: np.ndarray | None = None,
                 tables: list | None = None):
        if mode not in ("scaled_t", "empirical"):
            raise InputError(f"unknown quantile-map mode {mode!r}")
        self.mode = mode
        self.nus = None if nus is None else np.asarray(nus, dtype=float)
        self.tables = None if tables is None else [np.sort(np.asarray(t, dtype=float)) for t in tables]

    @classmethod
    def scaled_t(cls, nus) -> "QuantileMaps":
        return cls("scaled_t", nus=nus)

    @classmethod
    def empirical(cls, y_columns) -> "QuantileMaps":
        """Tables from the columns of a training component matrix."""
        y = np.asarray(y_columns, dtype=float)
        return cls("empirical", tables=[y[:, j] for j in range(y.shape[1])])

    @property
    def d(self) -> int:
        return len(self.nus) if self.mode == "scaled_t" else len(self.tables)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        out = np.empty_like(u)
        for j in range(u.shape[1]):
            if self.mode == "scaled_t":
                out[:, j] = scaled_t_quantile(u[:, j], self.nus[j])
            else:
                out[:, j] = empirical_quantile(self.tables[j], u[:, j])
        return out


@dataclass
class MtsModel:
    """Fitted multivariate model: margins, optional reduction, dependence."""

    margins: list
    pca: PcaTransform
    dependence: DependenceModel
    quantile_maps: QuantileMaps
    tau: int

    @property
    def d(self) -> int:
        return len(self.margins)

    @property
    def d_star(self) -> int:
        return self.pca.k


@dataclass
class PredictivePaths:
    """Simulated forward values: values[i, s, j] is path i, step s+1, component j."""

    values: np.ndarray
    origin: int
    horizon: int

    def __post_init__(self):
        if self.values.ndim != 3 or self.values.shape[1] != self.horizon:
            raise InputError("values must have shape (n_pth, horizon, d)")


def _innovations(model: MtsModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n joint innovations, shape (n, d): dependence draw, inverse margins, lift."""
    return lift(model.pca, model.dependence.sample_quantiles(n, rng, model.quantile_maps))


def _max_lag(model: MtsModel) -> int:
    """Longest lag any margin's recursions reach back."""
    return max(max(m.params.orders) for m in model.margins)


def forecast_paths(model: MtsModel, history, n_pth: int, h: int,
                   rng: np.random.Generator) -> PredictivePaths:
    """Simulate n_pth paths of length h conditional on the observed history.

    Each margin is filtered over the history, and its recursions continue
    from the lags at the end of it.
    """
    history = np.atleast_2d(np.asarray(history, dtype=float))
    if history.ndim != 2 or history.shape[1] != model.d:
        raise InputError(f"history must have {model.d} columns")
    t = history.shape[0]
    if t < _max_lag(model):
        raise InputError(f"history must cover at least {_max_lag(model)} steps")

    # each margin's innovations are overwritten by its paths
    values = _innovations(model, n_pth * h, rng).reshape(n_pth, h, model.d)
    for j, fit in enumerate(model.margins):
        x = history[:, j]
        state = LaggedState.at(fit.params, x, arma_garch_filter(fit.params, x), t)
        values[:, :, j] = arma_garch_simulate(fit.params, values[:, :, j], state)
    return PredictivePaths(values=values, origin=t, horizon=h)


def aggregate_returns(paths: PredictivePaths, s: int = 0) -> np.ndarray:
    """Componentwise sum at step s of every path (aggregate portfolio value)."""
    return paths.values[:, s, :].sum(axis=1)


def var_forecast(aggregates, alpha: float) -> float:
    """Empirical alpha-quantile of the aggregate predictive sample (lower convention)."""
    agg = np.sort(np.asarray(aggregates, dtype=float))
    if not 0.0 < alpha < 1.0:
        raise InputError("alpha must lie in (0, 1)")
    return float(empirical_quantile(agg, alpha))


def rolling_var(paths, alpha: float) -> np.ndarray:
    """VaR forecast at each origin of (n_t, n_pth, d) one-step paths."""
    return np.array([var_forecast(p.sum(axis=1), alpha) for p in paths])
