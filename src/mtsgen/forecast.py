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
from .margins import (ArmaGarchParams, LaggedState, arma_garch_filter,
                      scaled_t_quantile)
from .pca import PcaTransform

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
    pca_enabled: bool = False

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


def _simulate_paths(params: ArmaGarchParams, state: LaggedState,
                    z: np.ndarray) -> np.ndarray:
    """Continue one margin's recursions for all paths at once.

    z has shape (n_pth, h); all paths share the same starting lags.
    """
    n_pth, h = z.shape
    p1, q1, p2, q2 = params.orders

    def lag_buf(arr):
        return [np.full(n_pth, val) for val in arr]

    xs = lag_buf(state.x)
    es = lag_buf(state.resid)
    e2s = lag_buf(state.resid2)
    s2s = lag_buf(state.sigma2)

    out = np.empty((n_pth, h))
    for s in range(h):
        m = np.full(n_pth, params.mu)
        for k in range(p1):
            m += params.phi[k] * (xs[-1 - k] - params.mu)
        for l in range(q1):
            m += params.gamma[l] * es[-1 - l]
        s2 = np.full(n_pth, params.omega)
        for k in range(p2):
            s2 += params.alpha[k] * e2s[-1 - k]
        for l in range(q2):
            s2 += params.beta[l] * s2s[-1 - l]
        e = np.sqrt(s2) * z[:, s]
        x = m + e
        out[:, s] = x
        if p1:
            xs.append(x)
        if q1:
            es.append(e)
        if p2:
            e2s.append(e * e)
        if q2:
            s2s.append(s2)
    return out


def _paths_from_states(model: MtsModel, states: list, n_pth: int, h: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Simulate (n_pth, h, d) values continuing each margin from its state.

    One joint dependence draw is consumed per (path, step); inverse margins
    and the lifting map turn it into innovations for the marginal recursions.
    """
    n_draw = n_pth * h
    dep = model.dependence
    if hasattr(dep, "sample_components"):
        u, ids = dep.sample_components(n_draw, rng)
        y = dep.apply_quantiles(u, ids)
    else:
        u = dep.sample(n_draw, rng)
        y = model.quantile_maps(u)
    z = y @ model.pca.upsilon.T            # (n_draw, d)
    z = z.reshape(n_pth, h, model.d)

    values = np.empty((n_pth, h, model.d))
    for j, fit in enumerate(model.margins):
        values[:, :, j] = _simulate_paths(fit.params, states[j], z[:, :, j])
    return values


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

    states = [LaggedState.from_filter(fit.params, history[:, j],
                                      arma_garch_filter(fit.params, history[:, j]))
              for j, fit in enumerate(model.margins)]
    values = _paths_from_states(model, states, n_pth, h, rng)
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
