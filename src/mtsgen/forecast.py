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
    per-component quantile tables of the training components (of the model
    or of one bootstrap replicate).

    A draw on the rank grid k / (n + 1), k = 1..n (GMMN and empirical
    copula draws, in a bootstrap mixture too) comes in as integer ranks
    through :meth:`on_grid`.  In parametric mode it is then mapped by lookup
    in a table of the scaled-t quantile at each grid point, computed for
    the last grid size only and never saved.  The table holds the quantiles of the same doubles
    ``ranks / (n + 1.0)`` that ``self`` would get, and the quantile is
    elementwise, so the lookup returns the same bytes as the call.
    """

    def __init__(self, mode: str, nus: np.ndarray | None = None,
                 tables: list | None = None):
        if mode not in ("scaled_t", "empirical"):
            raise InputError(f"unknown quantile-map mode {mode!r}")
        self.mode = mode
        self.nus = None if nus is None else np.asarray(nus, dtype=float)
        self.tables = None if tables is None else [np.sort(np.asarray(t, dtype=float)) for t in tables]
        if self.tables is not None and any(t.ndim != 1 or len(t) == 0 for t in self.tables):
            raise InputError("empirical quantile tables must be nonempty 1-d arrays")
        self._grid = None   # (n, table of shape (n, d)) of the last scaled-t grid

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

    def on_grid(self, ranks: np.ndarray, n: int) -> np.ndarray:
        """``self(ranks / (n + 1.0))`` for integer ranks in 1..n, bit for bit."""
        if self.mode == "empirical":
            return self(ranks / (n + 1.0))
        if self._grid is None or self._grid[0] != n:
            grid = np.arange(1, n + 1) / (n + 1.0)
            self._grid = (n, np.column_stack([scaled_t_quantile(grid, nu) for nu in self.nus]))
        return np.take_along_axis(self._grid[1], ranks - 1, axis=0)


@dataclass
class MtsModel:
    """Fitted multivariate model: margins, optional reduction, dependence."""

    margins: list
    pca: PcaTransform
    dependence: DependenceModel
    quantile_maps: QuantileMaps
    tau: int

    def __post_init__(self):
        if len(self.margins) != self.pca.d:
            raise InputError(f"{len(self.margins)} margins but PCA dimension {self.pca.d}")
        if not self.pca.k == self.dependence.d == self.quantile_maps.d:
            raise InputError(f"PCA k={self.pca.k}, dependence dimension {self.dependence.d} "
                             f"and quantile maps of dimension {self.quantile_maps.d} disagree")

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


_ORIGIN_BLOCK = 50


def _filters(model: MtsModel, x: np.ndarray) -> list:
    """One filter pass per margin over the columns of `x`."""
    return [arma_garch_filter(m.params, x[:, j]) for j, m in enumerate(model.margins)]


def _paths(model: MtsModel, x: np.ndarray, filters: list, origins, n_pth: int, h: int,
           rngs) -> np.ndarray:
    """n_pth paths of h steps from each origin, shape (n_origins, n_pth, h, d).

    Origin t continues each margin from the lags after x[:t], read from that
    margin's filter pass `filters[j]` over all of `x`.  Its joint innovations
    (dependence draw, inverse margins, lift) come from its own entry of
    `rngs`, a Generator or a SeedSequence.
    """
    origins = np.asarray(origins)
    lag = max(max(m.params.orders) for m in model.margins)
    if origins.min() < lag:
        raise InputError(f"history must cover at least {lag} steps")
    values = np.empty((len(origins), n_pth, h, model.d))
    for i, rng in enumerate(rngs):
        u = model.dependence.sample_quantiles(n_pth * h, np.random.default_rng(rng),
                                              model.quantile_maps)
        values[i] = lift(model.pca, u).reshape(n_pth, h, model.d)
    # each margin's innovations are overwritten by its paths, so memory
    # holds one array of paths; blocks of origins keep the simulator's
    # temporaries small, which keeps them from fragmenting the heap
    for j, m in enumerate(model.margins):
        for lo in range(0, len(origins), _ORIGIN_BLOCK):
            block = slice(lo, lo + _ORIGIN_BLOCK)
            state = LaggedState.at(m.params, x[:, j], filters[j], origins[block, None])
            values[block, ..., j] = arma_garch_simulate(m.params, values[block, ..., j], state)
    return values


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
    values = _paths(model, history, _filters(model, history), [t], n_pth, h, [rng])
    return PredictivePaths(values=values[0], origin=t, horizon=h)


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
