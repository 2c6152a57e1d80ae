"""Rolling h-step-ahead path simulation and portfolio VaR extraction.

Given a fitted multivariate model, paths are simulated by drawing joint
uniforms from the dependence model, mapping them through the inverse
margins, lifting back to the full dimension, and continuing the marginal
mean/variance recursions from the filtered history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _par
from .dependence import DependenceModel
from .errors import InputError, is_integer, is_real
from .margins import LaggedState, arma_garch_filter, arma_garch_simulate, scaled_t_quantile
from .pca import PcaTransform, lift

__all__ = [
    "QuantileMaps",
    "empirical_quantile",
    "MtsModel",
    "forecast_paths",
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

    Their kind, ``mode``, follows from the one argument given: ``nus``
    gives the scaled-t quantile of each fitted margin (used when no
    dimension reduction is in play), ``tables`` the empirical quantiles of
    the training components (of the model or of one bootstrap replicate).

    A draw on the rank grid k / (n + 1), k = 1..n (GMMN and empirical
    copula draws, in a bootstrap mixture too) comes in as integer ranks
    through :meth:`on_grid`, and is mapped by lookup in a table of ``self``
    at each grid point, computed once per grid size and never saved.  The
    table holds the quantiles of the same doubles ``ranks / (n + 1.0)``
    that ``self`` would get, and both kinds of map are elementwise, so the
    lookup returns the same bytes as the call.
    """

    def __init__(self, *, nus: np.ndarray | None = None, tables: list | None = None):
        if (nus is None) == (tables is None):
            raise InputError("quantile maps take either nus or tables, not both or neither")
        self.mode = "scaled_t" if tables is None else "empirical"
        try:
            self.nus = None if nus is None else np.asarray(nus, dtype=float)
            self.tables = (None if tables is None else
                           [np.sort(np.asarray(t, dtype=float)) for t in tables])
        except (TypeError, ValueError) as exc:
            raise InputError(f"quantile maps need real numbers: {exc}") from None
        if self.tables is not None and any(t.ndim != 1 or len(t) == 0 for t in self.tables):
            raise InputError("empirical quantile tables must be nonempty 1-d arrays")
        self._grids = {}   # grid size n -> table of shape (n, d)

    @classmethod
    def scaled_t(cls, nus) -> "QuantileMaps":
        return cls(nus=nus)

    @classmethod
    def empirical(cls, y_columns) -> "QuantileMaps":
        """Tables from the columns of a training component matrix."""
        y = np.asarray(y_columns, dtype=float)
        return cls(tables=[y[:, j] for j in range(y.shape[1])])

    @property
    def d(self) -> int:
        return len(self.nus) if self.mode == "scaled_t" else len(self.tables)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.ndim != 2 or u.shape[1] != self.d:
            raise InputError(f"u must have shape (n, {self.d}), not {u.shape}")
        out = np.empty_like(u)
        for j in range(u.shape[1]):
            if self.mode == "scaled_t":
                out[:, j] = scaled_t_quantile(u[:, j], self.nus[j])
            else:
                out[:, j] = empirical_quantile(self.tables[j], u[:, j])
        return out

    def on_grid(self, ranks: np.ndarray, n: int) -> np.ndarray:
        """``self(ranks / (n + 1.0))`` for integer ranks in 1..n, bit for bit."""
        table = self._grids.get(n)
        if table is None:
            u = np.arange(1, n + 1) / (n + 1.0)
            table = self._grids.setdefault(n, self(np.repeat(u[:, None], self.d, axis=1)))
        return np.take_along_axis(table, ranks - 1, axis=0)


@dataclass
class MtsModel:
    """Fitted multivariate model: margins, optional reduction, dependence.

    Only a bootstrap mixture, which draws through its replicates' own maps,
    has no `quantile_maps`; scaled-t maps use the margins' nu.
    """

    margins: list
    pca: PcaTransform
    dependence: DependenceModel
    quantile_maps: QuantileMaps | None
    tau: int

    def __post_init__(self):
        from .bootstrap import BootstrapMixture   # bootstrap imports QuantileMaps from here

        if not is_integer(self.tau) or self.tau < 1:
            raise InputError(f"tau={self.tau!r} must be a positive integer")
        qm = self.quantile_maps
        if isinstance(self.dependence, BootstrapMixture) != (qm is None):
            raise InputError("a bootstrap mixture draws through its replicates' quantile "
                             "maps and takes none; any other dependence model needs them")
        if len(self.margins) != self.pca.d:
            raise InputError(f"{len(self.margins)} margins but PCA dimension {self.pca.d}")
        maps_d = self.dependence.d if qm is None else qm.d   # a mixture checks its own
        if not self.pca.k == self.dependence.d == maps_d:
            raise InputError(f"PCA k={self.pca.k}, dependence dimension {self.dependence.d} "
                             f"and quantile maps of dimension {maps_d} disagree")
        if (qm is not None and qm.mode == "scaled_t"
                and not np.array_equal(qm.nus, [m.params.nu for m in self.margins])):
            raise InputError("scaled-t quantile maps must use the margins' degrees of freedom")

    @property
    def d(self) -> int:
        return len(self.margins)

    @property
    def draw_maps(self):
        """The maps the dependence draws go through; a mixture's replicates carry their own."""
        return self.quantile_maps or self.dependence.component_quantiles


_ORIGIN_BLOCK = 25


def _filters(model: MtsModel, x: np.ndarray) -> list:
    """One filter pass per margin over the columns of `x`, one column per margin."""
    if x.ndim != 2 or x.shape[1] != model.d:
        raise InputError(f"the model has {model.d} margins, one per column, but the "
                         f"data have shape {x.shape}")
    return [arma_garch_filter(m.params, x[:, j]) for j, m in enumerate(model.margins)]


def _paths(model: MtsModel, x: np.ndarray, filters: list, origins, n_pth: int, h: int,
           rngs: list) -> np.ndarray:
    """n_pth paths of h steps from each origin, shape (n_origins, n_pth, h, d).

    Origin t continues each margin from the lags after x[:t], read from that
    margin's filter pass `filters[j]` over all of `x`.  Its joint innovations
    (dependence draw, inverse margins, lift) come from its own entry of
    `rngs`, a Generator or a SeedSequence.  The draws go by blocks of
    origins: their `noise` one origin after another, then one `from_noise`,
    and a lift per origin (a matrix product over more rows may round
    differently).  The recursions fan out over (margin, block) slices.
    """
    for name, v in (("n_pth", n_pth), ("h", h)):
        if not is_integer(v) or v < 1:
            raise InputError(f"{name}={v!r} must be an integer of at least 1")
    origins = np.asarray(origins)
    lag = max(max(m.params.orders) for m in model.margins)
    if origins.min() < lag:
        raise InputError(f"history must cover at least {lag} steps")
    dep = model.dependence
    values = np.empty((len(origins), n_pth, h, model.d))
    blocks = [slice(lo, lo + _ORIGIN_BLOCK) for lo in range(0, len(origins), _ORIGIN_BLOCK)]

    def draw(block):   # nothing of a block outlives it
        ys = dep.from_noise([dep.noise(n_pth * h, np.random.default_rng(rng))
                             for rng in rngs[block]], model.draw_maps)
        for v, y in zip(values[block], ys):
            v[...] = lift(model.pca, y).reshape(n_pth, h, model.d)

    for block in blocks:
        draw(block)
    # each margin's innovations are overwritten by its paths, so memory
    # holds one array of paths; blocks of origins keep the simulator's
    # temporaries small, which keeps them from fragmenting the heap
    def run(unit):
        j, block = unit
        p = model.margins[j].params
        state = LaggedState.at(p, x[:, j], filters[j], origins[block, None])
        values[block, ..., j] = arma_garch_simulate(p, values[block, ..., j], state)

    _par.fan_out(run, [(j, block) for j in range(model.d) for block in blocks])
    return values


def forecast_paths(model: MtsModel, history, n_pth: int, h: int,
                   rng: np.random.Generator) -> np.ndarray:
    """n_pth paths of h steps after the observed history, shape (n_pth, h, d).

    paths[i, s, j] is path i, step s + 1, component j.  Each margin is
    filtered over the history, and its recursions continue from the lags at
    the end of it.  A 1-d history is one series, for a model of one margin.
    """
    history = np.asarray(history, dtype=float)
    if history.ndim == 1:
        history = history[:, None]
    return _paths(model, history, _filters(model, history), [len(history)], n_pth, h,
                  [rng])[0]


def var_forecast(aggregates, alpha: float) -> float:
    """Empirical alpha-quantile of the aggregate predictive sample (lower convention)."""
    agg = np.sort(np.asarray(aggregates, dtype=float))
    if agg.ndim != 1 or agg.size == 0:
        raise InputError("the aggregate sample must be a nonempty 1-d array")
    if not is_real(alpha) or not 0.0 < alpha < 1.0:
        raise InputError(f"alpha={alpha!r} must lie in (0, 1)")
    return float(empirical_quantile(agg, alpha))


def rolling_var(paths, alpha: float) -> np.ndarray:
    """VaR forecast at each origin of (n_t, n_pth, d) one-step paths."""
    paths = np.asarray(paths)
    if paths.ndim != 3:
        raise InputError(f"paths must have shape (n_t, n_pth, d), not {paths.shape}")
    return np.array([var_forecast(p.sum(axis=1), alpha) for p in paths])
