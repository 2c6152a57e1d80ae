"""Dependence-model estimation uncertainty via a bootstrap mixture.

The training component matrix is resampled with replacement; one
dependence model is fitted per replicate, and forecasting then samples
from the equally weighted mixture of all replicates, with each mixture
component carrying its own empirical quantile tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dependence import DependenceModel, pseudo_observations
from .errors import InputError
from .forecast import empirical_quantile

__all__ = ["BootstrapMixture", "bootstrap_fit"]


@dataclass
class BootstrapMixture(DependenceModel):
    """Equally weighted mixture of per-replicate dependence models."""

    components: list
    component_quantiles: list   # one list of sorted per-column tables per replicate
    n_bt: int

    def __post_init__(self):
        if self.n_bt < 1 or len(self.components) != self.n_bt:
            raise InputError("mixture needs n_bt >= 1 fitted components")
        dims = {c.d for c in self.components}
        if len(dims) != 1:
            raise InputError("all mixture components must share one dimension")
        self.d = dims.pop()
        if any(len(tables) != self.d for tables in self.component_quantiles):
            raise InputError(f"each replicate needs {self.d} quantile tables, one per dimension")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u, _ = self.sample_components(n, rng)
        return u

    def sample_components(self, n: int, rng: np.random.Generator):
        """Per row: pick a component uniformly, then draw one row from it."""
        ids = rng.integers(0, self.n_bt, size=n)
        u = np.empty((n, self.d))
        for b in range(self.n_bt):
            sel = ids == b
            cnt = int(sel.sum())
            if cnt:
                u[sel] = self.components[b].sample(cnt, rng)
        return u, ids

    def sample_quantiles(self, n: int, rng: np.random.Generator, quantile_maps) -> np.ndarray:
        """Draws mapped through their own component's tables; `quantile_maps` is unused."""
        u, ids = self.sample_components(n, rng)
        return self.apply_quantiles(u, ids)

    def apply_quantiles(self, u: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Inverse margins of the component each row was drawn from."""
        y = np.empty_like(u)
        for b in range(self.n_bt):
            sel = ids == b
            if not np.any(sel):
                continue
            tables = self.component_quantiles[b]
            for j in range(self.d):
                y[sel, j] = empirical_quantile(tables[j], u[sel, j])
        return y


def bootstrap_fit(y_hat, n_bt: int, fitter, rng: np.random.Generator) -> BootstrapMixture:
    """Resample rows of the component matrix and fit one model per replicate.

    `fitter` maps a PseudoSample to a DependenceModel; each replicate also
    records the empirical quantile tables of its own resampled columns.
    """
    y = np.asarray(y_hat, dtype=float)
    if y.ndim != 2 or y.shape[0] < 1:
        raise InputError("y_hat must be a nonempty 2-d matrix")
    tau = y.shape[0]
    components = []
    quantiles = []
    for _ in range(n_bt):
        idx = rng.integers(0, tau, size=tau)
        sample = y[idx]
        ps = pseudo_observations(sample)
        components.append(fitter(ps))
        quantiles.append([np.sort(sample[:, j]) for j in range(y.shape[1])])
    return BootstrapMixture(components=components, component_quantiles=quantiles,
                            n_bt=n_bt)
