"""Dependence-model estimation uncertainty via a bootstrap mixture.

The training component matrix is resampled with replacement; one
dependence model is fitted per replicate, and forecasting then samples
from the equally weighted mixture of all replicates, with each mixture
component carrying its own empirical quantile tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dependence import DependenceModel, QuantileMaps, pseudo_observations
from .errors import InputError

__all__ = ["BootstrapMixture", "bootstrap_fit"]


@dataclass
class BootstrapMixture(DependenceModel):
    """Equally weighted mixture of per-replicate dependence models, `n_bt` of them."""

    components: list
    component_quantiles: list   # one empirical QuantileMaps per replicate

    def __post_init__(self):
        if not self.components or len(self.component_quantiles) != len(self.components):
            raise InputError("mixture needs one or more components, each with its quantile maps")
        if any(isinstance(c, BootstrapMixture) for c in self.components):
            raise InputError("a mixture's components must be single dependence models")
        dims = {c.d for c in self.components}
        if len(dims) != 1:
            raise InputError("all mixture components must share one dimension")
        self.d = dims.pop()
        if any(maps.d != self.d for maps in self.component_quantiles):
            raise InputError(f"each replicate needs {self.d} quantile tables, one per dimension")

    @property
    def n_bt(self) -> int:
        return len(self.components)

    def noise(self, n: int, rng: np.random.Generator) -> tuple:
        """The component ids of n rows, then each drawn component's noise for its rows."""
        ids = rng.integers(0, self.n_bt, size=n)
        counts = np.bincount(ids, minlength=self.n_bt)
        return ids, [c.noise(int(k), rng) if k else None for c, k in zip(self.components, counts)]

    def from_noise(self, noises: list, quantile_maps=None) -> list:
        """The draws of each noise, through `quantile_maps`, one QuantileMaps per replicate,
        if given.  Each replicate maps its rows of all the noises in one call."""
        outs = [np.empty((len(ids), self.d)) for ids, _ in noises]
        for b, comp in enumerate(self.components):
            drawn = [i for i, (_, parts) in enumerate(noises) if parts[b] is not None]
            if drawn:
                ys = comp.from_noise([noises[i][1][b] for i in drawn],
                                     None if quantile_maps is None else quantile_maps[b])
                for i, y in zip(drawn, ys):
                    outs[i][noises[i][0] == b] = y
        return outs


def bootstrap_fit(y_hat, n_bt: int, fitter, rng: np.random.Generator) -> BootstrapMixture:
    """Resample rows of the component matrix and fit one model per replicate.

    `fitter` maps a PseudoSample to a DependenceModel; each replicate also
    records the empirical inverse margins of its own resampled columns.
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
        quantiles.append(QuantileMaps.empirical(sample))
    return BootstrapMixture(components=components, component_quantiles=quantiles)
