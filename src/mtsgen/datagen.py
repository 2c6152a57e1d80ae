"""Synthetic data generation for experiments and verification.

Provides a Gaussian-copula innovation sampler and a forward simulator for
multivariate series with known marginal dynamics, used to build test
datasets with a controlled dependence structure.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .dependence import DependenceModel
from .errors import InputError
from .margins import arma_garch_simulate, scaled_t_quantile

__all__ = ["GaussianCopulaSampler", "equicorrelation", "simulate_mts"]

_BURN_IN = 200   # steps simulated and discarded before the returned series


def equicorrelation(d: int, rho: float) -> np.ndarray:
    """Exchangeable correlation matrix with off-diagonal rho; [[1.0]] for d = 1."""
    if d < 1 or not (-1.0 / (d - 1) if d > 1 else -np.inf) < rho < 1.0:
        raise InputError(f"rho={rho} is not a valid equicorrelation for d={d}")
    return np.ones((1, 1)) if d == 1 else np.full((d, d), rho) + (1.0 - rho) * np.eye(d)


class GaussianCopulaSampler(DependenceModel):
    """Samples from the copula of a multivariate normal with given correlation."""

    def __init__(self, corr: np.ndarray):
        corr = np.asarray(corr, dtype=float)
        if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
            raise InputError("corr must be a square matrix")
        self.corr = corr
        self.d = corr.shape[0]
        self._chol = np.linalg.cholesky(corr)

    def noise(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal((n, self.d))

    def from_noise(self, noises: list, quantile_maps=None) -> list:
        """Per noise, as a matrix product over more rows may round differently.

        ``special.ndtr`` is ``scipy.stats.norm.cdf`` bit for bit, without importing scipy.stats.
        """
        return [self._map(special.ndtr(z @ self._chol.T), quantile_maps) for z in noises]


def simulate_mts(margin_params: list, copula: DependenceModel, n: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Simulate an n x d series with given margins and innovation copula.

    Innovations are scaled-t quantile transforms of joint copula draws; a
    burn-in of _BURN_IN steps is discarded so the start-up convention washes out.
    """
    d = len(margin_params)
    if copula.d != d:
        raise InputError("copula dimension must match the number of margins")
    total = n + _BURN_IN
    u = copula.sample(total, rng)
    x = np.empty((total, d))
    for j, p in enumerate(margin_params):
        z = scaled_t_quantile(u[:, j], p.nu)
        x[:, j] = arma_garch_simulate(p, z)
    return x[_BURN_IN:]
