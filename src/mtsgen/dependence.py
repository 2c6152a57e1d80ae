"""Pseudo-observations and nonparametric/independence dependence samplers.

Every dependence model exposes the same contract: ``sample(n, rng)``
returns an ``n x d`` matrix of values strictly inside (0, 1), and
``sample_quantiles(n, rng, quantile_maps)`` maps such a draw through the
inverse margins.

Some draws lie on a rank grid: every value is k / (m + 1) for an integer
rank k in 1..m.  The empirical copula resamples rows of its
pseudo-observations (m = the sample size), and the GMMN copula re-ranks
its n outputs (m = n).  These models hand their integer ranks to
``quantile_maps.on_grid(ranks, m)``, which maps each grid point once
instead of once per draw.  The ranks and the draws use the same RNG
calls, and ``on_grid`` returns the bytes ``quantile_maps(ranks / (m + 1.0))``
would, so the result equals ``quantile_maps(sample(n, rng))`` bit for bit.
The other models keep the default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "PseudoSample",
    "DependenceModel",
    "pseudo_observations",
    "EmpiricalCopula",
    "EmpiricalBetaCopula",
    "IndependenceCopula",
]


@dataclass
class PseudoSample:
    """Rank-transformed sample: u[t, j] = ranks[t, j] / (n + 1)."""

    u: np.ndarray
    ranks: np.ndarray

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def d(self) -> int:
        return self.u.shape[1]


def pseudo_observations(y) -> PseudoSample:
    """Column-wise ranks scaled into (0, 1).

    Ties are broken by original row order (stable), a documented continuity
    assumption: the margins are assumed continuous, so ties are measure-zero.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if y.shape[0] < 1:
        raise InputError("need at least one row")
    if not np.all(np.isfinite(y)):
        raise InputError("y contains non-finite entries")
    n = y.shape[0]
    order = np.argsort(y, axis=0, kind="stable")
    ranks = np.empty_like(order)
    rows = np.arange(1, n + 1)[:, None]
    np.put_along_axis(ranks, order, np.broadcast_to(rows, y.shape), axis=0)
    return PseudoSample(u=ranks / (n + 1.0), ranks=ranks)


class DependenceModel:
    """Common sampling contract for all dependence models."""

    d: int

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def sample_quantiles(self, n: int, rng: np.random.Generator, quantile_maps) -> np.ndarray:
        """n draws mapped through the inverse margins: ``quantile_maps(sample(n, rng))``."""
        return quantile_maps(self.sample(n, rng))


class EmpiricalCopula(DependenceModel):
    """Resampling with replacement from a fixed pseudo-observation sample."""

    def __init__(self, ps: PseudoSample):
        # the lookup on the rank grid reads ranks, `sample` reads u
        ranks = np.asarray(ps.ranks)
        if (not np.issubdtype(ranks.dtype, np.integer) or ranks.ndim != 2 or ranks.size == 0
                or ranks.min() < 1 or ranks.max() > len(ranks)
                or not np.array_equal(ps.u, ranks / (len(ranks) + 1.0))):
            raise InputError("pseudo-observations must be integer ranks in {1, ..., n} "
                             "and u = ranks / (n + 1)")
        self.ps = ps
        self.d = ps.d

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.integers(0, self.ps.n, size=n)
        return self.ps.u[idx]

    def sample_quantiles(self, n: int, rng: np.random.Generator, quantile_maps) -> np.ndarray:
        idx = rng.integers(0, self.ps.n, size=n)
        return quantile_maps.on_grid(self.ps.ranks[idx], self.ps.n)


class EmpiricalBetaCopula(DependenceModel):
    """Rank-indexed order-statistic smoothing of the empirical copula.

    A draw picks a row t uniformly, then each coordinate j independently
    follows the distribution of the R_{t,j}-th order statistic of n iid
    uniforms, i.e. Beta(R_{t,j}, n + 1 - R_{t,j}).
    """

    def __init__(self, ranks: np.ndarray):
        ranks = np.asarray(ranks)
        self.n = len(ranks)
        if ranks.min() < 1 or ranks.max() > self.n:
            raise InputError(f"ranks must lie in {{1, ..., n}} for the n={self.n} rows")
        self.ranks = ranks
        self.d = ranks.shape[1]

    def sample(self, n_gen: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.integers(0, self.n, size=n_gen)
        r = self.ranks[idx].astype(float)
        # Beta(a, b) via two gamma variates
        g1 = rng.standard_gamma(r)
        g2 = rng.standard_gamma(self.n + 1.0 - r)
        return g1 / (g1 + g2)


class IndependenceCopula(DependenceModel):
    """iid uniform coordinates; the simplest benchmark dependence model."""

    def __init__(self, d: int):
        self.d = int(d)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # clamp away from 0 so samples are strictly inside (0, 1)
        return np.clip(rng.random((n, self.d)), 1e-16, 1.0 - 1e-16)
