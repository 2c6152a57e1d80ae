"""Pseudo-observations and nonparametric/independence dependence samplers.

Every dependence model draws the same way, in two phases: ``noise(n, rng)``
makes every RNG call of n draws, in order, and the pure ``from_noise(noises,
quantile_maps=None)`` maps a list of such noises to their draws, each an
``n x d`` matrix of values strictly inside (0, 1), or mapped through the
inverse margins if `quantile_maps` are given.  ``sample(n, rng)`` is the
two composed for one noise.  So the noises of many generators can be drawn
one after another and mapped together, with the bits of one map per noise.

Some draws lie on a rank grid: every value is k / (m + 1) for an integer
rank k in 1..m.  The empirical copula resamples rows of its ranks
(m = the sample size), and the GMMN copula re-ranks its n outputs (m = n).
These models hand their integer ranks to
``quantile_maps.on_grid(ranks, m)``, which maps each grid point once
instead of once per draw.  ``on_grid`` returns the bytes
``quantile_maps(ranks / (m + 1.0))`` would, so a draw through the maps
equals ``quantile_maps`` of the same draw without them, bit for bit.
The empirical beta copula is the empirical copula with each picked rank
drawn through a Beta law, off the grid; it and the other models map their
draws through ``quantile_maps`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, is_integer

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
    """Rank-transformed sample: integer ranks, and u = ranks / (n + 1) cached from them."""

    ranks: np.ndarray

    @property
    def n(self) -> int:
        return self.ranks.shape[0]

    @property
    def d(self) -> int:
        return self.ranks.shape[1]

    @cached_property
    def u(self) -> np.ndarray:
        return self.ranks / (self.n + 1.0)


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
    return PseudoSample(ranks)


def _on_grid(ranks: np.ndarray, m: int, quantile_maps) -> np.ndarray:
    """Grid draws ranks / (m + 1), through `quantile_maps` by table lookup if given."""
    return ranks / (m + 1.0) if quantile_maps is None else quantile_maps.on_grid(ranks, m)


class DependenceModel:
    """The one draw contract of all dependence models.

    A model has a dimension `d` and defines ``noise(n, rng)``, the numbers of
    every RNG call of n draws, in order, one row per draw; and either a
    row-by-row `_map` of noise rows to draws or its own `from_noise`.
    """

    d: int

    def _map(self, noise, quantile_maps) -> np.ndarray:
        return noise if quantile_maps is None else quantile_maps(noise)

    def from_noise(self, noises: list, quantile_maps=None) -> list:
        """The draws of each noise, through `quantile_maps` if given: one `_map` call for all."""
        rows = np.cumsum([len(z) for z in noises[:-1]], dtype=int)
        return np.split(self._map(np.concatenate(noises), quantile_maps), rows)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws in (0, 1): ``from_noise([noise(n, rng)])[0]``."""
        return self.from_noise([self.noise(n, rng)])[0]


class EmpiricalCopula(DependenceModel):
    """Resampling with replacement from a fixed pseudo-observation sample."""

    def __init__(self, ps: PseudoSample):
        ranks = np.asarray(ps.ranks)
        if (not np.issubdtype(ranks.dtype, np.integer) or ranks.ndim != 2 or ranks.size == 0
                or ranks.min() < 1 or ranks.max() > len(ranks)):
            raise InputError("pseudo-observations must be integer ranks in {1, ..., n}")
        self.ps = ps
        self.d = ps.d

    def noise(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """The rows of n picks, uniformly with replacement."""
        return rng.integers(0, self.ps.n, size=n)

    def _map(self, noise, quantile_maps) -> np.ndarray:
        return _on_grid(self.ps.ranks[noise], self.ps.n, quantile_maps)


class EmpiricalBetaCopula(EmpiricalCopula):
    """The empirical beta copula (Segers, Sibuya & Tsukahara, 2017).

    A draw picks a row t of the ranks as the empirical copula does; each
    coordinate j then independently follows Beta(R_{t,j}, n + 1 - R_{t,j}),
    the law of the R_{t,j}-th order statistic of n iid uniforms.
    """

    def noise(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Per draw, the two gamma variates of each coordinate's Beta, shape (n, 2, d)."""
        r = self.ps.ranks[super().noise(n, rng)].astype(float)
        return np.stack((rng.standard_gamma(r), rng.standard_gamma(self.ps.n + 1.0 - r)), axis=1)

    def _map(self, noise, quantile_maps) -> np.ndarray:
        # the draws lie off the rank grid
        g1, g2 = noise[:, 0], noise[:, 1]
        return DependenceModel._map(self, g1 / (g1 + g2), quantile_maps)


class IndependenceCopula(DependenceModel):
    """iid uniform coordinates; the simplest benchmark dependence model."""

    def __init__(self, d: int):
        if not (is_integer(d) and d >= 1):
            raise InputError(f"d={d!r} must be an integer of at least 1")
        self.d = int(d)

    def noise(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.random((n, self.d))

    def _map(self, noise, quantile_maps) -> np.ndarray:
        # clamp away from 0 so samples are strictly inside (0, 1)
        return super()._map(np.clip(noise, 1e-16, 1.0 - 1e-16), quantile_maps)
