"""Pseudo-observations, the dependence models, and the inverse margins their draws go through.

Every dependence model draws the same way, in two phases: ``noise(n, rng)``
makes every RNG call of n draws, in order, and the pure ``from_noise(noises,
quantile_maps=None)`` maps a list of such noises to their draws, each an
``n x d`` matrix of values strictly inside (0, 1), or mapped through the
inverse margins, a `QuantileMaps`, if `quantile_maps` are given.
``sample(n, rng)`` is the two composed for one noise.  So the noises of many
generators can be drawn one after another and mapped together, with the bits
of one map per noise.

Some draws lie on a rank grid: every value is k / (m + 1) for an integer
rank k in 1..m.  The empirical copula resamples rows of its ranks
(m = the sample size), and the GMMN copula re-ranks its n outputs (m = n).
These models hand their integer ranks to ``quantile_maps.on_grid(ranks,
m)``, which looks each draw up in a table of the maps at every grid point,
computed once per grid size and never saved.  One function, `_on_grid`,
computes every grid value as ``ranks / (m + 1.0)``: for `PseudoSample.u`,
for a draw without maps and for the table alike.  Both kinds of map are
elementwise, so ``on_grid`` returns the bytes ``quantile_maps(ranks / (m +
1.0))`` would, and a draw through the maps equals ``quantile_maps`` of the
same draw without them, bit for bit.
The empirical beta copula is the empirical copula with each picked rank
drawn through a Beta law, off the grid; it and the other models map their
draws through ``quantile_maps`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, is_integer
from .margins import scaled_t_quantile

__all__ = [
    "PseudoSample",
    "DependenceModel",
    "pseudo_observations",
    "EmpiricalCopula",
    "EmpiricalBetaCopula",
    "IndependenceCopula",
    "QuantileMaps",
    "empirical_quantile",
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
        return _on_grid(self.ranks, self.n, None)


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
    Draws on the rank grid, in a bootstrap mixture too, come in as integer
    ranks through :meth:`on_grid` (see the module docstring).
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
            u = _on_grid(np.arange(1, n + 1), n, None)
            table = self._grids.setdefault(n, self(np.repeat(u[:, None], self.d, axis=1)))
        return np.take_along_axis(table, ranks - 1, axis=0)


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
