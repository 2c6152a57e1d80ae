"""Out-of-sample assessment metrics for dependence models and forecasts."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dependence import DependenceModel
from .errors import ConfigError, InputError
from .gmmn import KernelSpec, _mix_mean, mmd

__all__ = [
    "AssessConfig",
    "ammd",
    "amse",
    "mse_per_step",
    "avs",
    "vs_per_step",
    "vear",
]


@dataclass(frozen=True)
class AssessConfig:
    n_rep: int = 100
    kernel_tst: KernelSpec = field(default_factory=KernelSpec.for_assessment)
    r: float = 0.25
    alpha: float = 0.05
    n_pth: int = 1000

    def __post_init__(self):
        if self.n_rep < 1:
            raise ConfigError("n_rep must be >= 1")
        if self.r <= 0:
            raise ConfigError("variogram order r must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if self.n_pth < 1:
            raise ConfigError("n_pth must be >= 1")


def ammd(u_test, sampler: DependenceModel, cfg: AssessConfig,
         rng: np.random.Generator) -> float:
    """Average MMD between the test pseudo-observations and repeated sampler draws.

    Each repetition draws a fresh sample of the same size as the test set.
    The test-vs-test kernel term is computed once and shared by all of them.
    """
    u_test = np.asarray(u_test, dtype=float)
    m = u_test.shape[0]
    a = np.atleast_2d(u_test)
    aa_term = _mix_mean(a, a, cfg.kernel_tst)
    vals = [mmd(u_test, sampler.sample(m, rng), cfg.kernel_tst, aa_term=aa_term)
            for _ in range(cfg.n_rep)]
    return float(np.mean(vals))


def _as_path_array(forecasts) -> np.ndarray:
    """Accepts a (n_t, n_pth, d) array or a list of one-step PredictivePaths."""
    if isinstance(forecasts, np.ndarray):
        arr = forecasts
    else:
        arr = np.stack([f.values[:, 0, :] for f in forecasts])
    if arr.ndim != 3:
        raise InputError("forecasts must stack to shape (n_t, n_pth, d)")
    return arr


def mse_per_step(forecasts, x_test) -> np.ndarray:
    """Mean squared distance between each step's paths and the realized value."""
    paths = _as_path_array(forecasts)
    x = np.atleast_2d(np.asarray(x_test, dtype=float))
    if x.shape != (paths.shape[0], paths.shape[2]):
        raise InputError("x_test shape does not match forecasts")
    return ((paths - x[:, None, :]) ** 2).sum(axis=2).mean(axis=1)


def amse(forecasts, x_test) -> float:
    """Average over the test period of the per-step mean squared error."""
    return float(mse_per_step(forecasts, x_test).mean())


def vs_per_step(forecasts, x_test, r: float = 0.25) -> np.ndarray:
    """Variogram score of order r at each test step.

    Sums over all ordered component pairs the squared gap between the
    realized pairwise distance (to power r) and its predictive mean.  One
    step at a time, and the power is taken once per unordered pair, so
    memory stays at one (n_pth, d (d - 1) / 2) block.
    """
    paths = _as_path_array(forecasts)
    x = np.atleast_2d(np.asarray(x_test, dtype=float))
    if x.shape != (paths.shape[0], paths.shape[2]):
        raise InputError("x_test shape does not match forecasts")
    n_t, n_pth, d = paths.shape
    iu, ju = np.triu_indices(d, k=1)
    # column block i of `gaps` holds the pairs (i, j > i), in triu order
    starts = np.concatenate(([0], np.cumsum(np.arange(d - 1, 0, -1))))
    # C order keeps the axis-0 mean a row-by-row sum, as over (n_pth, d, d)
    gaps = np.empty((n_pth, iu.size))
    sim = np.zeros((d, d))
    out = np.empty(n_t)
    for t, (p, xt) in enumerate(zip(paths, x)):
        obs = np.abs(xt[:, None] - xt[None, :]) ** r                         # (d, d)
        for i in range(d - 1):
            np.subtract(p[:, i:i + 1], p[:, i + 1:], out=gaps[:, starts[i]:starts[i + 1]])
        np.abs(gaps, out=gaps)
        gaps **= r
        sim[iu, ju] = sim[ju, iu] = gaps.mean(axis=0)
        out[t] = ((obs - sim) ** 2).sum()
    return out


def avs(forecasts, x_test, r: float = 0.25) -> float:
    """Average variogram score over the test period."""
    return float(vs_per_step(forecasts, x_test, r).mean())


def vear(s_actual, var_forecasts, alpha: float) -> float:
    """Absolute gap between the realized VaR exceedance frequency and alpha.

    An exceedance is a strict shortfall of the realized aggregate below the
    forecast quantile.
    """
    s = np.asarray(s_actual, dtype=float)
    v = np.asarray(var_forecasts, dtype=float)
    if s.shape != v.shape:
        raise InputError("aggregate and VaR series must have equal length")
    freq = float(np.mean(s < v))
    return abs(alpha - freq)
