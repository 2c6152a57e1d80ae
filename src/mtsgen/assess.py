"""Out-of-sample assessment metrics for dependence models and forecasts."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _par
from .dependence import DependenceModel
from .errors import ConfigError, InputError, is_integer, is_real
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


KERNEL_TST = KernelSpec.for_assessment()   # the test kernel mixture every AMMD uses
_REP_BLOCK = 10   # AMMD repetitions drawn before their kernel terms fan out


@dataclass(frozen=True)
class AssessConfig:
    """Settings of `ammd`: the number of repetitions; the kernel is always KERNEL_TST."""

    n_rep: int = 100

    def __post_init__(self):
        if not is_integer(self.n_rep) or self.n_rep < 1:
            raise ConfigError(f"n_rep={self.n_rep!r} must be an integer of at least 1")


def ammd(u_test, sampler: DependenceModel, cfg: AssessConfig,
         rng: np.random.Generator) -> float:
    """Average MMD between the test pseudo-observations and repeated sampler draws.

    Each repetition draws a fresh sample of the same size as the test set.
    The test-vs-test kernel term is computed once and shared by all of them.
    The draws run in order on `rng`, a block of repetitions at a time, whose
    kernel terms then fan out.
    """
    u_test = np.asarray(u_test, dtype=float)
    if u_test.ndim != 2 or len(u_test) == 0:
        raise InputError("u_test must be a 2-d array with at least one row")
    m = u_test.shape[0]
    aa_term = _mix_mean(u_test, u_test, KERNEL_TST)
    vals = []
    for lo in range(0, cfg.n_rep, _REP_BLOCK):   # memory holds one block of draws
        vals += _par.fan_out(lambda b: mmd(u_test, b, KERNEL_TST, aa_term=aa_term),
                             [sampler.sample(m, rng) for _ in range(min(_REP_BLOCK, cfg.n_rep - lo))])
    return float(np.mean(vals))


def _paths_and_values(forecasts, x_test) -> tuple:
    """The one-step paths as a (n_t, n_pth, d) array, and the realized values as (n_t, d)."""
    paths = np.asarray(forecasts)
    if paths.ndim != 3:
        raise InputError("forecasts must have shape (n_t, n_pth, d)")
    x = np.atleast_2d(np.asarray(x_test, dtype=float))
    if x.shape != (paths.shape[0], paths.shape[2]):
        raise InputError("x_test shape does not match forecasts")
    return paths, x


def mse_per_step(forecasts, x_test) -> np.ndarray:
    """Mean squared distance between each step's paths and the realized value.

    One step at a time, so memory stays at one (n_pth, d) block.
    """
    paths, x = _paths_and_values(forecasts, x_test)
    out = np.empty(paths.shape[0])
    for t, (p, xt) in enumerate(zip(paths, x)):
        out[t] = ((p - xt) ** 2).sum(axis=1).mean()
    return out


def amse(forecasts, x_test) -> float:
    """Average over the test period of the per-step mean squared error."""
    return float(mse_per_step(forecasts, x_test).mean())


def vs_per_step(forecasts, x_test, r: float = 0.25) -> np.ndarray:
    """Variogram score of order r at each test step.

    Sums over all ordered component pairs the squared gap between the
    realized pairwise distance (to power r) and its predictive mean.  The
    power is taken once per unordered pair.  `_par.fan_out` scores the
    steps one at a time, each in a (n_pth, d (d - 1) / 2) block of its own,
    so memory stays at one such block per worker and each step's score
    does not depend on the number of workers.
    """
    if not is_real(r) or not 0.0 < r < math.inf:
        raise InputError(f"variogram order r={r!r} must be positive and finite")
    paths, x = _paths_and_values(forecasts, x_test)
    n_t, n_pth, d = paths.shape
    iu, ju = np.triu_indices(d, k=1)
    # column block i of `gaps` holds the pairs (i, j > i), in triu order
    starts = np.concatenate(([0], np.cumsum(np.arange(d - 1, 0, -1))))

    def score(t):
        gaps, sim = np.empty((n_pth, iu.size)), np.zeros((d, d))
        p, xt = paths[t], x[t]
        # a large r may overflow to a NaN score, which the caller reports; errstate is
        # per thread, so each task sets its own
        with np.errstate(over="ignore", invalid="ignore"):
            obs = np.abs(xt[:, None] - xt[None, :]) ** r                 # (d, d)
            for i in range(d - 1):
                np.subtract(p[:, i:i + 1], p[:, i + 1:], out=gaps[:, starts[i]:starts[i + 1]])
            np.abs(gaps, out=gaps)
            gaps **= r
            sim[iu, ju] = sim[ju, iu] = gaps.mean(axis=0)
            return ((obs - sim) ** 2).sum()

    # C order keeps the axis-0 mean a row-by-row sum, as over (n_pth, d, d)
    return np.array(_par.fan_out(score, range(n_t)))


def avs(forecasts, x_test, r: float = 0.25) -> float:
    """Average variogram score over the test period."""
    return float(vs_per_step(forecasts, x_test, r).mean())


def vear(s_actual, var_forecasts, alpha: float) -> float:
    """Absolute gap between the realized VaR exceedance frequency and alpha.

    An exceedance is a strict shortfall of the realized aggregate below the
    forecast quantile.
    """
    if not is_real(alpha) or not 0.0 < alpha < 1.0:
        raise InputError(f"alpha={alpha!r} must lie in (0, 1)")
    s = np.asarray(s_actual, dtype=float)
    v = np.asarray(var_forecasts, dtype=float)
    if s.shape != v.shape:
        raise InputError("aggregate and VaR series must have equal length")
    freq = float(np.mean(s < v))
    return abs(alpha - freq)
