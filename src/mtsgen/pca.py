"""Principal component reduction of the standardized-residual sample.

Eigendecomposition of the residual sample covariance, selection of the
number of retained components by explained-variance threshold, and the
projection/lifting maps between the full and reduced spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError

__all__ = ["PcaTransform", "fit_pca", "select_k", "project", "lift"]


@dataclass
class PcaTransform:
    """Orthogonal eigenbasis of the residual covariance.

    `gamma` holds the eigenvectors as columns, sorted by decreasing
    eigenvalue, and 1 <= k <= d of them are kept.  `upsilon` is not passed:
    it is built as the first `k` columns of `gamma` (the identity when
    reduction is disabled, in which case k equals the full dimension).
    """

    gamma: np.ndarray
    lambdas: np.ndarray
    k: int
    upsilon: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.k <= self.d:
            raise InputError(f"PCA k must be in [1, {self.d}], got {self.k}")
        self.upsilon = self.gamma[:, :self.k].copy()

    @property
    def d(self) -> int:
        return self.gamma.shape[0]

    def with_k(self, k: int) -> "PcaTransform":
        return PcaTransform(gamma=self.gamma, lambdas=self.lambdas, k=k)

    @classmethod
    def identity(cls, d: int) -> "PcaTransform":
        """No-reduction transform: identity basis, unit eigenvalues."""
        return cls(gamma=np.eye(d), lambdas=np.ones(d), k=d)


def fit_pca(z) -> PcaTransform:
    """Eigendecompose the sample covariance (divisor n-1) of the rows of z.

    Eigenvalues are sorted descending and clamped at 0 against tiny negative
    rounding; each eigenvector's sign is fixed so that its largest-magnitude
    entry is positive, making the decomposition deterministic.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        raise InputError("z must be a 2-d array (rows = observations)")
    n, d = z.shape
    if n < 2:
        raise InputError("need at least 2 rows to estimate a covariance")
    cov = np.cov(z, rowvar=False, ddof=1).reshape(d, d)
    lam, vec = np.linalg.eigh(cov)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vec = vec[:, order]
    if np.any(lam < -1e-10):
        raise NumericalError("covariance eigenvalues significantly negative")
    lam = np.clip(lam, 0.0, None)
    # sign convention: largest-magnitude entry of each column positive
    idx = np.argmax(np.abs(vec), axis=0)
    signs = np.sign(vec[idx, np.arange(d)])
    signs[signs == 0] = 1.0
    vec = vec * signs
    return PcaTransform(gamma=vec, lambdas=lam, k=d)


def select_k(lambdas, threshold: float = 0.95, k_min: int = 3) -> int:
    """Smallest k >= min(k_min, d) whose leading eigenvalues explain `threshold` of the variance."""
    lam = np.asarray(lambdas, dtype=float)
    d = len(lam)
    if np.any(np.diff(lam) > 1e-12) or np.any(lam < 0):
        raise InputError("lambdas must be sorted descending and nonnegative")
    total = lam.sum()
    if total <= 0.0:
        raise NumericalError("all eigenvalues are zero")
    ratios = np.cumsum(lam) / total
    k_floor = min(k_min, d)
    for k in range(k_floor, d + 1):
        if ratios[k - 1] >= threshold:
            return k
    return d


def project(t: PcaTransform, z):
    """y = Upsilon^T z, mapping full-dimension residuals to components."""
    return np.asarray(z, dtype=float) @ t.upsilon


def lift(t: PcaTransform, y):
    """z = Upsilon y, mapping components back to the full dimension."""
    return np.asarray(y, dtype=float) @ t.upsilon.T
