"""Univariate ARMA-GARCH margins with scaled-t innovations.

Each component series is modeled as

    X_t = mu_t + sigma_t * Z_t,
    mu_t = mu + sum_k phi_k (X_{t-k} - mu) + sum_l gamma_l (X_{t-l} - mu_{t-l}),
    sigma2_t = omega + sum_k alpha_k (X_{t-k} - mu_{t-k})^2 + sum_l beta_l sigma2_{t-l},

with iid innovations Z_t having mean 0 and variance 1 (scaled t with
nu > 2 degrees of freedom).  The module provides filtering (extracting
standardized residuals), simulation (the exact inverse of the filter),
and constrained maximum likelihood fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, signal, special, stats

from .errors import InputError, NumericalError

__all__ = [
    "ArmaGarchParams",
    "FilterOutput",
    "LaggedState",
    "MarginalFitResult",
    "scaled_t_quantile",
    "scaled_t_cdf",
    "scaled_t_logpdf",
    "arma_garch_filter",
    "arma_garch_simulate",
    "fit_arma_garch",
]


# ---------------------------------------------------------------------------
# scaled-t distribution: Z = T / sqrt(nu / (nu - 2)), T ~ t_nu, so Var(Z) = 1
# ---------------------------------------------------------------------------

def _t_scale(nu: float) -> float:
    if nu <= 2.0:
        raise InputError(f"scaled-t requires nu > 2, got {nu}")
    return math.sqrt(nu / (nu - 2.0))


def scaled_t_quantile(p, nu: float):
    """Quantile of the unit-variance scaled t distribution."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise InputError("quantile level must lie strictly in (0, 1)")
    q = stats.t.ppf(p, df=nu) / _t_scale(nu)
    return float(q) if q.ndim == 0 else q


def scaled_t_cdf(z, nu: float):
    """CDF of the unit-variance scaled t distribution."""
    return stats.t.cdf(np.asarray(z, dtype=float) * _t_scale(nu), df=nu)


def scaled_t_logpdf(z, nu: float):
    """Log-density of the unit-variance scaled t distribution."""
    c = _t_scale(nu)
    return stats.t.logpdf(np.asarray(z, dtype=float) * c, df=nu) + math.log(c)


# ---------------------------------------------------------------------------
# parameters and state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArmaGarchParams:
    """Coefficients of one ARMA(p1,q1)-GARCH(p2,q2) margin."""

    mu: float
    phi: np.ndarray
    gamma: np.ndarray
    omega: float
    alpha: np.ndarray
    beta: np.ndarray
    nu: float

    def __post_init__(self):
        for name in ("phi", "gamma", "alpha", "beta"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        if self.omega <= 0.0:
            raise InputError("omega must be positive")
        if np.any(self.alpha < 0.0) or np.any(self.beta < 0.0):
            raise InputError("alpha and beta coefficients must be nonnegative")
        if self.alpha.sum() + self.beta.sum() >= 1.0:
            raise InputError("sum(alpha) + sum(beta) must be < 1")
        if self.nu <= 2.0:
            raise InputError("nu must exceed 2")
        if len(self.phi) == 1 and abs(self.phi[0]) >= 1.0:
            raise InputError("|phi| must be < 1 for an AR(1) mean part")

    @property
    def orders(self) -> tuple[int, int, int, int]:
        return (len(self.phi), len(self.gamma), len(self.alpha), len(self.beta))

    @property
    def uncond_variance(self) -> float:
        """Stationary variance of the GARCH recursion, omega / (1 - sum(alpha) - sum(beta))."""
        return self.omega / (1.0 - self.alpha.sum() - self.beta.sum())


@dataclass
class FilterOutput:
    """Conditional means/variances and standardized residuals of one series."""

    mu_t: np.ndarray
    sigma2_t: np.ndarray
    z_t: np.ndarray

    @property
    def resid(self) -> np.ndarray:
        return self.z_t * np.sqrt(self.sigma2_t)


@dataclass
class LaggedState:
    """Lagged values needed to continue the recursions.

    Arrays are ordered oldest first, most recent last.  `resid2` carries the
    squared-residual lags of the variance recursion separately from `resid`
    (the moving-average lags) so that the stationary-start convention, which
    sets residual lags to 0 but squared-residual lags to the unconditional
    variance, round-trips exactly between filtering and simulation.
    """

    x: np.ndarray
    resid: np.ndarray
    resid2: np.ndarray
    sigma2: np.ndarray

    @classmethod
    def presample(cls, params: ArmaGarchParams) -> "LaggedState":
        """Stationary start: residual lags 0, variance lags at the unconditional variance."""
        p1, q1, p2, q2 = params.orders
        v0 = params.uncond_variance
        return cls(
            x=np.full(p1, params.mu),
            resid=np.zeros(q1),
            resid2=np.full(p2, v0),
            sigma2=np.full(q2, v0),
        )

    @classmethod
    def from_filter(cls, params: ArmaGarchParams, x: np.ndarray, filt: FilterOutput) -> "LaggedState":
        """State after observing `x` and its filter output (lags taken from the tail)."""
        p1, q1, p2, q2 = params.orders
        resid = filt.resid
        pre = cls.presample(params)

        def tail(arr, presample, m):
            if m == 0:
                return np.empty(0)
            if len(arr) >= m:
                return np.asarray(arr[-m:], dtype=float).copy()
            k = m - len(arr)
            return np.concatenate([presample[:k], np.asarray(arr, dtype=float)])

        return cls(
            x=tail(x, pre.x, p1),
            resid=tail(resid, pre.resid, q1),
            resid2=tail(resid**2, pre.resid2, p2),
            sigma2=tail(filt.sigma2_t, pre.sigma2, q2),
        )

    @classmethod
    def at(cls, params: ArmaGarchParams, x: np.ndarray, filt: FilterOutput, t: int) -> "LaggedState":
        """State after the first `t` steps of `x`, read from the filter pass `filt` over all of `x`.

        The recursions are causal, so the filter of `x[:t]` is the first `t`
        steps of `filt`; only the last max-order steps are sliced out.
        """
        lo = max(0, t - max(params.orders))
        window = FilterOutput(mu_t=filt.mu_t[lo:t], sigma2_t=filt.sigma2_t[lo:t],
                              z_t=filt.z_t[lo:t])
        return cls.from_filter(params, x[lo:t], window)


@dataclass
class MarginalFitResult:
    params: ArmaGarchParams
    filter: FilterOutput
    loglik: float
    converged: bool


# ---------------------------------------------------------------------------
# filtering and simulation
# ---------------------------------------------------------------------------

def _run_recursion(params: ArmaGarchParams, state: LaggedState, driver, n: int):
    """Shared mean/variance recursion.

    `driver(i, mu_i, sigma2_i)` must return the residual e_i = X_i - mu_i for
    step i; filtering derives it from observed data, simulation from an
    innovation.  Python-float lists keep the sequential loop fast.
    """
    p1, q1, p2, q2 = params.orders
    mu = params.mu
    phi = params.phi.tolist()
    gam = params.gamma.tolist()
    alpha = params.alpha.tolist()
    beta = params.beta.tolist()
    omega = params.omega

    xs = state.x.tolist()
    es = state.resid.tolist()
    e2s = state.resid2.tolist()
    s2s = state.sigma2.tolist()

    mu_out = [0.0] * n
    s2_out = [0.0] * n
    x_out = [0.0] * n

    for i in range(n):
        m = mu
        for k in range(p1):
            m += phi[k] * (xs[-1 - k] - mu)
        for l in range(q1):
            m += gam[l] * es[-1 - l]
        s2 = omega
        for k in range(p2):
            s2 += alpha[k] * e2s[-1 - k]
        for l in range(q2):
            s2 += beta[l] * s2s[-1 - l]
        if not (s2 > 0.0) or not math.isfinite(s2):
            raise NumericalError(f"nonpositive or non-finite conditional variance at step {i}")
        e = driver(i, m, s2)
        mu_out[i] = m
        s2_out[i] = s2
        x_out[i] = m + e
        if p1:
            xs.append(m + e)
        if q1:
            es.append(e)
        if p2:
            e2s.append(e * e)
        if q2:
            s2s.append(s2)

    return np.array(mu_out), np.array(s2_out), np.array(x_out)


def arma_garch_filter(params: ArmaGarchParams, x, state: LaggedState | None = None) -> FilterOutput:
    """Run the conditional mean/variance recursions over observed data.

    `state` supplies pre-sample lags; the default is the stationary start of
    :meth:`LaggedState.presample`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 1:
        raise InputError("x must be a nonempty 1-d series")
    if not np.all(np.isfinite(x)):
        raise InputError("x contains non-finite values")
    if state is None:
        state = LaggedState.presample(params)

    xv = x.tolist()
    mu_t, sigma2_t, _ = _run_recursion(params, state, lambda i, m, s2: xv[i] - m, len(x))
    z_t = (x - mu_t) / np.sqrt(sigma2_t)
    return FilterOutput(mu_t=mu_t, sigma2_t=sigma2_t, z_t=z_t)


def arma_garch_simulate(params: ArmaGarchParams, z, state: LaggedState | None = None) -> np.ndarray:
    """Simulate forward from innovations `z`, continuing the recursions from `state`.

    Exact inverse of :func:`arma_garch_filter` for matching state:
    X_s = mu_s + sigma_s * z_s.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or len(z) < 1:
        raise InputError("z must be a nonempty 1-d series")
    if state is None:
        state = LaggedState.presample(params)
    p1, q1, p2, q2 = params.orders
    for name, arr, need in (("x", state.x, p1), ("resid", state.resid, q1),
                            ("resid2", state.resid2, p2), ("sigma2", state.sigma2, q2)):
        if len(arr) < need:
            raise InputError(f"state.{name} must supply at least {need} lags")

    zv = z.tolist()
    _, _, x_out = _run_recursion(params, state, lambda i, m, s2: math.sqrt(s2) * zv[i], len(z))
    return x_out


# ---------------------------------------------------------------------------
# maximum likelihood fitting
# ---------------------------------------------------------------------------

def _fast_filter(params: ArmaGarchParams, x: np.ndarray):
    """Vectorized filter for the stationary start, used inside the likelihood.

    Both recursions are linear: the residuals satisfy an IIR filter in the
    mean equation and sigma2 an IIR filter in the variance equation, so
    lfilter reproduces the sequential loop of arma_garch_filter exactly.
    Returns (resid, sigma2).
    """
    p1, q1, p2, q2 = params.orders
    v0 = params.uncond_variance
    xc = x - params.mu

    # e_i = a_i - sum_l gamma_l e_{i-1-l}, a from the AR part (x lags at mu)
    a = xc.copy()
    for k in range(p1):
        a[k + 1:] -= params.phi[k] * xc[:-k - 1]
    if q1:
        e = signal.lfilter([1.0], np.concatenate([[1.0], params.gamma]), a)
    else:
        e = a

    # s2_i = b_i + sum_l beta_l s2_{i-1-l}, squared-residual lags start at v0
    e2 = e * e
    b = np.full(len(x), params.omega)
    for k in range(p2):
        b[:k + 1] += params.alpha[k] * v0
        b[k + 1:] += params.alpha[k] * e2[:-k - 1]
    if q2:
        den = np.concatenate([[1.0], -params.beta])
        zi = signal.lfiltic([1.0], den, np.full(q2, v0))
        s2, _ = signal.lfilter([1.0], den, b, zi=zi)
    else:
        s2 = b
    if not np.all(np.isfinite(s2)) or np.any(s2 <= 0.0):
        raise NumericalError("nonpositive or non-finite conditional variance")
    return e, s2


def _loglik(params: ArmaGarchParams, x: np.ndarray) -> float:
    e, s2 = _fast_filter(params, x)
    nu = params.nu
    c2 = nu / (nu - 2.0)
    # scaled-t log-density written out (matches scaled_t_logpdf), plus the
    # -0.5 log sigma2 Jacobian of standardization
    y2 = e * e / s2 * c2
    const = (special.gammaln(0.5 * (nu + 1.0)) - special.gammaln(0.5 * nu)
             - 0.5 * math.log(nu * math.pi) + 0.5 * math.log(c2))
    ll = const - 0.5 * (nu + 1.0) * np.log1p(y2 / nu) - 0.5 * np.log(s2)
    return float(np.sum(ll))


class _Transform:
    """Bijection between the constrained parameter space and R^m.

    omega via log, (alpha, beta) jointly via a multinomial-logistic map that
    enforces sum < 1, nu via shifted log (nu = 2 + exp), phi/gamma via tanh.
    """

    def __init__(self, orders, fix_mu_zero: bool):
        self.p1, self.q1, self.p2, self.q2 = orders
        self.fix_mu_zero = fix_mu_zero
        self.n_free = (0 if fix_mu_zero else 1) + self.p1 + self.q1 + 1 + self.p2 + self.q2 + 1

    def to_params(self, theta: np.ndarray) -> ArmaGarchParams:
        i = 0
        if self.fix_mu_zero:
            mu = 0.0
        else:
            mu = theta[0]
            i = 1
        phi = np.tanh(theta[i:i + self.p1]); i += self.p1
        gamma = np.tanh(theta[i:i + self.q1]); i += self.q1
        omega = math.exp(theta[i]); i += 1
        logits = theta[i:i + self.p2 + self.q2]; i += self.p2 + self.q2
        expl = np.exp(logits - logits.max())
        frac = expl / (math.exp(-logits.max()) + expl.sum())
        alpha = frac[:self.p2]
        beta = frac[self.p2:]
        nu = 2.0 + math.exp(theta[i])
        return ArmaGarchParams(mu=mu, phi=phi, gamma=gamma, omega=omega,
                               alpha=alpha, beta=beta, nu=nu)

    def from_params(self, p: ArmaGarchParams) -> np.ndarray:
        out = [] if self.fix_mu_zero else [p.mu]
        out.extend(np.arctanh(np.clip(p.phi, -0.999, 0.999)))
        out.extend(np.arctanh(np.clip(p.gamma, -0.999, 0.999)))
        out.append(math.log(p.omega))
        frac = np.concatenate([p.alpha, p.beta])
        frac = np.clip(frac, 1e-8, None)
        rest = max(1.0 - frac.sum(), 1e-8)
        out.extend(np.log(frac / rest))
        out.append(math.log(max(p.nu - 2.0, 1e-8)))
        return np.array(out)


def fit_arma_garch(x, orders=(1, 1, 1, 1), fix_mu_zero: bool = False) -> MarginalFitResult:
    """Fit by constrained maximum likelihood (scaled-t innovations).

    Quasi-Newton optimization in a transformed unconstrained space, restarted
    from 3 deterministic initial points; the best local optimum wins.
    """
    x = np.asarray(x, dtype=float)
    if len(x) < 50:
        raise InputError(f"need at least 50 observations to fit, got {len(x)}")
    if not np.all(np.isfinite(x)):
        raise InputError("x contains non-finite values")
    v = float(np.var(x, ddof=1))
    if v <= 0.0:
        raise NumericalError("series has zero sample variance")

    trans = _Transform(orders, fix_mu_zero)
    p1, q1, p2, q2 = orders
    m0 = 0.0 if fix_mu_zero else float(np.mean(x))

    def start(total_ab, arch_share, phi0, nu0):
        alpha = np.full(p2, total_ab * arch_share / max(p2, 1))
        beta = np.full(q2, total_ab * (1 - arch_share) / max(q2, 1))
        return trans.from_params(ArmaGarchParams(
            mu=m0, phi=np.full(p1, phi0), gamma=np.zeros(q1),
            omega=v * (1.0 - total_ab), alpha=alpha, beta=beta, nu=nu0))

    starts = [
        start(0.9, 0.10, 0.1, 6.0),
        start(0.5, 0.30, 0.0, 10.0),
        start(0.2, 0.50, 0.3, 4.0),
    ]

    def neg_loglik(theta):
        try:
            return -_loglik(trans.to_params(theta), x)
        except (NumericalError, InputError, OverflowError, FloatingPointError):
            return 1e10

    best = None
    converged = False
    for theta0 in starts:
        res = optimize.minimize(neg_loglik, theta0, method="L-BFGS-B",
                                options={"maxiter": 500, "ftol": 1e-8})
        if best is None or res.fun < best.fun:
            best = res
            converged = bool(res.success)

    params = trans.to_params(best.x)
    filt = arma_garch_filter(params, x)
    return MarginalFitResult(params=params, filter=filt,
                             loglik=-float(best.fun), converged=converged)
