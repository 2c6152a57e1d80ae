"""Univariate ARMA-GARCH margins with scaled-t innovations.

Each component series is modeled as

    X_t = mu_t + sigma_t * Z_t,
    mu_t = mu + sum_k phi_k (X_{t-k} - mu) + sum_l gamma_l (X_{t-l} - mu_{t-l}),
    sigma2_t = omega + sum_k alpha_k (X_{t-k} - mu_{t-k})^2 + sum_l beta_l sigma2_{t-l},

with iid innovations Z_t having mean 0 and variance 1 (scaled t with
nu > 2 degrees of freedom).  The module provides filtering (extracting
standardized residuals, always from the stationary start), simulation (the
exact inverse of the filter from that start, or continuing from any lags),
and constrained maximum likelihood fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
        for message, broken in _violations(self):
            if broken:
                raise InputError(message)

    @property
    def orders(self) -> tuple[int, int, int, int]:
        return (len(self.phi), len(self.gamma), len(self.alpha), len(self.beta))

    @property
    def uncond_variance(self) -> float:
        """Stationary variance of the GARCH recursion, omega / (1 - sum(alpha) - sum(beta))."""
        return self.omega / (1.0 - self.alpha.sum() - self.beta.sum())


class _Rows(NamedTuple):
    """Parameter rows: mu, omega and nu of shape (r,), the lag coefficients (r, order).

    The batched counterpart of :class:`ArmaGarchParams`, which the
    likelihood core works on; unlike it, a row may break the constraints
    (see :func:`_violations`).
    """

    mu: np.ndarray
    phi: np.ndarray
    gamma: np.ndarray
    omega: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    nu: np.ndarray

    @classmethod
    def of(cls, p: ArmaGarchParams) -> "_Rows":
        return cls(np.array([p.mu], dtype=float), p.phi[None], p.gamma[None],
                   np.array([p.omega], dtype=float), p.alpha[None], p.beta[None],
                   np.array([p.nu], dtype=float))

    @property
    def orders(self) -> tuple[int, int, int, int]:
        return (self.phi.shape[1], self.gamma.shape[1], self.alpha.shape[1], self.beta.shape[1])

    def take(self, idx: np.ndarray) -> "_Rows":
        return _Rows(*(f[idx] for f in self))


def _violations(p):
    """Each constraint on the parameters `p` as (message, broken).

    `p` is an :class:`ArmaGarchParams`, for which `broken` is a bool, or
    :class:`_Rows`, for which it is a mask over the rows.
    """
    finite = (np.isfinite(p.mu) & np.isfinite(p.omega) & np.isfinite(p.nu)
              & np.isfinite(p.phi).all(axis=-1) & np.isfinite(p.gamma).all(axis=-1)
              & np.isfinite(p.alpha).all(axis=-1) & np.isfinite(p.beta).all(axis=-1))
    return (("parameters must be finite", ~finite),
            ("omega must be positive", p.omega <= 0.0),
            ("alpha and beta coefficients must be nonnegative",
             (p.alpha < 0.0).any(axis=-1) | (p.beta < 0.0).any(axis=-1)),
            ("sum(alpha) + sum(beta) must be < 1",
             p.alpha.sum(axis=-1) + p.beta.sum(axis=-1) >= 1.0),
            ("nu must exceed 2", p.nu <= 2.0),
            ("|phi| must be < 1 for an AR(1) mean part",
             p.phi.shape[-1] == 1 and np.abs(p.phi[..., 0]) >= 1.0))


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
    """Lagged values a simulation continues from: :meth:`presample` or :meth:`at`.

    Lags run along the last axis, oldest first, most recent last; any
    leading axes index origins (see :meth:`at`).  `resid2` carries the
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
        """Stationary start, where the filter starts: x lags at mu, residual lags 0,
        squared-residual and variance lags at the unconditional variance."""
        p1, q1, p2, q2 = params.orders
        v0 = params.uncond_variance
        return cls(x=np.full(p1, params.mu, dtype=float), resid=np.zeros(q1),
                   resid2=np.full(p2, v0), sigma2=np.full(q2, v0))

    @classmethod
    def at(cls, params: ArmaGarchParams, x: np.ndarray, filt: FilterOutput, t) -> "LaggedState":
        """State after the first `t` steps of `x`, read from the filter pass `filt` over all of `x`.

        `t` is an int or an integer array of any shape, each entry in
        [0, len(x)]; every field then has shape ``t.shape + (order,)``, so
        an int gives 1-d lags.  The recursions are causal, so the filter of
        `x[:t]` is the first `t` steps of `filt`.  Lags before the start of
        `x` take the stationary-start values of :meth:`presample`.
        """
        t = np.asarray(t)
        if np.any(t < 0) or np.any(t > len(x)):
            raise InputError(f"origins must lie in [0, {len(x)}]")
        p1, q1, p2, q2 = params.orders
        v0 = params.uncond_variance

        def read(m, fill, values):
            idx = t[..., None] - m + np.arange(m)
            return np.where(idx >= 0, values[np.maximum(idx, 0)], fill)

        resid = filt.resid
        return cls(x=read(p1, params.mu, np.asarray(x, dtype=float)),
                   resid=read(q1, 0.0, resid),
                   resid2=read(p2, v0, resid**2),
                   sigma2=read(q2, v0, filt.sigma2_t))


@dataclass
class MarginalFitResult:
    params: ArmaGarchParams
    filter: FilterOutput
    loglik: float
    converged: bool


# ---------------------------------------------------------------------------
# filtering and simulation
# ---------------------------------------------------------------------------

def _lfilter_rows(tail: np.ndarray, u: np.ndarray, zi: np.ndarray | None = None) -> np.ndarray:
    """``lfilter([1], [1, *tail[i]], u[i], zi=zi[i])`` for every row i.

    One lfilter call per distinct row of `tail`: the perturbed points of a
    finite-difference gradient share most of their coefficients.
    """
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(tail):
        groups.setdefault(row.tobytes(), []).append(i)
    out = np.empty_like(u)
    for idx in map(np.array, groups.values()):
        den = np.concatenate([[1.0], tail[idx][0]])
        if zi is None:
            out[idx] = signal.lfilter([1.0], den, u[idx])
        else:
            out[idx] = signal.lfilter([1.0], den, u[idx], zi=zi[idx])[0]
    return out


def _filter(rows: _Rows, x: np.ndarray):
    """Residuals and variances of `x` under each parameter row, from the stationary start.

    Both recursions are linear IIR filters: the residuals in the mean
    equation, sigma2 in the variance equation.  At the stationary start of
    :meth:`LaggedState.presample` the lags of x equal mu and the residual
    lags are 0, so the mean filter's pre-sample terms vanish.  The squared
    residual lags and sigma2's own lags equal each row's unconditional
    variance v0: the first are added to the variance filter's inputs, the
    second become its initial conditions, computed as lfiltic computes
    them.  Returns (resid, sigma2, ok), the first two of shape (r, len(x));
    `ok` marks the rows whose variance stays positive and finite.
    """
    p1, q1, p2, q2 = rows.orders
    # e_i = a_i - sum_l gamma_l e_{i-1-l}, a from the AR part
    xc = x - rows.mu[:, None]
    a = xc.copy()
    for k in range(p1):
        a[:, k + 1:] -= rows.phi[:, k, None] * xc[:, :-k - 1]
    e = _lfilter_rows(rows.gamma, a) if q1 else a

    # s2_i = b_i + sum_l beta_l s2_{i-1-l}
    v0 = rows.omega / (1.0 - rows.alpha.sum(axis=-1) - rows.beta.sum(axis=-1))
    e2 = e * e
    b = np.repeat(rows.omega[:, None], len(x), axis=1)
    for k in range(p2):
        b[:, k + 1:] += rows.alpha[:, k, None] * e2[:, :-k - 1]
        b[:, :k + 1] += (rows.alpha[:, k] * v0)[:, None]
    if q2:
        tail = -rows.beta
        zi = np.zeros((len(v0), q2))
        for m in range(q2):
            zi[:, m] -= (tail[:, m:] * v0[:, None]).sum(axis=-1)
        s2 = _lfilter_rows(tail, b, zi)
    else:
        s2 = b
    # a row holding a NaN has a NaN minimum, which fails the first test
    ok = (s2.min(axis=-1) > 0.0) & np.isfinite(s2.max(axis=-1))
    return e, s2, ok


def _require(ok: np.ndarray) -> None:
    if not ok.all():
        raise NumericalError("nonpositive or non-finite conditional variance")


def arma_garch_filter(params: ArmaGarchParams, x) -> FilterOutput:
    """Run the conditional mean/variance recursions over observed data.

    The recursions start at the stationary start of
    :meth:`LaggedState.presample`, as the likelihood does.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 1:
        raise InputError("x must be a nonempty 1-d series")
    if not np.all(np.isfinite(x)):
        raise InputError("x contains non-finite values")
    e, s2, ok = _filter(_Rows.of(params), x)
    _require(ok)
    e, s2 = e[0], s2[0]
    return FilterOutput(mu_t=x - e, sigma2_t=s2, z_t=e / np.sqrt(s2))


def arma_garch_simulate(params: ArmaGarchParams, z, state: LaggedState | None = None) -> np.ndarray:
    """Simulate forward from innovations `z`, continuing the recursions from `state`.

    X_s = mu_s + sigma_s * z_s.  From the default stationary start, where
    :func:`arma_garch_filter` starts, it is the exact inverse of the filter.
    `z` has shape (..., h), one path per entry of its leading axes, with
    steps on the last axis.  The lags of `state`
    have shape (..., order) and their leading axes broadcast against
    ``z[..., 0]``: 1-d lags start every path from one state, and lags from
    :meth:`LaggedState.at` with origins of shape (n, 1) give each row of a
    (n, n_pth, h) `z` its own origin.  Returns an array of the broadcast
    shape (..., h).  A 1-d `z` with 1-d lags is one path; it runs on
    Python floats, several times faster than on 0-d arrays.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim < 1 or z.shape[-1] < 1:
        raise InputError("z must hold at least one step on its last axis")
    if state is None:
        state = LaggedState.presample(params)
    p1, q1, p2, q2 = params.orders
    for name, need in (("x", p1), ("resid", q1), ("resid2", p2), ("sigma2", q2)):
        if np.shape(getattr(state, name))[-1] < need:
            raise InputError(f"state.{name} must supply at least {need} lags")
    if np.any(state.resid2 < 0.0) or np.any(state.sigma2 < 0.0):
        raise InputError("squared-residual and variance lags must be nonnegative")
    return _simulate(params, z, state)


def _simulate(params: ArmaGarchParams, z: np.ndarray, state: LaggedState) -> np.ndarray:
    """:func:`arma_garch_simulate` of a float array `z` and a `state` whose lags it accepts."""
    p1, q1, p2, q2 = params.orders
    fields = (state.x, state.resid, state.resid2, state.sigma2)
    try:
        lead = np.broadcast_shapes(z.shape[:-1], *(np.shape(f)[:-1] for f in fields))
    except ValueError as exc:
        raise InputError(f"state lags do not broadcast against z: {exc}") from None
    if lead == ():
        sqrt = math.sqrt
        steps = z.tolist()
        xs, es, e2s, s2s = (f.tolist() for f in fields)
    else:
        sqrt = np.sqrt
        steps = [z[..., s] for s in range(z.shape[-1])]
        xs, es, e2s, s2s = ([f[..., i] for i in range(np.shape(f)[-1])] for f in fields)
    mu, omega = params.mu, params.omega
    phi, gam, alpha, beta = (c.tolist() for c in (params.phi, params.gamma,
                                                  params.alpha, params.beta))

    out = np.empty((len(steps),) + lead)
    for s, zs in enumerate(steps):
        m = mu
        for k in range(p1):
            m = m + phi[k] * (xs[-1 - k] - mu)
        for l in range(q1):
            m = m + gam[l] * es[-1 - l]
        s2 = omega
        for k in range(p2):
            s2 = s2 + alpha[k] * e2s[-1 - k]
        for l in range(q2):
            s2 = s2 + beta[l] * s2s[-1 - l]
        e = sqrt(s2) * zs
        x = m + e
        out[s] = x
        if p1:
            xs.append(x)
        if q1:
            es.append(e)
        if p2:
            e2s.append(e * e)
        if q2:
            s2s.append(s2)
    # a non-finite variance makes that step's value non-finite too
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite conditional variance or simulated value")
    return np.moveaxis(out, 0, -1)


# ---------------------------------------------------------------------------
# maximum likelihood fitting
# ---------------------------------------------------------------------------

def _loglik_rows(rows: _Rows, x: np.ndarray):
    """Log-likelihood of `x` under each parameter row, from the stationary start.

    Returns (loglik, ok): `ok` marks the rows whose variance stays positive
    and finite and whose loglik is finite; `loglik` has one value per such row.
    """
    e, s2, ok = _filter(rows, x)
    nu = rows.nu[:, None]
    if not ok.all():
        e, s2, nu = e[ok], s2[ok], nu[ok]
    c2 = nu / (nu - 2.0)
    # scaled-t log-density written out (matches scaled_t_logpdf), plus the
    # -0.5 log sigma2 Jacobian of standardization
    y2 = e * e / s2 * c2
    const = np.array([special.gammaln(0.5 * (v + 1.0)) - special.gammaln(0.5 * v)
                      - 0.5 * math.log(v * math.pi) + 0.5 * math.log(w)
                      for v, w in zip(nu[:, 0].tolist(), c2[:, 0].tolist())], dtype=float)[:, None]
    ll = (const - 0.5 * (nu + 1.0) * np.log1p(y2 / nu) - 0.5 * np.log(s2)).sum(axis=-1)
    ok[ok] = np.isfinite(ll)   # a subnormal variance can overflow y2 and the likelihood
    return ll[np.isfinite(ll)], ok


def _loglik(params: ArmaGarchParams, x: np.ndarray) -> float:
    ll, ok = _loglik_rows(_Rows.of(params), x)
    _require(ok)
    return float(ll[0])


def _exp(a: np.ndarray):
    """math.exp of each entry of `a`, and a mask of the entries where it raises OverflowError."""
    out, over = np.full(a.size, math.inf), np.zeros(a.size, dtype=bool)
    for i, v in enumerate(a.ravel().tolist()):
        try:
            out[i] = math.exp(v)
        except OverflowError:
            over[i] = True
    return out.reshape(a.shape), over.reshape(a.shape)


class _Transform:
    """Bijection between the constrained parameter space and R^m.

    omega via log, (alpha, beta) jointly via a multinomial-logistic map that
    enforces sum < 1, nu via shifted log (nu = 2 + exp), phi/gamma via tanh.
    """

    def __init__(self, orders, fix_mu_zero: bool):
        self.p1, self.q1, self.p2, self.q2 = orders
        self.fix_mu_zero = fix_mu_zero
        self.n_free = (0 if fix_mu_zero else 1) + self.p1 + self.q1 + 1 + self.p2 + self.q2 + 1

    def to_rows(self, theta: np.ndarray):
        """Parameter rows of the rows of `theta` (r, n_free).

        Returns (rows, overflow); `overflow` marks the rows for which
        :meth:`to_params` raises OverflowError, and their entries are
        meaningless.  Rows may break the constraints (see :func:`_violations`).
        """
        i = 0
        if self.fix_mu_zero:
            mu = np.zeros(len(theta))
        else:
            mu = theta[:, 0]
            i = 1
        phi = np.tanh(theta[:, i:i + self.p1]); i += self.p1
        gamma = np.tanh(theta[:, i:i + self.q1]); i += self.q1
        i_nu = i + 1 + self.p2 + self.q2
        logits = theta[:, i + 1:i_nu]
        top = logits.max(axis=1, keepdims=True, initial=-np.inf)
        # omega, the logits' normalising term and nu - 2
        (omega, scale, exp_nu), overflow = _exp(np.stack([theta[:, i], -top[:, 0], theta[:, i_nu]]))
        expl = np.exp(logits - top)
        frac = expl / (scale[:, None] + expl.sum(axis=1, keepdims=True))
        rows = _Rows(mu=mu, phi=phi, gamma=gamma, omega=omega, alpha=frac[:, :self.p2],
                     beta=frac[:, self.p2:], nu=2.0 + exp_nu)
        return rows, overflow.any(axis=0)

    def to_params(self, theta: np.ndarray) -> ArmaGarchParams:
        rows, overflow = self.to_rows(theta[None])
        if overflow[0]:
            raise OverflowError("math range error")
        return ArmaGarchParams(mu=rows.mu[0], phi=rows.phi[0], gamma=rows.gamma[0],
                               omega=float(rows.omega[0]), alpha=rows.alpha[0],
                               beta=rows.beta[0], nu=float(rows.nu[0]))

    def starts(self, x: np.ndarray, v: float) -> list[np.ndarray]:
        """The 3 deterministic initial points for series `x` with sample variance `v`."""
        p1, q1, p2, q2 = self.p1, self.q1, self.p2, self.q2
        m0 = 0.0 if self.fix_mu_zero else float(np.mean(x))

        def start(total_ab, arch_share, phi0, nu0):
            alpha = np.full(p2, total_ab * arch_share / max(p2, 1))
            beta = np.full(q2, total_ab * (1 - arch_share) / max(q2, 1))
            return self.from_params(ArmaGarchParams(
                mu=m0, phi=np.full(p1, phi0), gamma=np.zeros(q1),
                omega=v * (1.0 - total_ab), alpha=alpha, beta=beta, nu=nu0))

        return [start(0.9, 0.10, 0.1, 6.0), start(0.5, 0.30, 0.0, 10.0), start(0.2, 0.50, 0.3, 4.0)]

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


def _neg_loglik(trans: _Transform, thetas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """-loglik of `x` at each row of `thetas` (r, n_free), in one pass.

    A row gets 1e10 where ``_loglik(trans.to_params(theta), x)`` would
    raise: OverflowError, InputError for broken constraints, NumericalError
    for a variance that is not positive and finite or a loglik that is not finite.
    """
    rows, invalid = trans.to_rows(thetas)
    for _, broken in _violations(rows):
        invalid |= broken
    valid = np.flatnonzero(~invalid)
    ll, ok = _loglik_rows(rows.take(valid) if invalid.any() else rows, x)
    out = np.full(len(thetas), 1e10)
    out[valid[ok]] = -ll
    return out


_MAXITER = 500   # L-BFGS-B iterations per start


def _value_and_gradient(theta: np.ndarray, trans: _Transform, x: np.ndarray):
    """-loglik at `theta` and its gradient, from one pass over n_free + 1 rows.

    The gradient is bit for bit scipy's forward differences with absolute
    step 1e-8, ``optimize.approx_fprime(theta, f, 1e-8)``, which L-BFGS-B
    forms when it gets no `jac`; where ``theta + 1e-8 == theta`` the step
    is ``sqrt(eps) * sign(theta) * max(1, |theta|)``.
    """
    sign = np.where(theta >= 0, 1.0, -1.0)
    step = np.where((theta + 1e-8) - theta == 0,
                    np.finfo(float).eps ** 0.5 * sign * np.maximum(1.0, np.abs(theta)), 1e-8)
    points = np.tile(theta, (len(theta) + 1, 1))
    points[1:][np.diag_indices(len(theta))] = theta + step
    f = _neg_loglik(trans, points, x)
    return f[0], (f[1:] - f[0]) / ((theta + step) - theta)


def fit_arma_garch(x, orders=(1, 1, 1, 1), fix_mu_zero: bool = False) -> MarginalFitResult:
    """Fit by constrained maximum likelihood (scaled-t innovations).

    Quasi-Newton optimization (L-BFGS-B) in a transformed unconstrained
    space, restarted from 3 deterministic initial points; the best local
    optimum wins.  Each point L-BFGS-B asks for costs one likelihood pass
    over the point and its forward-difference points; each row gets the
    value a call on that point alone would give, and the gradient is the
    one L-BFGS-B would form from such calls, so the fit is bit for bit the
    same as with one call per point.
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
    best = None
    for theta0 in trans.starts(x, v):
        # maxfun counts points; L-BFGS-B's default of 15000 counts n_free + 1 calls per point
        res = optimize.minimize(_value_and_gradient, theta0, args=(trans, x),
                                method="L-BFGS-B", jac=True,
                                options={"maxiter": _MAXITER, "ftol": 1e-8,
                                         "maxfun": 15000 // (trans.n_free + 1)})
        if best is None or res.fun < best.fun:
            best = res

    params = trans.to_params(best.x)
    filt = arma_garch_filter(params, x)
    return MarginalFitResult(params=params, filter=filt,
                             loglik=-float(best.fun), converged=bool(best.success))
