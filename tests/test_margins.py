"""Margin model tests: scaled-t distribution, filtering, simulation, fitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, signal, special, stats

from mtsgen import (ArmaGarchParams, InputError, LaggedState,
                    arma_garch_filter, arma_garch_simulate, fit_arma_garch,
                    scaled_t_quantile)
from mtsgen.errors import NumericalError
from mtsgen.margins import (_loglik, _neg_loglik, _Transform, _value_and_gradient,
                            scaled_t_cdf, scaled_t_logpdf)


def garch_params(**kw):
    defaults = dict(mu=0.0, phi=[0.0], gamma=[0.0], omega=0.1,
                    alpha=[0.2], beta=[0.7], nu=6.0)
    defaults.update(kw)
    return ArmaGarchParams(**defaults)


class TestScaledT:
    def test_median_is_zero(self):
        assert scaled_t_quantile(0.5, 5) == pytest.approx(0.0, abs=1e-12)

    def test_large_nu_approaches_normal(self):
        for p in (0.01, 0.5, 0.99):
            assert scaled_t_quantile(p, 1e6) == pytest.approx(
                stats.norm.ppf(p), abs=1e-3)

    def test_unit_variance(self):
        # low-discrepancy grid in place of random uniforms
        u = (np.arange(10**6) + 0.5) / 10**6
        z = scaled_t_quantile(u, 4.0)
        assert np.var(z) == pytest.approx(1.0, abs=0.01)

    def test_density_integrates_to_one(self):
        val, _ = integrate.quad(lambda z: np.exp(scaled_t_logpdf(z, 4.5)),
                                -50, 50, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_cdf_inverts_quantile(self):
        p = np.array([0.05, 0.3, 0.77])
        assert scaled_t_cdf(scaled_t_quantile(p, 7.0), 7.0) == pytest.approx(p)

    def test_domain_errors(self):
        with pytest.raises(InputError):
            scaled_t_quantile(0.5, 2.0)
        with pytest.raises(InputError):
            scaled_t_quantile(0.0, 5.0)
        with pytest.raises(InputError):
            scaled_t_quantile(1.0, 5.0)


class TestParams:
    def test_invariants_enforced(self):
        with pytest.raises(InputError):
            garch_params(omega=0.0)
        with pytest.raises(InputError):
            garch_params(alpha=[-0.1])
        with pytest.raises(InputError):
            garch_params(alpha=[0.5], beta=[0.5])
        with pytest.raises(InputError):
            garch_params(nu=2.0)
        with pytest.raises(InputError):
            garch_params(phi=[1.0])

    @pytest.mark.parametrize("bad", [{"mu": math.nan}, {"omega": math.nan},
                                     {"omega": math.inf}, {"nu": math.nan},
                                     {"phi": [math.nan]}, {"gamma": [math.inf]},
                                     {"alpha": [math.nan]}, {"beta": [math.nan]}])
    def test_non_finite_rejected(self, bad):
        # comparisons with NaN are false, so each range check alone lets NaN pass
        with pytest.raises(InputError, match="finite"):
            garch_params(**bad)

    def test_unconditional_variance(self):
        p = garch_params(omega=0.1, alpha=[0.2], beta=[0.7])
        assert p.uncond_variance == pytest.approx(1.0)


class TestFilter:
    def test_constant_variance_degenerate(self):
        p = garch_params(alpha=[0.0], beta=[0.0], omega=0.1)
        x = np.array([1.0, -1.0, 2.0])
        out = arma_garch_filter(p, x)
        np.testing.assert_allclose(out.sigma2_t, [0.1, 0.1, 0.1])
        np.testing.assert_allclose(out.z_t, x / np.sqrt(0.1))

    def test_hand_recursion(self):
        # stationary start puts the variance lags at omega/(1-alpha-beta) = 1
        p = garch_params(omega=0.1, alpha=[0.2], beta=[0.7])
        out = arma_garch_filter(p, np.array([1.0, 1.0]))
        assert out.sigma2_t[0] == pytest.approx(1.0)
        assert out.sigma2_t[1] == pytest.approx(0.1 + 0.2 * 1.0 + 0.7 * 1.0)

    def test_sigma2_at_least_omega(self):
        p = garch_params()
        rng = np.random.default_rng(3)
        out = arma_garch_filter(p, rng.standard_normal(500))
        assert np.all(out.sigma2_t >= p.omega)

    def test_z_definition_holds(self):
        p = garch_params(mu=0.1, phi=[0.4], gamma=[-0.2])
        x = np.random.default_rng(0).standard_normal(200)
        out = arma_garch_filter(p, x)
        np.testing.assert_allclose(out.z_t * np.sqrt(out.sigma2_t) + out.mu_t, x)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            arma_garch_filter(garch_params(), np.array([1.0, np.nan]))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("beta", [[0.7], []], ids=["garch", "arch"])
    def test_non_finite_variance_raises(self, beta):
        # the squared residual overflows, so the next variance is inf (ARCH)
        # or NaN (lfilter multiplies the inf input by a zero coefficient)
        p = garch_params(beta=beta)
        x = np.array([1.0, 1e200, 1.0, 2.0])
        with pytest.raises(NumericalError):
            arma_garch_filter(p, x)
        with pytest.raises(NumericalError):
            _loglik(p, x)


class TestSimulate:
    def test_zero_innovations_constant_mean(self):
        p = garch_params(mu=0.3, phi=[0.0], gamma=[0.0],
                         alpha=[0.0], beta=[0.0], omega=0.04)
        np.testing.assert_allclose(arma_garch_simulate(p, np.zeros(5)),
                                   np.full(5, 0.3))

    def test_hand_arithmetic(self):
        p = garch_params(alpha=[0.0], beta=[0.0], omega=0.04)
        np.testing.assert_allclose(arma_garch_simulate(p, np.array([1.0, -2.0])),
                                   [0.2, -0.4])

    def test_round_trip(self):
        p = garch_params(mu=0.05, phi=[0.3], gamma=[-0.2],
                         omega=0.05, alpha=[0.1], beta=[0.8])
        rng = np.random.default_rng(11)
        z = rng.standard_t(6, size=600) / np.sqrt(6 / 4)
        x = arma_garch_simulate(p, z)
        out = arma_garch_filter(p, x)
        assert np.max(np.abs(out.z_t[50:] - z[50:])) < 1e-8

    def test_missing_lags_rejected(self):
        p = garch_params(phi=[0.3])
        bad = LaggedState(x=np.empty(0), resid=np.zeros(1),
                          resid2=np.ones(1), sigma2=np.ones(1))
        with pytest.raises(InputError):
            arma_garch_simulate(p, np.ones(3), bad)

    def test_deterministic(self):
        p = garch_params()
        z = np.random.default_rng(2).standard_normal(50)
        np.testing.assert_array_equal(arma_garch_simulate(p, z),
                                      arma_garch_simulate(p, z))


class TestLaggedState:
    @pytest.mark.parametrize("case, want", [
        ("1111", ([0.05], [0.0], [0.5000000000000001], [0.5000000000000001])),
        ("2112", ([-0.02, -0.02], [0.0], [0.5000000000000002],
                  [0.5000000000000002, 0.5000000000000002])),
    ])
    def test_presample_values(self, case, want):
        # x lags at mu, residual lags 0, the other lags at the unconditional variance
        state = LaggedState.presample(ORACLE_PARAMS[case])
        for name, lags in zip(("x", "resid", "resid2", "sigma2"), want):
            got = getattr(state, name)
            assert got.dtype == np.float64 and np.array_equal(got, lags)

    def test_at_equals_prefix_filter(self):
        # the state read from one full pass equals the state of a prefix filter,
        # including prefixes shorter than the longest lag
        p = ArmaGarchParams(mu=0.01, phi=[0.3, -0.1], gamma=[0.2], omega=0.05,
                            alpha=[0.1], beta=[0.5, 0.2], nu=6.0)
        x = np.random.default_rng(9).standard_normal(60)
        full = arma_garch_filter(p, x)
        for t in (1, 2, 3, 17, 60):
            a = LaggedState.at(p, x, full, t)
            b = LaggedState.at(p, x[:t], arma_garch_filter(p, x[:t]), t)
            for name in ("x", "resid", "resid2", "sigma2"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


# ---------------------------------------------------------------------------
# The three recursions the filter and the simulator replaced, kept as oracles
# ---------------------------------------------------------------------------

def loop_recursion(params, state, resid_of, n):
    """Scalar mean/variance loop; resid_of(i, mu_i, sigma2_i) returns e_i."""
    p1, q1, p2, q2 = params.orders
    mu, omega = params.mu, params.omega
    phi, gam = params.phi.tolist(), params.gamma.tolist()
    alpha, beta = params.alpha.tolist(), params.beta.tolist()
    xs, es = state.x.tolist(), state.resid.tolist()
    e2s, s2s = state.resid2.tolist(), state.sigma2.tolist()
    mu_out, s2_out, x_out = [0.0] * n, [0.0] * n, [0.0] * n
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
        e = resid_of(i, m, s2)
        mu_out[i], s2_out[i], x_out[i] = m, s2, m + e
        if p1:
            xs.append(m + e)
        if q1:
            es.append(e)
        if p2:
            e2s.append(e * e)
        if q2:
            s2s.append(s2)
    return np.array(mu_out), np.array(s2_out), np.array(x_out)


def loop_filter(params, x, state):
    xv = x.tolist()
    mu_t, s2_t, _ = loop_recursion(params, state, lambda i, m, s2: xv[i] - m, len(x))
    return mu_t, s2_t, (x - mu_t) / np.sqrt(s2_t)


def loop_simulate(params, z, state):
    zv = z.tolist()
    return loop_recursion(params, state, lambda i, m, s2: math.sqrt(s2) * zv[i], len(z))[2]


def lfilter_loglik(params, x):
    """The likelihood on the stationary-start-only lfilter filter."""
    p1, q1, p2, q2 = params.orders
    v0 = params.uncond_variance
    xc = x - params.mu
    a = xc.copy()
    for k in range(p1):
        a[k + 1:] -= params.phi[k] * xc[:-k - 1]
    e = signal.lfilter([1.0], np.concatenate([[1.0], params.gamma]), a) if q1 else a
    e2 = e * e
    b = np.full(len(x), params.omega)
    for k in range(p2):
        b[:k + 1] += params.alpha[k] * v0
        b[k + 1:] += params.alpha[k] * e2[:-k - 1]
    if q2:
        den = np.concatenate([[1.0], -params.beta])
        s2, _ = signal.lfilter([1.0], den, b, zi=signal.lfiltic([1.0], den, np.full(q2, v0)))
    else:
        s2 = b
    nu = params.nu
    c2 = nu / (nu - 2.0)
    y2 = e * e / s2 * c2
    const = (special.gammaln(0.5 * (nu + 1.0)) - special.gammaln(0.5 * nu)
             - 0.5 * math.log(nu * math.pi) + 0.5 * math.log(c2))
    return float(np.sum(const - 0.5 * (nu + 1.0) * np.log1p(y2 / nu) - 0.5 * np.log(s2)))


def vector_simulate(params, state, z):
    """All (n_pth, h) paths at once from one shared state."""
    n_pth, h = z.shape
    p1, q1, p2, q2 = params.orders
    xs, es = [np.full(n_pth, v) for v in state.x], [np.full(n_pth, v) for v in state.resid]
    e2s, s2s = [np.full(n_pth, v) for v in state.resid2], [np.full(n_pth, v) for v in state.sigma2]
    out = np.empty((n_pth, h))
    for s in range(h):
        m = np.full(n_pth, params.mu)
        for k in range(p1):
            m += params.phi[k] * (xs[-1 - k] - params.mu)
        for l in range(q1):
            m += params.gamma[l] * es[-1 - l]
        s2 = np.full(n_pth, params.omega)
        for k in range(p2):
            s2 += params.alpha[k] * e2s[-1 - k]
        for l in range(q2):
            s2 += params.beta[l] * s2s[-1 - l]
        e = np.sqrt(s2) * z[:, s]
        out[:, s] = m + e
        for lags, val, order in ((xs, m + e, p1), (es, e, q1), (e2s, e * e, p2), (s2s, s2, q2)):
            if order:
                lags.append(val)
    return out


ORACLE_PARAMS = {
    "1111": ArmaGarchParams(mu=0.05, phi=[0.3], gamma=[-0.2], omega=0.05,
                            alpha=[0.1], beta=[0.8], nu=6.0),
    "2112": ArmaGarchParams(mu=-0.02, phi=[0.3, -0.1], gamma=[0.25], omega=0.04,
                            alpha=[0.12], beta=[0.5, 0.3], nu=5.0),
}


@pytest.fixture(params=sorted(ORACLE_PARAMS))
def oracle_case(request):
    p = ORACLE_PARAMS[request.param]
    x = arma_garch_simulate(p, np.random.default_rng(21).standard_t(6, 5000) / np.sqrt(1.5))
    return p, x


class TestRecursionOracles:
    @pytest.mark.parametrize("start", [0])
    def test_filter_matches_loop(self, oracle_case, start):
        # the filter runs from the stationary start, the state `at` gives for t = 0
        p, x = oracle_case
        out = arma_garch_filter(p, x)
        state = LaggedState.at(p, x, out, start)
        for got, want in zip((out.mu_t, out.sigma2_t, out.z_t), loop_filter(p, x, state)):
            # relative to the scale of each series: mu_t and z_t cross zero
            np.testing.assert_allclose(got, want, rtol=1e-13,
                                       atol=1e-13 * np.abs(want).max())

    def test_loglik_bit_identical(self, oracle_case):
        p, x = oracle_case
        assert _loglik(p, x) == lfilter_loglik(p, x)
        x = np.random.default_rng(4).standard_normal(300) * 3.0
        assert _loglik(p, x) == lfilter_loglik(p, x)

    def test_simulate_1d_matches_loop(self, oracle_case):
        p, x = oracle_case
        z = np.random.default_rng(5).standard_normal(400)
        for state in (LaggedState.presample(p),
                      LaggedState.at(p, x, arma_garch_filter(p, x), 1234)):
            assert np.array_equal(arma_garch_simulate(p, z, state),
                                  loop_simulate(p, z, state))

    def test_simulate_paths_matches_vector_loop(self, oracle_case):
        p, x = oracle_case
        z = np.random.default_rng(6).standard_normal((200, 5))
        state = LaggedState.at(p, x, arma_garch_filter(p, x), 4000)
        assert np.array_equal(arma_garch_simulate(p, z, state),
                              vector_simulate(p, state, z))

    def test_per_origin_lags_match_per_origin_calls(self, oracle_case):
        p, x = oracle_case
        filt = arma_garch_filter(p, x)
        origins = np.array([0, 1, 2, 700, 4999, 5000])
        z = np.random.default_rng(7).standard_normal((len(origins), 50, 1))
        got = arma_garch_simulate(p, z, LaggedState.at(p, x, filt, origins[:, None]))
        assert got.shape == z.shape
        for i, t in enumerate(origins):
            assert np.array_equal(got[i], arma_garch_simulate(
                p, z[i], LaggedState.at(p, x, filt, int(t))))

    def test_at_accepts_origin_arrays(self, oracle_case):
        p, x = oracle_case
        filt = arma_garch_filter(p, x)
        origins = np.array([[3, 10], [0, 5000]])
        state = LaggedState.at(p, x, filt, origins)
        for name, order in zip(("x", "resid", "resid2", "sigma2"), p.orders):
            assert getattr(state, name).shape == (2, 2, order)
            for idx in np.ndindex(origins.shape):
                one = LaggedState.at(p, x, filt, int(origins[idx]))
                assert np.array_equal(getattr(state, name)[idx], getattr(one, name))
        with pytest.raises(InputError):
            LaggedState.at(p, x, filt, np.array([5001]))


class TestSimulateFailures:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_variance_raises(self):
        p = garch_params()
        state = LaggedState.presample(p)
        blown = LaggedState(x=state.x, resid=state.resid, resid2=state.resid2,
                            sigma2=np.array([np.inf]))
        with pytest.raises(NumericalError):
            arma_garch_simulate(p, np.ones(3), blown)
        with pytest.raises(NumericalError):
            arma_garch_simulate(p, np.ones((4, 3)), blown)
        # an overflowing residual makes the next step's variance infinite
        with pytest.raises(NumericalError):
            arma_garch_simulate(p, np.array([1e300, 0.5]))

    def test_negative_variance_lag_rejected(self):
        p = garch_params()
        state = LaggedState.presample(p)
        bad = LaggedState(x=state.x, resid=state.resid, resid2=np.array([-1.0]),
                          sigma2=state.sigma2)
        with pytest.raises(InputError):
            arma_garch_simulate(p, np.ones(3), bad)

    def test_lags_must_broadcast(self):
        p = garch_params()
        x = np.random.default_rng(1).standard_normal(50)
        state = LaggedState.at(p, x, arma_garch_filter(p, x), np.arange(3)[:, None])
        with pytest.raises(InputError):
            arma_garch_simulate(p, np.ones((4, 10, 1)), state)


@pytest.fixture(scope="module")
def fitted_margin():
    true = ArmaGarchParams(mu=0.0, phi=[0.3], gamma=[-0.2], omega=0.05,
                           alpha=[0.1], beta=[0.8], nu=6.0)
    rng = np.random.default_rng(42)
    u = rng.random(5000) * (1 - 2e-12) + 1e-12
    z = scaled_t_quantile(u, true.nu)
    x = arma_garch_simulate(true, z)
    return true, x, fit_arma_garch(x)


class TestFit:
    def test_loglik_beats_truth(self, fitted_margin):
        true, x, res = fitted_margin
        assert res.loglik >= _loglik(true, x)

    def test_residual_moments(self, fitted_margin):
        _, _, res = fitted_margin
        assert abs(np.mean(res.filter.z_t)) < 0.05
        assert np.var(res.filter.z_t) == pytest.approx(1.0, abs=0.1)

    def test_parameters_near_truth(self, fitted_margin):
        true, _, res = fitted_margin
        assert res.params.alpha[0] == pytest.approx(true.alpha[0], abs=0.05)
        assert res.params.beta[0] == pytest.approx(true.beta[0], abs=0.10)

    def test_short_series_rejected(self):
        with pytest.raises(InputError):
            fit_arma_garch(np.ones(10))

    def test_constant_series_rejected(self):
        with pytest.raises(NumericalError):
            fit_arma_garch(np.ones(100))

    def test_fix_mu_zero(self):
        x = np.random.default_rng(5).standard_normal(400) + 3.0
        res = fit_arma_garch(x, fix_mu_zero=True)
        assert res.params.mu == 0.0

    @pytest.mark.parametrize("orders", [(1, 1, 0, 0), (0, 0, 0, 0)])
    def test_zero_garch_orders(self, orders):
        # no logits for (alpha, beta): a constant variance omega
        x = np.random.default_rng(6).standard_normal(300)
        res = fit_arma_garch(x, orders)
        assert res.params.orders == orders
        assert res.converged and np.isfinite(res.loglik)
        assert res.params.alpha.size == res.params.beta.size == 0
        assert res.params.omega == pytest.approx(np.var(x), rel=0.2)


def scalar_to_params(trans, theta):
    """The transform of one point in scalar operations: the reference for the row form."""
    i = 0
    if trans.fix_mu_zero:
        mu = 0.0
    else:
        mu = theta[0]
        i = 1
    phi = np.tanh(theta[i:i + trans.p1]); i += trans.p1
    gamma = np.tanh(theta[i:i + trans.q1]); i += trans.q1
    omega = math.exp(theta[i]); i += 1
    logits = theta[i:i + trans.p2 + trans.q2]; i += trans.p2 + trans.q2
    expl = np.exp(logits - logits.max())
    frac = expl / (math.exp(-logits.max()) + expl.sum())
    nu = 2.0 + math.exp(theta[i])
    return ArmaGarchParams(mu=mu, phi=phi, gamma=gamma, omega=omega,
                           alpha=frac[:trans.p2], beta=frac[trans.p2:], nu=nu)


def scalar_neg_loglik(trans, theta, x):
    try:
        return -_loglik(scalar_to_params(trans, theta), x)
    except (NumericalError, InputError, OverflowError, FloatingPointError):
        return 1e10


def per_point_fit(x, orders, fix_mu_zero):
    """fit_arma_garch with one likelihood call per point, and scipy's own gradient."""
    trans = _Transform(orders, fix_mu_zero)
    best = None
    for theta0 in trans.starts(x, float(np.var(x, ddof=1))):
        res = optimize.minimize(lambda theta: scalar_neg_loglik(trans, theta, x), theta0,
                                method="L-BFGS-B", options={"maxiter": 500, "ftol": 1e-8})
        if best is None or res.fun < best.fun:
            best, converged = res, bool(res.success)
    return scalar_to_params(trans, best.x), -float(best.fun), converged


# saturate tanh, overflow math.exp, push alpha + beta to 1 and nu to 2,
# underflow omega to 0
EXTREME_THETAS = [-800.0, -746.0, -710.0, -40.0, -19.1, 19.1, 40.0, 710.0, 800.0]


@st.composite
def theta_batches(draw):
    trans = _Transform(draw(st.sampled_from([(1, 1, 1, 1), (2, 1, 1, 2)])), draw(st.booleans()))
    value = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(EXTREME_THETAS))
    base = np.array(draw(st.lists(value, min_size=trans.n_free, max_size=trans.n_free)))
    rows = [base]
    # rows that change one coordinate, like a finite-difference gradient
    for _ in range(draw(st.integers(0, 8))):
        row = base.copy()
        row[draw(st.integers(0, trans.n_free - 1))] = draw(value)
        rows.append(row)
    return trans, np.array(rows)


class TestBatchedLikelihood:
    @pytest.mark.parametrize("fix_mu_zero", [False, True])
    def test_fit_equals_per_point_fit(self, oracle_case, fix_mu_zero):
        p, x = oracle_case
        x = x[:600]
        res = fit_arma_garch(x, p.orders, fix_mu_zero)
        params, loglik, converged = per_point_fit(x, p.orders, fix_mu_zero)
        for name in ("mu", "phi", "gamma", "omega", "alpha", "beta", "nu"):
            assert np.array_equal(getattr(res.params, name), getattr(params, name)), name
        assert res.loglik == loglik
        assert res.converged == converged

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(batch=theta_batches(), scale=st.sampled_from([1.0, 1e155]))
    def test_rows_equal_scalar_calls(self, batch, scale):
        # scale 1e155 squares residuals to inf: a non-finite variance
        trans, thetas = batch
        x = np.random.default_rng(8).standard_normal(60) * scale
        got = _neg_loglik(trans, thetas, x)
        want = [scalar_neg_loglik(trans, theta, x) for theta in thetas]
        assert np.array_equal(got, want, equal_nan=True)


def point_value(trans, x):
    """-loglik at one point, from a 1-row pass."""
    return lambda theta: _neg_loglik(trans, theta[None], x)[0]


class TestOnePassGradient:
    """The value and gradient of one pass are those of scipy's forward differences."""

    @pytest.mark.parametrize("orders", [(1, 1, 1, 1), (2, 1, 1, 2)])
    @pytest.mark.parametrize("fix_mu_zero", [False, True])
    def test_random_points_equal_approx_fprime(self, orders, fix_mu_zero):
        trans = _Transform(orders, fix_mu_zero)
        x = np.random.default_rng(11).standard_normal(300)
        point = point_value(trans, x)
        for theta in np.random.default_rng(12).normal(0.0, 1.5, (20, trans.n_free)):
            f, g = _value_and_gradient(theta, trans, x)
            assert f == point(theta)
            assert np.array_equal(g, optimize.approx_fprime(theta, point, 1e-8))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(batch=theta_batches())
    def test_penalised_points_equal_approx_fprime(self, batch):
        # EXTREME_THETAS put the point or its perturbed points at the 1e10 penalty
        trans, thetas = batch
        x = np.random.default_rng(8).standard_normal(60)
        point = point_value(trans, x)
        f, g = _value_and_gradient(thetas[0], trans, x)
        assert f == point(thetas[0])
        assert np.array_equal(g, optimize.approx_fprime(thetas[0], point, 1e-8))

    @pytest.mark.parametrize("big", [1e9, -3e12, 7e15])
    def test_step_fallback_for_large_entries(self, big):
        # theta + 1e-8 rounds back to theta: the step scales with |theta|
        trans = _Transform((1, 1, 1, 1), False)
        x = np.random.default_rng(13).standard_normal(300)
        theta = trans.starts(x, float(np.var(x, ddof=1)))[0]
        theta[0] = big
        assert (theta[0] + 1e-8) - theta[0] == 0
        point = point_value(trans, x)
        f, g = _value_and_gradient(theta, trans, x)
        assert f == point(theta) < 1e10
        assert np.array_equal(g, optimize.approx_fprime(theta, point, 1e-8))
        assert g[0] != 0.0

    @pytest.mark.parametrize("orders", [(1, 1, 1, 1), (2, 1, 1, 2)])
    def test_every_pass_scores_n_free_plus_one_rows(self, orders, monkeypatch):
        from mtsgen import margins
        rows = []

        def counting(trans, thetas, x):
            rows.append(len(thetas))
            return _neg_loglik(trans, thetas, x)

        monkeypatch.setattr(margins, "_neg_loglik", counting)
        x = np.random.default_rng(14).standard_normal(300)
        fit_arma_garch(x, orders)
        assert rows and set(rows) == {_Transform(orders, False).n_free + 1}
