"""Generative network tests: kernels, MMD, forward pass, gradients, Adam, training."""

import os

import numpy as np
import pytest

from mtsgen import (AdamState, GmmnCopula, InputError, KernelSpec, adam_step,
                    kernel_mix, mmd, mmd_loss_and_grad, nn_forward,
                    pseudo_observations, sample_gmmn, train_gmmn)
from mtsgen.datagen import GaussianCopulaSampler, equicorrelation
from scipy.spatial.distance import cdist

from mtsgen import _par, gmmn
from mtsgen.errors import ConfigError, NumericalError
from mtsgen.gmmn import (TrainConfig, _gauss, _mix_mean,
                         _mmd_grad_wrt_output, flatten_theta, glorot_init,
                         set_theta)


def tiny_model(dims=(2, 8, 2), seed=0, dropout=0.5):
    return glorot_init(dims, np.random.default_rng(seed), dropout_rate=dropout)


class TestKernelSpec:
    def test_defaults(self):
        assert KernelSpec.for_training().bandwidths == (0.001, 0.01, 0.15, 0.25, 0.50, 0.75)
        assert KernelSpec.for_assessment().bandwidths == (0.1, 0.3, 0.5, 0.7, 0.9)

    def test_rejects_bad_bandwidths(self):
        with pytest.raises(ConfigError):
            KernelSpec(())
        with pytest.raises(ConfigError):
            KernelSpec((0.5, -0.1))

    @pytest.mark.parametrize("bandwidths", [("a",), (0.5, None), (True,), (float("nan"),)])
    def test_rejects_non_real_bandwidths(self, bandwidths):
        with pytest.raises(ConfigError, match="positive real numbers"):
            KernelSpec(bandwidths)

    @pytest.mark.parametrize("bandwidths", [5, 0.5, "0.5", None], ids=["int", "float", "str", "none"])
    def test_rejects_a_non_sequence(self, bandwidths):
        with pytest.raises(ConfigError, match="nonempty sequence"):
            KernelSpec(bandwidths)

    @pytest.mark.parametrize("bandwidths", [(1e-200,), (0.5, 1e-151), (2e150,), (10**400,),
                                            (float("inf"),)],
                             ids=["tiny", "tiny_second", "huge", "huge_int", "inf"])
    def test_rejects_bandwidths_out_of_range(self, bandwidths):
        with pytest.raises(ConfigError, match=r"in \[1e-150, 1e150\]"):
            KernelSpec(bandwidths)

    def test_range_ends_give_finite_statistics(self):
        rng = np.random.default_rng(3)
        u, g = rng.random((8, 2)), rng.random((9, 2))
        spec = KernelSpec([1e-150, np.float64(1e150)])
        assert np.isfinite(mmd(u, g, spec))
        sq, grad = _mmd_grad_wrt_output(u, g, spec)
        assert np.isfinite(sq) and np.isfinite(grad).all()


class TestKernelMix:
    def test_equal_points(self):
        spec = KernelSpec.for_training()
        u = np.array([0.2, 0.9])
        assert kernel_mix(u, u, spec) == len(spec.bandwidths)

    def test_hand_value_single_bandwidth(self):
        # ||u-v||^2 = 0.5, sigma = 0.5 -> exp(-1)
        spec = KernelSpec((0.5,))
        u = np.array([0.0, 0.0])
        v = np.array([0.5, 0.5])
        assert kernel_mix(u, v, spec) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_symmetry(self):
        spec = KernelSpec.for_training()
        rng = np.random.default_rng(0)
        for _ in range(10):
            u, v = rng.random(3), rng.random(3)
            assert kernel_mix(u, v, spec) == kernel_mix(v, u, spec)


    @pytest.mark.parametrize("u, v", [([1.0, 2.0], [1.0]), ([1.0], [1.0, 2.0]),
                                      ([[1.0, 2.0]], [1.0, 2.0])],
                             ids=["longer_first", "longer_second", "two_dim_first"])
    def test_points_must_match_in_shape(self, u, v):
        with pytest.raises(InputError, match="differ"):
            kernel_mix(u, v, KernelSpec())


class TestMmd:
    def test_identical_samples_zero(self):
        spec = KernelSpec.for_assessment()
        a = np.random.default_rng(1).random((30, 3))
        assert mmd(a, a, spec) == 0.0

    def test_singleton_closed_form(self):
        spec = KernelSpec((0.3,))
        x = np.array([[0.1, 0.2]])
        y = np.array([[0.4, 0.8]])
        k_xy = kernel_mix(x[0], y[0], spec)
        expected = np.sqrt(2.0 * (1.0 - k_xy))
        assert mmd(x, y, spec) == pytest.approx(expected, abs=1e-12)

    def test_symmetric_in_arguments(self):
        spec = KernelSpec.for_assessment()
        rng = np.random.default_rng(2)
        a, b = rng.random((10, 2)), rng.random((7, 2))
        assert mmd(a, b, spec) == mmd(b, a, spec)

    def test_row_permutation_invariant(self):
        spec = KernelSpec.for_assessment()
        rng = np.random.default_rng(3)
        a, b = rng.random((12, 2)), rng.random((9, 2))
        pa, pb = rng.permutation(12), rng.permutation(9)
        assert mmd(a[pa], b[pb], spec) == pytest.approx(mmd(a, b, spec), abs=1e-14)

    def test_discriminates_dependence(self):
        # same-copula pairs beat dependent-vs-independent pairs
        spec = KernelSpec.for_assessment()
        cop = GaussianCopulaSampler(equicorrelation(2, 0.8))
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            same = mmd(cop.sample(2000, rng), cop.sample(2000, rng), spec)
            diff = mmd(cop.sample(2000, rng), rng.random((2000, 2)), spec)
            wins += same < diff
        assert wins >= 6

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            mmd(np.empty((0, 2)), np.ones((3, 2)), KernelSpec.for_training())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError, match="same dimension"):
            mmd(np.ones((3, 2)), np.ones((3, 3)), KernelSpec.for_training())


class TestForward:
    def test_zero_weights_give_half(self):
        model = tiny_model((3, 5, 3))
        for w in model.weights:
            w[:] = 0.0
        out = nn_forward(model, np.random.default_rng(4).standard_normal((6, 3)))
        np.testing.assert_allclose(out, 0.5)

    def test_hand_forward_1x1x1(self):
        # batch of 2 through a 1-1-1 net with unit weights and zero bias
        model = tiny_model((1, 1, 1), dropout=0.0)
        model.weights = [np.array([[1.0]]), np.array([[1.0]])]
        model.biases = [np.zeros(1), np.zeros(1)]
        v = np.array([[1.0], [3.0]])
        out = nn_forward(model, v, train=True, mask_rng=0)
        # BN batch stats: mean 2, var 1; xhat = (-1, 1); ReLU keeps (0, 1)
        expect = 1.0 / (1.0 + np.exp(-np.array([0.0, 1.0 / np.sqrt(1 + 1e-5)])))
        np.testing.assert_allclose(out[:, 0], expect, atol=1e-9)

    def test_outputs_in_unit_interval(self):
        model = tiny_model((4, 16, 4), seed=5)
        v = np.random.default_rng(6).standard_normal((1000, 4))
        out = nn_forward(model, v)
        assert np.all((out > 0.0) & (out < 1.0))

    def test_infer_is_pure(self):
        model = tiny_model((2, 4, 2))
        before = [m.copy() for m in model.bn_mean]
        nn_forward(model, np.random.default_rng(7).standard_normal((10, 2)))
        for b, a in zip(before, model.bn_mean):
            np.testing.assert_array_equal(b, a)

    def test_train_updates_running_stats_only_when_asked(self):
        model = tiny_model((2, 4, 2))
        v = np.random.default_rng(8).standard_normal((10, 2))
        before = [m.copy() for m in model.bn_mean]
        nn_forward(model, v, train=True, mask_rng=0)
        np.testing.assert_array_equal(before[0], model.bn_mean[0])
        nn_forward(model, v, train=True, mask_rng=0, update_running=True)
        assert not np.array_equal(before[0], model.bn_mean[0])

    def test_small_train_batch_rejected(self):
        with pytest.raises(InputError):
            nn_forward(tiny_model(), np.ones((1, 2)), train=True, mask_rng=0)

    def test_dropout_needs_a_mask_rng(self):
        with pytest.raises(InputError, match="mask_rng"):
            nn_forward(glorot_init((2, 4, 2), np.random.default_rng(0)), np.zeros((3, 2)),
                       train=True)
        # without dropout, no mask is drawn
        assert nn_forward(tiny_model(dropout=0.0), np.zeros((3, 2)), train=True).shape == (3, 2)

    def test_input_dimension_rejected(self):
        with pytest.raises(InputError, match="prior dimension 2"):
            nn_forward(tiny_model(), np.ones((4, 3)))
        # the GMMN copula's draws refuse it the same way
        with pytest.raises(InputError, match="prior dimension 2"):
            GmmnCopula(tiny_model()).from_noise([np.ones((4, 2)), np.ones((4, 3))])

    @pytest.mark.parametrize("dims, dropout, match", [
        ((2, 2), 0.5, "hidden layer"), ((2, 4, 2), 1.0, r"\[0, 1\)"),
        ((2, 4, 2), -0.1, r"\[0, 1\)"), ((2, 4, 2), "x", r"\[0, 1\)"),
        *[(dims, 0.5, "^layer_dims must be a sequence of positive integer sizes$")
          for dims in [(0, 0, 0), (2, -3, 2), (2, 2.5, 2), (2, True, 2)]]])
    def test_glorot_init_rejects(self, dims, dropout, match):
        with pytest.raises(ConfigError, match=match):
            glorot_init(dims, np.random.default_rng(0), dropout_rate=dropout)

    def test_glorot_bounds(self):
        model = tiny_model((3, 7, 2), seed=9)
        for w, (d_prev, d_cur) in zip(model.weights, [(3, 7), (7, 2)]):
            assert np.all(np.abs(w) <= np.sqrt(6.0 / (d_prev + d_cur)))


class TestTheta:
    """The trainable parameters live in model.theta; the lists are views into it."""

    def test_set_theta_visible_through_views(self):
        model = tiny_model((3, 5, 2))
        theta = np.arange(model.theta.size, dtype=float)
        set_theta(model, theta)
        assert model.weights[0][0, 0] == 0.0 and model.weights[0][0, 1] == 1.0
        # layer 0: 5x3 weights, 5 biases, 5 BN scales, then the 5 BN shifts
        np.testing.assert_array_equal(model.bn_shift[0], np.arange(25.0, 30.0))
        np.testing.assert_array_equal(model.biases[-1], theta[-2:])

    def test_flatten_theta_is_a_copy(self):
        model = tiny_model((3, 5, 2))
        before = [w.copy() for w in model.weights]
        theta = flatten_theta(model)
        theta[:] = 7.0
        for b, w in zip(before, model.weights):
            np.testing.assert_array_equal(b, w)
        assert not np.any(model.theta == 7.0)

    def test_set_theta_rejects_wrong_length(self):
        model = tiny_model()
        with pytest.raises(InputError):
            set_theta(model, np.zeros(model.theta.size + 1))

    def test_shapes_must_match_layer_dims(self):
        model = tiny_model((2, 4, 2))
        with pytest.raises(InputError):
            gmmn.GmmnModel(layer_dims=(2, 4, 2), weights=[w.T for w in model.weights],
                           biases=model.biases, bn_scale=model.bn_scale,
                           bn_shift=model.bn_shift, bn_mean=model.bn_mean,
                           bn_var=model.bn_var)

    def test_parameter_count_must_match_layer_dims(self):
        model = tiny_model((2, 4, 2))
        with pytest.raises(InputError, match="theta length"):
            gmmn.GmmnModel(layer_dims=(2, 4, 2), weights=model.weights,
                           biases=[*model.biases, np.zeros(3)], bn_scale=model.bn_scale,
                           bn_shift=model.bn_shift, bn_mean=model.bn_mean,
                           bn_var=model.bn_var)

    def test_too_few_parameter_arrays_rejected(self):
        model = tiny_model((2, 4, 2))
        with pytest.raises(InputError, match="theta length"):
            gmmn.GmmnModel(layer_dims=(2, 4, 2), weights=model.weights[:1],
                           biases=model.biases[:1], bn_scale=model.bn_scale,
                           bn_shift=model.bn_shift, bn_mean=model.bn_mean,
                           bn_var=model.bn_var)

    def test_loaded_model_has_saved_theta(self, trained_small, tmp_path):
        from mtsgen import (ArmaGarchParams, GmmnCopula, MarginalFitResult, MtsModel,
                            PcaTransform, QuantileMaps, load_model, save_model)
        model, _ = trained_small
        params = ArmaGarchParams(mu=0.0, phi=[0.2], gamma=[0.0], omega=0.05,
                                 alpha=[0.1], beta=[0.85], nu=6.0)
        margin = MarginalFitResult(params=params, filter=None, loglik=0.0, converged=True)
        mts = MtsModel(margins=[margin, margin], pca=PcaTransform.identity(2),
                       dependence=GmmnCopula(model),
                       quantile_maps=QuantileMaps.scaled_t([6.0, 6.0]), tau=200)
        save_model(mts, tmp_path / "m.npz")
        loaded = load_model(tmp_path / "m.npz").dependence.model
        np.testing.assert_array_equal(flatten_theta(loaded), flatten_theta(model))
        assert loaded.weights[0].base is loaded.theta


class TestTrainConfig:
    @pytest.mark.parametrize("bad", [
        {"n_epo": 0}, {"n_bat": 1}, {"hidden_dims": ()}, {"hidden_dims": (4, 0)},
        {"dropout_rate": 1.0}, {"dropout_rate": -0.1}, {"dropout_rate": "x"},
        {"dropout_rate": None}])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)

    @pytest.mark.parametrize("bad", [
        {"n_epo": 2.5}, {"n_epo": True}, {"n_bat": 5.0}, {"n_bat": True},
        {"hidden_dims": (2.5,)}, {"hidden_dims": (True,)}, {"hidden_dims": 4},
        {"seed": 1.0}, {"seed": -1}])
    def test_non_integer_counts_rejected(self, bad):
        with pytest.raises(ConfigError, match="integer"):
            TrainConfig(**bad)

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(n_epo=np.int64(2), n_bat=np.int32(4), hidden_dims=(np.int16(3),),
                          seed=np.uint64(7))
        assert (cfg.n_epo, cfg.n_bat, cfg.hidden_dims, cfg.seed) == (2, 4, (3,), 7)

    @pytest.mark.parametrize("rows", [0, 1])
    def test_fewer_than_two_rows_rejected(self, rows):
        with pytest.raises(InputError):
            train_gmmn(np.full((rows, 2), 0.5), TrainConfig(n_epo=1, hidden_dims=(4,)))


def finite_diff_check(dims, seed, n=16, step=1e-5):
    model = glorot_init(dims, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1000)
    u = rng.random((n, dims[-1]))
    v = rng.standard_normal((n, dims[0]))
    spec = KernelSpec.for_training()
    theta0 = flatten_theta(model)
    _, grad = mmd_loss_and_grad(model, u, v, spec, mask_seed=7)

    num = np.empty_like(theta0)
    for i in range(theta0.size):
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            th = theta0.copy()
            th[i] += sign * step
            set_theta(model, th)
            loss, _ = mmd_loss_and_grad(model, u, v, spec, mask_seed=7)
            if slot == 0:
                up = loss
            else:
                down = loss
        num[i] = (up - down) / (2 * step)
    set_theta(model, theta0)
    scale = max(np.max(np.abs(num)), 1e-12)
    return np.max(np.abs(grad - num)) / scale


class TestLossAndGrad:
    def test_matches_plain_mmd(self):
        model = tiny_model((2, 6, 2), seed=10)
        rng = np.random.default_rng(11)
        u = rng.random((12, 2))
        v = rng.standard_normal((12, 2))
        spec = KernelSpec.for_training()
        loss, _ = mmd_loss_and_grad(model, u, v, spec, mask_seed=3)
        out = nn_forward(model, v, train=True, mask_rng=3)
        assert loss == pytest.approx(mmd(u, out, spec), abs=1e-12)

    def test_finite_differences(self):
        assert finite_diff_check((2, 8, 2), seed=0) < 1e-4

    @pytest.mark.parametrize("dims", [(2, 6, 2), (2, 5, 4, 2), (2, 4, 4, 4, 2)])
    def test_finite_differences_depths(self, dims):
        assert finite_diff_check(dims, seed=1) < 1e-4

    def test_zero_loss_zero_grad(self):
        model = tiny_model((2, 4, 2), dropout=0.0)
        rng = np.random.default_rng(12)
        v = rng.standard_normal((8, 2))
        u = nn_forward(model, v, train=True, mask_rng=0)
        loss, grad = mmd_loss_and_grad(model, u, v, KernelSpec.for_training())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(grad))

    def test_target_permutation_invariant_loss(self):
        model = tiny_model((2, 4, 2), seed=13)
        rng = np.random.default_rng(14)
        u = rng.random((10, 2))
        v = rng.standard_normal((10, 2))
        spec = KernelSpec.for_training()
        l1, _ = mmd_loss_and_grad(model, u, v, spec, mask_seed=5)
        l2, _ = mmd_loss_and_grad(model, u[rng.permutation(10)], v, spec, mask_seed=5)
        assert l1 == pytest.approx(l2, abs=1e-13)

    def test_tiny_batch_rejected(self):
        model = tiny_model()
        with pytest.raises(InputError):
            mmd_loss_and_grad(model, np.ones((1, 2)), np.ones((1, 2)),
                              KernelSpec.for_training())


class TestAdam:
    def test_zero_gradient_no_move(self):
        st = AdamState.zeros(3)
        theta = np.array([1.0, -2.0, 0.5])
        _, theta1 = adam_step(st, np.zeros(3), theta)
        np.testing.assert_array_equal(theta1, theta)

    def test_hand_single_step(self):
        st = AdamState.zeros(1)
        _, theta1 = adam_step(st, np.array([2.0]), np.array([0.0]))
        assert theta1[0] == pytest.approx(-0.001 * 2.0 / (2.0 + 1e-8), abs=1e-15)

    def test_two_hand_steps_quadratic(self):
        # f(theta) = theta^2, grad = 2 theta, from theta = 1
        st = AdamState.zeros(1)
        theta = np.array([1.0])
        b1, b2, a, e = 0.9, 0.999, 0.001, 1e-8
        m1 = m2 = 0.0
        ref = 1.0
        for r in (1, 2):
            g = 2.0 * ref
            m1 = b1 * m1 + (1 - b1) * g
            m2 = b2 * m2 + (1 - b2) * g * g
            ref -= a * (m1 / (1 - b1**r)) / (np.sqrt(m2 / (1 - b2**r)) + e)
            st, theta = adam_step(st, np.array([2.0 * theta[0]]), theta)
            assert theta[0] == pytest.approx(ref, abs=1e-12)

    def test_state_bookkeeping(self):
        st = AdamState.zeros(2)
        st2, _ = adam_step(st, np.ones(2), np.zeros(2))
        assert st2.r == 1 and st.r == 0
        assert np.all(st2.m2 >= 0)


@pytest.fixture(scope="module")
def trained_small():
    cop = GaussianCopulaSampler(equicorrelation(2, 0.7))
    ps = pseudo_observations(cop.sample(200, np.random.default_rng(20)))
    cfg = TrainConfig(n_epo=60, hidden_dims=(16,), seed=21)
    return train_gmmn(ps.u, cfg), ps


class TestTraining:
    def test_deterministic(self, trained_small):
        model, ps = trained_small
        again = train_gmmn(ps.u, TrainConfig(n_epo=60, hidden_dims=(16,), seed=21))
        for a, b in zip(model.weights, again.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(model.train_loss, again.train_loss)

    def test_loss_decreases(self, trained_small):
        model, _ = trained_small
        assert model.train_loss[-1] < model.train_loss[0]

    def test_one_step_per_epoch_in_batch_mode(self, trained_small):
        model, _ = trained_small
        assert len(model.train_loss) == 60

    def test_batch_size_must_divide(self):
        u = np.random.default_rng(22).random((10, 2))
        with pytest.raises(ConfigError):
            train_gmmn(u, TrainConfig(n_epo=1, n_bat=3, hidden_dims=(4,)))

    def test_minibatch_step_count(self):
        u = pseudo_observations(np.random.default_rng(23).standard_normal((20, 2))).u
        model = train_gmmn(u, TrainConfig(n_epo=3, n_bat=10, hidden_dims=(4,), seed=0))
        assert len(model.train_loss) == 6


class TestSampling:
    def test_columns_are_pseudo_observation_grid(self, trained_small):
        model, _ = trained_small
        out = sample_gmmn(model, 100, np.random.default_rng(24))
        expected = np.arange(1, 101) / 101.0
        for j in range(out.shape[1]):
            np.testing.assert_allclose(np.sort(out[:, j]), expected)

    def test_deterministic(self, trained_small):
        model, _ = trained_small
        a = sample_gmmn(model, 50, np.random.default_rng(25))
        b = sample_gmmn(model, 50, np.random.default_rng(25))
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# bitwise oracles: the per-bandwidth kernel and the two-forward training loop
# ---------------------------------------------------------------------------

def oracle_mix_from_sqdist(d2, spec):
    out = np.zeros_like(d2)
    for s in spec.bandwidths:
        out += np.exp(-d2 / (2.0 * s * s))
    return out


def oracle_mmd_grad_wrt_output(u, g, spec, uu_term=None):
    """One fresh np.exp per bandwidth and pair type."""
    n, m = u.shape[0], g.shape[0]
    d2_vv = cdist(g, g, "sqeuclidean")
    d2_uv = cdist(u, g, "sqeuclidean")
    if uu_term is None:
        uu_term = float(oracle_mix_from_sqdist(cdist(u, u, "sqeuclidean"), spec).mean())
    sq = uu_term
    grad = np.zeros_like(g)
    vv_mean = 0.0
    uv_mean = 0.0
    for s in spec.bandwidths:
        k_vv = np.exp(-d2_vv / (2.0 * s * s))
        k_uv = np.exp(-d2_uv / (2.0 * s * s))
        vv_mean += k_vv.mean()
        uv_mean += k_uv.mean()
        inv = 1.0 / (s * s)
        grad -= (2.0 / (m * m)) * inv * (k_vv.sum(axis=1)[:, None] * g - k_vv @ g)
        grad += (2.0 / (n * m)) * inv * (k_uv.sum(axis=0)[:, None] * g - k_uv.T @ u)
    sq += vv_mean - 2.0 * uv_mean
    return sq, grad


def oracle_train_gmmn(u, cfg):
    """Training with a second forward pass per step to refresh the BN statistics."""
    tau, d_star = u.shape
    n_bat = cfg.n_bat if cfg.n_bat is not None else tau
    ss = np.random.SeedSequence(cfg.seed)
    init_ss, prior_ss, shuffle_ss, mask_ss = ss.spawn(4)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    n_steps_total = cfg.n_epo * (tau // n_bat)
    mask_seeds = mask_ss.generate_state(n_steps_total, dtype=np.uint64)
    model = glorot_init((d_star, *cfg.hidden_dims, d_star),
                        np.random.default_rng(init_ss),
                        dropout_rate=cfg.dropout_rate)
    prior = np.random.default_rng(prior_ss).standard_normal((tau, d_star))
    theta = flatten_theta(model)
    adam = AdamState.zeros(theta.size)
    losses = np.empty(n_steps_total)
    full_batch = n_bat == tau
    spec = KernelSpec.for_training()
    uu_term = None
    if full_batch:
        uu_term = float(oracle_mix_from_sqdist(cdist(u, u, "sqeuclidean"), spec).mean())
    step = 0
    for _ in range(cfg.n_epo):
        perm_u = shuffle_rng.permutation(tau)
        perm_v = shuffle_rng.permutation(tau)
        for b in range(tau // n_bat):
            sl = slice(b * n_bat, (b + 1) * n_bat)
            u_b = u[perm_u[sl]]
            v_b = prior[perm_v[sl]]
            loss, grad = mmd_loss_and_grad(model, u_b, v_b, spec,
                                           mask_seed=int(mask_seeds[step]),
                                           uu_term=uu_term)
            nn_forward(model, v_b, train=True, mask_rng=int(mask_seeds[step]),
                       update_running=True)
            adam, theta = adam_step(adam, grad, theta)
            set_theta(model, theta)
            losses[step] = loss
            step += 1
    model.train_loss = losses
    return model


def boundary_pairs(s, exponents):
    """Targets at the origin, generated rows at distances giving -d2/(2 s^2) = e."""
    g = np.sqrt(-np.asarray(exponents) * 2.0 * s * s)[:, None] * np.array([[0.6, 0.8]])
    u = np.zeros((3, 2))
    u[1] = [1e-9, 0.0]
    u[2] = [0.0, 3e-9]
    return u, g


# -746 is where the kernel stops calling exp; -745.1332... is where exp
# itself stops returning the smallest subnormal and rounds to 0.0.
EXP_ZERO = -1075.0 * np.log(2.0)
BOUNDARY_EXPONENTS = [e + sign * delta for e in (-746.0, EXP_ZERO)
                      for sign in (-1.0, 1.0) for delta in (1e-9, 1e-6, 1e-3)]


class TestKernelOracle:
    """The shared-buffer kernel reproduces one np.exp per bandwidth bit for bit."""

    def assert_grad_equal(self, u, g, spec, uu_term=None):
        sq, grad = _mmd_grad_wrt_output(u, g, spec, uu_term=uu_term)
        sq_ref, grad_ref = oracle_mmd_grad_wrt_output(u, g, spec, uu_term=uu_term)
        assert np.array_equal(sq, sq_ref)
        assert np.array_equal(grad, grad_ref)

    @pytest.mark.parametrize("n, m", [(40, 40), (30, 50), (50, 30)])
    def test_random_data(self, n, m):
        rng = np.random.default_rng(n * 100 + m)
        u, g = rng.random((n, 3)), rng.random((m, 3))
        self.assert_grad_equal(u, g, KernelSpec.for_training())
        uu = float(oracle_mix_from_sqdist(cdist(u, u, "sqeuclidean"),
                                          KernelSpec.for_training()).mean())
        self.assert_grad_equal(u, g, KernelSpec.for_training(), uu_term=uu)

    def test_small_bandwidths_underflow(self):
        rng = np.random.default_rng(30)
        u, g = rng.random((200, 5)), rng.random((200, 5))
        spec = KernelSpec.for_training()
        d2 = cdist(u, g, "sqeuclidean")
        for s in (0.001, 0.01):
            # most pairs lie beyond the exact-underflow bound at these bandwidths
            assert np.mean(-d2 / (2.0 * s * s) < -746.0) > 0.9
        self.assert_grad_equal(u, g, spec)

    @pytest.mark.parametrize("s", [0.001, 0.01, 0.15])
    def test_pairs_at_the_underflow_bounds(self, s):
        u, g = boundary_pairs(s, BOUNDARY_EXPONENTS)
        expo = -cdist(u, g, "sqeuclidean") / (2.0 * s * s)
        # the pairs straddle both bounds, and exp gives both 0.0 and subnormals
        for bound in (-746.0, EXP_ZERO):
            assert np.any(expo < bound) and np.any(expo >= bound)
        k = np.exp(expo)
        assert np.any(k == 0.0) and np.any((k > 0.0) & (k < 1e-307))
        spec = KernelSpec((s,))
        self.assert_grad_equal(u, g, spec)
        for a, b in ((g, g), (u, g)):
            d2 = cdist(a, b, "sqeuclidean")
            want = oracle_mix_from_sqdist(d2, spec)
            assert np.array_equal(_gauss(-d2, s, np.empty_like(d2)), want)
            assert _mix_mean(a, b, spec) == float(want.mean())

    def test_non_finite_rows_propagate(self):
        rng = np.random.default_rng(31)
        u, g = rng.random((10, 2)), rng.random((12, 2))
        g[3, 1] = np.nan
        spec = KernelSpec.for_training()
        sq, grad = _mmd_grad_wrt_output(u, g, spec)
        sq_ref, grad_ref = oracle_mmd_grad_wrt_output(u, g, spec)
        assert np.isnan(sq) and np.isnan(sq_ref)
        assert np.array_equal(grad, grad_ref, equal_nan=True)

    def test_mix_mean_matches_mmd_self_term(self):
        rng = np.random.default_rng(32)
        a, b = rng.random((25, 3)), rng.random((20, 3))
        spec = KernelSpec.for_assessment()
        assert mmd(a, b, spec, aa_term=_mix_mean(a, a, spec)) == mmd(a, b, spec)


class TestTrainingOracle:
    """One cached forward per step gives the bits of the two-forward loop."""

    @pytest.mark.parametrize("cfg", [
        TrainConfig(n_epo=12, hidden_dims=(8,), seed=40),
        TrainConfig(n_epo=4, n_bat=20, hidden_dims=(6, 5), seed=41),
        TrainConfig(n_epo=6, hidden_dims=(8,), dropout_rate=0.0, seed=42),
    ], ids=["full_batch", "minibatch_two_layers", "no_dropout"])
    def test_equals_two_forward_loop(self, cfg, monkeypatch):
        cop = GaussianCopulaSampler(equicorrelation(3, 0.6))
        u = pseudo_observations(cop.sample(60, np.random.default_rng(43))).u
        model = train_gmmn(u, cfg)
        monkeypatch.setattr(gmmn, "_mmd_grad_wrt_output", oracle_mmd_grad_wrt_output)
        ref = oracle_train_gmmn(u, cfg)
        assert np.array_equal(model.train_loss, ref.train_loss)
        for name in ("weights", "biases", "bn_scale", "bn_shift", "bn_mean", "bn_var"):
            for a, b in zip(getattr(model, name), getattr(ref, name)):
                assert np.array_equal(a, b), name

    def test_loss_and_grad_alone_keeps_running_stats(self):
        model = tiny_model((2, 6, 2), seed=44)
        rng = np.random.default_rng(45)
        u, v = rng.random((10, 2)), rng.standard_normal((10, 2))
        before = [m.copy() for m in model.bn_mean + model.bn_var]
        mmd_loss_and_grad(model, u, v, KernelSpec.for_training(), mask_seed=2)
        for b, a in zip(before, model.bn_mean + model.bn_var):
            assert np.array_equal(b, a)

    def test_update_running_matches_nn_forward(self):
        model = tiny_model((2, 6, 2), seed=46)
        twin = tiny_model((2, 6, 2), seed=46)
        rng = np.random.default_rng(47)
        u, v = rng.random((10, 2)), rng.standard_normal((10, 2))
        mmd_loss_and_grad(model, u, v, KernelSpec.for_training(), mask_seed=2,
                          update_running=True)
        nn_forward(twin, v, train=True, mask_rng=2, update_running=True)
        for a, b in zip(model.bn_mean + model.bn_var, twin.bn_mean + twin.bn_var):
            assert np.array_equal(a, b)


class TestNonFiniteTraining:
    def test_nan_target_raises_numerical_error(self):
        u = np.random.default_rng(50).random((20, 2))
        u[4, 0] = np.nan
        with pytest.raises(NumericalError, match="epoch 1, step 1"):
            train_gmmn(u, TrainConfig(n_epo=3, hidden_dims=(4,), seed=0))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_inf_weight_raises_numerical_error(self, monkeypatch):
        def glorot_with_inf(*args, **kw):
            model = glorot_init(*args, **kw)
            model.weights[0][0, 0] = np.inf
            return model

        monkeypatch.setattr(gmmn, "glorot_init", glorot_with_inf)
        u = pseudo_observations(np.random.default_rng(51).standard_normal((20, 2))).u
        with pytest.raises(NumericalError, match="epoch 1, step 1"):
            train_gmmn(u, TrainConfig(n_epo=2, n_bat=10, hidden_dims=(4,), seed=0))


FORK_INPUTS = (*np.random.default_rng(65).random((2, 400, 3)), KernelSpec.for_training())


def _tiled_sq():
    return _mmd_grad_wrt_output(*FORK_INPUTS)[0]


class TestTiledStep:
    """The step over row tiles: oracle agreement, worker independence, bounded memory."""

    @pytest.mark.parametrize("n, m", [(700, 700), (700, 1400), (1400, 700), (333, 517)])
    def test_multi_tile_matches_oracle(self, n, m):
        assert m * max(n, m) > gmmn._TILE
        rng = np.random.default_rng(n + m)
        u, g = rng.random((n, 5)), rng.random((m, 5))
        spec = KernelSpec.for_training()
        sq, grad = _mmd_grad_wrt_output(u, g, spec)
        sq_ref, grad_ref = oracle_mmd_grad_wrt_output(u, g, spec)
        assert abs(sq - sq_ref) <= 1e-13 * abs(sq_ref)
        assert np.abs(grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()

    @pytest.mark.parametrize("n, m", [(700, 700), (333, 517)])
    def test_step_independent_of_workers(self, n, m, monkeypatch):
        rng = np.random.default_rng(n * m)
        u, g = rng.random((n, 5)), rng.random((m, 5))
        spec = KernelSpec.for_training()
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_par, "_WORKERS", workers)
            results.append(_mmd_grad_wrt_output(u, g, spec))
        for sq, grad in results[1:]:
            assert np.array_equal(sq, results[0][0])
            assert np.array_equal(grad, results[0][1])

    def test_training_independent_of_workers(self, monkeypatch):
        cop = GaussianCopulaSampler(equicorrelation(3, 0.6))
        u = pseudo_observations(cop.sample(300, np.random.default_rng(60))).u
        cfg = TrainConfig(n_epo=3, hidden_dims=(8,), seed=61)
        models = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_par, "_WORKERS", workers)
            models.append(train_gmmn(u, cfg))
        for model in models[1:]:
            assert np.array_equal(model.train_loss, models[0].train_loss)
            assert np.array_equal(flatten_theta(model), flatten_theta(models[0]))

    def test_full_batch_training_tracks_oracle(self, monkeypatch):
        cop = GaussianCopulaSampler(equicorrelation(5, 0.5))
        u = pseudo_observations(cop.sample(700, np.random.default_rng(62))).u
        cfg = TrainConfig(n_epo=100, hidden_dims=(100,), seed=63)
        model = train_gmmn(u, cfg)
        monkeypatch.setattr(gmmn, "_mmd_grad_wrt_output", oracle_mmd_grad_wrt_output)
        ref = oracle_train_gmmn(u, cfg)
        rel = np.abs(model.train_loss - ref.train_loss) / ref.train_loss
        assert rel.max() <= 1e-12

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_runs_the_step(self, monkeypatch):
        import multiprocessing
        monkeypatch.setattr(_par, "_WORKERS", 2)
        u, g, spec = FORK_INPUTS
        sq, _ = _mmd_grad_wrt_output(u, g, spec)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(_tiled_sq).get(timeout=60) == sq

    def test_no_worker_thread_outlives_the_step(self, monkeypatch):
        import threading
        monkeypatch.setattr(_par, "_WORKERS", 2)
        u, g, spec = FORK_INPUTS
        assert g.shape[0] * max(u.shape[0], g.shape[0]) > gmmn._TILE
        _mmd_grad_wrt_output(u, g, spec)
        assert not [t for t in threading.enumerate() if t.name.startswith("mtsgen-par")]

    def test_memory_bounded_by_tiles(self, monkeypatch):
        import tracemalloc
        monkeypatch.setattr(_par, "_WORKERS", 2)
        tau = 2000
        rng = np.random.default_rng(64)
        u, g = rng.random((tau, 5)), rng.random((tau, 5))
        tracemalloc.start()
        try:
            _mmd_grad_wrt_output(u, g, KernelSpec.for_training(), uu_term=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 * gmmn._TILE * 8


class TestKernelMean:
    def test_holds_one_full_matrix(self):
        import tracemalloc
        tau = 2000
        u = np.random.default_rng(66).random((tau, 5))
        tracemalloc.start()
        try:
            _mix_mean(u, u, KernelSpec.for_training())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the mixture matrix, and blocks of _TILE entries for distances and kernels
        assert peak < 1.5 * tau * tau * 8


class TestGaussOut:
    def test_non_contiguous_out(self):
        rng = np.random.default_rng(67)
        d2 = cdist(rng.random((40, 5)), rng.random((30, 5)), "sqeuclidean")
        want = np.exp(-d2 / (2.0 * 0.01 * 0.01))
        # most entries underflow at s=0.01, where the kept entries are gathered and scattered
        assert 0 < np.count_nonzero(want) < want.size // 2
        for out in (np.empty((30, 40)).T, np.empty((40, 60))[:, ::2]):
            assert not out.flags.c_contiguous
            assert _gauss(-d2, 0.01, out) is out
            assert np.array_equal(out, want)

    @pytest.mark.parametrize("s", [0.001, 0.01, 0.27, 3.0])
    def test_distances_within_ulps_of_the_bound(self, s):
        # kept entries are chosen by nd2 >= -746 * 2 s^2, before the divide, so
        # the choice may differ from one on the exponent by an ulp (at s=0.27
        # the bound itself divides to just below -746); exp is 0.0 there
        two_s2 = 2.0 * s * s
        bound = -746.0 * two_s2
        nd2 = np.append(bound + np.spacing(bound) * np.arange(-8, 9), -0.0)[None, :]
        expo = nd2 / two_s2
        assert not np.any(np.exp(expo[:, :-1]))
        assert np.array_equal(_gauss(nd2, s, np.empty_like(nd2)), np.exp(expo))
