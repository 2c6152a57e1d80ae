"""Assessment metric tests: AMMD, AMSE, AVS, VEAR."""

import numpy as np
import pytest

from mtsgen import (_par, AssessConfig, ConfigError, EmpiricalCopula, IndependenceCopula,
                    InputError, ammd, amse, avs, vear, pseudo_observations)
from mtsgen.assess import KERNEL_TST, mse_per_step, vs_per_step
from mtsgen.datagen import GaussianCopulaSampler, equicorrelation


class FixedSampler:
    """Returns a fixed matrix regardless of the draw size requested."""

    def __init__(self, u):
        self.u = u
        self.d = u.shape[1]

    def sample(self, n, rng):
        assert n == self.u.shape[0]
        return self.u


class TestAssessConfig:
    def test_defaults(self):
        cfg = AssessConfig()
        assert cfg.n_rep == 100
        assert KERNEL_TST.bandwidths == (0.1, 0.3, 0.5, 0.7, 0.9)

    def test_validation(self):
        with pytest.raises(InputError):
            AssessConfig(n_rep=0)

    @pytest.mark.parametrize("n_rep", [2.5, 2.0, True, "3"])
    def test_n_rep_must_be_an_integer(self, n_rep):
        with pytest.raises(ConfigError, match="integer"):
            AssessConfig(n_rep=n_rep)

    def test_numpy_integer_n_rep_accepted(self):
        assert AssessConfig(n_rep=np.int64(3)).n_rep == 3


class TestAmmd:
    def test_verbatim_sampler_is_zero(self):
        u = np.random.default_rng(0).random((40, 2))
        cfg = AssessConfig(n_rep=5)
        assert ammd(u, FixedSampler(u), cfg, np.random.default_rng(1)) == 0.0

    def test_n_rep_one_is_single_mmd(self):
        from mtsgen.gmmn import mmd
        u = np.random.default_rng(2).random((30, 2))
        cop = IndependenceCopula(2)
        cfg = AssessConfig(n_rep=1)
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        assert ammd(u, cop, cfg, rng1) == mmd(u, cop.sample(30, rng2),
                                              KERNEL_TST)

    def test_equals_mean_of_plain_mmd(self):
        from mtsgen.gmmn import mmd
        u = np.random.default_rng(5).random((40, 3))
        cop = IndependenceCopula(3)
        cfg = AssessConfig(n_rep=6)
        rng = np.random.default_rng(6)
        expected = np.mean([mmd(u, cop.sample(40, rng), KERNEL_TST)
                            for _ in range(cfg.n_rep)])
        assert ammd(u, cop, cfg, np.random.default_rng(6)) == float(expected)

    @pytest.mark.parametrize("u", [np.empty((0, 2)), np.full(2, 0.5), np.float64(0.5)],
                             ids=["no_row", "one_dim", "scalar"])
    def test_test_set_must_be_2d_and_nonempty(self, u):
        with pytest.raises(InputError, match="at least one row"):
            ammd(u, IndependenceCopula(2), AssessConfig(n_rep=2), np.random.default_rng(0))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_independent_of_workers(self, workers, monkeypatch):
        from mtsgen.gmmn import mmd
        monkeypatch.setattr(_par, "_WORKERS", workers)
        u = np.random.default_rng(7).random((40, 3))
        cop = EmpiricalCopula(pseudo_observations(np.random.default_rng(8).random((60, 3))))
        cfg = AssessConfig(n_rep=23)    # blocks of 10, 10 and 3 repetitions
        rng = np.random.default_rng(9)
        expected = np.mean([mmd(u, cop.sample(40, rng), KERNEL_TST)
                            for _ in range(cfg.n_rep)])
        assert ammd(u, cop, cfg, np.random.default_rng(9)) == float(expected)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_n_rep(self, workers, monkeypatch):
        import tracemalloc
        monkeypatch.setattr(_par, "_WORKERS", workers)
        m, d = 200, 3
        u = np.random.default_rng(24).random((m, d))
        peaks = []
        for n_rep in (10, 60):
            tracemalloc.start()
            try:
                ammd(u, IndependenceCopula(d), AssessConfig(n_rep=n_rep),
                     np.random.default_rng(25))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 50 more repetitions add their 8-byte values, and less than one more draw
        assert peaks[1] - peaks[0] < 8 * 50 + m * d * 8
        # per worker, three m x m float buffers and one bool; one block of draws
        assert peaks[1] < workers * 25 * m * m + 4 * 10 * m * d * 8

    def test_empirical_beats_independence(self):
        cop = GaussianCopulaSampler(equicorrelation(2, 0.8))
        rng = np.random.default_rng(4)
        train = pseudo_observations(cop.sample(1000, rng))
        u_test = pseudo_observations(cop.sample(500, rng)).u
        cfg = AssessConfig(n_rep=20)
        a_emp = ammd(u_test, EmpiricalCopula(train), cfg, np.random.default_rng(5))
        a_ind = ammd(u_test, IndependenceCopula(2), cfg, np.random.default_rng(5))
        assert a_emp < a_ind

    def test_repetition_noise_shrinks(self):
        # spread of the average over disjoint seeds shrinks with more reps
        u = np.random.default_rng(6).random((100, 2))
        cop = IndependenceCopula(2)
        few = [ammd(u, cop, AssessConfig(n_rep=2), np.random.default_rng(s))
               for s in range(12)]
        many = [ammd(u, cop, AssessConfig(n_rep=40), np.random.default_rng(s))
                for s in range(12)]
        assert np.std(many) < np.std(few)


class TestAmse:
    def test_perfect_paths_zero(self):
        x = np.random.default_rng(7).standard_normal((6, 3))
        paths = np.repeat(x[:, None, :], 10, axis=1)
        assert amse(paths, x) == 0.0

    def test_hand_value(self):
        paths = np.array([[[0.0], [2.0]]])      # one step, two paths, d=1
        assert amse(paths, np.array([[1.0]])) == 1.0

    def test_translation_invariant(self):
        rng = np.random.default_rng(8)
        paths = rng.standard_normal((4, 20, 2))
        x = rng.standard_normal((4, 2))
        assert amse(paths + 5.0, x + 5.0) == pytest.approx(amse(paths, x))

    def test_path_permutation_invariant(self):
        rng = np.random.default_rng(9)
        paths = rng.standard_normal((3, 15, 2))
        x = rng.standard_normal((3, 2))
        perm = paths[:, rng.permutation(15), :]
        assert amse(perm, x) == pytest.approx(amse(paths, x))

    def test_per_step_decomposition(self):
        rng = np.random.default_rng(10)
        paths = rng.standard_normal((5, 8, 2))
        x = rng.standard_normal((5, 2))
        assert amse(paths, x) == pytest.approx(mse_per_step(paths, x).mean())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            amse(np.zeros((2, 3, 2)), np.zeros((5, 2)))

    @pytest.mark.parametrize("metric", [amse, avs])
    def test_forecasts_must_be_3d(self, metric):
        with pytest.raises(InputError, match=r"\(n_t, n_pth, d\)"):
            metric(np.zeros((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("shape", [(6, 40, 5), (3, 17, 1), (4, 1000, 30)])
    def test_matches_broadcast_formula(self, shape):
        rng = np.random.default_rng(22)
        paths = rng.standard_normal(shape) * 2.0
        x = rng.standard_normal((shape[0], shape[2]))
        # the all-steps-at-once formula, two (n_t, n_pth, d) temporaries
        expected = ((paths - x[:, None, :]) ** 2).sum(axis=2).mean(axis=1)
        assert np.array_equal(mse_per_step(paths, x), expected)

    def test_memory_bounded_by_one_step(self):
        import tracemalloc
        n_t, n_pth, d = 200, 500, 20
        rng = np.random.default_rng(23)
        paths = rng.standard_normal((n_t, n_pth, d))
        x = rng.standard_normal((n_t, d))
        tracemalloc.start()
        try:
            amse(paths, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one step's difference and its square
        assert peak < 3 * n_pth * d * 8


class TestAvs:
    def test_univariate_zero(self):
        paths = np.random.default_rng(11).standard_normal((4, 10, 1))
        x = np.random.default_rng(12).standard_normal((4, 1))
        assert avs(paths, x, r=0.25) == 0.0

    def test_perfect_paths_zero(self):
        x = np.random.default_rng(13).standard_normal((3, 3))
        paths = np.repeat(x[:, None, :], 7, axis=1)
        assert avs(paths, x, r=0.25) == pytest.approx(0.0, abs=1e-24)

    def test_hand_value_r1(self):
        # truth (0,1), single path (0,0): ordered pairs each contribute 1
        paths = np.array([[[0.0, 0.0]]])
        x = np.array([[0.0, 1.0]])
        assert avs(paths, x, r=1.0) == 2.0

    def test_component_relabeling_invariant(self):
        rng = np.random.default_rng(14)
        paths = rng.standard_normal((4, 12, 3))
        x = rng.standard_normal((4, 3))
        perm = [2, 0, 1]
        assert avs(paths[:, :, perm], x[:, perm], 0.25) == pytest.approx(
            avs(paths, x, 0.25))

    @pytest.mark.parametrize("r", [0.0, -1.0, np.inf, np.nan, "0.5", None])
    def test_order_must_be_positive_and_finite(self, r):
        # r = 0 scored 2.0, and r = -1 inf with a divide-by-zero warning
        paths = np.array([[[0.0, 0.0]]])
        x = np.array([[0.0, 1.0]])
        with pytest.raises(InputError, match="positive and finite"):
            avs(paths, x, r)

    def test_per_step_decomposition(self):
        rng = np.random.default_rng(15)
        paths = rng.standard_normal((5, 9, 2))
        x = rng.standard_normal((5, 2))
        assert avs(paths, x, 0.5) == pytest.approx(
            vs_per_step(paths, x, 0.5).mean())

    @pytest.mark.parametrize("shape, r", [((6, 40, 5), 0.25), ((3, 17, 1), 0.5),
                                          ((4, 25, 12), 1.0)])
    def test_matches_broadcast_formula(self, shape, r):
        rng = np.random.default_rng(16)
        paths = rng.standard_normal(shape) * 2.0
        x = rng.standard_normal((shape[0], shape[2]))
        # the all-steps-at-once formula, (n_t, n_pth, d, d) in memory
        obs = np.abs(x[:, :, None] - x[:, None, :]) ** r
        sim = (np.abs(paths[:, :, :, None] - paths[:, :, None, :]) ** r).mean(axis=1)
        expected = ((obs - sim) ** 2).sum(axis=(1, 2))
        assert np.array_equal(vs_per_step(paths, x, r), expected)

    def test_independent_of_workers(self, monkeypatch):
        rng = np.random.default_rng(24)
        paths = rng.standard_normal((7, 30, 6))
        x = rng.standard_normal((7, 6))
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_par, "_WORKERS", workers)
            results.append(vs_per_step(paths, x, 0.25))
        for res in results[1:]:
            assert np.array_equal(res, results[0])

    def test_memory_bounded_by_one_step(self, monkeypatch):
        import tracemalloc
        monkeypatch.setattr(_par, "_WORKERS", 2)
        n_t, n_pth, d = 20, 2000, 20
        rng = np.random.default_rng(17)
        paths = rng.standard_normal((n_t, n_pth, d))
        x = rng.standard_normal((n_t, d))
        tracemalloc.start()
        try:
            avs(paths, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gap_block = n_pth * d * (d - 1) // 2 * 8
        # per worker: its gap block, and numpy's iterator buffers (3 operands of
        # 8192 doubles) for the strided subtract; 64 KiB for (d, d) arrays
        assert peak < 2 * (gap_block + 3 * 8192 * 8) + 64 * 1024


class TestVear:
    def test_exact_frequency_zero(self):
        s = np.array([1.0, -1.0] + [1.0] * 18)    # 1 of 20 below
        v = np.zeros(20)
        assert vear(s, v, alpha=0.05) == 0.0

    def test_no_exceedances(self):
        assert vear(np.ones(50), np.zeros(50), alpha=0.05) == 0.05

    def test_hand_value(self):
        s = np.concatenate([-np.ones(7), np.ones(93)])
        assert vear(s, np.zeros(100), alpha=0.05) == pytest.approx(0.02)

    def test_strict_inequality(self):
        # values exactly at the VaR do not count as exceedances
        assert vear(np.zeros(10), np.zeros(10), alpha=0.05) == 0.05

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            vear(np.ones(5), np.ones(4), 0.05)

    @pytest.mark.parametrize("alpha", ["x", None, True, 0.0, 1.0, np.nan])
    def test_alpha_must_be_a_level(self, alpha):
        with pytest.raises(InputError, match=r"must lie in \(0, 1\)"):
            vear([1.0], [1.0], alpha)
