"""Principal component reduction tests."""

import numpy as np
import pytest

from mtsgen import InputError, PcaTransform, fit_pca, lift, project, select_k
from mtsgen.errors import NumericalError


def sample_with_cov(cov, n=400, seed=0):
    """Rows whose sample covariance (ddof=1) is exactly `cov`."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, cov.shape[0]))
    z -= z.mean(axis=0)
    # whiten, then color
    c = np.cov(z, rowvar=False, ddof=1)
    z = z @ np.linalg.inv(np.linalg.cholesky(c)).T
    return z @ np.linalg.cholesky(cov).T


class TestFitPca:
    def test_identity_covariance(self):
        z = sample_with_cov(np.eye(3))
        t = fit_pca(z)
        np.testing.assert_allclose(t.lambdas, np.ones(3), atol=1e-8)

    def test_diag_4_1(self):
        z = sample_with_cov(np.diag([4.0, 1.0]))
        t = fit_pca(z)
        np.testing.assert_allclose(t.lambdas, [4.0, 1.0], atol=1e-8)
        np.testing.assert_allclose(np.abs(t.gamma), np.eye(2), atol=1e-8)
        # sign convention: largest-magnitude entry positive
        assert t.gamma[0, 0] > 0 and t.gamma[1, 1] > 0

    def test_orthogonality(self):
        z = np.random.default_rng(1).standard_normal((100, 5))
        t = fit_pca(z)
        np.testing.assert_allclose(t.gamma.T @ t.gamma, np.eye(5), atol=1e-10)

    def test_reconstruction_full_rank(self):
        z = np.random.default_rng(2).standard_normal((50, 4))
        t = fit_pca(z)
        np.testing.assert_allclose(lift(t, project(t, z)), z, atol=1e-10)

    def test_projected_covariance_diagonal(self):
        z = sample_with_cov(np.array([[2.0, 0.8], [0.8, 1.0]]))
        y = project(fit_pca(z), z)
        c = np.cov(y, rowvar=False, ddof=1)
        assert abs(c[0, 1]) < 1e-8

    def test_row_permutation_invariant(self):
        z = np.random.default_rng(3).standard_normal((60, 3))
        t1 = fit_pca(z)
        t2 = fit_pca(z[np.random.default_rng(4).permutation(60)])
        np.testing.assert_allclose(t1.gamma, t2.gamma, atol=1e-10)

    def test_too_few_rows(self):
        with pytest.raises(InputError):
            fit_pca(np.ones((1, 3)))


class TestSelectK:
    def test_k_min_forces_three(self):
        # ratios (0.8, 0.9, 1.0); the floor at 3 wins
        assert select_k([8.0, 1.0, 1.0], threshold=0.95) == 3

    def test_ten_equal_eigenvalues(self):
        assert select_k(np.ones(10), threshold=0.95) == 10

    def test_dominant_first_component(self):
        assert select_k([97.0, 1.0, 1.0, 1.0], threshold=0.95, k_min=1) == 1

    def test_never_exceeds_d(self):
        assert select_k([1.0, 1e-9], threshold=0.9999999) == 2

    def test_variance_ratio_monotone(self):
        lam = np.sort(np.random.default_rng(0).random(6))[::-1]
        ratios = np.cumsum(lam) / lam.sum()
        assert np.all(np.diff(ratios) >= 0)
        assert ratios[-1] == pytest.approx(1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(NumericalError):
            select_k(np.zeros(3))

    def test_unsorted_rejected(self):
        with pytest.raises(InputError):
            select_k([1.0, 2.0])


class TestProjectLift:
    def test_identity_transform(self):
        t = PcaTransform.identity(3)
        z = np.random.default_rng(5).standard_normal((10, 3))
        np.testing.assert_array_equal(project(t, z), z)
        np.testing.assert_array_equal(lift(t, z), z)

    def test_project_after_lift_is_identity(self):
        z = np.random.default_rng(6).standard_normal((80, 4))
        t = fit_pca(z).with_k(2)
        y = np.random.default_rng(7).standard_normal((10, 2))
        np.testing.assert_allclose(project(t, lift(t, y)), y, atol=1e-12)

    def test_lift_project_idempotent(self):
        z = np.random.default_rng(8).standard_normal((80, 4))
        t = fit_pca(z).with_k(2)
        once = lift(t, project(t, z))
        twice = lift(t, project(t, once))
        np.testing.assert_allclose(once, twice, atol=1e-10)

    def test_k_checked_and_upsilon_built_at_construction(self):
        gamma = fit_pca(np.random.default_rng(9).standard_normal((40, 3))).gamma
        t = PcaTransform(gamma=gamma, lambdas=np.ones(3), k=2)
        np.testing.assert_array_equal(t.upsilon, gamma[:, :2])
        for k in (0, 4):
            with pytest.raises(InputError):
                PcaTransform(gamma=gamma, lambdas=np.ones(3), k=k)

    def test_with_k_bounds(self):
        t = PcaTransform.identity(3)
        with pytest.raises(InputError):
            t.with_k(0)
        with pytest.raises(InputError):
            t.with_k(4)
