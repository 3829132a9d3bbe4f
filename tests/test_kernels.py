import numpy as np
import pytest

from hankelssr.kernels import KernelModel, assemble_prior, stable_spline_gram


class TestStableSplineGram:
    def test_order1_small_example(self):
        K = stable_spline_gram(1, 0.5, 2)
        np.testing.assert_allclose(K, [[0.5, 0.25], [0.25, 0.25]])

    def test_order2_corner_entry(self):
        K = stable_spline_gram(2, 0.5, 3)
        assert K[0, 0] == pytest.approx(0.5**3 / 2 - 0.5**3 / 6)  # 1/24

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9, 0.99])
    def test_positive_semidefinite(self, order, alpha):
        K = stable_spline_gram(order, alpha, 8)
        np.testing.assert_allclose(K, K.T)
        assert np.linalg.eigvalsh(K).min() >= -1e-12

    def test_diagonal_decays(self):
        K = stable_spline_gram(1, 0.8, 10)
        d = np.diag(K)
        assert np.all(np.diff(d) < 0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.3])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            stable_spline_gram(1, alpha, 4)

    def test_order_domain(self):
        with pytest.raises(ValueError):
            stable_spline_gram(3, 0.5, 4)


class TestAssemblePrior:
    def test_single_channel_is_gram_plus_jitter(self):
        km = KernelModel(order=1, T=5, p=1, m=1, alphas=[0.7], scales=[2.0])
        K = assemble_prior(km)
        gram = 2.0 * stable_spline_gram(1, 0.7, 5)
        np.testing.assert_allclose(K - np.diag(np.diag(K - gram)), gram, atol=1e-15)
        assert np.all(np.diag(K) > np.diag(gram))  # jitter strictly added

    def test_identical_outputs_block_diagonal(self):
        km = KernelModel(order=1, T=4, p=2, m=1, alphas=[0.6, 0.6], scales=[1.0, 1.0])
        K = assemble_prior(km)
        np.testing.assert_allclose(K[:4, :4], K[4:, 4:])
        assert np.abs(K[:4, 4:]).max() == 0.0

    def test_input_blocks_share_output_kernel(self):
        km = KernelModel(order=2, T=3, p=1, m=2, alphas=[0.8], scales=[0.5])
        K = assemble_prior(km)
        assert K.shape == (6, 6)
        np.testing.assert_allclose(K[:3, :3], K[3:, 3:])

    def test_cholesky_succeeds(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            km = KernelModel(
                order=int(rng.integers(1, 3)),
                T=int(rng.integers(2, 30)),
                p=p,
                m=m,
                alphas=rng.uniform(0.3, 0.99, size=p),
                scales=rng.uniform(0.01, 10.0, size=p),
            )
            L = np.linalg.cholesky(assemble_prior(km))
            assert np.all(np.diag(L) > 0)

    def test_quadratic_form_positive(self):
        km = KernelModel(order=1, T=12, p=2, m=1, alphas=[0.9, 0.7], scales=[1.0, 3.0])
        K = assemble_prior(km)
        rng = np.random.default_rng(1)
        for _ in range(20):
            theta = rng.standard_normal(24)
            val = theta @ np.linalg.solve(K, theta)
            assert val > 0
        assert np.zeros(24) @ np.linalg.solve(K, np.zeros(24)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelModel(order=1, T=4, p=2, m=1, alphas=[0.5], scales=[1.0, 1.0])
        with pytest.raises(ValueError):
            KernelModel(order=1, T=4, p=1, m=1, alphas=[1.5], scales=[1.0])
        with pytest.raises(ValueError):
            KernelModel(order=1, T=4, p=1, m=1, alphas=[0.5], scales=[-1.0])
