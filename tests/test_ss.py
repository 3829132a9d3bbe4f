import numpy as np
import pytest
from scipy import linalg

from hankelssr import Dataset, ImpulseResponse, ss_estimate
from hankelssr.core import predict_outputs, regressor_block
from hankelssr.estimators.ss import estimate_noise_variance, ss_negative_log_ml
from hankelssr.kernels import stable_spline_gram
from oracles import dense_ss_evidence, ss_fixed_estimate


def _siso_dataset(g, N, seed, noise_std=0.0):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((N, 1))
    T = len(g)
    ir = ImpulseResponse(p=1, m=1, T=T, theta=g)
    z = predict_outputs(Dataset(u=u, y=np.zeros((N, 1))), ir)
    y = z + noise_std * rng.standard_normal((N, 1))
    return Dataset(u=u, y=y), ir


class TestEstimateNoiseVariance:
    def test_perfect_fit_hits_floor(self):
        d, ir = _siso_dataset(0.5 ** np.arange(1, 6), 50, 0)
        sigma = estimate_noise_variance(d, ir)
        np.testing.assert_allclose(sigma, [1e-12])

    def test_zero_model_gives_second_moment(self):
        rng = np.random.default_rng(1)
        d = Dataset(u=rng.standard_normal((40, 1)), y=rng.standard_normal((40, 2)))
        ir = ImpulseResponse(p=2, m=1, T=3, theta=np.zeros(6))
        sigma = estimate_noise_variance(d, ir)
        np.testing.assert_allclose(sigma, np.mean(d.y**2, axis=0))

    def test_recovers_injected_noise_level(self):
        d, ir = _siso_dataset(0.5 ** np.arange(1, 8), 2000, 2, noise_std=0.3)
        sigma = estimate_noise_variance(d, ir)
        assert 0.07 <= sigma[0] <= 0.11  # around 0.09 = 0.3**2


class TestSsNegativeLogMl:
    def test_zero_scale_limit(self):
        d, _ = _siso_dataset([0.4, 0.2], 30, 3, noise_std=0.1)
        sigma = 0.7
        val = ss_negative_log_ml(d, T=2, order=1, alpha=0.8, scale=0.0, sigma=sigma)
        y = d.y[:, 0]
        assert val == pytest.approx(float(y @ y) / sigma + d.n * np.log(sigma), rel=1e-12)

    def test_tiny_instance_against_direct_computation(self):
        # N=2, T=1 scalar case: covariance is 2x2 and fully writable by hand
        u = np.array([[1.0], [2.0]])
        y = np.array([[0.3], [-0.7]])
        d = Dataset(u=u, y=y)
        alpha, scale, sigma = 0.6, 1.7, 0.4
        phi = np.array([[0.0], [1.0]])  # u(t-1) with zero pre-sample
        K = scale * stable_spline_gram(1, alpha, 1)
        lam = sigma * np.eye(2) + phi @ K @ phi.T
        direct = float(y[:, 0] @ np.linalg.solve(lam, y[:, 0])) + np.log(
            np.linalg.det(lam)
        )
        val = ss_negative_log_ml(d, T=1, order=1, alpha=alpha, scale=scale, sigma=sigma)
        assert val == pytest.approx(direct, abs=1e-10)

    def test_lemma_matches_dense_path(self):
        rng = np.random.default_rng(4)
        d = Dataset(u=rng.standard_normal((50, 1)), y=rng.standard_normal((50, 1)))
        for alpha, scale, sigma in [(0.7, 2.0, 0.5), (0.95, 0.01, 3.0), (0.55, 40.0, 0.02)]:
            a = ss_negative_log_ml(d, T=8, order=1, alpha=alpha, scale=scale, sigma=sigma)
            b = dense_ss_evidence(d, T=8, order=1, alpha=alpha, scale=scale, sigma=sigma)
            assert a == pytest.approx(b, rel=1e-8)

    def test_rejects_multi_output(self):
        d = Dataset(u=np.ones((5, 1)), y=np.ones((5, 2)))
        with pytest.raises(ValueError):
            ss_negative_log_ml(d, T=2, order=1, alpha=0.5, scale=1.0, sigma=1.0)


class TestSsEstimate:
    def test_near_interpolation_on_noiseless_data(self):
        T = 20
        d, ir = _siso_dataset(0.5 ** np.arange(1, T + 1), 500, 5)
        res = ss_estimate(d, 1, T)
        from hankelssr import fit_metric

        assert fit_metric(res.ir, ir) >= 99.0

    def test_pure_noise_shrinks_to_zero(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((500, 1))
        y = rng.standard_normal((500, 1))  # independent of u: true system is 0
        d = Dataset(u=u, y=y)
        res = ss_estimate(d, 1, 20)
        scale = float(np.linalg.norm(y)) / float(np.linalg.norm(u))
        assert np.linalg.norm(res.ir.theta) <= 0.05 * scale

    def test_fixed_hyperparameters_match_ridge_oracle(self):
        rng = np.random.default_rng(7)
        N, T, p = 60, 6, 2
        u = rng.standard_normal((N, 1))
        y = rng.standard_normal((N, p))
        d = Dataset(u=u, y=y)
        alpha, scale, sigma = 0.75, 2.5, 0.8
        ir = ss_fixed_estimate(d, 1, T, alpha, scale, sigma)
        phi = regressor_block(u, T)
        K = scale * stable_spline_gram(1, alpha, T)
        oracle = np.concatenate(
            [
                np.linalg.solve(
                    phi.T @ phi + sigma * np.linalg.inv(K), phi.T @ y[:, i]
                )
                for i in range(p)
            ]
        )
        np.testing.assert_allclose(ir.theta, oracle, rtol=1e-8, atol=1e-10)

    def test_mimo_channel_independence(self):
        # per-output fits: output 2's estimate must not depend on output 1's data
        rng = np.random.default_rng(8)
        u = rng.standard_normal((80, 1))
        y = rng.standard_normal((80, 2))
        d_joint = Dataset(u=u, y=y)
        d_single = Dataset(u=u, y=y[:, 1:])
        fixed = (0.7, 1.0, 0.5)
        ir_joint = ss_fixed_estimate(d_joint, 1, 5, *fixed)
        ir_single = ss_fixed_estimate(d_single, 1, 5, *fixed)
        np.testing.assert_allclose(ir_joint.channel(1, 0), ir_single.channel(0, 0))
