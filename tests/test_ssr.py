import math

import numpy as np
import pytest
from scipy import linalg

from hankelssr import Dataset, ImpulseResponse, ss_estimate, ssr_fit
from hankelssr.core import (
    build_hankel,
    make_hankel_spec,
    numerical_rank,
    predict_outputs,
    regressor_block,
    weighted_hankel,
)
from hankelssr.estimators.ssr import (
    LAMBDA2_FLOOR_RATIO,
    SsrOptions,
    _Workspace,
    _l2_only_lambda2,
    optimize_lambdas,
    q_saturation,
    rank_penalty_matrix,
    ssr_negative_log_ml,
    update_q,
    variational_bound_check,
)
from hankelssr.kernels import KernelModel, assemble_prior
from hankelssr.simulation import fit_metric
from oracles import dense_evidence, engine_map, map_from_precision, precision, stacked_ls


def _random_spec(rng, p=None, m=None, T=None, weighted=True):
    p = p or int(rng.integers(1, 4))
    m = m or int(rng.integers(1, 3))
    T = T or int(rng.integers(3, 9))
    spec0 = make_hankel_spec(T, p, m)
    if not weighted:
        return spec0
    W1 = rng.standard_normal((spec0.c * m, spec0.c * m)) + 2 * np.eye(spec0.c * m)
    W2 = rng.standard_normal((spec0.r * p, spec0.r * p)) + 2 * np.eye(spec0.r * p)
    return make_hankel_spec(T, p, m, spec0.r, spec0.c, W1, W2)


def _random_pd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _dataset_from_theta(theta, p, m, T, N, seed, noise_std=0.0):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((N, m))
    ir = ImpulseResponse(p=p, m=m, T=T, theta=theta)
    z = predict_outputs(Dataset(u=u, y=np.zeros((N, p))), ir)
    return Dataset(u=u, y=z + noise_std * rng.standard_normal((N, p))), ir


class TestRankPenaltyMatrix:
    def test_matches_dense_kronecker(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            spec = _random_spec(rng)
            rp = spec.r * spec.p
            Q = _random_pd(rng, rp)
            R = rank_penalty_matrix(Q, spec)
            P = np.zeros((spec.row_src.size, spec.theta_dim))
            P[np.arange(spec.row_src.size), spec.row_src] = 1.0
            dense = P.T @ np.kron(spec.W2 @ Q @ spec.W2.T, spec.W1.T @ spec.W1) @ P
            np.testing.assert_allclose(R, dense, atol=1e-10)

    def test_trace_identity(self):
        # quadratic form equals tr[H~ H~' Q] for random instances
        rng = np.random.default_rng(1)
        for _ in range(50):
            spec = _random_spec(rng)
            theta = rng.standard_normal(spec.theta_dim)
            ir = ImpulseResponse(p=spec.p, m=spec.m, T=spec.T, theta=theta)
            Q = _random_pd(rng, spec.r * spec.p)
            Ht = weighted_hankel(ir, spec)
            lhs = float(theta @ rank_penalty_matrix(Q, spec) @ theta)
            rhs = float(np.trace(Ht @ Ht.T @ Q))
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestAMatrix:
    """The prior precision A = lambda2 K^-1 + lambda1 R_Q the engine works with."""

    def test_lambda1_zero_reduces_to_scaled_inverse_kernel(self):
        rng = np.random.default_rng(2)
        spec = _random_spec(rng, p=1, m=1, T=6, weighted=False)
        K = _random_pd(rng, 6)
        d = Dataset(u=rng.standard_normal((20, 1)), y=rng.standard_normal((20, 1)))
        sigma = np.array([0.8])
        A = 2.5 * np.linalg.inv(K)
        got = ssr_negative_log_ml(d, np.eye(spec.r), 0.0, 2.5, K, sigma, spec)
        assert got == pytest.approx(dense_evidence(d, A, sigma, 6), rel=1e-9)
        phi = regressor_block(d.u, 6)
        ridge = np.linalg.solve(A + phi.T @ phi / 0.8, phi.T @ d.y[:, 0] / 0.8)
        theta = engine_map(d, np.eye(spec.r), 0.0, 2.5, K, sigma, spec)
        np.testing.assert_allclose(theta, ridge, rtol=1e-9)

    def test_identity_weights_gives_multiplicity_diagonal(self):
        T = 7
        spec = make_hankel_spec(T, 1, 1)
        mult = np.array([min(k, T - k + 1, spec.r, spec.c) for k in range(1, T + 1)])
        R = rank_penalty_matrix(np.eye(spec.r), spec)
        np.testing.assert_allclose(R, np.diag(mult), atol=1e-12)

    def test_validation(self):
        spec = make_hankel_spec(4, 1, 1)
        d = Dataset(u=np.arange(10.0), y=np.ones(10))
        args = (np.eye(4), np.array([1.0]), spec)
        with pytest.raises(ValueError):
            ssr_negative_log_ml(d, np.eye(spec.r), -1.0, 1.0, *args)
        with pytest.raises(ValueError):
            ssr_negative_log_ml(d, np.eye(spec.r), 1.0, 0.0, *args)


class TestMapEstimate:
    def test_unregularized_limit_is_least_squares(self):
        rng = np.random.default_rng(3)
        N, T = 40, 8
        u = rng.standard_normal((N, 1))
        y = rng.standard_normal((N, 1))
        d = Dataset(u=u, y=y)
        sigma = np.array([1.0])
        theta = map_from_precision(d, 1e-10 * np.eye(T), sigma)
        phi = regressor_block(u, T)
        ls, *_ = np.linalg.lstsq(phi, y[:, 0], rcond=None)
        np.testing.assert_allclose(theta, ls, atol=1e-6)

    def test_zero_observations_give_zero(self):
        rng = np.random.default_rng(4)
        d = Dataset(u=rng.standard_normal((30, 1)), y=np.zeros((30, 2)))
        theta = map_from_precision(d, np.eye(2 * 5), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(theta, np.zeros(10))

    def test_matches_augmented_least_squares_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = int(rng.integers(1, 3))
            m = int(rng.integers(1, 3))
            T = int(rng.integers(2, 9))
            N = int(rng.integers(T + 2, 41))
            u = rng.standard_normal((N, m))
            y = rng.standard_normal((N, p))
            d = Dataset(u=u, y=y)
            sigma = rng.uniform(0.2, 3.0, size=p)
            A = _random_pd(rng, T * m * p)
            got = map_from_precision(d, A, sigma)
            oracle = stacked_ls(d, A, sigma, T)
            np.testing.assert_allclose(got, oracle, rtol=1e-8, atol=1e-10)

    def test_is_strict_minimizer(self):
        rng = np.random.default_rng(6)
        N, T, p = 30, 5, 2
        u = rng.standard_normal((N, 1))
        y = rng.standard_normal((N, p))
        d = Dataset(u=u, y=y)
        sigma = np.array([0.5, 1.5])
        A = _random_pd(rng, T * p)
        theta_hat = map_from_precision(d, A, sigma)
        phi = regressor_block(u, T)

        def objective(th):
            val = float(th @ A @ th)
            for i in range(p):
                r = y[:, i] - phi @ th[i * T : (i + 1) * T]
                val += float(r @ r) / sigma[i]
            return val

        base = objective(theta_hat)
        for _ in range(10):
            delta = rng.standard_normal(theta_hat.size)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert objective(theta_hat + delta) > base

    def test_posterior_mean_consistency(self):
        # MAP equals the Gaussian conditional mean computed densely
        rng = np.random.default_rng(7)
        N, T, p = 12, 3, 2
        u = rng.standard_normal((N, 1))
        y = rng.standard_normal((N, p))
        d = Dataset(u=u, y=y)
        sigma = np.array([0.7, 1.3])
        A = _random_pd(rng, T * p)
        got = map_from_precision(d, A, sigma)
        phi = regressor_block(u, T)
        Phi = linalg.block_diag(*([phi] * p))
        A_inv = np.linalg.inv(A)
        Lam = np.kron(np.diag(sigma), np.eye(N)) + Phi @ A_inv @ Phi.T
        Y = y.flatten(order="F")
        cond_mean = A_inv @ Phi.T @ np.linalg.solve(Lam, Y)
        np.testing.assert_allclose(got, cond_mean, rtol=1e-9, atol=1e-11)


class TestSsrNegativeLogMl:
    def _setup(self, seed, N=30, p=1, m=1, T=5):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((N, m))
        y = rng.standard_normal((N, p))
        d = Dataset(u=u, y=y)
        spec = make_hankel_spec(T, p, m)
        km = KernelModel(
            order=1, T=T, p=p, m=m,
            alphas=rng.uniform(0.5, 0.95, p), scales=rng.uniform(0.5, 2.0, p),
        )
        K = assemble_prior(km)
        sigma = rng.uniform(0.3, 2.0, p)
        Q = _random_pd(rng, spec.r * p)
        return d, spec, K, sigma, Q

    def test_lambda1_zero_matches_smoothness_only_evidence(self):
        # with the rank penalty off, the evidence is the per-channel
        # smoothness-only one with prior covariance K / lam2
        from hankelssr.estimators.ss import ss_negative_log_ml
        from hankelssr.kernels import stable_spline_gram

        rng = np.random.default_rng(8)
        p, T, N = 2, 5, 30
        u = rng.standard_normal((N, 1))
        y = rng.standard_normal((N, p))
        d = Dataset(u=u, y=y)
        spec = make_hankel_spec(T, p, 1)
        alphas = [0.8, 0.6]
        scales = [1.4, 0.7]
        sigma = np.array([0.5, 1.2])
        K = linalg.block_diag(*[s * stable_spline_gram(1, a, T) for a, s in zip(alphas, scales)])
        Q = _random_pd(rng, spec.r * p)
        lam2 = 1.7
        a = ssr_negative_log_ml(d, Q, 0.0, lam2, K, sigma, spec)
        b = sum(
            ss_negative_log_ml(
                Dataset(u=u, y=y[:, i : i + 1]),
                T=T,
                order=1,
                alpha=alphas[i],
                scale=scales[i] / lam2,
                sigma=float(sigma[i]),
            )
            for i in range(p)
        )
        assert a == pytest.approx(b, rel=1e-10)

    def test_tiny_instance_matches_dense(self):
        d, spec, K, sigma, Q = self._setup(9, N=3, T=2)
        for lam1, lam2 in [(0.5, 1.0), (4.0, 0.2)]:
            a = ssr_negative_log_ml(d, Q, lam1, lam2, K, sigma, spec)
            b = dense_evidence(d, precision(Q, lam1, lam2, K, spec), sigma, spec.T)
            assert a == pytest.approx(b, abs=1e-10)

    def test_random_instances_match_dense(self):
        rng = np.random.default_rng(10)
        for seed in range(8):
            p = int(rng.integers(1, 3))
            N = int(rng.integers(10, 150 // p + 1))
            d, spec, K, sigma, Q = self._setup(100 + seed, N=N, p=p, T=int(rng.integers(3, 7)))
            lam1, lam2 = float(rng.uniform(0, 5)), float(rng.uniform(0.1, 3))
            a = ssr_negative_log_ml(d, Q, lam1, lam2, K, sigma, spec)
            b = dense_evidence(d, precision(Q, lam1, lam2, K, spec), sigma, spec.T)
            assert a == pytest.approx(b, rel=1e-8)

    def test_evidence_increases_away_from_lambda2_optimum(self):
        d, spec, K, sigma, Q = self._setup(12, N=60, T=5)
        ws = _Workspace(d, K, sigma, spec)
        lam2_star, nll_star = _l2_only_lambda2(ws)
        up = ws.nll(None, 0.0, lam2_star * 10)
        down = ws.nll(None, 0.0, lam2_star / 10)
        assert up > nll_star and down > nll_star


class TestWorkspace:
    def _workspace(self):
        rng = np.random.default_rng(30)
        d = Dataset(u=rng.standard_normal((40, 1)), y=rng.standard_normal((40, 2)))
        spec = make_hankel_spec(6, 2, 1)
        km = KernelModel(order=1, T=6, p=2, m=1, alphas=[0.8, 0.7], scales=[1.0, 2.0])
        ws = _Workspace(d, assemble_prior(km), np.array([0.5, 1.5]), spec)
        return ws, ws.rank_prior(rank_penalty_matrix(_random_pd(rng, spec.r * 2), spec))

    def test_one_factorization_per_probe(self, monkeypatch):
        # one dim x dim Cholesky per lambda1 > 0 probe, none with the penalty off
        ws, ranked = self._workspace()
        calls = []
        for module, name in [(np.linalg, "cholesky"), (linalg, "cholesky"), (linalg, "cho_factor")]:
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        ws.nll(ranked, 0.3, 1.2)
        assert len(calls) == 1
        ws.nll(None, 0.0, 1.2)
        ws.map(None, 0.0, 1.2)
        assert len(calls) == 1

    def test_nonpositive_prior_is_a_failed_probe(self):
        ws, ranked = self._workspace()
        with pytest.raises(np.linalg.LinAlgError):
            ws.nll(ranked, 1.0, -1e6)
        with pytest.raises(np.linalg.LinAlgError):
            ws.nll(None, 0.0, -1.0)


class TestOptimizeLambdas:
    def test_never_worse_than_init(self):
        rng = np.random.default_rng(13)
        for seed in range(3):
            p, m, T, N = 1, 1, 6, 50
            u = rng.standard_normal((N, m))
            y = rng.standard_normal((N, p))
            d = Dataset(u=u, y=y)
            spec = make_hankel_spec(T, p, m)
            K = assemble_prior(KernelModel(order=1, T=T, p=p, m=m, alphas=[0.8], scales=[1.0]))
            sigma = np.array([1.0])
            Q = _random_pd(rng, spec.r)
            init = (float(rng.uniform(1e-4, 10)), float(rng.uniform(0.1, 10)))
            lam1, lam2 = optimize_lambdas(d, Q, K, sigma, spec, init, lambda2_floor=1e-6)
            f_init = ssr_negative_log_ml(d, Q, init[0], init[1], K, sigma, spec)
            f_ret = ssr_negative_log_ml(d, Q, lam1, lam2, K, sigma, spec)
            assert f_ret <= f_init + 1e-9

    def test_full_order_data_gains_little_from_rank_penalty(self):
        # With true order = Hankel rows there is no rank deficiency to
        # exploit: the evidence improvement available from the rank penalty
        # is small, in contrast to rank-deficient data where it is large.
        def joint_benefit(theta, T, N, seed, noise_std):
            d, _ = _dataset_from_theta(theta, 1, 1, T, N, seed=seed, noise_std=noise_std)
            spec = make_hankel_spec(T, 1, 1)
            from hankelssr import ss_estimate

            ss = ss_estimate(d, 1, T)
            K = assemble_prior(ss.kernel)
            ws = _Workspace(d, K, ss.sigma, spec)
            lam2_star, nll0 = _l2_only_lambda2(ws)
            Q = update_q(ss.ir, spec, N)
            rp = ws.rank_prior(rank_penalty_matrix(Q, spec))
            best = nll0
            for g1 in [1e-8, 1e-4, 1e-2, 1e-1, 1.0, 10.0, 1e2]:
                for g2 in [0.01, 0.1, 0.3, 1.0, 3.0]:
                    best = min(best, ws.nll(rp, g1, lam2_star * g2))
            return nll0 - best

        rng = np.random.default_rng(14)
        full_order = joint_benefit(rng.standard_normal(5), T=5, N=300, seed=15, noise_std=0.5)
        rank_one = joint_benefit(2.0 * 0.6 ** np.arange(1, 21), T=20, N=300, seed=15, noise_std=0.3)
        assert full_order < 10.0
        assert rank_one > 12.0
        assert rank_one > 1.5 * full_order

    def test_lambda1_respects_lower_bound(self):
        rng = np.random.default_rng(15)
        T, N = 5, 200
        d, ir = _dataset_from_theta(rng.standard_normal(T), 1, 1, T, N, seed=16, noise_std=0.5)
        spec = make_hankel_spec(T, 1, 1)
        K = assemble_prior(KernelModel(order=1, T=T, p=1, m=1, alphas=[0.7], scales=[1.0]))
        Q = update_q(ir, spec, N)
        lam1, lam2 = optimize_lambdas(
            d, Q, K, np.array([0.25]), spec, (1.0, 1.0), lambda2_floor=1e-4
        )
        assert 1e-8 <= lam1 <= 1e6
        assert lam2 >= 1e-4

    def test_rank_one_system_improves_on_smoothness_only(self):
        T, N = 12, 400
        theta = 2.0 * 0.6 ** np.arange(1, T + 1)
        d, ir = _dataset_from_theta(theta, 1, 1, T, N, seed=16, noise_std=0.2)
        spec = make_hankel_spec(T, 1, 1)
        K = assemble_prior(KernelModel(order=1, T=T, p=1, m=1, alphas=[0.6], scales=[4.0]))
        sigma = np.array([0.04])
        Q = update_q(ir, spec, N)
        ws = _Workspace(d, K, sigma, spec)
        lam2_star, nll_l2 = _l2_only_lambda2(ws)
        lam1, lam2 = optimize_lambdas(d, Q, K, sigma, spec, (1.0, lam2_star), lambda2_floor=1e-6)
        nll_opt = ssr_negative_log_ml(d, Q, lam1, lam2, K, sigma, spec)
        assert nll_opt < nll_l2


class TestUpdateQ:
    def test_threshold_and_saturation_arithmetic(self):
        threshold, nu = q_saturation(500, 3)
        loglog = math.log(math.log(500.0))  # 1.8269027 (natural logs)
        assert threshold == pytest.approx(math.sqrt(3 * loglog / 500), rel=1e-12)
        assert nu == pytest.approx(10 * 500 / (3 * loglog), rel=1e-12)
        # frozen from the formula at four significant digits
        assert f"{threshold:.4g}" == "0.1047"
        assert f"{nu:.4g}" == "912.3"

    def test_dominant_direction_gets_inverse_square_weight(self):
        N = 500
        T = 5
        spec = make_hankel_spec(T, 1, 1)
        threshold, nu = q_saturation(N, spec.r)
        # geometric response scaled for a single unit singular value
        theta = 0.5 ** np.arange(1, T + 1)
        ir = ImpulseResponse(p=1, m=1, T=T, theta=theta)
        s = np.linalg.svd(build_hankel(ir, spec), compute_uv=False)
        ir = ImpulseResponse(p=1, m=1, T=T, theta=theta / s[0])
        Q = update_q(ir, spec, N)
        eig = np.sort(np.linalg.eigvalsh(Q))
        assert eig[0] == pytest.approx(1.0, rel=1e-8)  # 1/s1^2 with s1 = 1
        np.testing.assert_allclose(eig[1:], nu, rtol=1e-10)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            spec = _random_spec(rng, weighted=True)
            theta = rng.standard_normal(spec.theta_dim)
            ir = ImpulseResponse(p=spec.p, m=spec.m, T=spec.T, theta=theta)
            Q = update_q(ir, spec, int(rng.integers(20, 2000)))
            np.testing.assert_allclose(Q, Q.T, atol=1e-12)
            assert np.linalg.eigvalsh(Q).min() > 0

    def test_small_sample_rejected(self):
        spec = make_hankel_spec(4, 1, 1)
        ir = ImpulseResponse(p=1, m=1, T=4, theta=np.ones(4))
        with pytest.raises(ValueError):
            update_q(ir, spec, 10)


class TestVariationalBound:
    def _instance(self, seed, weighted=True):
        # T=9, p=2 gives 6 block rows vs 7 block columns: the weighted
        # product is generically full rank, so no jitter path is involved
        rng = np.random.default_rng(seed)
        spec = _random_spec(rng, p=2, m=1, T=9, weighted=weighted)
        assert spec.r * spec.p <= spec.c * spec.m
        theta = rng.standard_normal(spec.theta_dim)
        return ImpulseResponse(p=spec.p, m=spec.m, T=spec.T, theta=theta), spec, rng

    def test_equality_at_optimum(self):
        ir, spec, _ = self._instance(18)
        lhs, rhs = variational_bound_check(ir, spec)
        assert rhs == pytest.approx(lhs, abs=1e-9 * max(1, abs(lhs)))

    def test_doubled_bound_matrix_gap(self):
        ir, spec, _ = self._instance(19)
        Ht = weighted_hankel(ir, spec)
        B = Ht @ Ht.T
        rp = B.shape[0]
        lhs, rhs = variational_bound_check(ir, spec, psi=2.0 * B)
        assert rhs - lhs == pytest.approx(rp * (0.5 + math.log(2.0) - 1.0), rel=1e-6)

    def test_bound_holds_for_random_psi(self):
        ir, spec, rng = self._instance(20)
        rp = spec.r * spec.p
        for _ in range(100):
            psi = _random_pd(rng, rp)
            lhs, rhs = variational_bound_check(ir, spec, psi=psi)
            assert rhs >= lhs - 1e-9

    def test_rank_deficient_product_uses_floor(self):
        # more block rows than columns: the product is singular and the
        # relative eigenvalue floor kicks in, keeping both sides finite
        rng = np.random.default_rng(21)
        spec = make_hankel_spec(7, 2, 1)  # (r, c) = (3, 5): 6 rows vs 5 cols
        assert spec.r * spec.p > spec.c * spec.m
        theta = rng.standard_normal(spec.theta_dim)
        ir = ImpulseResponse(p=2, m=1, T=7, theta=theta)
        lhs, rhs = variational_bound_check(ir, spec)
        assert np.isfinite(lhs) and np.isfinite(rhs)
        psi = _random_pd(rng, 6)
        lhs2, rhs2 = variational_bound_check(ir, spec, psi=psi)
        assert rhs2 >= lhs2 - 1e-9


class TestSsrFit:
    def test_noiseless_rank_one_system(self):
        T, N = 20, 400
        theta = 1.5 * 0.7 ** np.arange(1, T + 1)
        d, ir = _dataset_from_theta(theta, 1, 1, T, N, seed=21)
        res = ssr_fit(d, T, 1)
        assert fit_metric(res.ir, ir) >= 99.0
        H = build_hankel(res.ir, res.spec)
        assert numerical_rank(H, 1e-8) == 1

    def test_nll_trace_strictly_decreasing(self):
        T, N = 10, 200
        theta = 0.8 ** np.arange(1, T + 1)
        d, _ = _dataset_from_theta(theta, 1, 1, T, N, seed=22, noise_std=0.3)
        res = ssr_fit(d, T, 1)
        nlls = [s.nll for s in res.trace]
        assert all(b < a for a, b in zip(nlls, nlls[1:]))
        assert res.iterations <= SsrOptions().max_iter

    def test_lambda1_forced_to_zero_matches_l2_only_path(self):
        T, N = 8, 150
        theta = 0.6 ** np.arange(1, T + 1)
        d, _ = _dataset_from_theta(theta, 1, 1, T, N, seed=23, noise_std=0.2)
        res = ssr_fit(d, T, 1)
        # the smoothness-only path: lambda2 tuned with the rank penalty off,
        # then the engine's closed-form estimate at lambda1 = 0
        K = assemble_prior(res.ss.kernel)
        ws = _Workspace(d, K, res.sigma, res.spec)
        lam2_star, _ = _l2_only_lambda2(ws)
        assert res.lambda2_floor == pytest.approx(LAMBDA2_FLOOR_RATIO * lam2_star, rel=1e-12)
        oracle = stacked_ls(d, lam2_star * np.linalg.inv(K), res.sigma, T)
        np.testing.assert_allclose(ws.map(None, 0.0, lam2_star), oracle, rtol=1e-4, atol=1e-8)

    def test_too_short_record_rejected_before_baseline(self, monkeypatch):
        def no_baseline(*args, **kwargs):
            raise AssertionError("baseline fitted before the sample-count check")

        monkeypatch.setattr("hankelssr.estimators.ssr.ss_estimate", no_baseline)
        rng = np.random.default_rng(25)
        d = Dataset(u=rng.standard_normal(15), y=rng.standard_normal(15))
        with pytest.raises(ValueError, match="ssr needs at least 16 samples, got 15"):
            ssr_fit(d, 4, 1)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_precomputed_baseline_gives_the_same_fit(self, monkeypatch, weighted):
        T, N = 10, 200
        decay = 0.8 ** np.arange(1, T + 1)
        theta = np.concatenate([decay, -0.5 * decay])
        d, _ = _dataset_from_theta(theta, 2, 1, T, N, seed=26, noise_std=0.3)
        opts = SsrOptions(weighted=weighted)
        own = ssr_fit(d, T, 1, opts)
        baseline = ss_estimate(d, 1, T)

        def no_refit(*args, **kwargs):
            raise AssertionError("ssr_fit refitted the baseline it was given")

        monkeypatch.setattr("hankelssr.estimators.ssr.ss_estimate", no_refit)
        reused = ssr_fit(d, T, 1, opts, baseline=baseline)
        assert reused.ss is baseline
        np.testing.assert_array_equal(reused.ir.theta, own.ir.theta)
        assert [s.nll for s in reused.trace] == [s.nll for s in own.trace]
        assert [(s.hyper.lambda1, s.hyper.lambda2) for s in reused.trace] == [
            (s.hyper.lambda1, s.hyper.lambda2) for s in own.trace
        ]

    def test_mismatched_baseline_rejected(self):
        T, N = 8, 150
        decay = 0.6 ** np.arange(1, T + 1)
        siso, _ = _dataset_from_theta(decay, 1, 1, T, N, seed=27, noise_std=0.2)
        mimo, _ = _dataset_from_theta(np.tile(decay, 2), 2, 1, T, N, seed=28, noise_std=0.2)
        two_in, _ = _dataset_from_theta(np.tile(decay, 2), 1, 2, T, N, seed=29, noise_std=0.2)
        baseline = ss_estimate(siso, 1, T)
        cases = [
            (siso, T, 2, "order=1, got order=2"),
            (siso, T + 2, 1, f"T={T}, got T={T + 2}"),
            (mimo, T, 1, "p=1, got p=2"),
            (two_in, T, 1, "m=1, got m=2"),
        ]
        for d, t, order, message in cases:
            with pytest.raises(ValueError, match=f"baseline was fitted for {message}"):
                ssr_fit(d, t, order, baseline=baseline)

    def test_final_lambda2_respects_floor(self):
        T, N = 8, 150
        theta = 0.6 ** np.arange(1, T + 1)
        d, _ = _dataset_from_theta(theta, 1, 1, T, N, seed=24, noise_std=0.2)
        res = ssr_fit(d, T, 1)
        assert res.trace[-1].hyper.lambda2 >= res.lambda2_floor


class TestSparsitySurrogateRanking:
    def test_log_sum_ranks_like_support_size(self):
        # floor-regularized log-magnitude sum orders equal-magnitude vectors
        # exactly like their support size, for magnitudes above the floor
        floor = 1e-12
        for magnitude in (0.5, 2.0):
            values = []
            for support in range(6):
                x = np.zeros(5)
                x[:support] = magnitude
                values.append(float(np.sum(np.log(x**2 + floor))))
            assert values == sorted(values)
            assert len(set(values)) == len(values)
