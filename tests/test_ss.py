import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from hankelssr import Dataset, ImpulseResponse, core, ss_estimate
from hankelssr.core import predict_outputs, regressor_block
from hankelssr.estimators.ss import (
    ALPHA_BOX,
    LOG_SPAN,
    _ChannelData,
    _SeedGrid,
    _channel_fit,
    _fit_channel,
    _gram_chol,
    _inputs_block,
    _moment_init,
    estimate_noise_variance,
    ss_negative_log_ml,
)
from hankelssr.harness import run_seed
from hankelssr.kernels import _stable_spline_gram_dalpha, stable_spline_gram
from hankelssr.simulation import ScenarioConfig, make_scenario_data
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


class TestChannelSearch:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 2),
        T=st.integers(2, 10),
        order=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**16),
        alpha_t=st.floats(0.0, 1.0),
        ln_scale=st.floats(-4.0, 4.0),
        ln_sigma=st.floats(-4.0, 4.0),
    )
    def test_gradient_matches_central_differences(
        self, m, T, order, seed, alpha_t, ln_scale, ln_sigma
    ):
        # gradient in (alpha, ln scale, ln sigma) over the whole search box,
        # to 1e-5 relative with a floor of 1
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((30, m))
        phi = regressor_block(u, T)
        ch = _ChannelData(phi, phi.T @ phi, rng.standard_normal(30))
        a_lo, a_hi = ALPHA_BOX[order]
        alpha = a_lo + alpha_t * (a_hi - a_lo)

        def f(a, ls, lg):
            return _channel_fit(ch, _gram_chol(order, a, T, m), math.exp(ls), math.exp(lg))[0]

        _, _, gradient = _channel_fit(
            ch, _gram_chol(order, alpha, T, m), math.exp(ln_scale), math.exp(ln_sigma)
        )
        analytic = gradient(_inputs_block(_stable_spline_gram_dalpha(order, alpha, T), m))
        ha, h = 1e-6, 1e-5
        numeric = np.array([
            (f(alpha + ha, ln_scale, ln_sigma) - f(alpha - ha, ln_scale, ln_sigma)) / (2 * ha),
            (f(alpha, ln_scale + h, ln_sigma) - f(alpha, ln_scale - h, ln_sigma)) / (2 * h),
            (f(alpha, ln_scale, ln_sigma + h) - f(alpha, ln_scale, ln_sigma - h)) / (2 * h),
        ])
        assert np.all(np.abs(analytic - numeric) <= 1e-5 * np.maximum(np.abs(numeric), 1.0))

    @pytest.mark.parametrize("order, m, seed", [(1, 1, 0), (2, 1, 1), (1, 2, 2), (2, 2, 3)])
    def test_no_worse_than_grid(self, order, m, seed):
        # the channel search's evidence is at least as good as the best
        # point of a 15-point-per-axis grid over its (alpha, log10 scale,
        # log10 sigma) box
        T, N = 8, 60
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((N, m))
        g = np.concatenate([0.7 ** np.arange(1, T + 1), -0.5 * 0.5 ** np.arange(1, T + 1)][:m])
        ir = ImpulseResponse(p=1, m=m, T=T, theta=g)
        y = predict_outputs(Dataset(u=u, y=np.zeros((N, 1))), ir)[:, 0]
        phi = regressor_block(u, T)
        ch = _ChannelData(phi, phi.T @ phi, y + 0.3 * rng.standard_normal(N))
        grid = _SeedGrid(ch.C, N, order, T, m)
        alpha, scale, sigma, converged, _ = _fit_channel(ch, grid)
        found = _channel_fit(ch, _gram_chol(order, alpha, T, m), scale, sigma)[0]
        ls0, lg0 = (math.log10(v) for v in _moment_init(ch, grid))
        best = np.inf
        for a in np.linspace(*ALPHA_BOX[order], 15):
            L = _gram_chol(order, a, T, m)
            for ls in np.linspace(ls0 - LOG_SPAN, ls0 + LOG_SPAN, 15):
                for lg in np.linspace(lg0 - LOG_SPAN, lg0 + LOG_SPAN, 15):
                    best = min(best, _channel_fit(ch, L, 10.0**ls, 10.0**lg)[0])
        assert converged
        assert found <= best


class TestChannelProbe:
    @staticmethod
    def _channel(m=2, T=6, seed=33):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((40, m))
        phi = regressor_block(u, T)
        return _ChannelData(phi, phi.T @ phi, rng.standard_normal(40))

    def test_one_factorization_per_probe(self, monkeypatch):
        # _gram_chol is one T x T Cholesky, a value probe one tm x tm
        # Cholesky, whichever LAPACK entry point computes it, and its
        # gradient adds one triangular inverse of that factor and nothing else
        order, T, m = 1, 6, 2
        ch = self._channel(m, T)
        dK = _inputs_block(_stable_spline_gram_dalpha(order, 0.8, T), m)
        calls = []
        for module, name, label in [
            (np.linalg, "cholesky", "cholesky"), (linalg, "cholesky", "cholesky"),
            (linalg, "cho_factor", "cholesky"), (linalg.lapack, "dpotrf", "cholesky"),
            (np.linalg, "eigh", "eig"), (np.linalg, "eigvalsh", "eig"), (linalg, "eigh", "eig"),
            (np.linalg, "inv", "inverse"), (linalg, "inv", "inverse"),
            (linalg.lapack, "dpotri", "inverse"), (linalg.lapack, "dtrtri", "inverse"),
        ]:
            original = getattr(module, name)

            def counted(*args, _original=original, _label=label, **kwargs):
                calls.append(_label)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        L = _gram_chol(order, 0.8, T, m)
        assert calls == ["cholesky"]
        _, posterior_mean, gradient = _channel_fit(ch, L, 1.5, 0.4)
        assert calls == ["cholesky"] * 2
        posterior_mean()
        assert calls == ["cholesky"] * 2
        gradient(dK)
        assert calls == ["cholesky"] * 2 + ["inverse"]

    def test_probe_leaves_its_inputs_unchanged(self):
        # the probe factors in a buffer of its own: the channel's C and b,
        # the kernel factor L and dK stay byte-equal, and a repeated probe
        # returns the same bits
        order, T, m = 2, 6, 2
        ch = self._channel(m, T)
        L = _gram_chol(order, 0.8, T, m)
        dK = _inputs_block(_stable_spline_gram_dalpha(order, 0.8, T), m)
        held = [ch.C, ch.b, L, dK]
        before = [a.tobytes() for a in held]
        results = []
        for _ in range(2):
            nll, posterior_mean, gradient = _channel_fit(ch, L, 1.5, 0.4)
            results.append((nll, posterior_mean(), gradient(dK), posterior_mean()))
        first, again = results
        assert first[0] == again[0]
        for a, b in zip(first[1:], again[1:]):
            assert np.array_equal(a, b)
        assert np.array_equal(first[1], first[3])  # the gradient left the factor alone
        assert [a.tobytes() for a in held] == before

    def test_non_finite_evidence_is_a_failed_probe(self):
        ch = self._channel()
        ch.yy = np.inf
        with pytest.raises(FloatingPointError):
            _channel_fit(ch, _gram_chol(1, 0.8, 6, 2), 1.5, 0.4)


def _count_factorizations(monkeypatch) -> list[str]:
    """Record every Cholesky, eigendecomposition and inverse, whichever
    numpy/scipy/LAPACK entry point computes it."""
    calls = []
    for module, name, label in [
        (np.linalg, "cholesky", "cholesky"), (linalg, "cholesky", "cholesky"),
        (linalg, "cho_factor", "cholesky"), (linalg.lapack, "dpotrf", "cholesky"),
        (np.linalg, "eigh", "eig"), (np.linalg, "eigvalsh", "eig"), (linalg, "eigh", "eig"),
        (linalg.lapack, "dsyevd", "eig"), (linalg.lapack, "dsyevr", "eig"),
        (np.linalg, "inv", "inverse"), (linalg, "inv", "inverse"),
        (linalg.lapack, "dpotri", "inverse"), (linalg.lapack, "dtrtri", "inverse"),
    ]:
        original = getattr(module, name)

        def counted(*args, _original=original, _label=label, **kwargs):
            calls.append(_label)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def _s1_run0() -> Dataset:
    cfg = ScenarioConfig.default("s1", runs=1, seed=1)
    return make_scenario_data(cfg, *run_seed(cfg.seed, cfg.scenario, 0).spawn(2))[1]


class TestSeedGrid:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 3),
        T=st.integers(1, 12),
        N=st.integers(16, 60),
        order=st.sampled_from([1, 2]),
        data=st.sampled_from(["noisy", "zero input", "constant input", "zero output", "noiseless"]),
        seed=st.integers(0, 2**16),
    )
    def test_spectral_values_match_the_cholesky_probe(self, m, T, N, order, data, seed):
        # at all 27 seed points the O(tm) spectral evidence equals
        # _channel_fit's to 1e-9 relative with a floor of 1, with the same
        # failed points and the same best point
        rng = np.random.default_rng(seed)
        if data == "zero input":
            u = np.zeros((N, m))
        elif data == "constant input":
            u = np.full((N, m), rng.standard_normal())
        else:
            u = rng.standard_normal((N, m))
        phi = regressor_block(u, T)
        if data == "zero output":
            y = np.zeros(N)
        elif data == "noiseless":
            y = phi @ rng.standard_normal(T * m)
        else:
            y = rng.standard_normal(N)
        ch = _ChannelData(phi, phi.T @ phi, y)
        grid = _SeedGrid(ch.C, N, order, T, m)
        ls0, lg0 = (math.log10(v) for v in _moment_init(ch, grid))
        points = grid.points(ch, ls0, lg0)
        a_lo, a_hi = ALPHA_BOX[order]
        assert [x for _, x in points] == [
            [a, ls0 + ds, lg0 + dg]
            for a in (max(a_lo, 0.6), 0.8, min(a_hi, 0.95))
            for ds in (-2.0, 0.0, 2.0)
            for dg in (-2.0, 0.0, 1.0)
        ]
        spectral = np.array([f for f, _ in points])
        probed = []
        for _, (a, ls, lg) in points:
            try:
                probed.append(_channel_fit(ch, _gram_chol(order, a, T, m), 10.0**ls, 10.0**lg)[0])
            except (np.linalg.LinAlgError, FloatingPointError):
                probed.append(np.inf)
        probed = np.array(probed)
        finite = np.isfinite(probed)
        assert np.array_equal(np.isfinite(spectral), finite)
        err = np.abs(spectral[finite] - probed[finite])
        assert np.all(err <= 1e-9 * np.maximum(np.abs(probed[finite]), 1.0))
        assert np.argmin(spectral) == np.argmin(probed)

    @pytest.mark.parametrize("p", [1, 3])
    def test_three_eigendecompositions_per_dataset(self, p, monkeypatch):
        # the seed grid factors the kernel and eigendecomposes L'CL once per
        # grid decay, whatever the number of outputs; its 27 points per
        # channel factor nothing, and every search probe and final fit is
        # one Cholesky of the kernel and one of M, with no eigendecomposition
        d = _s1_run0()
        d = Dataset(u=d.u, y=d.y[:, :p])
        calls = _count_factorizations(monkeypatch)
        res = ss_estimate(d, 1, 20)
        assert calls[:6] == ["cholesky", "eig"] * 3
        assert "eig" not in calls[6:]
        assert calls.count("cholesky") == 3 + 2 * (res.evidence_evals - 27 * p)

    def test_s1_evidence_evals_pinned(self):
        # s1, seed 1, run 0: 27 grid points, the search probes and one final
        # evaluation per channel
        assert ss_estimate(_s1_run0(), 1, 80).evidence_evals == 136


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

    def test_converges_within_eval_budget_on_s1(self):
        # s1, seed 1, run 0: every channel search meets its tolerance
        cfg = ScenarioConfig.default("s1", runs=1, seed=1)
        _, d = make_scenario_data(cfg, *run_seed(cfg.seed, cfg.scenario, 0).spawn(2))
        res = ss_estimate(d, cfg.kernel_order, cfg.t)
        assert res.converged is True
        assert 0 < res.evidence_evals < 200

    def test_every_s3_seed1_fit_converges_at_the_same_point(self, monkeypatch):
        # run 15's channel search ends in a failed line search at its optimum
        # (projected gradient 1.1e-4 on an nll of 684): converged by the
        # relative gradient test, and the point is the one scipy's success
        # flag alone would give
        cfg = ScenarioConfig.default("s3", runs=20, seed=1)
        data = [
            make_scenario_data(cfg, *run_seed(cfg.seed, cfg.scenario, k).spawn(2))[1]
            for k in range(cfg.runs)
        ]
        fits = [ss_estimate(d, cfg.kernel_order, cfg.t) for d in data]
        assert [res.converged for res in fits] == [True] * cfg.runs
        monkeypatch.setattr(core, "_projected_gradient", lambda x, g, bounds: np.inf)
        for d, res in zip(data, fits):
            old = ss_estimate(d, cfg.kernel_order, cfg.t)
            assert old.ir.theta.tobytes() == res.ir.theta.tobytes()

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
