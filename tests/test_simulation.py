import numpy as np
import pytest

from hankelssr import (
    Dataset,
    ImpulseResponse,
    fit_metric,
    scenario_s1,
    scenario_s2,
    scenario_s3,
    simulate_oe,
)
from hankelssr.core import build_hankel, make_hankel_spec, regressor_block
from hankelssr.simulation import (
    ScenarioConfig,
    TrueSystem,
    read_system_json,
    system_from_json,
    system_to_json,
    write_system_json,
)
from oracles import numerical_rank, spectral_radius


class TestScenarioS1:
    def test_first_coefficient(self):
        sys, _ = scenario_s1(10, 0)
        # C @ B computed directly from the fixed matrices
        np.testing.assert_allclose(sys.impulse_response(1).coefficient(1)[:, 0], [3.0, 0.0, 25.0])
        np.testing.assert_allclose(sys.C @ sys.B, [[3.0], [0.0], [25.0]])

    def test_spectral_radius(self):
        sys, _ = scenario_s1(10, 0)
        assert spectral_radius(sys) == pytest.approx(np.sqrt(0.8**2 + 0.5**2), rel=1e-12)
        assert spectral_radius(sys) < 1.0

    def test_mcmillan_degree_four(self):
        sys, _ = scenario_s1(10, 0)
        assert (sys.p, sys.m, sys.order) == (3, 1, 4)
        theta0 = sys.impulse_response(80)
        spec = make_hankel_spec(80, 3, 1)
        assert numerical_rank(build_hankel(theta0, spec)) == 4

    def test_input_is_seeded_and_sized(self):
        _, u1 = scenario_s1(200, 42)
        _, u2 = scenario_s1(200, 42)
        np.testing.assert_array_equal(u1, u2)
        assert u1.shape == (200, 1)
        assert np.isfinite(u1).all()


class TestScenarioS2:
    def test_pole_radius_constraint(self):
        for seed in range(200):
            sys, _ = scenario_s2(5, seed)
            assert spectral_radius(sys) <= 0.85 + 1e-12
            assert (sys.p, sys.m) == (3, 1)

    def test_order_distribution(self):
        orders = [scenario_s2(2, seed)[0].order for seed in range(1000)]
        counts = np.bincount(orders, minlength=11)[1:]
        assert counts.sum() == 1000
        freq = counts / 1000.0
        assert np.all(np.abs(freq - 0.1) <= 0.03)

    def test_tail_decay_supports_truncation(self):
        for seed in range(60):
            sys, _ = scenario_s2(2, seed)
            g = sys.impulse_response(50).blocks()
            norms = np.linalg.norm(g.reshape(50, -1), axis=1)
            assert norms[49] <= 1e-3 * norms.max()


class TestScenarioS3:
    def test_siso_and_order_range(self):
        for seed in range(100):
            sys, u = scenario_s3(4, seed)
            assert (sys.p, sys.m) == (1, 1)
            assert 1 <= sys.order <= 30
            assert spectral_radius(sys) < 0.95 + 1e-12

    def test_input_is_colored(self):
        lagged = 0
        for seed in range(100):
            _, u = scenario_s3(2000, seed)
            x = u[:, 0]
            x = x - x.mean()
            r1 = float(x[1:] @ x[:-1]) / float(x @ x)
            lagged += abs(r1) >= 0.05
        assert lagged >= 90


class TestSimulateOe:
    def _system(self):
        return TrueSystem(A=[[0.5]], B=[[1.0]], C=[[2.0]])

    def test_noise_free_flag(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((50, 1))
        sys = self._system()
        d1 = simulate_oe(sys, u, None)
        d2 = simulate_oe(sys, u, (np.inf, np.inf), seed=1)
        np.testing.assert_array_equal(d1.y, d2.y)

    def test_unit_impulse_reproduces_coefficients(self):
        # delay-1 convention: an impulse at t=1 puts g(k) at output time k+1
        sys, _ = scenario_s1(10, 0)
        N = 40
        u = np.zeros((N, 1))
        u[0, 0] = 1.0
        d = simulate_oe(sys, u, None)
        g = sys.impulse_response(N - 1).blocks()[:, :, 0]
        np.testing.assert_array_equal(d.y[0], 0.0)
        np.testing.assert_allclose(d.y[1:], g, atol=1e-12)

    def test_realized_snr_close_to_target(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((500, 1))
        sys, _ = scenario_s1(10, 3)
        d_clean = simulate_oe(sys, u, None)
        d = simulate_oe(sys, u, (2.0, 2.0), seed=7)
        noise = d.y - d_clean.y
        for i in range(3):
            realized = d_clean.y[:, i].std() / noise[:, i].std()
            assert abs(realized - 2.0) / 2.0 <= 0.10

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((100, 1))
        sys = self._system()
        d1 = simulate_oe(sys, u, (1.0, 4.0), seed=5)
        d2 = simulate_oe(sys, u, (1.0, 4.0), seed=5)
        np.testing.assert_array_equal(d1.y, d2.y)

    def test_end_to_end_least_squares_recovery(self):
        # noise-free, persistently exciting: plain least squares gets theta0
        rng = np.random.default_rng(3)
        T, N = 12, 400
        sys, _ = scenario_s3(4, 11)
        u = rng.standard_normal((N, 1))
        d = simulate_oe(sys, u, None)
        theta0 = sys.impulse_response(T).theta
        phi = regressor_block(d.u, T)
        ls, *_ = np.linalg.lstsq(phi, d.y[:, 0], rcond=None)
        tail = np.linalg.norm(sys.impulse_response(N).theta[T:])
        np.testing.assert_allclose(ls, theta0, atol=max(1e-6, 2 * tail))


class TestFitMetric:
    def test_perfect_fit(self):
        ir = ImpulseResponse(p=1, m=1, T=4, theta=[1.0, 0.5, 0.2, 0.1])
        assert fit_metric(ir, ir) == 100.0

    def test_mean_predictor_scores_zero(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((5, 2, 1))
        truth = ImpulseResponse.from_blocks(g)
        flat = np.empty_like(truth.theta)
        for i in range(2):
            ch = truth.channel(i, 0)
            flat[i * 5 : (i + 1) * 5] = ch.mean()
        est = ImpulseResponse(p=2, m=1, T=5, theta=flat)
        assert fit_metric(est, truth) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_example(self):
        truth = ImpulseResponse(p=1, m=1, T=2, theta=[1.0, 0.0])
        est = ImpulseResponse(p=1, m=1, T=2, theta=[0.0, 0.0])
        got = fit_metric(est, truth)
        assert got == pytest.approx(100.0 * (1.0 - 1.0 / np.sqrt(0.5)), abs=1e-12)
        assert round(got, 2) == -41.42

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        truth = ImpulseResponse(p=1, m=2, T=6, theta=rng.standard_normal(12))
        est = ImpulseResponse(p=1, m=2, T=6, theta=rng.standard_normal(12))
        base = fit_metric(est, truth)
        for s in (2.0, -3.5, 0.1):
            scaled = fit_metric(
                ImpulseResponse(p=1, m=2, T=6, theta=s * est.theta),
                ImpulseResponse(p=1, m=2, T=6, theta=s * truth.theta),
            )
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_constant_channel_excluded_with_warning(self):
        truth = ImpulseResponse(p=2, m=1, T=3, theta=[1.0, 1.0, 1.0, 1.0, 0.5, 0.2])
        est = ImpulseResponse(p=2, m=1, T=3, theta=[0.0, 0.0, 0.0, 1.0, 0.5, 0.2])
        with pytest.warns(UserWarning, match="constant"):
            val = fit_metric(est, truth)
        assert val == 100.0  # only the informative channel counts

    def test_dimension_mismatch(self):
        a = ImpulseResponse(p=1, m=1, T=3, theta=np.ones(3))
        b = ImpulseResponse(p=1, m=1, T=4, theta=np.ones(4))
        with pytest.raises(ValueError):
            fit_metric(a, b)


class TestScenarioConfig:
    def test_defaults(self):
        cfg = ScenarioConfig.default("s1", runs=5, seed=3)
        assert (cfg.n, cfg.t, cfg.kernel_order, cfg.snr) == (500, 80, 1, (1.0, 4.0))
        cfg3 = ScenarioConfig.default("s3")
        assert (cfg3.n, cfg3.t, cfg3.kernel_order, cfg3.snr) == (1000, 60, 1, (1.0, 10.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig.default("s9")
        with pytest.raises(ValueError):
            ScenarioConfig.default("s1", runs=0)
        with pytest.raises(ValueError):
            ScenarioConfig.default("s1", snr=(0.5, 4.0))


class TestSystemJson:
    def test_round_trip(self, tmp_path):
        sys, _ = scenario_s2(3, 9)
        path = tmp_path / "system.json"
        write_system_json(sys, 12, path)
        back, T = read_system_json(path)
        assert T == 12
        np.testing.assert_allclose(back.A, sys.A)
        np.testing.assert_allclose(back.B, sys.B)
        np.testing.assert_allclose(back.C, sys.C)
        doc = system_to_json(sys, 12)
        np.testing.assert_allclose(
            doc["theta0"], sys.impulse_response(12).theta
        )
        sys2, _ = system_from_json(doc)
        np.testing.assert_allclose(sys2.A, sys.A)
