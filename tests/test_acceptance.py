"""Acceptance suite: quantitative benchmark reproductions (scaled to 20 runs)
plus the exact property checks.  Run with `pytest tests/test_acceptance.py -v`;
a per-criterion PASS/FAIL summary is printed at the end of the session.
"""
import json
import math
import time

import numpy as np
import pytest

from hankelssr import Dataset, ImpulseResponse, fit_metric, ssr_fit
from hankelssr.core import (
    build_hankel,
    make_hankel_spec,
    predict_outputs,
    weighted_hankel,
)
from hankelssr.cli import main
from hankelssr.estimators.ssr import (
    q_saturation,
    rank_penalty_matrix,
    ssr_negative_log_ml,
    update_q,
)
from hankelssr.harness import aggregate, run_study
from hankelssr.kernels import KernelModel, assemble_prior
from hankelssr.simulation import ScenarioConfig, _random_stable_system, scenario_s1, simulate_oe
from oracles import (
    dense_evidence,
    engine_map,
    map_from_precision,
    numerical_rank,
    precision,
    stacked_ls,
    variational_bound_check,
)

WORKERS = 2
STUDY_SEED = 1


def _s1_sized_case():
    """Scenario s1's shape (p=3, T=80, first-order kernel) with per-output
    kernel scales as far apart as an s1 fit finds them, so cond K > 1e10."""
    N, T = 200, 80
    system, u = scenario_s1(N, seed=106)
    d = simulate_oe(system, u, (1.0, 4.0), seed=107)
    spec = make_hankel_spec(T, 3, 1)
    km = KernelModel(
        order=1, T=T, p=3, m=1, alphas=[0.84, 0.84, 0.9], scales=[60.0, 0.4, 1000.0]
    )
    K = assemble_prior(km)
    assert np.linalg.cond(K) >= 1e10
    Q = update_q(system.impulse_response(T), spec, N)
    return d, spec, K, np.array([3.0, 0.04, 425.0]), Q


S1_LAMBDAS = [(0.0, 0.02), (4.0, 0.02)]


def _medians(reports, names):
    summary = aggregate(reports)
    return {name: summary[name]["median"] for name in names}


@pytest.fixture(scope="module")
def study_s1():
    config = ScenarioConfig.default("s1", runs=20, seed=STUDY_SEED)
    start = time.perf_counter()
    reports = run_study(config, ["ss", "ssr"], workers=WORKERS)
    elapsed = time.perf_counter() - start
    return reports, elapsed


@pytest.fixture(scope="module")
def study_s2():
    config = ScenarioConfig.default("s2", runs=20, seed=STUDY_SEED)
    return run_study(config, ["ss", "ssr"], workers=WORKERS)


@pytest.fixture(scope="module")
def study_s3():
    config = ScenarioConfig.default("s3", runs=20, seed=STUDY_SEED)
    return run_study(config, ["ss", "ssr", "atom"], workers=WORKERS)


class TestCriterion01S1Medians:
    def test_s1_benchmark(self, study_s1):
        reports, elapsed = study_s1
        med = _medians(reports, ["ss", "ssr"])
        assert 70.0 <= med["ss"] <= 90.0
        assert med["ssr"] - med["ss"] >= 2.0
        assert elapsed <= 1800.0  # 30 minutes


class TestCriterion02S2Medians:
    def test_s2_benchmark(self, study_s2):
        med = _medians(study_s2, ["ss", "ssr"])
        assert med["ssr"] >= med["ss"]
        assert med["ss"] >= 75.0 and med["ssr"] >= 75.0


class TestCriterion03S3Orderings:
    def test_s3_benchmark(self, study_s3):
        med = _medians(study_s3, ["ss", "ssr", "atom"])
        assert med["ssr"] >= med["ss"] - 2.0
        assert med["atom"] < med["ss"]


class TestCriterion04TraceIdentity:
    def test_fifty_random_instances(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            p = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            T = int(rng.integers(3, 10))
            base = make_hankel_spec(T, p, m)
            W1 = rng.standard_normal((base.c * m, base.c * m)) + 2 * np.eye(base.c * m)
            W2 = rng.standard_normal((base.r * p, base.r * p)) + 2 * np.eye(base.r * p)
            spec = make_hankel_spec(T, p, m, base.r, base.c, W1, W2)
            theta = rng.standard_normal(spec.theta_dim)
            ir = ImpulseResponse(p=p, m=m, T=T, theta=theta)
            q = rng.standard_normal((base.r * p, base.r * p))
            Q = q @ q.T + np.eye(base.r * p)
            Ht = weighted_hankel(ir, spec)
            lhs = float(theta @ rank_penalty_matrix(Q, spec) @ theta)
            rhs = float(np.trace(Ht @ Ht.T @ Q))
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestCriterion05VariationalBound:
    def test_equality_and_strict_inequality(self):
        rng = np.random.default_rng(101)
        spec = make_hankel_spec(9, 2, 1)  # 6 rows vs 7 columns: full row rank
        theta = rng.standard_normal(spec.theta_dim)
        ir = ImpulseResponse(p=2, m=1, T=9, theta=theta)
        lhs, rhs = variational_bound_check(ir, spec)
        assert rhs == pytest.approx(lhs, abs=1e-9 * max(1.0, abs(lhs)))
        rp = spec.r * spec.p
        for _ in range(100):
            q = rng.standard_normal((rp, rp))
            psi = q @ q.T + 0.1 * np.eye(rp)
            lhs2, rhs2 = variational_bound_check(ir, spec, psi=psi)
            assert rhs2 > lhs2


class TestCriterion06MapEstimateOracle:
    def test_twenty_instances(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            p = int(rng.integers(1, 3))
            m = int(rng.integers(1, 3))
            T = int(rng.integers(2, 9))
            N = int(rng.integers(T + 2, 41))
            u = rng.standard_normal((N, m))
            y = rng.standard_normal((N, p))
            d = Dataset(u=u, y=y)
            sigma = rng.uniform(0.2, 3.0, size=p)
            a = rng.standard_normal((T * m * p, T * m * p))
            A = a @ a.T + T * m * p * np.eye(T * m * p)
            got = map_from_precision(d, A, sigma)
            oracle = stacked_ls(d, A, sigma, T)
            np.testing.assert_allclose(got, oracle, rtol=1e-8, atol=1e-10)

    def test_s1_sized_prior_against_stacked_ls(self):
        d, spec, K, sigma, Q = _s1_sized_case()
        for lam1, lam2 in S1_LAMBDAS:
            got = engine_map(d, Q, lam1, lam2, K, sigma, spec)
            oracle = stacked_ls(d, precision(Q, lam1, lam2, K, spec), sigma, spec.T)
            np.testing.assert_allclose(got, oracle, rtol=1e-8, atol=1e-10)


class TestCriterion07EvidenceLemmaVsDense:
    def test_lemma_matches_dense(self):
        rng = np.random.default_rng(103)
        for _ in range(12):
            p = int(rng.integers(1, 3))
            N = int(rng.integers(10, 150 // p + 1))
            T = int(rng.integers(3, 8))
            u = rng.standard_normal((N, 1))
            y = rng.standard_normal((N, p))
            d = Dataset(u=u, y=y)
            spec = make_hankel_spec(T, p, 1)
            km = KernelModel(
                order=1, T=T, p=p, m=1,
                alphas=rng.uniform(0.5, 0.95, p), scales=rng.uniform(0.5, 2.0, p),
            )
            K = assemble_prior(km)
            sigma = rng.uniform(0.3, 2.0, p)
            q = rng.standard_normal((spec.r * p, spec.r * p))
            Q = q @ q.T + np.eye(spec.r * p)
            lam1 = float(rng.uniform(0.0, 5.0))
            lam2 = float(rng.uniform(0.1, 3.0))
            a = ssr_negative_log_ml(d, Q, lam1, lam2, K, sigma, spec)
            b = dense_evidence(d, precision(Q, lam1, lam2, K, spec), sigma, T)
            assert a == pytest.approx(b, rel=1e-8)

    def test_s1_sized_prior_against_dense(self):
        d, spec, K, sigma, Q = _s1_sized_case()
        for lam1, lam2 in S1_LAMBDAS:
            a = ssr_negative_log_ml(d, Q, lam1, lam2, K, sigma, spec)
            b = dense_evidence(d, precision(Q, lam1, lam2, K, spec), sigma, spec.T)
            assert a == pytest.approx(b, rel=1e-8)


class TestCriterion08FitLoop:
    def _dataset(self, theta, N, seed, noise_std):
        T = len(theta)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((N, 1))
        ir = ImpulseResponse(p=1, m=1, T=T, theta=theta)
        z = predict_outputs(Dataset(u=u, y=np.zeros((N, 1))), ir)
        y = z + noise_std * rng.standard_normal((N, 1))
        return Dataset(u=u, y=y), ir

    def test_trace_decreases_and_terminates(self):
        rng = np.random.default_rng(104)
        for seed in range(10):
            T = int(rng.integers(8, 16))
            theta = rng.standard_normal(T) * 0.7 ** np.arange(1, T + 1)
            d, _ = self._dataset(theta, 200, seed, noise_std=0.3)
            res = ssr_fit(d, T, 1)
            nlls = [s.nll for s in res.trace]
            assert all(b < a for a, b in zip(nlls, nlls[1:]))
            assert res.iterations <= 30

    def test_noiseless_rank_recovery(self):
        k = np.arange(1, 25)
        rank1 = 1.5 * 0.7**k
        rank2 = 1.0 * 0.8**k + 0.7 * 0.4**k
        for true_rank, theta in [(1, rank1), (2, rank2)]:
            d, ir = self._dataset(theta, 500, 200 + true_rank, noise_std=0.0)
            res = ssr_fit(d, len(theta), 1)
            H = build_hankel(res.ir, res.spec)
            assert numerical_rank(H, 1e-8) == true_rank
            assert fit_metric(res.ir, ir) >= 99.0


class TestCriterion09HankelMcMillanRank:
    @staticmethod
    def _has_full_mcmillan_degree(sys) -> bool:
        # Independent minimality check through the eigen-residue expansion
        # g(k) = sum_i resid_i lam_i^(k-1): every mode must be genuinely
        # present and separated, otherwise the true McMillan degree is
        # numerically lower than the state dimension.
        lam, V = np.linalg.eig(sys.A)
        CV = sys.C.astype(complex) @ V
        VB = np.linalg.solve(V, sys.B.astype(complex))
        resid = np.array(
            [np.linalg.norm(np.outer(CV[:, i], VB[i])) for i in range(len(lam))]
        )
        if resid.min() < 1e-2 * resid.max():
            return False
        if np.abs(lam).min() < 0.1:
            return False
        if len(lam) > 1:
            sep = min(
                abs(lam[i] - lam[j])
                for i in range(len(lam))
                for j in range(i + 1, len(lam))
            )
            if sep < 0.05:
                return False
        return True

    def test_twenty_random_systems(self):
        rng = np.random.default_rng(105)
        done = 0
        while done < 20:
            order = int(rng.integers(1, 5))
            sys = _random_stable_system(order, 0.85, int(rng.integers(1, 3)), 1, rng)
            if not self._has_full_mcmillan_degree(sys):
                continue
            T = max(20, 2 * order + 2)
            ir = sys.impulse_response(T)
            spec = make_hankel_spec(T, sys.p, sys.m)
            H = build_hankel(ir, spec)
            assert numerical_rank(H, 1e-8) == order
            done += 1


class TestCriterion10ThresholdArithmetic:
    def test_constants_for_n500_c3(self):
        threshold, nu = q_saturation(500, 3)
        # frozen from the formulas with natural logarithms:
        # sqrt(3 * ln(ln 500) / 500) and 10 * 500 / (3 * ln(ln 500))
        assert f"{threshold:.4g}" == "0.1047"
        assert f"{nu:.4g}" == "912.3"
        assert threshold == pytest.approx(0.1046968, abs=5e-8)
        assert nu == pytest.approx(912.2909, abs=5e-4)


class TestCriterion11FitMetricExamples:
    def test_tagged_examples(self):
        truth = ImpulseResponse(p=1, m=1, T=2, theta=[1.0, 0.0])
        assert fit_metric(truth, truth) == 100.0
        mean_est = ImpulseResponse(p=1, m=1, T=2, theta=[0.5, 0.5])
        assert fit_metric(mean_est, truth) == pytest.approx(0.0, abs=1e-12)
        zero_est = ImpulseResponse(p=1, m=1, T=2, theta=[0.0, 0.0])
        val = fit_metric(zero_est, truth)
        assert round(val, 2) == -41.42
        assert val == pytest.approx(100.0 * (1.0 - math.sqrt(2.0)), abs=1e-12)


class TestCriterion12BenchmarkDeterminism:
    @staticmethod
    def _strip_wall_ms(csv_text: str) -> str:
        # wall-clock timing is the one legitimately nondeterministic column
        rows = [line.split(",") for line in csv_text.splitlines()]
        keep = [row[:5] + row[6:] for row in rows]
        return "\n".join(",".join(row) for row in keep)

    def test_identical_across_worker_counts(self, tmp_path):
        args = [
            "benchmark",
            "--scenario",
            "s2",
            "--runs",
            "3",
            "--n",
            "150",
            "--t",
            "10",
            "--seed",
            "5",
            "--estimators",
            "ss,ssr",
        ]
        out1, out2 = tmp_path / "w1", tmp_path / "w4"
        assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(args + ["--workers", "4", "--out", str(out2)]) == 0
        csv1 = self._strip_wall_ms((out1 / "study_s2.csv").read_text())
        csv2 = self._strip_wall_ms((out2 / "study_s2.csv").read_text())
        assert csv1 == csv2
        assert (out1 / "summary_s2.json").read_bytes() == (
            out2 / "summary_s2.json"
        ).read_bytes()
        # the summary carries no timing, so the byte comparison is exact
        assert json.loads((out1 / "summary_s2.json").read_text())["ss"]["n"] == 3
