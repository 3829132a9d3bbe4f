import json

import numpy as np
import pytest

import hankelssr.harness as H
from hankelssr.estimators.ss import ss_estimate
from hankelssr.harness import (
    RunReport,
    aggregate,
    blas_threads,
    completeness,
    run_seed,
    run_single,
    run_study,
    validate_estimators,
    write_reports_csv,
    write_summary_json,
)
from hankelssr.simulation import ScenarioConfig


def _tiny_config(scenario="s2", **kw):
    # scaled-down runs keep the unit suite fast; acceptance covers full size
    defaults = dict(n=120, t=10, runs=1, seed=3)
    defaults.update(kw)
    return ScenarioConfig.default(scenario, **{k: v for k, v in defaults.items()})


class TestSeeding:
    def test_distinct_runs_get_distinct_seeds(self):
        seeds = {run_seed(1, "s1", k).generate_state(1)[0] for k in range(50)}
        assert len(seeds) == 50

    def test_scenarios_are_decoupled(self):
        a = run_seed(1, "s1", 0).generate_state(4)
        b = run_seed(1, "s2", 0).generate_state(4)
        assert not np.array_equal(a, b)

    def test_reproducible(self):
        a = run_seed(7, "s3", 5).generate_state(4)
        b = run_seed(7, "s3", 5).generate_state(4)
        np.testing.assert_array_equal(a, b)


class TestRunStudy:
    def test_single_run_single_estimator(self):
        reports = run_study(_tiny_config(), ["ss"])
        assert len(reports) == 1
        rep = reports[0]
        assert set(rep.fits) == {"ss"}
        assert rep.fits["ss"] <= 100.0
        assert rep.errors == {}

    def test_same_seed_identical_reports(self):
        cfg = _tiny_config(runs=2)
        a = run_study(cfg, ["ss"])
        b = run_study(cfg, ["ss"])
        for ra, rb in zip(a, b):
            assert ra.fits == rb.fits
            assert ra.seed == rb.seed

    def test_worker_count_does_not_change_results(self):
        # The s1-sized study (p=3, T=80, N=500) is large enough for OpenBLAS
        # to thread, so it differs unless both paths use one BLAS thread.
        studies = [
            (_tiny_config(runs=3), ["ss"]),
            (ScenarioConfig.default("s1", runs=2, seed=1), ["ss", "ssr"]),
        ]
        for cfg, names in studies:
            serial = run_study(cfg, names, workers=1)
            parallel = run_study(cfg, names, workers=2)
            for rs, rp in zip(serial, parallel):
                assert rs.fits == rp.fits
                for cells in ("iters", "lambda1", "lambda2", "nll"):
                    assert getattr(rs, cells) == getattr(rp, cells)

    def test_one_blas_thread_per_study_process(self, monkeypatch):
        if not blas_threads():
            pytest.skip("neither numpy nor scipy bundles OpenBLAS here")
        caller = blas_threads(2)
        try:
            # forked workers inherit the patched run_single
            monkeypatch.setattr(
                H, "run_single", lambda config, k, names: RunReport(
                    config.scenario, k, 0, fits=blas_threads())
            )
            cfg = _tiny_config(runs=3)
            for workers in (1, 2):
                reports = run_study(cfg, ["ss"], workers=workers)
                for rep in reports:
                    assert set(rep.fits) == {"numpy", "scipy"}
                    assert set(rep.fits.values()) == {1}
                assert blas_threads() == {"numpy": 2, "scipy": 2}

            def fail(config, k, names):
                raise RuntimeError("synthetic failure")

            monkeypatch.setattr(H, "run_single", fail)
            with pytest.raises(RuntimeError):
                run_study(cfg, ["ss"], workers=1)
            assert blas_threads() == {"numpy": 2, "scipy": 2}
        finally:
            blas_threads(caller)

    def test_ssr_reuses_the_runs_ss_fit_exactly(self, monkeypatch):
        cfg = _tiny_config(n=150, t=8)
        alone = {name: run_single(cfg, 0, [name]) for name in ("ssr", "ssr-weighted")}
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return ss_estimate(*args, **kwargs)

        monkeypatch.setattr(H, "ss_estimate", counted)
        monkeypatch.setattr("hankelssr.estimators.ssr.ss_estimate", counted)
        shared = run_single(cfg, 0, ["ss", "ssr", "ssr-weighted"])
        assert len(calls) == 1  # both ssr fits start from the run's ss fit
        for name, own in alone.items():
            assert shared.fits[name] == own.fits[name]
            for cells in ("iters", "lambda1", "lambda2", "nll"):
                assert getattr(shared, cells)[name] == getattr(own, cells)[name]

    def test_smoke_with_ssr_trace(self):
        cfg = _tiny_config(runs=2, n=150, t=8)
        reports = run_study(cfg, ["ss", "ssr"])
        assert len(reports) == 2
        for rep in reports:
            assert set(rep.fits) == {"ss", "ssr"}
            assert rep.iters["ssr"] >= 0
            assert rep.lambda2["ssr"] > 0
            assert np.isfinite(rep.nll["ssr"])

    def test_estimator_validation(self):
        with pytest.raises(ValueError):
            validate_estimators(["nope"], "s1")
        with pytest.raises(ValueError, match="SISO"):
            validate_estimators(["atom"], "s1")
        assert validate_estimators(["ss", "atom"], "s3") == ["ss", "atom"]

    def test_failures_recorded_not_raised(self, monkeypatch):
        def boom(name, dataset, T, order, baseline):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(H, "fit_estimator", boom)
        reports = run_study(_tiny_config(), ["ss"])
        assert reports[0].fits == {}
        assert "ss" in reports[0].errors
        assert completeness(reports, ["ss"]) == 0.0


class TestAggregate:
    def _reports(self, fits):
        out = []
        for k, f in enumerate(fits):
            out.append(RunReport(scenario="s1", run=k, seed=k, fits={"ss": f}))
        return out

    def test_three_values(self):
        summary = aggregate(self._reports([1.0, 2.0, 3.0]))["ss"]
        assert summary["median"] == 2.0
        assert summary["q1"] == 1.5
        assert summary["q3"] == 2.5
        assert summary["n"] == 3
        assert summary["outliers"] == []

    def test_single_report(self):
        summary = aggregate(self._reports([42.0]))["ss"]
        assert summary["median"] == 42.0
        assert summary["lo_whisker"] == 42.0
        assert summary["hi_whisker"] == 42.0
        assert summary["outliers"] == []

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        fits = list(rng.standard_normal(25) * 10 + 70)
        a = aggregate(self._reports(fits))
        rng.shuffle(fits)
        b = aggregate(self._reports(fits))
        assert a == b

    def test_constant_list(self):
        summary = aggregate(self._reports([5.0] * 9))["ss"]
        assert summary["median"] == 5.0
        assert summary["q1"] == 5.0
        assert summary["outliers"] == []

    def test_median_close_to_population_median(self):
        rng = np.random.default_rng(1)
        fits = list(rng.normal(70.0, 5.0, size=200))
        summary = aggregate(self._reports(fits))["ss"]
        assert abs(summary["median"] - 70.0) <= 1.0

    def test_outliers_and_whiskers(self):
        # sorted: [10, 48, 49, 50, 51, 52, 95]; q1=48.5, q3=51.5, iqr=3
        # fences at 44 and 56, so 10 and 95 are outliers
        fits = [48.0, 49.0, 50.0, 51.0, 52.0, 95.0, 10.0]
        summary = aggregate(self._reports(fits))["ss"]
        assert summary["outliers"] == [10.0, 95.0]
        assert summary["lo_whisker"] == 48.0
        assert summary["hi_whisker"] == 52.0


class TestPersistence:
    def test_csv_and_json_round_trip(self, tmp_path):
        cfg = _tiny_config(runs=2)
        reports = run_study(cfg, ["ss"])
        csv_path = tmp_path / "study.csv"
        write_reports_csv(reports, ["ss"], csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "scenario,run,seed,estimator,fit,wall_ms,iters,lambda1,lambda2,nll"
        assert len(lines) == 3
        fit_back = float(lines[1].split(",")[4])
        assert fit_back == reports[0].fits["ss"]

        summary = aggregate(reports)
        json_path = tmp_path / "summary.json"
        write_summary_json(summary, json_path)
        back = json.loads(json_path.read_text())
        assert back["ss"]["n"] == 2
        assert back["ss"]["median"] == summary["ss"]["median"]

    def test_failed_cells_left_empty(self, tmp_path):
        rep = RunReport(scenario="s1", run=0, seed=1)
        path = tmp_path / "study.csv"
        write_reports_csv([rep], ["ss"], path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[4] == "" and row[5] == ""
