import json
import re

import numpy as np
import pytest

from hankelssr import Dataset, ImpulseResponse, fit_metric, read_dataset_csv, write_dataset_csv
from hankelssr.cli import main
from hankelssr.simulation import read_system_json


def _simulate(tmp_path, scenario="s2", n=120, t=10, runs=1, seed=3):
    out = tmp_path / "data"
    code = main(
        [
            "simulate",
            "--scenario",
            scenario,
            "--n",
            str(n),
            "--t",
            str(t),
            "--runs",
            str(runs),
            "--seed",
            str(seed),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


class TestSimulateCommand:
    def test_writes_expected_files(self, tmp_path):
        out = _simulate(tmp_path, scenario="s1", n=60, t=12, seed=7)
        data = out / "s1_run000_data.csv"
        system = out / "s1_run000_system.json"
        assert data.exists() and system.exists()
        d = read_dataset_csv(data)
        assert (d.n, d.m, d.p) == (60, 1, 3)

    def test_deterministic_outputs(self, tmp_path):
        a = _simulate(tmp_path / "a", n=50, t=8, seed=9)
        b = _simulate(tmp_path / "b", n=50, t=8, seed=9)
        assert (a / "s2_run000_data.csv").read_bytes() == (
            b / "s2_run000_data.csv"
        ).read_bytes()
        assert (a / "s2_run000_system.json").read_bytes() == (
            b / "s2_run000_system.json"
        ).read_bytes()

    def test_multiple_runs_distinct_systems(self, tmp_path):
        out = _simulate(tmp_path, runs=3, seed=5)
        thetas = []
        for k in range(3):
            doc = json.loads((out / f"s2_run{k:03d}_system.json").read_text())
            thetas.append(tuple(doc["theta0"]))
        assert len(set(thetas)) == 3

    def test_unwritable_directory(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = main(
            [
                "simulate",
                "--scenario",
                "s1",
                "--n",
                "10",
                "--runs",
                "1",
                "--seed",
                "0",
                "--out",
                str(blocker / "sub"),
            ]
        )
        assert code == 2


class TestEstimateCommand:
    def test_ss_estimate_json_dimensions(self, tmp_path, capsys):
        out = _simulate(tmp_path, scenario="s1", n=150, t=12, seed=2)
        data = out / "s1_run000_data.csv"
        code = main(["estimate", "--data", str(data), "--estimator", "ss"])
        assert code == 0
        doc = json.loads((out / "s1_run000_ss_estimate.json").read_text())
        assert (doc["p"], doc["m"], doc["T"]) == (3, 1, 12)
        assert len(doc["theta"]) == 3 * 1 * 12
        assert doc["trace"] == []
        assert len(doc["sigma"]) == 3

    def test_printed_fit_matches_offline_recomputation(self, tmp_path, capsys):
        out = _simulate(tmp_path, scenario="s2", n=150, t=8, seed=4)
        data = out / "s2_run000_data.csv"
        code = main(["estimate", "--data", str(data), "--estimator", "ss"])
        assert code == 0
        printed = capsys.readouterr().out
        match = re.search(r"^fit (.+)$", printed, re.M)
        assert match
        printed_fit = float(match.group(1))
        doc = json.loads((out / "s2_run000_ss_estimate.json").read_text())
        ir = ImpulseResponse(p=doc["p"], m=doc["m"], T=doc["T"], theta=doc["theta"])
        system, T = read_system_json(out / "s2_run000_system.json")
        assert printed_fit == pytest.approx(
            fit_metric(ir, system.impulse_response(T)), abs=1e-9
        )

    def test_ssr_trace_present_and_decreasing(self, tmp_path):
        out = _simulate(tmp_path, scenario="s3", n=150, t=8, seed=6)
        data = out / "s3_run000_data.csv"
        code = main(["estimate", "--data", str(data), "--estimator", "ssr"])
        assert code == 0
        doc = json.loads((out / "s3_run000_ssr_estimate.json").read_text())
        nlls = [entry["nll"] for entry in doc["trace"]]
        assert len(nlls) >= 1
        assert all(b < a for a, b in zip(nlls, nlls[1:]))

    def test_ssr_weighted_writes_its_own_file(self, tmp_path):
        out = _simulate(tmp_path, scenario="s3", n=150, t=8, seed=6)
        data = out / "s3_run000_data.csv"
        assert main(["estimate", "--data", str(data), "--estimator", "ssr-weighted"]) == 0
        assert (out / "s3_run000_ssr-weighted_estimate.json").exists()
        assert not (out / "s3_run000_ssr_estimate.json").exists()

    def test_weighted_flag_is_usage_error(self, tmp_path):
        out = _simulate(tmp_path, scenario="s3", n=60, t=8, seed=6)
        data = out / "s3_run000_data.csv"
        assert main(["estimate", "--data", str(data), "--estimator", "ssr", "--weighted"]) == 3

    @pytest.mark.parametrize(
        "system, message",
        [
            ("{bad", "Expecting property name"),
            ('{"A": [[0.5]]}', "missing field 'B'"),
            ("s1", "system has p=3, m=1 but the dataset has p=1, m=1"),
            ('{"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "T": null}', "T an integer"),
        ],
        ids=["malformed", "incomplete", "other-scenario", "null-field"],
    )
    def test_bad_system_json_is_usage_error_before_fitting(self, tmp_path, capsys, system, message):
        out = _simulate(tmp_path, scenario="s3", n=60, t=8, seed=6)
        path = out / "s3_run000_system.json"
        if system == "s1":
            s1 = _simulate(tmp_path / "s1", scenario="s1", n=60, t=8, seed=6)
            path.write_text((s1 / "s1_run000_system.json").read_text())
        else:
            path.write_text(system)
        capsys.readouterr()
        code = main(["estimate", "--data", str(out / "s3_run000_data.csv"), "--estimator", "ss"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert message in err
        assert not (out / "s3_run000_ss_estimate.json").exists()

    def test_unreadable_system_json_is_io_error(self, tmp_path):
        out = _simulate(tmp_path, scenario="s3", n=60, t=8, seed=6)
        system = out / "s3_run000_system.json"
        system.unlink()
        system.mkdir()
        assert main(["estimate", "--data", str(out / "s3_run000_data.csv"), "--estimator", "ss"]) == 2

    def test_atom_on_mimo_is_usage_error(self, tmp_path, capsys):
        out = _simulate(tmp_path, scenario="s1", n=60, t=8, seed=1)
        data = out / "s1_run000_data.csv"
        code = main(["estimate", "--data", str(data), "--estimator", "atom"])
        assert code == 3
        assert "SISO" in capsys.readouterr().err

    def test_missing_t_without_system_json(self, tmp_path):
        out = _simulate(tmp_path, n=40, t=6, seed=8)
        data = out / "s2_run000_data.csv"
        (out / "s2_run000_system.json").unlink()
        assert main(["estimate", "--data", str(data), "--estimator", "ss"]) == 3
        assert (
            main(["estimate", "--data", str(data), "--estimator", "ss", "--t", "6"])
            == 0
        )

    def test_unreadable_data(self, tmp_path):
        assert (
            main(
                [
                    "estimate",
                    "--data",
                    str(tmp_path / "missing.csv"),
                    "--estimator",
                    "ss",
                    "--t",
                    "4",
                ]
            )
            == 2
        )

    def test_non_finite_data_is_usage_error(self, tmp_path, capsys):
        out = _simulate(tmp_path, n=40, t=6, seed=8)
        data = out / "s2_run000_data.csv"
        lines = data.read_text().splitlines()
        row = lines[5].split(",")
        row[2] = "nan"  # header t,u1,y1,...: the first output
        lines[5] = ",".join(row)
        data.write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--data", str(data), "--estimator", "ssr"]) == 3
        assert "y1 at sample 5 is nan" in capsys.readouterr().err

    def test_too_short_record_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        data = tmp_path / "short_data.csv"
        write_dataset_csv(Dataset(u=rng.standard_normal(15), y=rng.standard_normal(15)), data)
        code = main(["estimate", "--data", str(data), "--estimator", "ssr", "--t", "4"])
        assert code == 3
        assert "ssr needs at least 16 samples, got 15" in capsys.readouterr().err


class TestBenchmarkCommand:
    def test_table_and_files(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(
            [
                "benchmark",
                "--scenario",
                "s2",
                "--runs",
                "2",
                "--n",
                "120",
                "--t",
                "8",
                "--seed",
                "1",
                "--estimators",
                "ss",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "study_s2.csv").exists()
        summary = json.loads((out / "summary_s2.json").read_text())
        assert summary["ss"]["n"] == 2
        printed = capsys.readouterr().out
        assert "median fit" in printed
        assert "ss" in printed

    def test_worker_parallelism_same_results(self, tmp_path):
        args = [
            "benchmark",
            "--scenario",
            "s2",
            "--runs",
            "3",
            "--n",
            "100",
            "--t",
            "8",
            "--seed",
            "2",
            "--estimators",
            "ss",
        ]
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(args + ["--workers", "2", "--out", str(out2)]) == 0
        assert (out1 / "summary_s2.json").read_bytes() == (
            out2 / "summary_s2.json"
        ).read_bytes()

    def test_atom_on_mimo_scenario_rejected(self, tmp_path):
        code = main(
            [
                "benchmark",
                "--scenario",
                "s1",
                "--runs",
                "1",
                "--estimators",
                "ss,atom",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3

    def test_bad_flags_exit_usage(self):
        assert main(["benchmark", "--scenario", "s7"]) == 3
        assert main(["nonsense"]) == 3

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--runs", "0"], "n, t and runs must be positive"),
            (["--n", "0"], "n, t and runs must be positive"),
            (["--t", "1"], "n, t and runs must be positive"),
            (["--workers", "0"], "--workers must be at least 1, got 0"),
            (["--workers", "-2"], "--workers must be at least 1, got -2"),
        ],
    )
    def test_out_of_range_numbers_are_usage_errors(self, tmp_path, capsys, flags, message):
        code = main(["benchmark", "--scenario", "s3", "--out", str(tmp_path), *flags])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback
        assert message in err
        assert not any(tmp_path.iterdir())

    def test_simulate_out_of_range_runs_is_usage_error(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "s3", "--runs", "0", "--out", str(tmp_path)])
        assert code == 3
        assert "n, t and runs must be positive" in capsys.readouterr().err
