"""Command-line frontend: simulate benchmark datasets, fit estimators on CSV
data, and run full Monte Carlo studies.

Exit codes: 0 success, 2 I/O error, 3 usage or compatibility error,
4 more than 20% of study runs failed.  Set HANKEL_SSR_LOG=debug|info|...
for verbosity.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import harness
from .core import read_dataset_csv, write_dataset_csv
from .simulation import (
    SCENARIO_DEFAULTS,
    ScenarioConfig,
    fit_metric,
    make_scenario_data,
    read_system_json,
    write_system_json,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_USAGE = 3
EXIT_FAILURES = 4

log = logging.getLogger("hankelssr.cli")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for I/O."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hankel-ssr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="write scenario dataset/system files")
    sim.add_argument("--scenario", required=True, choices=sorted(SCENARIO_DEFAULTS))
    sim.add_argument("--n", type=int, help="samples per run (scenario default)")
    sim.add_argument("--t", type=int, help="truncation length (scenario default)")
    sim.add_argument("--runs", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=".")

    est = sub.add_parser("estimate", help="fit one estimator on a dataset CSV")
    est.add_argument("--data", required=True, help="dataset CSV path")
    est.add_argument("--estimator", required=True, choices=harness.ESTIMATORS)
    est.add_argument("--t", type=int, help="truncation length (else from system JSON)")
    est.add_argument("--kernel-order", type=int, choices=[1, 2], default=1)
    est.add_argument("--out", help="output directory (default: beside the data)")

    bench = sub.add_parser("benchmark", help="run a Monte Carlo study")
    bench.add_argument("--scenario", required=True, choices=sorted(SCENARIO_DEFAULTS))
    bench.add_argument("--runs", type=int, default=20)
    bench.add_argument("--n", type=int)
    bench.add_argument("--t", type=int)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--estimators", default="ss,ssr")
    bench.add_argument("--kernel-order", type=int, choices=[1, 2])
    bench.add_argument("--workers", type=int, default=1)
    bench.add_argument("--out", default=".")

    return parser


def _config_from_args(args, runs: int) -> ScenarioConfig:
    overrides = {}
    if args.n is not None:
        overrides["n"] = args.n
    if args.t is not None:
        overrides["t"] = args.t
    if getattr(args, "kernel_order", None) is not None:
        overrides["kernel_order"] = args.kernel_order
    return ScenarioConfig.default(args.scenario, runs=runs, seed=args.seed, **overrides)


def cmd_simulate(args) -> int:
    try:
        config = _config_from_args(args, runs=args.runs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for k in range(config.runs):
            seq = harness.run_seed(config.seed, config.scenario, k)
            system_seed, noise_seed = seq.spawn(2)
            system, dataset = make_scenario_data(config, system_seed, noise_seed)
            stem = f"{config.scenario}_run{k:03d}"
            write_dataset_csv(dataset, out / f"{stem}_data.csv")
            write_system_json(system, config.t, out / f"{stem}_system.json")
            print(f"wrote {out / (stem + '_data.csv')}")
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _resolve_truth(data_path: Path):
    guess = data_path.with_name(data_path.name.replace("_data.csv", "_system.json"))
    if guess != data_path and guess.exists():
        return guess
    return None


def estimate_to_json(res) -> dict:
    """Portable estimate document: dimensions, coefficients, and the iterate
    trace and noise variances of the estimators that have them (else empty)."""
    ir = res.ir
    return {
        "p": ir.p,
        "m": ir.m,
        "T": ir.T,
        "theta": [float(v) for v in ir.theta],
        "trace": [
            {
                "k": s.k,
                "lambda1": float(s.hyper.lambda1),
                "lambda2": float(s.hyper.lambda2),
                "nll": float(s.nll),
            }
            for s in getattr(res, "trace", [])
        ],
        "sigma": [float(v) for v in getattr(res, "sigma", [])],
    }


def cmd_estimate(args) -> int:
    data_path = Path(args.data)
    try:
        dataset = read_dataset_csv(data_path)
    except OSError as exc:
        print(f"error: cannot read dataset: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    truth_path = _resolve_truth(data_path)
    T = args.t
    system = None
    if truth_path is not None:
        try:
            system, truth_T = read_system_json(truth_path)
            if (system.p, system.m) != (dataset.p, dataset.m):
                raise ValueError(
                    f"system has p={system.p}, m={system.m} "
                    f"but the dataset has p={dataset.p}, m={dataset.m}"
                )
        except OSError as exc:
            print(f"error: cannot read system JSON: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:  # malformed JSON too
            print(f"error: {truth_path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if T is None:
            T = truth_T
    if T is None:
        print("error: --t required (no co-located system JSON)", file=sys.stderr)
        return EXIT_USAGE

    try:
        res = harness.fit_estimator(args.estimator, dataset, T, args.kernel_order)
    except ValueError as exc:  # the data do not meet the estimator's preconditions
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(args.out) if args.out else data_path.parent
    stem = data_path.stem.replace("_data", "")
    out_path = out_dir / f"{stem}_{args.estimator}_estimate.json"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(estimate_to_json(res), indent=2))
    except OSError as exc:
        print(f"error: cannot write estimate: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {out_path}")
    if system is not None:
        print(f"fit {fit_metric(res.ir, system.impulse_response(T))!r}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    estimators = [name.strip() for name in args.estimators.split(",") if name.strip()]
    try:
        if args.workers < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        config = _config_from_args(args, runs=args.runs)
        estimators = harness.validate_estimators(estimators, config.scenario)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    reports = harness.run_study(config, estimators, workers=args.workers)
    summary = harness.aggregate(reports) if any(rep.fits for rep in reports) else {}
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        harness.write_reports_csv(reports, estimators, out / f"study_{config.scenario}.csv")
        harness.write_summary_json(summary, out / f"summary_{config.scenario}.json")
    except OSError as exc:
        print(f"error: cannot write study outputs: {exc}", file=sys.stderr)
        return EXIT_IO

    done = harness.completeness(reports, estimators)
    print(f"scenario {config.scenario}: {config.runs} runs, completeness {done:.0%}")
    print(f"{'estimator':<14}{'median fit':>12}{'n':>5}")
    for name in estimators:
        if name in summary:
            print(f"{name:<14}{summary[name]['median']:>12.2f}{summary[name]['n']:>5}")
        else:
            print(f"{name:<14}{'-':>12}{0:>5}")
    if done < 0.8:
        print("error: more than 20% of runs failed", file=sys.stderr)
        return EXIT_FAILURES
    return EXIT_OK


def main(argv=None) -> int:
    level = os.environ.get("HANKEL_SSR_LOG", "").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "simulate":
        return cmd_simulate(args)
    if args.command == "estimate":
        return cmd_estimate(args)
    if args.command == "benchmark":
        return cmd_benchmark(args)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
