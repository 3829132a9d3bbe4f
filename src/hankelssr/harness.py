"""Monte Carlo experiment runner: fits the requested estimators over seeded
scenario runs, collects per-run fit values and aggregates boxplot summaries."""
from __future__ import annotations

import csv
import ctypes
import functools
import json
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from .estimators.atom import atom_estimate
from .estimators.ss import SsResult, ss_estimate
from .estimators.ssr import SsrOptions, SsrResult, ssr_fit
from .simulation import ScenarioConfig, fit_metric, make_scenario_data

__all__ = [
    "ESTIMATORS",
    "RunReport",
    "fit_estimator",
    "run_seed",
    "run_single",
    "run_study",
    "aggregate",
    "write_reports_csv",
    "write_summary_json",
    "completeness",
]

log = logging.getLogger("hankelssr.harness")

ESTIMATORS = ("ss", "ssr", "ssr-weighted", "atom")
_SCENARIO_CODES = {"s1": 1, "s2": 2, "s3": 3}

CSV_HEADER = [
    "scenario",
    "run",
    "seed",
    "estimator",
    "fit",
    "wall_ms",
    "iters",
    "lambda1",
    "lambda2",
    "nll",
]


@dataclass
class RunReport:
    """Per-run outcome: fit and timing per estimator, loop stats for ssr."""

    scenario: str
    run: int
    seed: int
    fits: dict = field(default_factory=dict)
    wall_ms: dict = field(default_factory=dict)
    iters: dict = field(default_factory=dict)
    lambda1: dict = field(default_factory=dict)
    lambda2: dict = field(default_factory=dict)
    nll: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)


@functools.cache
def _openblas() -> dict:
    """{package: (get, set)} thread-count entry points of the OpenBLAS that
    numpy and scipy each bundle, for those loaded in this process.

    The two builds keep separate thread pools, so a limit has to reach both.
    Builds that are not the bundled wheels' (another BLAS, or none found)
    are left alone.
    """
    found = {}
    for pkg, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            try:  # RTLD_NOLOAD: only a library the package already loaded
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found[pkg.__name__] = (get, set_)
            break
    return found


def blas_threads(limit: int | dict | None = None) -> dict[str, int]:
    """Thread counts of the OpenBLAS builds of numpy and scipy, keyed by
    package, as they were before this call.  With ``limit``, set every build
    to that count, or each to its entry in a dict returned earlier."""
    counts = {}
    for pkg, (get, set_) in _openblas().items():
        counts[pkg] = get()
        if limit is not None:
            set_(limit[pkg] if isinstance(limit, dict) else limit)
    return counts


def run_seed(master_seed: int, scenario: str, run_index: int) -> np.random.SeedSequence:
    """Independent per-run seed derived from (master seed, scenario, run)."""
    return np.random.SeedSequence([int(master_seed), _SCENARIO_CODES[scenario], int(run_index)])


def validate_estimators(names, scenario: str) -> list[str]:
    names = list(names)
    for name in names:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}; choose from {ESTIMATORS}")
    if "atom" in names and scenario != "s3":
        raise ValueError("atom estimator requires a SISO scenario (s3)")
    return names


def fit_estimator(name: str, dataset, T: int, order: int, baseline: SsResult | None = None):
    """Fit the estimator called ``name`` (one of ESTIMATORS) and return its
    result.  ``baseline`` is an ss fit of the same data, reused as the ssr
    warm start."""
    if name == "ss":
        return ss_estimate(dataset, order, T)
    if name in ("ssr", "ssr-weighted"):
        options = SsrOptions(weighted=name == "ssr-weighted")
        return ssr_fit(dataset, T, order, options, baseline=baseline)
    if name == "atom":
        return atom_estimate(dataset, T)
    raise ValueError(f"unknown estimator {name!r}")


def run_single(config: ScenarioConfig, run_index: int, estimators) -> RunReport:
    """Generate one run (system, input, noise) and fit every estimator on it.

    The ss baseline is fitted once per run: the first ss or ssr fit makes
    it and later ssr fits start from it, so their wall_ms leaves it out."""
    seq = run_seed(config.seed, config.scenario, run_index)
    seed_int = int(seq.generate_state(1, np.uint32)[0])
    system_seed, noise_seed = seq.spawn(2)
    system, dataset = make_scenario_data(config, system_seed, noise_seed)
    truth = system.impulse_response(config.t)
    report = RunReport(scenario=config.scenario, run=run_index, seed=seed_int)
    baseline = None
    for name in estimators:
        start = time.perf_counter()
        try:
            res = fit_estimator(name, dataset, config.t, config.kernel_order, baseline)
        except Exception as exc:  # keep the study going; record the failure
            log.warning("run %d estimator %s failed: %r", run_index, name, exc)
            report.errors[name] = repr(exc)
            continue
        report.wall_ms[name] = 1000.0 * (time.perf_counter() - start)
        report.fits[name] = fit_metric(res.ir, truth)
        if isinstance(res, SsrResult):
            last = res.trace[-1]
            report.iters[name] = res.iterations
            report.lambda1[name] = float(last.hyper.lambda1)
            report.lambda2[name] = float(last.hyper.lambda2)
            report.nll[name] = float(last.nll)
        made = res.ss if isinstance(res, SsrResult) else res
        if baseline is None and isinstance(made, SsResult):
            baseline = made
    return report


def _run_single_star(args) -> RunReport:
    return run_single(*args)


def run_study(config: ScenarioConfig, estimators, workers: int = 1) -> list[RunReport]:
    """All runs of a study; bit-identical results for a fixed master seed
    regardless of worker count (each run derives its own seed).

    Every run computes with one BLAS thread per process, on both paths: the
    study's matrices are too small to gain from more, extra threads fight
    the workers for the cores, and OpenBLAS rounds differently with one
    thread than with several.  The caller's thread counts are restored.
    """
    estimators = validate_estimators(estimators, config.scenario)
    jobs = [(config, k, estimators) for k in range(config.runs)]
    workers = min(workers, len(jobs))
    if workers <= 1:
        saved = blas_threads(1)
        try:
            reports = [run_single(*job) for job in jobs]
        finally:
            blas_threads(saved)
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=blas_threads, initargs=(1,)
        ) as pool:
            reports = list(pool.map(_run_single_star, jobs))
    return sorted(reports, key=lambda rep: rep.run)


def completeness(reports, estimators) -> float:
    """Fraction of (run, estimator) cells that produced a fit."""
    total = len(reports) * len(list(estimators))
    if total == 0:
        return 1.0
    done = sum(len(rep.fits) for rep in reports)
    return done / total


def aggregate(reports) -> dict:
    """Boxplot summary per estimator: median, quartiles (linear-interpolation
    rule), whiskers at the most extreme values within 1.5 IQR of the
    quartiles, and the outliers beyond them."""
    if not reports:
        raise ValueError("no reports to aggregate")
    names = sorted({name for rep in reports for name in rep.fits})
    summary = {}
    for name in names:
        fits = np.sort([rep.fits[name] for rep in reports if name in rep.fits])
        q1, med, q3 = np.percentile(fits, [25.0, 50.0, 75.0])
        iqr = q3 - q1
        lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        inside = fits[(fits >= lo_fence) & (fits <= hi_fence)]
        outliers = fits[(fits < lo_fence) | (fits > hi_fence)]
        summary[name] = {
            "median": float(med),
            "q1": float(q1),
            "q3": float(q3),
            "lo_whisker": float(inside.min()) if inside.size else float(med),
            "hi_whisker": float(inside.max()) if inside.size else float(med),
            "outliers": [float(v) for v in outliers],
            "n": int(fits.size),
        }
    return summary


def write_reports_csv(reports, estimators, path) -> None:
    """One row per (run, estimator); failed fits leave the value cells empty."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rep in sorted(reports, key=lambda r: r.run):
            for name in estimators:
                row = [rep.scenario, rep.run, rep.seed, name]
                if name in rep.fits:
                    row.append(repr(float(rep.fits[name])))
                    row.append(f"{rep.wall_ms[name]:.3f}")
                else:
                    row.extend(["", ""])
                if name in rep.iters:
                    row.extend(
                        [
                            rep.iters[name],
                            repr(rep.lambda1[name]),
                            repr(rep.lambda2[name]),
                            repr(rep.nll[name]),
                        ]
                    )
                else:
                    row.extend(["", "", "", ""])
                writer.writerow(row)


def write_summary_json(summary: dict, path) -> None:
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True))
