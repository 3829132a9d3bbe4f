"""The benchmark's workloads, driven through hankelssr's public API.

s1-mimo fits one dataset at a time in this process (a closed loop with one
caller).  study-parallel goes through ``harness.run_study`` and its process
pool.  BLAS threads are left as the program finds them.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hankelssr
from hankelssr import (
    Dataset,
    ImpulseResponse,
    SsrOptions,
    assemble_prior,
    atom_dictionary,
    atom_estimate,
    choose_hankel_shape,
    cli,
    fit_metric,
    harness,
    optimize_lambdas,
    read_dataset_csv,
    simulation,
    ss_estimate,
    ss_negative_log_ml,
    ssr_fit,
    ssr_negative_log_ml,
    surrogate_weights,
    write_dataset_csv,
)
from hankelssr.simulation import ScenarioConfig, write_system_json

import checks

S1 = "s1-mimo"
STUDY = "study-parallel"
WORKLOADS = (S1, STUDY)
ESTIMATORS = ("ss", "ssr")
MAX_ITER = SsrOptions().max_iter

# s1-mimo fits ss and ssr on every dataset of its panel, in whole passes,
# until --seconds have passed; one pass over 20 datasets takes about 25 s on
# two cores.
S1_PANEL = 20
# Panel dataset k takes its plant and input from run k of PANEL_SEED and its
# output noise from run k of --seed.  The seed changes every output the
# estimators see, while the plants stay the same from run to run.
PANEL_SEED = 0
# study-parallel: harness.run_study calls of STUDY_RUNS s3 runs each, with
# STUDY_WORKERS processes, until --seconds have passed.
STUDY_SCENARIO = "s3"
STUDY_RUNS = 10
STUDY_WORKERS = 2
# One estimate process swings by about 15% from call to call on two cores,
# and its ssr fit with the iterations its dataset needs, so each run times
# one call on each of the first CLI_DATASETS panel datasets and reports the
# median.
CLI_DATASETS = 3

SPAN = {
    "ss": "ss.ss_estimate",
    "ssr": "ssr.ssr_fit",
    "ssr-weighted": "ssr.ssr_fit_weighted",
    "atom": "atom.atom_estimate",
}
SSR_ROOTS = ("ssr.ssr_fit", "ssr.ssr_fit_weighted")


@dataclass
class Case:
    """One seeded dataset with the system that produced it."""

    config: ScenarioConfig
    index: int
    system: simulation.TrueSystem
    data: Dataset

    def truth(self) -> ImpulseResponse:
        return self.system.impulse_response(self.config.t)


@dataclass
class Fit:
    name: str
    case: Case
    wall_s: float
    ir: ImpulseResponse
    result: object
    score: float


def study_seed(seed: int, round_index: int) -> int:
    """Master seed of the study-parallel round ``round_index``."""
    return 1000 * seed + round_index


def make_case(config: ScenarioConfig, k: int) -> Case:
    """Run k of a study, drawn exactly as ``harness.run_single`` draws it."""
    system_seed, noise_seed = harness.run_seed(config.seed, config.scenario, k).spawn(2)
    system, data = simulation.make_scenario_data(config, system_seed, noise_seed)
    return Case(config, k, system, data)


def panel_case(config: ScenarioConfig, k: int) -> Case:
    """Panel dataset k: plant and input of PANEL_SEED, noise of config.seed."""
    system_seed, _ = harness.run_seed(PANEL_SEED, config.scenario, k).spawn(2)
    _, noise_seed = harness.run_seed(config.seed, config.scenario, k).spawn(2)
    system, data = simulation.make_scenario_data(config, system_seed, noise_seed)
    return Case(config, k, system, data)


def setup(workload: str, seed: int) -> list[Case]:
    """The workload's inputs: the s1 panel, or for study-parallel the s3
    panel datasets its CLI calls read (the study draws its own runs)."""
    if workload == S1:
        config = ScenarioConfig.default("s1", runs=S1_PANEL, seed=seed)
        return [panel_case(config, k) for k in range(S1_PANEL)]
    config = ScenarioConfig.default(STUDY_SCENARIO, runs=CLI_DATASETS, seed=seed)
    return [panel_case(config, k) for k in range(CLI_DATASETS)]


def fit(name: str, case: Case, tracer) -> Fit:
    cfg, d = case.config, case.data
    start = time.perf_counter()
    with tracer.span(SPAN[name]):
        if name == "ss":
            res = ss_estimate(d, cfg.kernel_order, cfg.t)
        elif name == "atom":
            res = atom_estimate(d, cfg.t)
        else:
            res = ssr_fit(d, cfg.t, cfg.kernel_order, SsrOptions(weighted=name == "ssr-weighted"))
    wall = time.perf_counter() - start
    return Fit(name, case, wall, res.ir, res, fit_metric(res.ir, case.truth()))


def median(values) -> float:
    return float(statistics.median(values))


class Ledger:
    """Operations attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def op(self, label: str):
        self.attempted += 1
        try:
            yield
        except Exception:  # count the failure and keep the run going
            self.failed += 1
            print(f"operation failed: {label}", file=sys.stderr)
            traceback.print_exc()


class Verdicts:
    """Check failures of one run; any failure makes the run incorrect."""

    def __init__(self):
        self.problems: list[str] = []

    def check(self, label: str, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckError as exc:
            self.problems.append(f"{label}: {exc}")
            print(f"check failed: {label}: {exc}", file=sys.stderr)


def check_fit(f: Fit, atoms: dict) -> None:
    d, cfg = f.case.data, f.case.config
    checks.check_score(f.score, f.ir.theta, f.case.system, d.p, d.m, cfg.t)
    if f.name in ("ssr", "ssr-weighted"):
        checks.check_ssr(d, f.result, cfg.kernel_order, MAX_ITER)
    elif f.name == "atom":
        if cfg.t not in atoms:
            atoms[cfg.t] = atom_dictionary(cfg.t).atoms
        checks.check_atom(d, f.result, atoms[cfg.t])


# ---------------------------------------------------------------- CLI calls


def write_case(case: Case, directory: Path) -> Path:
    """Dataset CSV plus the co-located system JSON the CLI reads T from."""
    stem = f"{case.config.scenario}_run{case.index:03d}"
    write_dataset_csv(case.data, directory / f"{stem}_data.csv")
    write_system_json(case.system, case.config.t, directory / f"{stem}_system.json")
    return directory / f"{stem}_data.csv"


def estimate_args(case: Case, csv_path: Path, out: Path) -> list[str]:
    return [
        "estimate", "--data", str(csv_path), "--estimator", "ssr",
        "--kernel-order", str(case.config.kernel_order), "--out", str(out),
    ]


def run_cli(case: Case, csv_path: Path, out: Path, env: dict) -> float:
    """Wall time of one ``python -m hankelssr.cli estimate --estimator ssr``."""
    cmd = [sys.executable, "-m", "hankelssr.cli", *estimate_args(case, csv_path, out)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"estimate exited {proc.returncode}: {proc.stderr.strip()}")
    return wall


def check_estimate(case: Case, out: Path, reference: Fit) -> None:
    """The CLI's estimate file equals the in-process ssr fit of the same data."""
    stem = f"{case.config.scenario}_run{case.index:03d}"
    doc = json.loads((out / f"{stem}_ssr_estimate.json").read_text())
    theta = np.array(doc["theta"])
    ref = reference.ir.theta
    if not np.linalg.norm(theta - ref) <= checks.THETA_RTOL * np.linalg.norm(ref):
        raise checks.CheckError("CLI estimate differs from the in-process ssr fit")
    nll = [row["nll"] for row in doc["trace"]]
    if any(not b < a for a, b in zip(nll, nll[1:])) or len(nll) - 1 > MAX_ITER:
        raise checks.CheckError("CLI estimate trace does not strictly decrease")


# ------------------------------------------------------------ fitting loops


def run_s1_passes(cases: list[Case], seconds: float, ledger, tracer):
    """Whole passes (ss and ssr on every panel dataset) until ``seconds``
    have passed."""
    fits: list[Fit] = []
    start = time.perf_counter()
    while True:
        for case in cases:
            for name in ESTIMATORS:
                with ledger.op(f"{name} on s1 panel {case.index}"):
                    fits.append(fit(name, case, tracer))
        if time.perf_counter() - start >= seconds:
            break
    return fits, time.perf_counter() - start


def run_study_rounds(seed: int, seconds: float, ledger):
    """harness.run_study calls of STUDY_RUNS runs each until ``seconds`` pass."""
    rounds = []
    start = time.perf_counter()
    r = 0
    while True:
        config = ScenarioConfig.default(STUDY_SCENARIO, runs=STUDY_RUNS, seed=study_seed(seed, r))
        t0 = time.perf_counter()
        reports = harness.run_study(config, ESTIMATORS, workers=STUDY_WORKERS)
        rounds.append((config, reports, time.perf_counter() - t0))
        for rep in reports:
            for name in ESTIMATORS:
                ledger.attempted += 1
                if name in rep.errors:
                    ledger.failed += 1
                    print(f"operation failed: {name} run {rep.run}: {rep.errors[name]}",
                          file=sys.stderr)
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    return rounds


def refit_serially(rounds, tracer, verdicts) -> list[Fit]:
    """Fit every study run one at a time in this process and check that the
    pooled fit values are the same."""
    fits = []
    for config, reports, _ in rounds:
        for rep in reports:
            case = make_case(config, rep.run)
            serial = {}
            for name in ESTIMATORS:
                f = fit(name, case, tracer)
                serial[name] = f.score
                fits.append(f)
            label = f"{config.scenario} seed {config.seed} run {rep.run}"
            verdicts.check(label, checks.check_equal_fits, rep.fits, serial, label)
    return fits


# --------------------------------------------------------------- the run


def run(workload: str, seed: int, seconds: float, tracer, workdir: Path, env: dict):
    """Returns (end-to-end metrics, per-layer metrics, ledger, verdicts, info)."""
    ledger = Ledger()
    verdicts = Verdicts()
    cases = setup(workload, seed)
    per_layer: dict[str, float] = {}
    if tracer.enabled:
        tracer.install()
        cases = setup(workload, seed)  # again, traced, for make_scenario_data

    cli_cases, cli_walls = [], []
    for case in cases[:CLI_DATASETS]:
        csv_path = write_case(case, workdir)
        with ledger.op(f"cli estimate on {case.config.scenario} panel {case.index}"):
            cli_walls.append(run_cli(case, csv_path, workdir, env))
            cli_cases.append(case)

    if workload == S1:
        fits, phase = run_s1_passes(cases, seconds, ledger, tracer)
        fits_per_s = len(fits) / phase
        info = {"datasets": len(cases), "fits": len(fits)}
    else:
        rounds = run_study_rounds(seed, seconds, ledger)
        study_wall = sum(r[2] for r in rounds)
        reports = [rep for r in rounds for rep in r[1]]
        fits_per_s = sum(len(rep.fits) for rep in reports) / study_wall
        # The per-fit numbers come from the serial refits of the same runs:
        # the workers' own wall_ms mixes the fit with BLAS contention
        # between the workers (reported as harness.fit_wall_ms).
        fits = refit_serially(rounds, tracer, verdicts)
        per_layer["harness.fit_wall_ms"] = median(
            ms for rep in reports for ms in rep.wall_ms.values()
        )
        info = {"study_runs": len(reports), "study_runs_per_s": len(reports) / study_wall}
    ss = [f for f in fits if f.name == "ss"]
    ssr = [f for f in fits if f.name == "ssr"]
    e2e = {
        "ss_fit_s": median(f.wall_s for f in ss),
        "ssr_fit_s": median(f.wall_s for f in ssr),
        "fits_per_s": fits_per_s,
        "cli_estimate_s": median(cli_walls),
        "fit.ss": median(f.score for f in ss),
        "fit.ssr": median(f.score for f in ssr),
    }
    info["ssr_iterations"] = [f.result.iterations for f in ssr]

    atoms: dict = {}
    for f in fits:
        label = f"{f.name} on {f.case.config.scenario} seed {f.case.config.seed} run {f.case.index}"
        verdicts.check(label, check_fit, f, atoms)
    for case in cli_cases:
        reference = next((f for f in fits if f.name == "ssr" and f.case is case), None)
        if reference is None:
            reference = fit("ssr", case, tracer)
        verdicts.check(f"cli estimate on panel {case.index}", check_estimate, case, workdir, reference)

    if tracer.enabled:
        per_layer.update(layer_metrics(workload, cases[0], workdir, fits, tracer, env, verdicts))
    return e2e, per_layer, ledger, verdicts, info


# ------------------------------------------------------------- traced run


def timed_ms(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return 1e3 * (time.perf_counter() - t0)


def layer_metrics(workload, case, workdir, fits, tracer, env, verdicts) -> dict:
    """Per-layer numbers from the traced fits, plus direct calls of the
    public functions the workload's fits do not reach."""
    d, cfg = case.data, case.config
    csv_path = workdir / f"{cfg.scenario}_run{case.index:03d}_data.csv"
    out: dict[str, float] = {}

    def span_median(name, roots=None):
        return median(tracer.durations_ms(name, roots))

    # Weighted ssr and atom are not part of either workload's fits; one fit
    # of each on the first dataset (atom on its first output channel) gives
    # their layers a number on every workload.
    probes = [fit("ssr-weighted", case, tracer)]
    siso_system = simulation.TrueSystem(A=case.system.A, B=case.system.B[:, :1], C=case.system.C[:1])
    siso = Case(cfg, case.index, siso_system, Dataset(u=d.u[:, :1], y=d.y[:, :1]))
    probes.append(fit("atom", siso, tracer))
    atoms: dict = {}
    for f in probes:
        verdicts.check(f"{f.name} on {cfg.scenario} panel {case.index}", check_fit, f, atoms)

    ss_nll, lemma, search = [], [], []
    for f in [f for f in fits if f.name == "ss"][:5]:
        k, one = f.result.kernel, Dataset(u=f.case.data.u, y=f.case.data.y[:, :1])
        ss_nll.append(timed_ms(lambda: ss_negative_log_ml(
            one, cfg.t, cfg.kernel_order, float(k.alphas[0]), float(k.scales[0]),
            float(f.result.eb_sigma[0]))))
    for f in [f for f in fits if f.name == "ssr"][:3]:
        res = f.result
        K = assemble_prior(res.ss.kernel)
        last, first = res.trace[-1].hyper, res.trace[0].hyper
        lemma.append(timed_ms(lambda: ssr_negative_log_ml(
            f.case.data, last.Q, last.lambda1, last.lambda2, K, last.sigma, res.spec)))
        search.append(timed_ms(lambda: optimize_lambdas(
            f.case.data, first.Q, K, first.sigma, res.spec, (first.lambda1, first.lambda2),
            lambda2_floor=res.lambda2_floor)))
    r, c = choose_hankel_shape(cfg.t, d.p, d.m)
    with tracer.span("core.surrogate_weights"):
        surrogate_weights(d, r, c)

    out["cli.import_s"] = median(
        timed_ms(lambda: subprocess.run(
            [sys.executable, "-c", "import hankelssr.cli"], env=env, check=True, timeout=170)) / 1e3
        for _ in range(3)
    )
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(estimate_args(case, csv_path, workdir))
        out["cli.main_estimate_s"] = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"cli.main estimate returned {code}")
    out["core.read_dataset_csv_ms"] = median(timed_ms(lambda: read_dataset_csv(csv_path)) for _ in range(3))
    out["core.surrogate_weights_ms"] = span_median("core.surrogate_weights")
    out["simulation.make_scenario_data_ms"] = span_median("simulation.make_scenario_data")
    out["kernels.assemble_prior_ms"] = span_median("kernels.assemble_prior", SSR_ROOTS)
    out["ss.ss_estimate_ms"] = span_median("ss.ss_estimate")
    out["ss.ss_negative_log_ml_ms"] = median(ss_nll)
    out["ss.warm_start_ms"] = span_median("ss.warm_start", SSR_ROOTS)
    out["ssr.ssr_negative_log_ml_ms"] = median(lemma)
    out["ssr.optimize_lambdas_ms"] = median(search)
    out["ssr.rank_penalty_matrix_ms"] = span_median("ssr.rank_penalty_matrix", SSR_ROOTS)
    out["ssr.rank_penalty_matrix_calls"] = tracer.count("ssr.rank_penalty_matrix", SSR_ROOTS)
    out["ssr.update_q_ms"] = span_median("ssr.update_q", SSR_ROOTS)
    out["ssr.update_q_calls"] = tracer.count("ssr.update_q", SSR_ROOTS)
    out["ssr.iterations"] = sum(f.result.iterations for f in fits + probes
                                if f.name in ("ssr", "ssr-weighted"))
    out["ssr.self_ms"] = median(tracer.self_ms("ssr.ssr_fit"))
    out["ssr.ssr_fit_weighted_ms"] = span_median("ssr.ssr_fit_weighted")
    out["atom.atom_estimate_ms"] = span_median("atom.atom_estimate")
    out["atom.atom_dictionary_ms"] = span_median("atom.atom_dictionary")
    out["atom.self_ms"] = median(tracer.self_ms("atom.atom_estimate"))
    out["atom.kkt_residual"] = probes[1].result.kkt
    out["fit.ssr-weighted"] = probes[0].score
    out["fit.atom"] = probes[1].score
    if workload == S1:
        rep = harness.run_single(cfg, case.index, list(ESTIMATORS))
        out["harness.fit_wall_ms"] = median(rep.wall_ms.values())
    out["trace.spans"] = len(tracer.spans)
    out["trace.overhead_pct"] = tracer.overhead_pct()
    return out


def environment() -> dict:
    """Core count, BLAS build and thread variables seen by this run."""
    import scipy

    blas = {}
    with contextlib.suppress(KeyError, TypeError):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
        },
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "hankelssr": hankelssr.__version__,
    }
