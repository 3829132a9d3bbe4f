"""Impulse-response estimation for MIMO output-error systems.

The library combines a stable-spline smoothness prior with a log-det
surrogate of the Hankel rank to estimate truncated impulse responses,
tuning all hyperparameters by marginal-likelihood minimization.  It ships
the smoothness-only and atomic-dictionary baselines, seeded benchmark
scenarios, a Monte Carlo harness and a CLI (``hankel-ssr``).
"""
from .core import (
    Dataset,
    HankelSpec,
    ImpulseResponse,
    build_hankel,
    choose_hankel_shape,
    make_hankel_spec,
    numerical_rank,
    predict_outputs,
    read_dataset_csv,
    surrogate_weights,
    weighted_hankel,
    write_dataset_csv,
)
from .estimators import (
    AtomDictionary,
    SsResult,
    SsrHyperparameters,
    SsrOptions,
    SsrResult,
    SsrState,
    atom_dictionary,
    atom_estimate,
    estimate_noise_variance,
    estimate_to_json,
    optimize_lambdas,
    rank_penalty_matrix,
    ss_estimate,
    ss_negative_log_ml,
    ssr_fit,
    ssr_negative_log_ml,
    update_q,
    variational_bound_check,
)
from .harness import RunReport, aggregate, run_study
from .kernels import KernelModel, assemble_prior, stable_spline_gram
from .simulation import (
    ScenarioConfig,
    TrueSystem,
    fit_metric,
    scenario_s1,
    scenario_s2,
    scenario_s3,
    simulate_oe,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "HankelSpec",
    "ImpulseResponse",
    "KernelModel",
    "ScenarioConfig",
    "TrueSystem",
    "RunReport",
    "SsResult",
    "SsrHyperparameters",
    "SsrOptions",
    "SsrResult",
    "SsrState",
    "AtomDictionary",
    "aggregate",
    "assemble_prior",
    "atom_dictionary",
    "atom_estimate",
    "build_hankel",
    "choose_hankel_shape",
    "estimate_noise_variance",
    "estimate_to_json",
    "fit_metric",
    "make_hankel_spec",
    "numerical_rank",
    "optimize_lambdas",
    "predict_outputs",
    "rank_penalty_matrix",
    "read_dataset_csv",
    "run_study",
    "scenario_s1",
    "scenario_s2",
    "scenario_s3",
    "simulate_oe",
    "ss_estimate",
    "ss_negative_log_ml",
    "ssr_fit",
    "ssr_negative_log_ml",
    "stable_spline_gram",
    "surrogate_weights",
    "update_q",
    "variational_bound_check",
    "weighted_hankel",
    "write_dataset_csv",
]
