"""Impulse-response estimation for MIMO output-error systems.

The library combines a stable-spline smoothness prior with a log-det
surrogate of the Hankel rank to estimate truncated impulse responses,
tuning all hyperparameters by marginal-likelihood minimization.  It ships
the smoothness-only and atomic-dictionary baselines, seeded benchmark
scenarios, a Monte Carlo harness and a CLI (``hankel-ssr``).
"""
from .core import Dataset, ImpulseResponse, read_dataset_csv, write_dataset_csv
from .estimators import (
    AtomResult,
    SsResult,
    SsrOptions,
    SsrResult,
    atom_estimate,
    ss_estimate,
    ssr_fit,
)
from .harness import RunReport, aggregate, run_study
from .simulation import (
    ScenarioConfig,
    TrueSystem,
    fit_metric,
    scenario_s1,
    scenario_s2,
    scenario_s3,
    simulate_oe,
)

# Bound here but outside __all__: bench/workloads.py imports them from the package.
from .core import choose_hankel_shape, surrogate_weights  # noqa: F401
from .estimators import (  # noqa: F401
    atom_dictionary,
    optimize_lambdas,
    ss_negative_log_ml,
    ssr_negative_log_ml,
)
from .kernels import assemble_prior  # noqa: F401

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ImpulseResponse",
    "read_dataset_csv",
    "write_dataset_csv",
    "ss_estimate",
    "SsResult",
    "ssr_fit",
    "SsrOptions",
    "SsrResult",
    "atom_estimate",
    "AtomResult",
    "TrueSystem",
    "ScenarioConfig",
    "scenario_s1",
    "scenario_s2",
    "scenario_s3",
    "simulate_oe",
    "run_study",
    "aggregate",
    "RunReport",
    "fit_metric",
]
