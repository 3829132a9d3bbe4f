"""Impulse-response estimators: the smoothness-only baseline, the combined
smoothness + Hankel-rank estimator, and the atomic-dictionary baseline."""
from .ss import (
    SsResult,
    estimate_noise_variance,
    ss_estimate,
    ss_negative_log_ml,
)
from .ssr import (
    SsrHyperparameters,
    SsrOptions,
    SsrResult,
    SsrState,
    optimize_lambdas,
    rank_penalty_matrix,
    ssr_fit,
    ssr_negative_log_ml,
    update_q,
    variational_bound_check,
)
from .atom import AtomDictionary, AtomResult, atom_dictionary, atom_estimate, lasso_kkt_residual

__all__ = [
    "SsResult",
    "estimate_noise_variance",
    "ss_estimate",
    "ss_negative_log_ml",
    "SsrHyperparameters",
    "SsrOptions",
    "SsrResult",
    "SsrState",
    "optimize_lambdas",
    "rank_penalty_matrix",
    "ssr_fit",
    "ssr_negative_log_ml",
    "update_q",
    "variational_bound_check",
    "AtomDictionary",
    "AtomResult",
    "atom_dictionary",
    "atom_estimate",
    "lasso_kkt_residual",
]
