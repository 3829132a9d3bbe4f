"""Impulse-response estimators: the smoothness-only baseline, the combined
smoothness + Hankel-rank estimator, and the atomic-dictionary baseline.

Only what the package root imports is bound here; the other building
blocks stay importable from the submodules ``ss``, ``ssr`` and ``atom``."""
from .ss import SsResult, ss_estimate, ss_negative_log_ml
from .ssr import SsrOptions, SsrResult, optimize_lambdas, ssr_fit, ssr_negative_log_ml
from .atom import AtomResult, atom_dictionary, atom_estimate

__all__ = [
    "SsResult",
    "ss_estimate",
    "ss_negative_log_ml",
    "SsrOptions",
    "SsrResult",
    "optimize_lambdas",
    "ssr_fit",
    "ssr_negative_log_ml",
    "AtomResult",
    "atom_dictionary",
    "atom_estimate",
]
