"""Each correctness check accepts the program's output and rejects a
perturbed copy of it.  Run with ``python -m pytest bench`` from the root."""
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from hankelssr import SsrOptions, atom_dictionary, atom_estimate, fit_metric, ssr_fit  # noqa: E402
from hankelssr.simulation import ScenarioConfig  # noqa: E402
from workloads import make_case  # noqa: E402

MAX_ITER = SsrOptions().max_iter


@pytest.fixture(scope="module")
def mimo():
    case = make_case(ScenarioConfig.default("s1", runs=1, seed=5, n=200, t=16), 0)
    return case, ssr_fit(case.data, 16, 1)


@pytest.fixture(scope="module")
def siso():
    case = make_case(ScenarioConfig.default("s3", runs=1, seed=5, n=300, t=20), 0)
    return case


def with_last(res, **changes):
    """Copy of an ssr result whose last iterate has the given fields changed."""
    trace = list(res.trace)
    trace[-1] = replace(trace[-1], **changes)
    return replace(res, trace=trace, ir=trace[-1].theta)


def test_ssr_check_accepts_program_output(mimo):
    case, res = mimo
    checks.check_ssr(case.data, res, 1, MAX_ITER)


def test_ssr_check_accepts_weighted_fit(siso):
    res = ssr_fit(siso.data, 20, 1, SsrOptions(weighted=True))
    checks.check_ssr(siso.data, res, 1, MAX_ITER)


def test_nudged_theta_is_rejected(mimo):
    case, res = mimo
    theta = res.ir.theta.copy()
    theta[3] += 1e-6 * np.linalg.norm(theta)
    bad = with_last(res, theta=replace(res.ir, theta=theta))
    with pytest.raises(checks.CheckError, match="stacked least squares"):
        checks.check_ssr(case.data, bad, 1, MAX_ITER)


def test_swapped_lambdas_are_rejected(mimo):
    case, res = mimo
    hyper = res.trace[-1].hyper
    swapped = replace(hyper, lambda1=hyper.lambda2, lambda2=hyper.lambda1)
    with pytest.raises(checks.CheckError, match="evidence"):
        checks.check_ssr(case.data, with_last(res, hyper=swapped), 1, MAX_ITER)


def test_nudged_evidence_is_rejected(mimo):
    case, res = mimo
    nll = res.trace[-1].nll
    bad = with_last(res, nll=nll - 1e-7 * max(1.0, abs(nll)))  # trace still decreases
    with pytest.raises(checks.CheckError, match="evidence"):
        checks.check_ssr(case.data, bad, 1, MAX_ITER)


def test_non_decreasing_trace_is_rejected():
    flat = SimpleNamespace(trace=[SimpleNamespace(nll=v) for v in (5.0, 4.0, 4.0)])
    with pytest.raises(checks.CheckError, match="does not decrease"):
        checks.check_trace(flat, MAX_ITER)


def test_too_many_iterates_are_rejected():
    long = SimpleNamespace(trace=[SimpleNamespace(nll=-float(k)) for k in range(5)])
    checks.check_trace(long, 4)
    with pytest.raises(checks.CheckError, match="exceed"):
        checks.check_trace(long, 3)


def test_atom_check_rejects_nudged_weights(siso):
    res = atom_estimate(siso.data, 20)
    atoms = atom_dictionary(20).atoms
    checks.check_atom(siso.data, res, atoms)
    w = res.weights.copy()
    w[np.argmax(np.abs(w))] *= 1.001
    with pytest.raises(checks.CheckError, match="KKT"):
        checks.check_atom(siso.data, replace(res, weights=w), atoms)
    with pytest.raises(checks.CheckError, match="dictionary combination"):
        theta = res.ir.theta + 1e-6
        checks.check_atom(siso.data, replace(res, ir=replace(res.ir, theta=theta)), atoms)


def test_score_check_rejects_wrong_score_or_theta(mimo):
    case, res = mimo
    score = fit_metric(res.ir, case.truth())
    args = (case.system, case.data.p, case.data.m, 16)
    checks.check_score(score, res.ir.theta, *args)
    with pytest.raises(checks.CheckError, match="fit score"):
        checks.check_score(score + 1e-6, res.ir.theta, *args)
    with pytest.raises(checks.CheckError, match="fit score"):
        checks.check_score(score, res.ir.theta * 1.001, *args)


def test_pooled_fits_must_equal_serial_fits():
    fits = {"ss": 91.25, "ssr": 93.5}
    checks.check_equal_fits(fits, dict(fits), "run 0")
    with pytest.raises(checks.CheckError, match="differ"):
        checks.check_equal_fits(fits, {"ss": 91.25, "ssr": np.nextafter(93.5, 0)}, "run 0")
