"""The verification suites: the paper's claims, checked at a seed.

theorem1: the sample and record MLEs share one law; example1: the MSE of
theta_hat is theta^2/n; theorem3 and theorem4: the bias and MSE series
against quadrature; theorem5 and consistency: the large-sample properties.
Each suite runs on the exponential member at theta = 1 and returns one
record whose checks are dicts of a name, a verdict and the numbers and
threshold it was judged on, in a fixed key order. ``closedform`` and
``oracle`` functions are looked up at call time, so wrappers set on those
modules (the benchmark's tracing) see the calls.
"""

from __future__ import annotations

import math

from . import closedform
from . import family as fam
from . import oracle
from ._streams import mix_seed_stream

__all__ = ["SUITES", "run"]

_SPEC = fam.make_exponential()


def _check(name: str, passed: bool, **data) -> dict:
    return {"name": name, "passed": bool(passed), **data}


def _decreasing(name: str, values: list[float], **data) -> dict:
    return _check(name, all(b < a for a, b in zip(values, values[1:])), **data)


def _suite(name: str, checks: list[dict], **meta) -> dict:
    return {"suite": name, "family": "exponential", "theta": 1.0, **meta,
            "checks": checks, "passed": all(c["passed"] for c in checks)}


def _config(seed: int, stream: int, size: int, reps: int, xs=()) -> oracle.ExperimentConfig:
    """The exponential member at theta = 1, on stream ``stream`` of ``seed``."""
    return oracle.ExperimentConfig("exponential", 1.0, (size,), xs, reps=reps,
                                   seed=mix_seed_stream(seed, stream))


def _series_vs_exact(target: str) -> dict:
    """A target's size-200 series at x = 1 against its exact value, within 1e-3."""
    entry = oracle.REGISTRY[target]
    series = entry.series(_SPEC, 1.0, 1.0, 200, None).value
    exact = entry.exact(_SPEC, 1.0, 1.0, 200, None)
    return _check(f"{target.removesuffix('_hat')}_series_vs_exact_size200",
                  abs(series - exact) < 1e-3, series=series, exact=exact,
                  abs_error=abs(series - exact), tolerance=1e-3)


def _theorem1(seed: int, workers: int) -> dict:
    """Sample-based and record-based estimators share one law at n = m."""
    size, reps, x = 5, 20_000, math.log(2.0)
    checks = []
    for stat, label in (("theta_hat", "ks_theta_hat"), ("cdf_hat", "ks_cdf_hat_at_log2")):
        a, b = (oracle.mc_statistic_array(_config(seed, stream, size, reps, (x,)), source,
                                          stat, workers)
                for stream, source in ((1, "sample"), (2, "records_direct")))
        d = oracle.ks_two_sample(a, b)
        checks.append(_check(label, d < 0.02, statistic=d, threshold=0.02))
    return _suite("theorem1", checks, size=size, reps_per_arm=reps)


def _example1(seed: int, workers: int) -> dict:
    """MC MSE of theta_hat against theta^2/n, sample and record versions."""
    reps = 200_000
    checks, sample = [], {}
    for idx, n in enumerate((5, 10, 20)):
        rep = sample[n] = oracle.mc_estimate(_config(seed, 10 + idx, n, reps),
                                             "MSE_theta_hat", "sample", workers)
        expected = closedform.alpha_n_exponential(1.0, n)
        rel = abs(rep.mc_value - expected) / expected
        checks.append(_check(f"mse_theta_sample_n{n}", rel <= 0.03, mc_value=rep.mc_value,
                             mc_stderr=rep.mc_stderr, expected=expected, rel_error=rel,
                             tolerance=0.03))
    rep_r = oracle.mc_estimate(_config(seed, 20, 10, reps), "MSE_theta_hat",
                               "records_direct", workers)
    rep_s = sample[10]
    gap = abs(rep_r.mc_value - rep_s.mc_value)
    bound = 2.0 * math.hypot(rep_r.mc_stderr, rep_s.mc_stderr)
    checks.append(_check("mse_records_m10_vs_sample_n10", gap <= bound,
                         records_value=rep_r.mc_value, sample_value=rep_s.mc_value,
                         gap=gap, bound=bound))
    return _suite("example1", checks, reps=reps)


def _theorem3(seed: int, workers: int) -> dict:
    """Truncated mean series against exact quadrature, plus the size-2 defect."""
    defect = closedform.expected_cdf_hat_series(_SPEC, 1.0, 0.8, 2)
    exact_defect = oracle.exact_expected_cdf_hat(_SPEC, 1.0, 0.8, 2)
    return _suite("theorem3", [
        _series_vs_exact("E_cdf_hat"),
        _series_vs_exact("E_pdf_hat"),
        _check("size2_truncation_defect_detected",
               abs(defect.value - 1.6) < 1e-12 and not defect.in_natural_bounds
               and 0.0 < exact_defect < 1.0,
               series=defect.value, in_natural_bounds=defect.in_natural_bounds,
               regime_note=defect.regime_note, exact=exact_defect),
    ])


def _theorem4(seed: int, workers: int) -> dict:
    """MSE series against exact quadrature; adjudicates the cross-term sign."""
    default = closedform.mse_pdf_hat_series(_SPEC, 1.0, 1.0, 200)
    printed = closedform.mse_pdf_hat_series(_SPEC, 1.0, 1.0, 200, as_printed=True)
    exact = oracle.exact_mse_pdf_hat(_SPEC, 1.0, 1.0, 200)
    return _suite("theorem4", [
        _series_vs_exact("MSE_cdf_hat"),
        _check("MSE_pdf_sign_adjudication_size200", abs(default.value - exact) < 2e-3,
               default_form=default.value, exact=exact,
               abs_error=abs(default.value - exact), tolerance=2e-3,
               as_printed_form=printed.value, as_printed_gap=abs(printed.value - exact)),
    ])


def _theorem5(seed: int, workers: int) -> dict:
    """Bias of the exact estimator means vanishes with size at the median."""
    x, sizes = math.log(2.0), (2, 5, 20, 100)
    checks = []
    # F(x) = f(x) = 1/2 at the median; the pdf's tolerance is 1% of f(x)
    for label, exact, truth, tolerance in (
            ("cdf", oracle.exact_expected_cdf_hat, 0.5, 0.01),
            ("pdf", oracle.exact_expected_pdf_hat, 0.5, 0.01 * 0.5)):
        gaps = [abs(exact(_SPEC, 1.0, x, s) - truth) for s in sizes]
        checks.append(_decreasing(f"{label}_bias_strictly_decreasing", gaps,
                                  sizes=list(sizes), gaps=gaps))
        checks.append(_check(f"{label}_bias_small_at_100", gaps[-1] < tolerance,
                             gap=gaps[-1], tolerance=tolerance))
    return _suite("theorem5", checks, x=x)


def _consistency(seed: int, workers: int) -> dict:
    """Exceedance probability of the record MLE shrinks with the record count."""
    curve = oracle.consistency_curve(_SPEC, 1.0, 0.2, (5, 20, 80), 20_000,
                                     mix_seed_stream(seed, 60), source="records_direct",
                                     workers=workers)
    probs = [p for _, p in curve]
    return _suite("consistency", [
        _decreasing("exceedance_strictly_decreasing", probs,
                    curve=[[s, p] for s, p in curve]),
        _check("final_below_quarter", probs[-1] < 0.25, final=probs[-1], tolerance=0.25),
    ], eps=0.2, reps=20_000)


SUITES = {"theorem1": _theorem1, "example1": _example1, "theorem3": _theorem3,
          "theorem4": _theorem4, "theorem5": _theorem5, "consistency": _consistency}


def run(name: str, seed: int, workers: int = 1) -> dict:
    """The record of suite ``name`` (a key of ``SUITES``) at ``seed``."""
    return SUITES[name](int(seed), workers)
