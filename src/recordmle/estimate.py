"""Maximum-likelihood estimation of theta and plug-in density/CDF estimates.

For an i.i.d. sample the log-likelihood of the family is maximized in
closed form: with T = sum A(X_i), the estimator is theta_hat =
B_inv(n / T). A record sequence R_1 < ... < R_m gives the same shape with
T = A(R_m), so theta_hat = B_inv(m / T); the interior records carry no
extra information (T is sufficient). Because n / T has the same gamma law
in both cases, the two estimators are identically distributed at n = m.

The plug-in estimators for the density and distribution function are the
exact family maps evaluated at theta_hat (functional invariance of maximum
likelihood), which is how they are computed here; no iterative
optimization is performed anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import family as fam
from .errors import DegenerateSampleError, DomainError
from .records import RecordSequence, Sample

__all__ = [
    "EstimateReport",
    "mle_theta_sample",
    "mle_theta_records",
    "pdf_hat_sample",
    "cdf_hat_sample",
    "pdf_hat_records",
    "cdf_hat_records",
]


@dataclass(frozen=True, slots=True)
class EstimateReport:
    """A fitted parameter with its provenance.

    ``source`` is ``"sample"`` or ``"records"``; ``size`` is n or m
    accordingly; ``sufficient_stat`` is T = sum A(X_i) or T = A(R_m).
    """

    theta_hat: float
    source: str
    size: int
    sufficient_stat: float
    family: str


def _theta_from_stat(spec: fam.FamilySpec, size: int, t_stat: float, source: str) -> EstimateReport:
    if not (t_stat > 0.0):
        raise DegenerateSampleError(
            f"sufficient statistic is {t_stat!r}; all mass sits at the lower "
            "support endpoint, the likelihood has no interior maximum"
        )
    # an inverse that escapes the parameter domain is a DomainError
    theta_hat = fam._check_theta(spec, fam.b_inverse(spec, size / t_stat))
    return EstimateReport(
        theta_hat=theta_hat,
        source=source,
        size=size,
        sufficient_stat=float(t_stat),
        family=spec.name,
    )


def _check_support(spec: fam.FamilySpec, values) -> np.ndarray:
    """``values`` as one float64 array, after checking that all lie in the support."""
    # out-of-support observations are a hard error; silently dropping them
    # would bias the estimator
    arr = np.asarray(values, dtype=float)
    inside = (spec.support_lo <= arr) & (arr < spec.support_hi)
    if not inside.all():
        v = values[int(np.argmin(inside))]
        raise DomainError(
            f"observation {v!r} outside support "
            f"[{spec.support_lo}, {spec.support_hi}) of {spec.name!r}"
        )
    return arr


def mle_theta_sample(spec: fam.FamilySpec, xs: Sample) -> EstimateReport:
    """Closed-form MLE from an i.i.d. sample: B_inv(n / sum A(X_i)).

    ``A`` is called once, on the whole sample; the sum is exactly rounded.
    """
    arr = _check_support(spec, xs.values)
    t_stat = math.fsum(np.asarray(spec.A(arr), dtype=float).tolist())
    return _theta_from_stat(spec, xs.n, t_stat, "sample")


def mle_theta_records(spec: fam.FamilySpec, rs: RecordSequence) -> EstimateReport:
    """Closed-form MLE from upper records: B_inv(m / A(R_m)).

    Depends on the sequence only through (m, R_m).
    """
    _check_support(spec, (rs.values[-1],))
    t_stat = float(spec.A(rs.values[-1]))
    return _theta_from_stat(spec, rs.m, t_stat, "records")


def pdf_hat_sample(spec: fam.FamilySpec, xs: Sample, x):
    """Plug-in density estimate: the exact pdf at the sample MLE."""
    return fam.pdf(spec, mle_theta_sample(spec, xs).theta_hat, x)


def cdf_hat_sample(spec: fam.FamilySpec, xs: Sample, x):
    """Plug-in CDF estimate: the exact cdf at the sample MLE."""
    return fam.cdf(spec, mle_theta_sample(spec, xs).theta_hat, x)


def pdf_hat_records(spec: fam.FamilySpec, rs: RecordSequence, x):
    """Plug-in density estimate from records: the exact pdf at the record MLE."""
    return fam.pdf(spec, mle_theta_records(spec, rs).theta_hat, x)


def cdf_hat_records(spec: fam.FamilySpec, rs: RecordSequence, x):
    """Plug-in CDF estimate from records: the exact cdf at the record MLE."""
    return fam.cdf(spec, mle_theta_records(spec, rs).theta_hat, x)
