"""Closed-form series for moments of the plug-in estimators.

With T the sufficient statistic (gamma law with shape equal to the sample
or record count and rate B(theta)), every moment of the plug-in estimators
is an expectation of a function of T. Expanding exp(-c/T) term by term and
integrating gives sums of the form

    sum_i  c^i / i!  *  E[T^-i],    E[T^-i] = B^i Gamma(size - i) / Gamma(size),

but E[T^-i] only exists for i < size: the term-wise integrals with
i >= size diverge. The series evaluated here keep exactly the terms whose
integrals exist and drop the rest, so they are truncations, not exact
moments. They converge to the exact values as the size grows (the
gamma-ratio factor tends to 1, see :func:`gamma_ratio`), but at small sizes
or large arguments they can leave the natural range of the quantity they
approximate, for example a CDF expectation above 1 or a negative MSE. Such
values are returned as computed and flagged through
``SeriesValue.in_natural_bounds`` and ``regime_note``, never clamped; the
quadrature oracle in :mod:`recordmle.oracle` supplies the exact values for
any convergent target.

Numerics: each series is one numpy pass. The log magnitudes of all terms
come from a table of log-gamma at the integers (built with ``math.lgamma``
and grown to the largest size seen), every term is sign * exp(log
magnitude), and ``math.fsum`` adds the terms correctly rounded. Terms
that underflow to 0.0, most of them at large sizes, are skipped before
``math.fsum``, which is exact since adding +-0.0 never changes an exact sum;
an overflowing series falls back to the IEEE sum of all its terms. Naive
factorial evaluation overflows beyond size of about 170; the log-space
route stays finite for all practical sizes.

The sample-based and record-based versions of each formula are the same
function of the count, so a single ``size`` argument serves both; outputs
are bit-identical at n = m by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import family as fam
from .errors import ArgumentError, DomainError

__all__ = [
    "SeriesValue",
    "ASYMPTOTIC_OK",
    "TRUNCATION_SUSPECT",
    "w_alpha_series",
    "expected_cdf_hat_series",
    "expected_pdf_hat_series",
    "mse_cdf_hat_series",
    "mse_pdf_hat_series",
    "alpha_n_exponential",
    "mse_g_power_series",
    "gamma_ratio",
]

ASYMPTOTIC_OK = "asymptotic_ok"
TRUNCATION_SUSPECT = "truncation_suspect"


@dataclass(frozen=True, slots=True)
class SeriesValue:
    """A truncated-series value with its validity flags.

    ``terms_used`` is the number of terms in the leading sum (size for the
    CDF expectation, CDF MSE, W(alpha) and the power-function MSE; size - 1
    for the density expectation; size - 2 for the density MSE).
    ``in_natural_bounds`` records whether the value lies in the natural
    range of the approximated quantity; ``regime_note`` is
    ``"truncation_suspect"`` when the argument is large enough for hard
    truncation to misbehave or the bounds are already violated, else
    ``"asymptotic_ok"``.
    """

    value: float
    terms_used: int
    in_natural_bounds: bool
    regime_note: str


# ---------------------------------------------------------------------------
# core series evaluator


# log Gamma(j) for j = 0, 1, 2, ... (the pole at 0 is never read): a table of
# a pure function, grown by doubling to the largest size seen
_LGAMMA_INT = np.array([math.inf])


def _series_log_magnitudes(c: float, size: int, offset: int) -> np.ndarray:
    """Log magnitudes of c^i Gamma(size-i-offset) / (Gamma(i+1) Gamma(size)).

    One entry per term i < size - offset; only i = 0 when c is 0, since
    every later term vanishes.
    """
    global _LGAMMA_INT
    if len(_LGAMMA_INT) <= size:
        grow = range(len(_LGAMMA_INT), max(size + 1, 2 * len(_LGAMMA_INT)))
        _LGAMMA_INT = np.concatenate((_LGAMMA_INT, [math.lgamma(j) for j in grow]))
    lg, top = _LGAMMA_INT, size - offset
    count = top if c else 1
    log_abs_c = math.log(abs(c)) if c else 0.0
    # i log|c| + lgamma(size-i-offset) - lgamma(i+1) - lgamma(size), in this
    # order: the frozen series values at size 200 pin the rounding it gives
    logs = np.arange(count) * log_abs_c + lg[top : top - count : -1]
    return logs - lg[1 : count + 1] - lg[size]


def _signed_gamma_series(c: float, size: int, offset: int) -> float:
    """Sum of c^i Gamma(size-i-offset) / (Gamma(i+1) Gamma(size)) over i < size - offset.

    Terms are sign(c)^i * exp(log magnitude), added correctly rounded by
    ``math.fsum``, so the alternating cancellation costs only the rounding
    of the terms themselves. Terms that underflow to 0.0 are dropped after
    the sign flip and before ``math.fsum``: adding +-0.0 leaves its exact,
    and so its correctly rounded, sum unchanged, and an inf term still
    makes it raise. Zeros do re-split its partials, which can move an
    intermediate-overflow error for mixed-sign sums at the float64 limit;
    the tests check the series there bit for bit. When the terms or their
    sum overflow float64, the IEEE sum (nan or +-inf) of the full signed
    array is returned, without a floating-point warning, for the caller's
    flags to catch.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(_series_log_magnitudes(c, size, offset))
        if c < 0.0:
            terms[1::2] *= -1.0
        try:
            return math.fsum(terms[terms != 0.0].tolist())
        except (OverflowError, ValueError):
            return float(np.sum(terms))


def _large_argument(size: int, b_val: float, a_val: float) -> bool:
    # hard truncation of the alternating expansion is unreliable once the
    # expansion argument reaches half the term budget
    return size * b_val * a_val > size / 2.0


def _flags(value: float, lo: float, hi: float, suspect: bool) -> tuple[bool, str]:
    in_bounds = math.isfinite(value) and lo <= value <= hi
    note = TRUNCATION_SUSPECT if (suspect or not in_bounds) else ASYMPTOTIC_OK
    return in_bounds, note


# ---------------------------------------------------------------------------
# operations


def w_alpha_series(
    spec: fam.FamilySpec, theta: float, x: float, m: int, alpha: float
) -> SeriesValue:
    """Truncated moment series W(alpha) for E[exp(-alpha * m * A(x) / T)].

    W(alpha) = sum_{i=0}^{m-1} (-alpha m B(theta) A(x))^i
               Gamma(m-i) / (Gamma(i+1) Gamma(m));
    W(0) = 1 exactly. The exact expectation lies in [0, 1], which is the
    natural-bounds window for the flag.
    """
    m = int(m)
    if m < 1:
        raise ArgumentError("w_alpha_series: m must be at least 1")
    alpha = float(alpha)
    if alpha < 0.0 or math.isnan(alpha):
        raise ArgumentError("w_alpha_series: alpha must be nonnegative")
    b_val, a_val, _ = fam.point_constants(spec, theta, x)
    value = _signed_gamma_series(-alpha * m * b_val * a_val, m, 0)
    in_bounds, note = _flags(value, 0.0, 1.0, _large_argument(m, b_val, a_val))
    return SeriesValue(value, m, in_bounds, note)


def expected_cdf_hat_series(
    spec: fam.FamilySpec, theta: float, x: float, size: int
) -> SeriesValue:
    """Truncated series for the mean of the plug-in CDF estimate.

    E[F_hat(x)] = 1 - W(1) with W from :func:`w_alpha_series`; the same
    formula serves the sample version (size = n) and the record version
    (size = m). At size 1 the series is the single term 1, so the value is
    exactly 0. Values outside [0, 1] are possible under hard truncation and
    are flagged, not corrected.
    """
    size = int(size)
    if size < 1:
        raise ArgumentError("expected_cdf_hat_series: size must be at least 1")
    b_val, a_val, _ = fam.point_constants(spec, theta, x)
    value = 1.0 - _signed_gamma_series(-size * b_val * a_val, size, 0)
    in_bounds, note = _flags(value, 0.0, 1.0, _large_argument(size, b_val, a_val))
    return SeriesValue(value, size, in_bounds, note)


def expected_pdf_hat_series(
    spec: fam.FamilySpec, theta: float, x: float, size: int
) -> SeriesValue:
    """Truncated series for the mean of the plug-in density estimate.

    E[f_hat(x)] = size B A'(x) * sum_{i=0}^{size-2} (-size B A(x))^i
                  Gamma(size-i-1) / (Gamma(size) Gamma(i+1)).
    The sum is empty at size 1, so size must be at least 2. At A(x) = 0
    only the i = 0 term survives: size/(size-1) * B * A'(x).
    """
    size = int(size)
    if size < 2:
        raise ArgumentError(
            "expected_pdf_hat_series: size must be at least 2 (empty sum below)"
        )
    b_val, a_val, ap_val = fam.point_constants(spec, theta, x)
    core = _signed_gamma_series(-size * b_val * a_val, size, 1)
    value = size * b_val * ap_val * core
    in_bounds, note = _flags(value, 0.0, math.inf, _large_argument(size, b_val, a_val))
    return SeriesValue(value, size - 1, in_bounds, note)


def mse_cdf_hat_series(
    spec: fam.FamilySpec, theta: float, x: float, size: int
) -> SeriesValue:
    """Truncated series for the MSE of the plug-in CDF estimate.

    MSE[F_hat(x)] = W(2) - 2 exp(-B A) W(1) + exp(-2 B A), assembled from
    the truncated W series; equals the direct three-part series display
    term for term. Zero exactly at A(x) = 0. The exact MSE lies in [0, 1].
    """
    size = int(size)
    if size < 1:
        raise ArgumentError("mse_cdf_hat_series: size must be at least 1")
    b_val, a_val, _ = fam.point_constants(spec, theta, x)
    ba = b_val * a_val
    w2 = _signed_gamma_series(-2.0 * size * ba, size, 0)
    w1 = _signed_gamma_series(-size * ba, size, 0)
    value = w2 - 2.0 * math.exp(-ba) * w1 + math.exp(-2.0 * ba)
    in_bounds, note = _flags(value, 0.0, 1.0, _large_argument(size, b_val, a_val))
    return SeriesValue(value, size, in_bounds, note)


def mse_pdf_hat_series(
    spec: fam.FamilySpec,
    theta: float,
    x: float,
    size: int,
    as_printed: bool = False,
) -> SeriesValue:
    """Truncated series for the MSE of the plug-in density estimate.

    The default assembles the second-moment identity
    MSE = E[f_hat^2] - 2 f(x) E[f_hat] + f(x)^2 with

        E[f_hat^2] = (size B A')^2 * sum_{i=0}^{size-3} (-2 size B A)^i
                     Gamma(size-i-2) / (Gamma(size) Gamma(i+1)),

    which is the form consistent with the W(alpha) derivation and the one
    that agrees with the quadrature oracle. ``as_printed=True`` evaluates a
    circulating variant of the display whose first sum omits the size^2
    factor, whose cross term carries a single A' factor, and whose last
    term enters with a minus sign; it is kept only so the discrepancy can
    be reproduced and measured, and it disagrees with the oracle badly
    (wrong sign at moderate sizes).
    """
    size = int(size)
    if size < 3:
        raise ArgumentError(
            "mse_pdf_hat_series: size must be at least 3 (first sum empty below)"
        )
    b_val, a_val, ap_val = fam.point_constants(spec, theta, x)
    ba = b_val * a_val
    s1 = _signed_gamma_series(-2.0 * size * ba, size, 2)
    s2 = _signed_gamma_series(-size * ba, size, 1)
    if as_printed:
        value = (
            (b_val * ap_val) ** 2 * s1
            - 2.0 * size * ap_val * b_val**2 * math.exp(-ba) * s2
            - (ap_val * b_val) ** 2 * math.exp(-2.0 * ba)
        )
    else:
        f_exact = ap_val * b_val * math.exp(-ba)
        e_pdf = size * b_val * ap_val * s2
        e_pdf_sq = (size * b_val * ap_val) ** 2 * s1
        value = e_pdf_sq - 2.0 * f_exact * e_pdf + f_exact**2
    in_bounds, note = _flags(value, 0.0, math.inf, _large_argument(size, b_val, a_val))
    return SeriesValue(value, size - 2, in_bounds, note)


def alpha_n_exponential(theta: float, n: int) -> float:
    """Exact MSE of the parameter MLE for the exponential member: theta^2 / n.

    Holds for both the sample estimator at size n and the record estimator
    at m = n, since the two share one sampling law.
    """
    n = int(n)
    if n < 1:
        raise ArgumentError("alpha_n_exponential: n must be at least 1")
    theta = float(theta)
    if not (theta > 0.0):
        raise DomainError("alpha_n_exponential: theta must be positive")
    return theta * theta / n


def mse_g_power_series(theta: float, n: int, k: float) -> SeriesValue:
    """Truncated MSE series for estimating g(theta) = k**theta.

    In the scale-free parametrization (B(theta) = theta), the estimator is
    g(theta_hat) = k**(n/T) and the alpha-th moment expands as

        E[g(theta_hat)^alpha] = sum_{i=0}^{n-1} (alpha n theta ln k)^i
                                Gamma(n-i) / (Gamma(i+1) Gamma(n)),

    truncated to the terms whose integrals exist. The MSE assembles as
    E[g^2] - 2 k**theta E[g] + k**(2 theta). For k > 1 the exact second
    moment does not even converge (the integrand blows up at T -> 0), so
    the series is a pure truncation artifact there and is always flagged
    ``truncation_suspect``; the natural-bounds window is then [0, inf).
    For k < 1 the exact moment converges and the series approaches it as
    n grows, but at small n the truncation error is large and the value
    swings in sign. Both g(theta_hat) and g lie in (0, 1) then, so the
    exact MSE lies in [0, max(g, 1 - g)^2], which is the window for the
    flag (0.25 at g = 1/2).
    """
    n = int(n)
    if n < 1:
        raise ArgumentError("mse_g_power_series: n must be at least 1")
    k = float(k)
    if not (k > 0.0) or k == 1.0 or math.isnan(k):
        raise ArgumentError(
            "mse_g_power_series: k must be positive and not 1 (g degenerates)"
        )
    theta = float(theta)
    if not (theta > 0.0):
        raise DomainError("mse_g_power_series: theta must be positive")
    log_k = math.log(k)
    e1 = _signed_gamma_series(n * theta * log_k, n, 0)
    e2 = _signed_gamma_series(2.0 * n * theta * log_k, n, 0)
    g_true = k**theta
    value = e2 - 2.0 * g_true * e1 + g_true * g_true
    hi = math.inf if k > 1.0 else max(g_true, 1.0 - g_true) ** 2
    in_bounds, note = _flags(value, 0.0, hi, k > 1.0)
    return SeriesValue(value, n, in_bounds, note)


def gamma_ratio(i: int, n: int) -> float:
    """The ratio Gamma(n-i-1) n^(i+1) / Gamma(n), evaluated in log space.

    Tends to 1 as n grows with i fixed, which is the fact that drives the
    asymptotic unbiasedness of the truncated series: each retained term
    approaches the corresponding term of the convergent exponential
    expansion. Requires n >= i + 2 so the numerator gamma has a positive
    argument (at i = 0, n = 2 the ratio is Gamma(1)*2/Gamma(2) = 2).
    """
    i = int(i)
    n = int(n)
    if i < 0:
        raise ArgumentError("gamma_ratio: i must be nonnegative")
    if n < i + 2:
        raise ArgumentError("gamma_ratio: requires n >= i + 2")
    return math.exp(math.lgamma(n - i - 1) + (i + 1) * math.log(n) - math.lgamma(n))
