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

Numerics: one kernel, ``_gamma_sums``, evaluates every series of a sweep
over sizes; each table formula is such a sweep, with one evaluation of the
point constants, and the one-size functions are sweeps of one size. The
log magnitudes of the terms come from a table of log-gamma at the integers
(built with ``math.lgamma`` and grown to the largest size seen), every term
is sign * exp(log magnitude), and each row's terms are added correctly
rounded. A block of 8 rows or more is added at once by a pairwise TwoSum
tree whose rounding certificate (Ogita, Rump and Oishi, 2005) proves that
result for nearly every row; ``math.fsum`` adds the rows it leaves, and
every row of a smaller block. Rows go in blocks of at most 2^13 terms,
each over a head of its first 256 terms, widened twofold while a check
fails: the log magnitude of term i rises, falls and rises again, each at
most once, because its step from i to i + 1 is convex in i, so a head
that ends falling, with its last term and the row's last term both below
-800, holds every term that does not underflow. The cut lies 55 below the
-745.13 where ``np.exp`` returns 0.0, which covers the rounding of the
logs. Terms that underflow to 0.0, most of them at large sizes, are left
out, which is exact since adding +-0.0 never changes an exact sum; an
overflowing series is run at full width and falls back to the IEEE sum of
all its terms. Naive factorial evaluation overflows beyond size of about
170; the log-space route stays finite for all practical sizes.

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
    "alpha_n_sweep",
    "mse_g_power_series",
    "gamma_ratio",
    "expected_cdf_hat_sweep",
    "expected_pdf_hat_sweep",
    "mse_cdf_hat_sweep",
    "mse_pdf_hat_sweep",
    "mse_g_power_sweep",
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
# a row is first summed over a head of its first _HEAD terms, widened
# _WIDEN-fold while the window check fails; blocks hold at most _BLOCK_TERMS
_HEAD = 256
_WIDEN = 2
_BLOCK_TERMS = 1 << 13
# a block with at least _CERTIFY_ROWS rows to sum goes through
# _certified_sums first; below that, one math.fsum per row is the faster of
# the two exact routes
_CERTIFY_ROWS = 8
# np.exp returns 0.0 below -745.13; the 55 between covers the rounding of
# the log magnitudes, a few ulp of parts far below 1e9
_CUT = -800.0
# unit roundoff of float64, and the bound on sum |term| below which no
# partial sum of a certified row overflows
_U = 2.0**-53
_SAFE_ABS_SUM = 2.0**1000


def _lgamma_table(entries: int) -> np.ndarray:
    """The log-gamma table, grown to at least ``entries`` entries."""
    global _LGAMMA_INT
    if len(_LGAMMA_INT) < entries:
        grow = range(len(_LGAMMA_INT), max(entries, 2 * len(_LGAMMA_INT)))
        _LGAMMA_INT = np.concatenate((_LGAMMA_INT, [math.lgamma(j) for j in grow]))
    return _LGAMMA_INT


def _log_abs(c: float) -> float:
    # math.log: np.log differs from it in the last bit for some c
    return math.log(abs(c)) if c else 0.0


def _log_magnitude_block(lg: np.ndarray, log_cs, tops, offset: int,
                         width: int) -> np.ndarray:
    """Rows of log magnitudes of c^i Gamma(top-i) / (Gamma(i+1) Gamma(top+offset)), i < width.

    One row per (log|c|, top), top = size - offset, from the log-gamma table
    ``lg``. Lanes at or past top read Gamma(1) in place of Gamma(top-i); the
    caller masks them.
    """
    lanes = np.arange(width)
    tops = np.asarray(tops)[:, None]
    top_minus_i = tops - lanes
    if top_minus_i[:, -1].min() < 1:
        np.maximum(top_minus_i, 1, out=top_minus_i)
    # i log|c| + lgamma(top-i) - lgamma(i+1) - lgamma(size), in this order:
    # the frozen series values at size 200 pin the rounding it gives
    logs = lanes * np.asarray(log_cs)[:, None]
    logs += lg[top_minus_i]
    logs -= lg[1 : width + 1]
    logs -= lg[tops + offset]
    return logs


def _two_sum(a: np.ndarray, b: np.ndarray, error: np.ndarray) -> np.ndarray:
    """fl(a + b); its rounding error, a + b - fl(a + b) exactly, goes to ``error`` (TwoSum)."""
    s = a + b
    z = s - a
    np.subtract(s, z, out=error)
    np.subtract(a, error, out=error)
    np.subtract(b, z, out=z)
    error += z
    return s


def _certified_sums(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of ``terms``, and the mask of rows where each is the correctly rounded sum.

    A pairwise TwoSum tree over a row padded to a power-of-two width w
    leaves one float s and w - 1 errors e with S = s + sum e exactly. With
    E = fl(sum e) and r, rho = TwoSum(s, E), |S - r| <= |rho| + |sum e - E|,
    and in any summation order |sum e - E| <= gamma_w sum |e|, gamma_w =
    w u / (1 - w u), which 2 gamma_w fl(sum |e|) bounds (Ogita, Rump and
    Oishi, 2005). If |rho| plus that bound lies below half the smaller gap
    from r to its two neighbours, r is the float nearest S: the correctly
    rounded sum, which ``math.fsum`` returns. A row is certified only if
    also r != 0, leaving the sign of a zero sum to ``math.fsum`` (half the
    gap at 0 rounds to 0, so the gap test refuses it as well), and its sum
    of |term| is below 2^1000, so that no partial sum, here or in
    ``math.fsum``, overflows. Ties and near-ties fail the bound and are left
    to the caller.
    """
    width = terms.shape[1]
    full = 1 << (width - 1).bit_length()
    # lanes down axis 0, so that each half of a level is one contiguous slice
    level = np.zeros((full, len(terms)))
    level[:width] = terms.T
    # the errors of the level of half-width h go to lanes h..2h - 1; lane 0 stays 0
    errors = np.empty((full, len(terms)))
    errors[0] = 0.0
    half = full
    while half > 1:
        half //= 2
        level = _two_sum(level[:half], level[half : 2 * half], errors[half : 2 * half])
    rho = np.empty(len(terms))
    near = _two_sum(level[0], errors.sum(axis=0), rho)
    gamma = full * _U / (1 - full * _U)
    bound = np.abs(rho) + 2 * gamma * np.abs(errors, out=errors).sum(axis=0)
    gap = np.minimum(near - np.nextafter(near, -np.inf), np.nextafter(near, np.inf) - near)
    sure = ((bound < 0.5 * gap) & (near != 0.0)
            & (np.abs(terms).sum(axis=1) < _SAFE_ABS_SUM))
    return sure, near


def _gamma_sums(cs, sizes, offset: int) -> list[float]:
    """Sum of c^i Gamma(size-i-offset) / (Gamma(i+1) Gamma(size)) over i < size - offset.

    One sum per (c, size) row; every size must exceed ``offset``. Terms are
    sign(c)^i * exp(log magnitude), added correctly rounded, so the
    alternating cancellation costs only the rounding of the terms
    themselves. A block with at least ``_CERTIFY_ROWS`` rows to sum goes
    through :func:`_certified_sums` first: the correctly rounded sum is
    unique, so a row it certifies has the value ``math.fsum`` gives, and
    only the other rows reach ``math.fsum``. Terms that underflow to 0.0
    are dropped after the sign flip and before ``math.fsum``: adding +-0.0
    leaves its exact, and so its correctly rounded, sum unchanged, and an
    inf term still makes it raise. Zeros do re-split its partials, which
    can move an intermediate-overflow error for mixed-sign sums at the
    float64 limit; the tests check the series there bit for bit. When the
    terms or their sum overflow float64, the IEEE sum (nan or +-inf) of the
    full signed row is returned, without a floating-point warning, for the
    caller's flags to catch.

    Rows go in blocks of at most ``_BLOCK_TERMS`` terms, and a row is
    summed over a head of its first terms when the rest provably underflow.
    With L(i) the log magnitude of term i, L(i+1) - L(i) = log|c| -
    log((i+1)(top-1-i)) is convex in i, so L rises, falls and rises again,
    each at most once. If L falls at the head's last term and both that
    term and the row's last term lie below ``_CUT``, so does every term
    between them: the head holds all of the row's nonzero terms, in order,
    and ``math.fsum`` sees the same list. Rows failing that check are
    widened and run again, as are rows whose ``math.fsum`` raises, at full
    width, for the IEEE sum of every term.
    """
    c_arr = np.array(cs, dtype=float)
    log_cs = np.fromiter(map(_log_abs, c_arr.tolist()), float, len(c_arr))
    tops = np.array(sizes, dtype=np.intp) - offset
    counts = np.where(c_arr != 0.0, tops, 1)
    widths = np.minimum(counts, _HEAD)
    signs = np.where(c_arr < 0.0, -1.0, 1.0)
    lg = _lgamma_table(int(tops.max(initial=0)) + offset + 1)
    sums = np.zeros(len(c_arr))

    def run(rows: np.ndarray) -> np.ndarray:
        """Sum ``rows`` over the width of the last; return the rows to run again."""
        width = int(widths[rows[-1]])
        count = counts[rows]
        logs = _log_magnitude_block(lg, log_cs[rows], tops[rows], offset, width)
        retry = count > width
        if retry.any():
            last = ((count - 1) * log_cs[rows] + lg[tops[rows] - count + 1] - lg[count]
                    - lg[tops[rows] + offset])
            edge = logs[:, width - 1]
            retry &= ~((edge < _CUT) & (edge < logs[:, width - 2]) & (last < _CUT))
            widths[rows[retry]] = np.minimum(_WIDEN * width, count[retry])
        # lanes np.exp would return as 0.0 after spending ~15 ns on each, and
        # padding lanes, are computed as exp(0.0) and zeroed
        zero = logs < _CUT
        if count.min() < width:
            zero |= np.arange(width) >= count[:, None]
        np.putmask(logs, zero, 0.0)
        terms = np.exp(logs, out=logs)
        np.putmask(terms, zero, 0.0)
        terms[:, 1::2] *= signs[rows][:, None]
        slow = ~retry
        if len(rows) >= _CERTIFY_ROWS and np.count_nonzero(slow) >= _CERTIFY_ROWS:
            some = slice(None) if slow.all() else slow
            sure, values = _certified_sums(terms[some])
            sums[rows[some][sure]] = values[sure]
            slow[some] = ~sure
        rest = np.flatnonzero(slow)
        if not rest.size:
            return rows[retry]
        left = terms[rest]
        nonzero = left != 0.0
        kept = nonzero.sum(axis=1)
        ends = np.cumsum(kept)
        begins, ends, packed = (ends - kept).tolist(), ends.tolist(), left[nonzero]
        for j, k in enumerate(rest.tolist()):
            try:
                # one row's Python floats at a time, not a block's
                sums[rows[k]] = math.fsum(packed[begins[j] : ends[j]].tolist())
            except (OverflowError, ValueError):
                if count[k] > width:  # the IEEE sum needs every term
                    widths[rows[k]] = count[k]
                    retry[k] = True
                else:
                    sums[rows[k]] = np.sum(terms[k, : count[k]])
        return rows[retry]

    pending = np.arange(len(c_arr))
    with np.errstate(over="ignore", invalid="ignore"):
        while pending.size:
            pending = pending[np.argsort(widths[pending], kind="stable")]
            retry, start = [], 0
            # widest row last, so a block's width is that of its last row
            for stop, width in enumerate(widths[pending].tolist()):
                if stop > start and (stop + 1 - start) * width > _BLOCK_TERMS:
                    retry.append(run(pending[start:stop]))
                    start = stop
            retry.append(run(pending[start:]))
            pending = np.concatenate(retry)
    return sums.tolist()


def _large_argument(size: int, b_val: float, a_val: float) -> bool:
    # hard truncation of the alternating expansion is unreliable once the
    # expansion argument reaches half the term budget
    return size * b_val * a_val > size / 2.0


def _series_value(value: float, terms_used: int, lo: float, hi: float,
                  suspect: bool) -> SeriesValue:
    in_bounds = math.isfinite(value) and lo <= value <= hi
    note = TRUNCATION_SUSPECT if (suspect or not in_bounds) else ASYMPTOTIC_OK
    return SeriesValue(value, terms_used, in_bounds, note)


def _pow(base: float, exponent: float) -> float:
    """``base**exponent``, or inf where that Python float power overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _check_sizes(sizes, least: int, message: str) -> list[int]:
    sizes = [int(size) for size in sizes]
    if any(size < least for size in sizes):
        raise ArgumentError(message)
    return sizes


# ---------------------------------------------------------------------------
# operations
#
# Each table formula is a sweep over a list of sizes, with one evaluation of
# the point constants and one _gamma_sums call per series it adds; the
# one-size functions are sweeps of one size.


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
    value = _gamma_sums([-alpha * m * b_val * a_val], [m], 0)[0]
    return _series_value(value, m, 0.0, 1.0, _large_argument(m, b_val, a_val))


def expected_cdf_hat_sweep(
    spec: fam.FamilySpec, theta: float, x: float, sizes
) -> list[SeriesValue]:
    """:func:`expected_cdf_hat_series` at each of ``sizes``, in order."""
    sizes = _check_sizes(sizes, 1, "expected_cdf_hat_series: size must be at least 1")
    b_val, a_val, _ = fam.point_constants(spec, theta, x)
    ws = _gamma_sums([-size * b_val * a_val for size in sizes], sizes, 0)
    return [_series_value(1.0 - w, size, 0.0, 1.0, _large_argument(size, b_val, a_val))
            for size, w in zip(sizes, ws)]


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
    return expected_cdf_hat_sweep(spec, theta, x, [size])[0]


def expected_pdf_hat_sweep(
    spec: fam.FamilySpec, theta: float, x: float, sizes
) -> list[SeriesValue]:
    """:func:`expected_pdf_hat_series` at each of ``sizes``, in order."""
    sizes = _check_sizes(
        sizes, 2, "expected_pdf_hat_series: size must be at least 2 (empty sum below)"
    )
    b_val, a_val, ap_val = fam.point_constants(spec, theta, x)
    cores = _gamma_sums([-size * b_val * a_val for size in sizes], sizes, 1)
    return [_series_value(size * b_val * ap_val * core, size - 1, 0.0, math.inf,
                          _large_argument(size, b_val, a_val))
            for size, core in zip(sizes, cores)]


def expected_pdf_hat_series(
    spec: fam.FamilySpec, theta: float, x: float, size: int
) -> SeriesValue:
    """Truncated series for the mean of the plug-in density estimate.

    E[f_hat(x)] = size B A'(x) * sum_{i=0}^{size-2} (-size B A(x))^i
                  Gamma(size-i-1) / (Gamma(size) Gamma(i+1)).
    The sum is empty at size 1, so size must be at least 2. At A(x) = 0
    only the i = 0 term survives: size/(size-1) * B * A'(x).
    """
    return expected_pdf_hat_sweep(spec, theta, x, [size])[0]


def mse_cdf_hat_sweep(
    spec: fam.FamilySpec, theta: float, x: float, sizes
) -> list[SeriesValue]:
    """:func:`mse_cdf_hat_series` at each of ``sizes``, in order."""
    sizes = _check_sizes(sizes, 1, "mse_cdf_hat_series: size must be at least 1")
    b_val, a_val, _ = fam.point_constants(spec, theta, x)
    ba = b_val * a_val
    ws = _gamma_sums([-2.0 * size * ba for size in sizes]
                     + [-size * ba for size in sizes], sizes + sizes, 0)
    out = []
    for size, w2, w1 in zip(sizes, ws, ws[len(sizes):]):
        value = w2 - 2.0 * math.exp(-ba) * w1 + math.exp(-2.0 * ba)
        out.append(_series_value(value, size, 0.0, 1.0, _large_argument(size, b_val, a_val)))
    return out


def mse_cdf_hat_series(
    spec: fam.FamilySpec, theta: float, x: float, size: int
) -> SeriesValue:
    """Truncated series for the MSE of the plug-in CDF estimate.

    MSE[F_hat(x)] = W(2) - 2 exp(-B A) W(1) + exp(-2 B A), assembled from
    the truncated W series; equals the direct three-part series display
    term for term. Zero exactly at A(x) = 0. The exact MSE lies in [0, 1].
    """
    return mse_cdf_hat_sweep(spec, theta, x, [size])[0]


def mse_pdf_hat_sweep(
    spec: fam.FamilySpec, theta: float, x: float, sizes, as_printed: bool = False
) -> list[SeriesValue]:
    """:func:`mse_pdf_hat_series` at each of ``sizes``, in order."""
    sizes = _check_sizes(
        sizes, 3, "mse_pdf_hat_series: size must be at least 3 (first sum empty below)"
    )
    b_val, a_val, ap_val = fam.point_constants(spec, theta, x)
    ba = b_val * a_val
    s1s = _gamma_sums([-2.0 * size * ba for size in sizes], sizes, 2)
    s2s = _gamma_sums([-size * ba for size in sizes], sizes, 1)
    out = []
    for size, s1, s2 in zip(sizes, s1s, s2s):
        if as_printed:
            value = (
                _pow(b_val * ap_val, 2) * s1
                - 2.0 * size * ap_val * _pow(b_val, 2) * math.exp(-ba) * s2
                - _pow(ap_val * b_val, 2) * math.exp(-2.0 * ba)
            )
        else:
            f_exact = ap_val * b_val * math.exp(-ba)
            e_pdf = size * b_val * ap_val * s2
            e_pdf_sq = _pow(size * b_val * ap_val, 2) * s1
            value = e_pdf_sq - 2.0 * f_exact * e_pdf + _pow(f_exact, 2)
        out.append(_series_value(value, size - 2, 0.0, math.inf,
                                 _large_argument(size, b_val, a_val)))
    return out


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
    return mse_pdf_hat_sweep(spec, theta, x, [size], as_printed)[0]


def alpha_n_exponential(theta: float, n: int) -> float:
    """Exact MSE of the parameter MLE for the exponential member: theta^2 / n.

    Holds for both the sample estimator at size n and the record estimator
    at m = n, since the two share one sampling law.
    """
    n = int(n)
    if n < 1:
        raise ArgumentError("alpha_n_exponential: n must be at least 1")
    theta = float(theta)
    if not (0.0 < theta < math.inf):
        raise DomainError("alpha_n_exponential: theta must be positive and finite")
    return theta * theta / n


def alpha_n_sweep(theta: float, sizes) -> list[SeriesValue]:
    """:func:`alpha_n_exponential` at each of the sizes, flagged only if it overflows."""
    return [_series_value(alpha_n_exponential(theta, n), int(n), 0.0, math.inf, False)
            for n in sizes]


def mse_g_power_sweep(theta: float, sizes, k: float) -> list[SeriesValue]:
    """:func:`mse_g_power_series` at each of the sizes n, in order."""
    sizes = _check_sizes(sizes, 1, "mse_g_power_series: n must be at least 1")
    k = float(k)
    if not (0.0 < k < math.inf) or k == 1.0:
        raise ArgumentError(
            "mse_g_power_series: k must be positive, finite and not 1 (g degenerates)"
        )
    theta = float(theta)
    if not (0.0 < theta < math.inf):
        raise DomainError("mse_g_power_series: theta must be positive and finite")
    log_k = math.log(k)
    es = _gamma_sums([n * theta * log_k for n in sizes]
                     + [2.0 * n * theta * log_k for n in sizes], sizes + sizes, 0)
    g_true = _pow(k, theta)
    hi = math.inf if k > 1.0 else max(g_true, 1.0 - g_true) ** 2
    return [_series_value(e2 - 2.0 * g_true * e1 + g_true * g_true, n, 0.0, hi, k > 1.0)
            for n, e1, e2 in zip(sizes, es, es[len(sizes):])]


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
    return mse_g_power_sweep(theta, [n], k)[0]


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
