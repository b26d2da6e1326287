"""Truncated gamma-ratio series: values, identities, flags, stability."""

from __future__ import annotations

import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from recordmle import (
    ArgumentError,
    DomainError,
    SeriesValue,
    alpha_n_exponential,
    expected_cdf_hat_series,
    expected_pdf_hat_series,
    gamma_ratio,
    make_exponential,
    make_lomax,
    make_pareto,
    make_weibull,
    mse_cdf_hat_series,
    mse_g_power_series,
    mse_pdf_hat_series,
    pdf,
    quantile,
    w_alpha_series,
)
from recordmle.closedform import (
    ASYMPTOTIC_OK,
    TRUNCATION_SUSPECT,
    _CUT,
    _HEAD,
    _gamma_sums,
    _series_log_magnitudes,
    _signed_gamma_series,
    alpha_n_sweep,
    expected_cdf_hat_sweep,
    expected_pdf_hat_sweep,
    mse_cdf_hat_sweep,
    mse_g_power_sweep,
    mse_pdf_hat_sweep,
)

EXP = make_exponential()


# frozen outputs at size 200, exponential theta=1, x=1; the asymptotic
# regime where the truncated series and the exact moments agree
def test_frozen_values_large_size():
    assert expected_cdf_hat_series(EXP, 1.0, 1.0, 200).value == pytest.approx(
        0.6330360319716467, rel=1e-13
    )
    assert expected_pdf_hat_series(EXP, 1.0, 1.0, 200).value == pytest.approx(
        0.3669548409368856, rel=1e-13
    )
    assert mse_cdf_hat_series(EXP, 1.0, 1.0, 200).value == pytest.approx(
        0.0006757782579273341, rel=1e-12
    )
    assert mse_pdf_hat_series(EXP, 1.0, 1.0, 200).value == pytest.approx(
        2.6072920343289674e-06, rel=1e-9
    )


def test_small_size_hand_values():
    # size 2, theta 1, x 0.1: E = 1 - (1 - 0.2) = 0.2 by hand
    assert expected_cdf_hat_series(EXP, 1.0, 0.1, 2).value == pytest.approx(
        0.2, abs=1e-15
    )
    # size 1: the single series term is 1, so the expectation collapses to 0
    assert expected_cdf_hat_series(EXP, 1.0, 0.7, 1).value == 0.0
    # W(alpha=2) at m=3, c=-0.6: 1 - 0.6/2 + 0.36/4
    assert w_alpha_series(EXP, 1.0, 0.1, 3, 2.0).value == pytest.approx(
        0.79, abs=1e-15
    )


def test_expected_pdf_approaches_density():
    want = math.exp(-1.0)
    got = expected_pdf_hat_series(EXP, 1.0, 1.0, 200).value
    assert abs(got - want) < 5e-3


def test_mse_pdf_decays_with_size():
    assert (
        mse_pdf_hat_series(EXP, 1.0, 1.0, 400).value
        < mse_pdf_hat_series(EXP, 1.0, 1.0, 200).value
    )


def test_no_overflow_at_size_500():
    # every term of the size-500 and size-2000 series (the largest size the
    # table sweeps use) stays far below the float ceiling
    for size in (500, 2000):
        mags = _series_log_magnitudes(-float(size), size, 0)
        assert len(mags) == size
        assert all(math.isfinite(v) for v in mags)
        assert max(mags) < math.log(1e300)


@pytest.mark.filterwarnings("error")
def test_overflowing_series_is_flagged_without_a_warning():
    # at size 2000 and A(x) = 1000 the terms overflow float64; the flagged
    # nan is the signal, so numpy must not also print an overflow warning
    sv = expected_cdf_hat_series(EXP, 1.0, 1000.0, 2000)
    assert math.isnan(sv.value)
    assert not sv.in_natural_bounds
    assert sv.regime_note == TRUNCATION_SUSPECT


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("series", [
    # A(x) = x**2 overflows
    lambda: expected_cdf_hat_series(make_weibull(2.0), 1.0, 1e200, 3),
    # k**theta overflows
    lambda: mse_g_power_series(1.3, 3, 1e300),
    # B = 1e200 makes (B A')**2 and f(x)**2 overflow
    lambda: mse_pdf_hat_series(EXP, 1e-200, 1e-300, 3),
    lambda: mse_pdf_hat_series(EXP, 1e-200, 1e-300, 3, as_printed=True),
], ids=["weibull-A", "mse-g-k-power", "MSE-pdf", "MSE-pdf-as-printed"])
def test_overflowing_power_is_flagged_without_a_warning(series):
    # as for overflowing terms: a flagged nan, with no warning and no
    # OverflowError from a Python float power
    sv = series()
    assert math.isnan(sv.value)
    assert not sv.in_natural_bounds
    assert sv.regime_note == TRUNCATION_SUSPECT

@pytest.mark.parametrize(
    "spec",
    [make_exponential(), make_lomax(), make_weibull(2.0), make_pareto(1.5)],
    ids=lambda s: s.name,
)
def test_series_bias_shrinks_for_every_builtin(spec):
    # at the median the truncated expectations drift toward F and f as the
    # record count grows
    theta = 1.0
    x = float(quantile(spec, theta, 0.5))
    f_want = float(pdf(spec, theta, x))
    cdf_errs, pdf_errs = [], []
    for size in (25, 50, 100, 200):
        cdf_errs.append(abs(expected_cdf_hat_series(spec, theta, x, size).value - 0.5))
        pdf_errs.append(abs(expected_pdf_hat_series(spec, theta, x, size).value - f_want))
    assert all(a > b for a, b in zip(cdf_errs, cdf_errs[1:]))
    assert all(a > b for a, b in zip(pdf_errs, pdf_errs[1:]))
    assert cdf_errs[-1] < 1e-2 and pdf_errs[-1] < 1e-2


def test_printed_mse_pdf_variant_disagrees_with_default():
    printed = mse_pdf_hat_series(EXP, 1.0, 1.0, 200, as_printed=True).value
    assert printed == pytest.approx(-0.4053222004344543, rel=1e-12)
    # an MSE cannot be negative; the variant is kept only to measure the
    # defect of that form
    assert printed < 0.0 < mse_pdf_hat_series(EXP, 1.0, 1.0, 200).value


def test_truncation_defect_small_size():
    sv = expected_cdf_hat_series(EXP, 1.0, 0.8, 2)
    assert sv.value == pytest.approx(1.6, abs=1e-12)
    assert not sv.in_natural_bounds
    assert sv.regime_note == TRUNCATION_SUSPECT


def test_regime_flags():
    # B A = 0.3 < 1/2 and value inside [0, 1]: trusted regime
    ok = expected_cdf_hat_series(EXP, 2.0, 0.6, 6)
    assert ok.in_natural_bounds and ok.regime_note == ASYMPTOTIC_OK
    # B A = 0.75 > 1/2: flagged even when the value lands inside the bounds
    sus = w_alpha_series(EXP, 2.0, 1.5, 6, 1.0)
    assert sus.in_natural_bounds
    assert sus.regime_note == TRUNCATION_SUSPECT


def test_terms_used_counts():
    assert expected_cdf_hat_series(EXP, 1.0, 1.0, 9).terms_used == 9
    assert expected_pdf_hat_series(EXP, 1.0, 1.0, 9).terms_used == 8
    assert mse_cdf_hat_series(EXP, 1.0, 1.0, 9).terms_used == 9
    assert mse_pdf_hat_series(EXP, 1.0, 1.0, 9).terms_used == 7
    assert w_alpha_series(EXP, 1.0, 1.0, 9, 2.0).terms_used == 9
    assert mse_g_power_series(1.0, 9, 0.5).terms_used == 9
    # the nominal count, though most of these terms underflow to 0.0
    assert expected_cdf_hat_series(EXP, 1.0, 1.0, 2000).terms_used == 2000
    assert expected_pdf_hat_series(EXP, 1.0, 1.0, 2000).terms_used == 1999
    assert mse_pdf_hat_series(EXP, 1.0, 1.0, 2000).terms_used == 1998
    assert mse_g_power_series(1.0, 2000, 0.5).terms_used == 2000


def test_series_value_is_frozen():
    sv = w_alpha_series(EXP, 1.0, 1.0, 3, 1.0)
    with pytest.raises(AttributeError):
        sv.value = 0.0


@given(
    theta=st.floats(min_value=0.2, max_value=5.0),
    x=st.floats(min_value=0.0, max_value=4.0),
    m=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=80)
def test_w_at_alpha_zero_is_one(theta, x, m):
    assert w_alpha_series(EXP, theta, x, m, 0.0).value == 1.0


@given(
    theta=st.floats(min_value=0.2, max_value=5.0),
    x=st.floats(min_value=0.0, max_value=4.0),
    size=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=80)
def test_expected_cdf_is_one_minus_w(theta, x, size):
    lhs = expected_cdf_hat_series(EXP, theta, x, size).value
    rhs = 1.0 - w_alpha_series(EXP, theta, x, size, 1.0).value
    assert lhs == pytest.approx(rhs, abs=1e-15)


@given(
    # stay in the well-conditioned regime B A <= 1/2: outside it the sums
    # cancel catastrophically and the two association orders of the shared
    # argument differ by more than the comparison tolerance
    theta=st.floats(min_value=2.0, max_value=8.0),
    x=st.floats(min_value=0.0, max_value=1.0),
    size=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=80)
def test_mse_cdf_assembles_from_w(theta, x, size):
    ba = float(EXP.B(theta)) * x
    w1 = w_alpha_series(EXP, theta, x, size, 1.0).value
    w2 = w_alpha_series(EXP, theta, x, size, 2.0).value
    expected = w2 - 2.0 * math.exp(-ba) * w1 + math.exp(-2.0 * ba)
    got = mse_cdf_hat_series(EXP, theta, x, size).value
    assert got == pytest.approx(expected, abs=1e-12)


def test_series_vanishes_at_support_start():
    # A = 0 kills every term but i = 0
    assert expected_cdf_hat_series(EXP, 1.3, 0.0, 7).value == 0.0
    assert mse_cdf_hat_series(EXP, 1.3, 0.0, 7).value == pytest.approx(0.0, abs=1e-16)
    assert w_alpha_series(EXP, 1.3, 0.0, 7, 3.0).value == 1.0
    # density mean at A = 0 keeps the i = 0 term size/(size-1) * B * A'
    sv = expected_pdf_hat_series(EXP, 2.0, 0.0, 5)
    assert sv.value == pytest.approx(5.0 / 4.0 * 0.5, rel=1e-14)


def test_families_enter_only_through_b_and_a():
    # lomax at (theta, x) with the same B A and A' multiplies out to the
    # same series core as the exponential evaluation
    lom = make_lomax()
    x = math.e - 1.0  # A_lomax = 1
    got = expected_cdf_hat_series(lom, 1.0, x, 12).value
    ref = expected_cdf_hat_series(EXP, 1.0, 1.0, 12).value
    assert got == pytest.approx(ref, rel=1e-14)


def _mp_reference(c, count, size, offset):
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        scale = mpmath.mpf(0)
        for i in range(count):
            term = (
                mpmath.mpf(c) ** i
                * mpmath.gamma(size - i - offset)
                / (mpmath.gamma(i + 1) * mpmath.gamma(size))
            )
            total += term
            scale += abs(term)
        return float(total), float(scale)


@given(
    c=st.floats(min_value=-25.0, max_value=25.0),
    size=st.integers(min_value=1, max_value=40),
    offset=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=120)
def test_core_series_matches_high_precision(c, size, offset):
    count = size - offset
    if count < 1:
        return
    got = _signed_gamma_series(c, size, offset)
    want, scale = _mp_reference(c, count, size, offset)
    # error budget scales with the sum of magnitudes (cancellation-aware)
    assert abs(got - want) <= 1e-13 * max(scale, 1e-300)


def _mp_terms(c, size, offset):
    """The series terms at 60 digits, by the exact ratio of consecutive terms."""
    with mpmath.workdps(60):
        term = mpmath.gamma(size - offset) / mpmath.gamma(size)
        terms = [term]
        for i in range(size - offset - 1):
            term = term * c / ((i + 1) * (size - i - offset - 1))
            terms.append(term)
        return terms


def _sum_of_all_terms(c, size, offset):
    """math.fsum over every signed term, zeros included, and the IEEE sum of
    the same array when it overflows."""
    with np.errstate(over="ignore"):
        terms = np.exp(_series_log_magnitudes(c, size, offset))
    if c < 0.0:
        terms[1::2] *= -1.0
    try:
        return math.fsum(terms.tolist())
    except (OverflowError, ValueError):
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(terms))


def test_core_series_skips_only_zeros_bit_for_bit():
    # c = -size B A for the table sweeps and c = alpha size theta ln k for
    # the power target (theta 1, k 0.5 and e, alpha 1 and 2)
    sizes = list(range(1, 61)) + [200, 500, 1000, 2000]
    for size in sizes:
        cs = [-size * ba for ba in (0.01, 0.3, 0.9, 1.5, 5.0)]
        cs += [alpha * size * math.log(k) for alpha in (1, 2) for k in (0.5, math.e)]
        for offset in range(min(3, size)):
            for c in cs:
                got = _signed_gamma_series(c, size, offset)
                want = _sum_of_all_terms(c, size, offset)
                assert got.hex() == want.hex(), (c, size, offset)


@pytest.mark.parametrize("size", [10, 60, 200, 1000, 2000])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_core_series_near_float64_limit_bit_for_bit(size, sign):
    # math.fsum raises on intermediate overflow, and dropping zeros re-splits
    # its partials; at peak terms near and past the float64 limit the value,
    # nan or inf included, is still that of the sum over every term
    for offset in range(3):
        for peak in (700.0, 709.0, 709.7, 709.78, 710.0, 720.0):
            lo, hi = 1e-3, 1e300 / size
            for _ in range(80):
                mid = math.sqrt(lo * hi)
                if _series_log_magnitudes(sign * size * mid, size, offset).max() < peak:
                    lo = mid
                else:
                    hi = mid
            c = sign * size * lo
            assert _series_log_magnitudes(c, size, offset).max() > peak - 1e-6
            with np.errstate(over="ignore"):
                got = _signed_gamma_series(c, size, offset)
            assert got.hex() == _sum_of_all_terms(c, size, offset).hex(), (c, offset)


@pytest.mark.parametrize("size", [500, 1000, 2000])
@pytest.mark.parametrize("offset", [0, 1, 2])
@pytest.mark.parametrize("ba", [0.3, 1.5])
def test_core_series_at_table_sizes(size, offset, ba):
    # c = -size B A is the CDF and density argument of the table sweeps
    c = -size * ba
    mags = _series_log_magnitudes(c, size, offset)
    terms = np.exp(mags) * np.where(np.arange(mags.size) % 2 == 1, -1.0, 1.0)
    exact = _mp_terms(c, size, offset)
    scale = float(sum(abs(t) for t in exact))
    # the sum of the float64 terms, within the small-size test's budget
    with mpmath.workdps(60):
        float_sum = float(mpmath.fsum(mpmath.mpf(t) for t in terms.tolist()))
    assert abs(_signed_gamma_series(c, size, offset) - float_sum) <= 1e-13 * scale
    # each term: its log magnitude is i log|c| + lgamma(size-i-offset)
    # - lgamma(i+1) - lgamma(size), with parts near lgamma(size) (1.3e4 at
    # size 2000) that math.lgamma gives to a few ulp, so the absolute
    # rounding error of the log, and with it the relative error of the term,
    # stays below 8 eps times the summed magnitudes of the parts
    eps = 2.0**-52
    for i, (got, want) in enumerate(zip(terms.tolist(), exact)):
        parts = (i * abs(math.log(abs(c))) + abs(math.lgamma(size - i - offset))
                 + math.lgamma(i + 1) + math.lgamma(size))
        err = float(abs(got - want))
        assert err <= (8.0 * parts + 2.0) * eps * float(abs(want)) + 1e-300, i


def _row_log_magnitudes(c, size, offset):
    """The log magnitudes as one 1-D expression, the order the kernel keeps."""
    lg = [math.inf] + [math.lgamma(j) for j in range(1, size + 1)]
    top = size - offset
    count = top if c else 1
    log_abs_c = math.log(abs(c)) if c else 0.0
    logs = np.arange(count) * log_abs_c + np.array(lg[top : top - count : -1])
    return logs - np.array(lg[1 : count + 1]) - lg[size]


@given(
    c=st.one_of(st.floats(min_value=-1e4, max_value=1e4),
                st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])),
    size=st.integers(min_value=1, max_value=700),
    offset=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=120)
# np.log(|c|) differs from math.log(|c|) in the last bit at these c
@example(c=-3.0454414952407385, size=6, offset=0)
@example(c=-1009.0142570300205, size=419, offset=0)
def test_log_magnitudes_bit_for_bit(c, size, offset):
    # the kernel's 2-D block, read one row wide, against the 1-D expression
    # the referee below sums
    if size <= offset:
        return
    with np.errstate(invalid="ignore"):
        got = _series_log_magnitudes(c, size, offset)
        want = _row_log_magnitudes(c, size, offset)
    assert got.tobytes() == want.tobytes()


def _check_sweep(cs, sizes, offset):
    with np.errstate(over="ignore", invalid="ignore"):
        got = _gamma_sums(cs, sizes, offset)
        want = [_sum_of_all_terms(c, size, offset) for c, size in zip(cs, sizes)]
    assert len(got) == len(cs)
    for g, w, c, size in zip(got, want, cs, sizes):
        assert g.hex() == w.hex(), (c, size, offset)


@st.composite
def _sweeps(draw):
    """A sweep: sizes 1..3000 in any order with repeats, c = +-size 10^u, u in [-3, 3],
    with some c = 0, +-inf and nan."""
    offset = draw(st.integers(min_value=0, max_value=2))
    size = st.one_of(st.integers(min_value=offset + 1, max_value=3000),
                     st.integers(min_value=max(offset + 1, _HEAD - 3), max_value=_HEAD + 3))
    rows = draw(st.lists(st.tuples(size, st.floats(min_value=-3.0, max_value=3.0),
                                   st.sampled_from([-1.0, 1.0])),
                         min_size=1, max_size=12))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))  # repeated rows
    cs = [sign * size * 10.0**u for size, u, sign in rows]
    special = st.sampled_from([0.0, math.inf, -math.inf, math.nan])
    for k in draw(st.lists(st.integers(min_value=0, max_value=len(cs) - 1), max_size=2)):
        cs[k] = draw(special)
    return cs, [size for size, _, _ in rows], offset


@given(_sweeps())
@settings(max_examples=150)
def test_gamma_sums_match_the_sum_of_all_terms(sweep):
    _check_sweep(*sweep)


@pytest.mark.parametrize("offset", [0, 1, 2])
def test_gamma_sums_widened_and_full_width_rows(offset):
    # sizes around the head width; B A = 5 and 10 leave terms above the cut
    # at the head's end, so those rows are widened; c = 0, +-inf and nan,
    # and overflowing rows, end at full width
    sizes = [offset + 1, _HEAD - 1, _HEAD, _HEAD + 1, _HEAD + 2, 1000, 3000]
    cs, rows = [], []
    for size in sizes:
        for c in [-size * u for u in (0.3, 1.5, 5.0, 10.0)] + [size * 5.0, 2e6, -2e6,
                                                              0.0, math.inf, -math.inf,
                                                              math.nan]:
            cs.append(c)
            rows.append(size)
    # at size 1110 to 1130 and c = -size 10^1.9 the head, widened to 1024,
    # ends falling below the cut, while the terms near the row's end rise
    # back above -745: the check on the row's last term sends these on
    for size in (1110, 1120, 1130):
        for e in np.linspace(1.88, 1.92, 9).tolist():
            cs.append(-size * 10.0**e)
            rows.append(size)
    # np.log(|c|) differs from math.log(|c|) in the last bit at these, and
    # at offset 0 so do the sums
    for size, c in ((6, -3.0454414952407385), (13, -7.3491286749474645),
                    (419, -1009.0142570300205), (593, -841.8152030372023)):
        cs += [c, -c]
        rows += [size, size]
    widened = [c for c, size in zip(cs, rows) if c and math.isfinite(c)
               and size - offset > _HEAD
               and _series_log_magnitudes(c, size, offset)[_HEAD - 1] >= _CUT]
    assert len(widened) >= 10
    rising_again = [c for c, size in zip(cs, rows) if size in (1110, 1120, 1130)
                    and _series_log_magnitudes(c, size, offset)[-20:].max() > -745.0
                    and _series_log_magnitudes(c, size, offset)[1023] < _CUT]
    assert rising_again
    order = list(range(len(cs)))
    random.Random(offset).shuffle(order)
    _check_sweep([cs[k] for k in order], [rows[k] for k in order], offset)


def test_gamma_sums_near_float64_limit_in_one_sweep():
    # the rows of test_core_series_near_float64_limit_bit_for_bit, every
    # size, sign and peak of one offset in one shuffled sweep
    for offset in range(3):
        cs, sizes = [], []
        for size in (10, 60, 200, 1000, 2000):
            for sign in (-1.0, 1.0):
                for peak in (700.0, 709.0, 709.7, 709.78, 710.0, 720.0):
                    lo, hi = 1e-3, 1e300 / size
                    for _ in range(80):
                        mid = math.sqrt(lo * hi)
                        mags = _series_log_magnitudes(sign * size * mid, size, offset)
                        if mags.max() < peak:
                            lo = mid
                        else:
                            hi = mid
                    cs.append(sign * size * lo)
                    sizes.append(size)
        order = list(range(len(cs)))
        random.Random(offset).shuffle(order)
        _check_sweep([cs[k] for k in order], [sizes[k] for k in order], offset)


def test_gamma_sums_of_no_rows():
    assert _gamma_sums([], [], 0) == []


def test_sweep_memory_is_bounded():
    sizes = range(1, 2001)
    expected_cdf_hat_sweep(EXP, 1.0, 1.0, sizes)  # the log-gamma table is grown
    tracemalloc.start()
    try:
        expected_cdf_hat_sweep(EXP, 1.0, 1.0, sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _same_series_value(a, b):
    return ((a.value.hex(), a.terms_used, a.in_natural_bounds, a.regime_note)
            == (b.value.hex(), b.terms_used, b.in_natural_bounds, b.regime_note))


@pytest.mark.parametrize("spec", [make_exponential(), make_lomax(), make_weibull(2.0)],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("x", [0.0, 0.4, 1.3, 40.0])
def test_each_series_is_its_sweep_row(spec, x):
    sizes = [2000, 3, 3, 700, 1, 2, 257]
    theta = 1.3
    cases = [
        (expected_cdf_hat_series, expected_cdf_hat_sweep, 1, ()),
        (expected_pdf_hat_series, expected_pdf_hat_sweep, 2, ()),
        (mse_cdf_hat_series, mse_cdf_hat_sweep, 1, ()),
        (mse_pdf_hat_series, mse_pdf_hat_sweep, 3, ()),
        (mse_pdf_hat_series, mse_pdf_hat_sweep, 3, (True,)),
    ]
    for series, sweep, least, extra in cases:
        valid = [n for n in sizes if n >= least]
        rows = sweep(spec, theta, x, valid, *extra)
        assert len(rows) == len(valid)
        for n, row in zip(valid, rows):
            assert _same_series_value(series(spec, theta, x, n, *extra), row), (series, n)
        with pytest.raises(ArgumentError):
            sweep(spec, theta, x, sizes + [least - 1], *extra)
    for k in (0.4, math.e, 1e300):
        rows = mse_g_power_sweep(1.0, sizes, k)
        for n, row in zip(sizes, rows):
            assert _same_series_value(mse_g_power_series(1.0, n, k), row), (k, n)


def test_alpha_n_values():
    assert alpha_n_exponential(2.0, 8) == 0.5
    assert alpha_n_exponential(1.0, 5) == pytest.approx(0.2)
    with pytest.raises(ArgumentError):
        alpha_n_exponential(1.0, 0)
    with pytest.raises(DomainError):
        alpha_n_exponential(-1.0, 5)


def test_alpha_n_sweep_flags_only_an_overflow():
    assert alpha_n_sweep(2.0, [8, 1]) == [SeriesValue(0.5, 8, True, ASYMPTOTIC_OK),
                                          SeriesValue(4.0, 1, True, ASYMPTOTIC_OK)]
    assert alpha_n_sweep(1e200, [2]) == [SeriesValue(math.inf, 2, False, TRUNCATION_SUSPECT)]


@pytest.mark.parametrize("theta", [math.inf, math.nan])
def test_non_finite_theta_or_k_is_rejected(theta):
    with pytest.raises(DomainError):
        alpha_n_exponential(theta, 5)
    with pytest.raises(DomainError):
        mse_g_power_series(theta, 5, 0.5)
    with pytest.raises(ArgumentError):
        mse_g_power_series(1.0, 5, theta)


def test_mse_g_frozen_values():
    # theta=1, k=e: the true growth of the truncated series (it peaks near
    # n=7 and then decays; the exact second moment diverges for every n)
    vals = {n: mse_g_power_series(1.0, n, math.e).value for n in (4, 5, 7, 11, 12)}
    assert vals[4] == pytest.approx(1.0122095223765912, rel=1e-12)
    assert vals[5] == pytest.approx(10.847634558046046, rel=1e-12)
    assert vals[7] == pytest.approx(20.384701854457095, rel=1e-12)
    assert vals[11] == pytest.approx(6.837989674700268, rel=1e-12)
    assert vals[12] == pytest.approx(4.559324228676037, rel=1e-12)
    assert vals[4] < vals[5] < vals[7]
    assert vals[7] > vals[11] > vals[12]


def test_mse_g_single_record_hand_value():
    # n=1 keeps only the i=0 term of each moment series, which equals 1, so
    # the assembled value is 1 - 2e^theta + e^{2 theta} = (e^theta - 1)^2
    sv = mse_g_power_series(1.0, 1, math.e)
    assert sv.value == pytest.approx((math.e - 1.0) ** 2, rel=1e-14)
    assert sv.regime_note == TRUNCATION_SUSPECT


def test_mse_g_flags():
    # k > 1: the exact moment integral diverges, so the series can only be
    # a truncation artifact, flagged unconditionally
    assert mse_g_power_series(1.0, 30, math.e).regime_note == TRUNCATION_SUSPECT
    sv = mse_g_power_series(1.0, 10, 0.5)
    assert sv.value == pytest.approx(-0.08316150846038017, rel=1e-11)
    assert not sv.in_natural_bounds
    assert sv.regime_note == TRUNCATION_SUSPECT
    # k < 1: g_hat and g both lie in (0, 1), so the exact MSE is at most
    # max(g, 1-g)^2 = 0.25 at k = 1/2; the positive small-size swings of
    # the series (quadrature gives 0.014..0.041 there) exceed it
    for n, want in ((3, 2.453337073107943), (5, 2.618476080390208),
                    (7, 1.0909282713454727), (9, 0.25569221796651376)):
        swing = mse_g_power_series(1.0, n, 0.5)
        assert swing.value == pytest.approx(want, rel=1e-11)
        assert not swing.in_natural_bounds
        assert swing.regime_note == TRUNCATION_SUSPECT
    big = mse_g_power_series(1.0, 40, 0.5)
    assert big.value > 0.0
    assert big.in_natural_bounds
    assert big.regime_note == ASYMPTOTIC_OK


def test_gamma_ratio_frozen_and_limit():
    assert gamma_ratio(0, 2) == pytest.approx(2.0, rel=1e-14)
    assert gamma_ratio(2, 100) == pytest.approx(1.0625931097212509, rel=1e-13)
    assert gamma_ratio(2, 1000000) == pytest.approx(1.0000060014606795, rel=1e-12)
    seq = [gamma_ratio(2, n) for n in (100, 1000, 10000, 1000000)]
    assert all(a > b > 1.0 for a, b in zip(seq, seq[1:]))


@given(i=st.integers(min_value=0, max_value=6))
@settings(max_examples=30)
def test_gamma_ratio_approaches_one(i):
    far = gamma_ratio(i, 10**7)
    assert abs(far - 1.0) < 1e-4
    nearer = gamma_ratio(i, 10**5)
    assert abs(far - 1.0) < abs(nearer - 1.0)


def test_argument_validation():
    with pytest.raises(ArgumentError):
        w_alpha_series(EXP, 1.0, 1.0, 0, 1.0)
    with pytest.raises(ArgumentError):
        w_alpha_series(EXP, 1.0, 1.0, 3, -1.0)
    with pytest.raises(ArgumentError):
        expected_pdf_hat_series(EXP, 1.0, 1.0, 1)
    with pytest.raises(ArgumentError):
        mse_pdf_hat_series(EXP, 1.0, 1.0, 2)
    with pytest.raises(ArgumentError):
        mse_g_power_series(1.0, 5, 1.0)
    with pytest.raises(ArgumentError):
        mse_g_power_series(1.0, 5, -0.5)
    with pytest.raises(ArgumentError):
        gamma_ratio(2, 3)
    with pytest.raises(ArgumentError):
        gamma_ratio(-1, 10)
    with pytest.raises(DomainError):
        expected_cdf_hat_series(EXP, -1.0, 1.0, 5)
    with pytest.raises(DomainError):
        expected_cdf_hat_series(EXP, 1.0, -1.0, 5)
