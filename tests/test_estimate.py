"""Closed-form MLEs checked against direct likelihood maximization."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from recordmle import (
    ArgumentError,
    DegenerateSampleError,
    DomainError,
    RecordSequence,
    Sample,
    cdf,
    cdf_hat_records,
    cdf_hat_sample,
    extract_upper_records,
    make_exponential,
    make_lomax,
    make_pareto,
    make_weibull,
    mle_theta_records,
    mle_theta_sample,
    pdf,
    pdf_hat_records,
    pdf_hat_sample,
    sample_iid,
    sample_records_direct,
)


def test_exponential_sample_mle_is_mean():
    spec = make_exponential()
    report = mle_theta_sample(spec, Sample(values=(1.0, 2.0, 3.0)))
    assert report.theta_hat == pytest.approx(2.0, abs=1e-15)
    assert report.source == "sample"
    assert report.size == 3
    assert report.sufficient_stat == pytest.approx(6.0)
    assert report.family == "exponential"


def test_exponential_record_mle_hand_value():
    spec = make_exponential()
    rs = extract_upper_records([3.0, 1.0, 4.0, 1.0, 5.0])
    report = mle_theta_records(spec, rs)
    # T = A(R_m) = 5, m = 3, theta_hat = B_inv(3/5) = 5/3
    assert report.theta_hat == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert report.source == "records"
    assert report.size == 3
    assert report.sufficient_stat == pytest.approx(5.0)


def test_weibull_sample_mle_hand_value():
    # alpha = 2: T = sum x^2 = 2, theta_hat = n/T = 1
    spec = make_weibull(2.0)
    report = mle_theta_sample(spec, Sample(values=(1.0, 1.0)))
    assert report.theta_hat == pytest.approx(1.0)


def test_single_observation_sample_and_record_agree():
    # a sample of one is its own record sequence
    for spec in (make_exponential(), make_weibull(2.0), make_lomax()):
        s = mle_theta_sample(spec, Sample(values=(0.7,)))
        r = mle_theta_records(spec, extract_upper_records([0.7]))
        assert s.theta_hat == r.theta_hat
        assert s.sufficient_stat == r.sufficient_stat


def test_exponential_sample_mle_scale_equivariance():
    spec = make_exponential()
    xs = (0.3, 1.1, 2.4, 0.9)
    base = mle_theta_sample(spec, Sample(values=xs)).theta_hat
    for c in (0.25, 3.0, 17.5):
        scaled = Sample(values=tuple(c * x for x in xs))
        assert mle_theta_sample(spec, scaled).theta_hat == pytest.approx(
            c * base, rel=1e-12
        )


def test_record_mle_depends_only_on_last_record():
    spec = make_exponential()
    a = extract_upper_records([1.0, 2.0, 5.0])
    b = extract_upper_records([0.5, 4.9, 5.0])
    assert mle_theta_records(spec, a).theta_hat == mle_theta_records(spec, b).theta_hat


def test_lomax_and_pareto_hand_values():
    lomax = make_lomax()
    report = mle_theta_sample(lomax, Sample(values=(math.e - 1.0,)))
    assert report.theta_hat == pytest.approx(1.0, rel=1e-15)

    pareto = make_pareto(1.0)
    rs = extract_upper_records([math.e, math.e**2])
    report = mle_theta_records(pareto, rs)
    # A(R_2) = 2, m = 2, B identity: theta_hat = 1
    assert report.theta_hat == pytest.approx(1.0, rel=1e-12)


def _sample_loglik(spec, values, theta):
    return float(np.sum(np.log(pdf(spec, theta, np.asarray(values)))))


def _record_loglik(spec, rs, theta):
    # joint density of the first m records: B^m exp(-B A(R_m)) prod A'(R_i)
    b_val = float(spec.B(theta))
    return rs.m * math.log(b_val) - b_val * float(spec.A(rs.values[-1]))


@pytest.mark.parametrize(
    "spec,theta",
    [
        (make_exponential(), 1.7),
        (make_lomax(), 0.8),
        (make_weibull(2.0), 1.3),
        (make_pareto(1.5), 2.2),
    ],
    ids=lambda v: v.name if hasattr(v, "name") else str(v),
)
def test_sample_mle_maximizes_likelihood(spec, theta):
    xs = sample_iid(spec, theta, 60, rng_stream=(42, 0))
    closed = mle_theta_sample(spec, xs).theta_hat
    opt = minimize_scalar(
        lambda t: -_sample_loglik(spec, xs.values, t),
        bounds=(1e-3, 50.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    assert closed == pytest.approx(opt.x, rel=1e-6)
    # the closed form is never below the numeric optimum
    assert _sample_loglik(spec, xs.values, closed) >= opt.fun * -1.0 - 1e-9


@pytest.mark.parametrize(
    "spec,theta",
    [(make_exponential(), 1.7), (make_weibull(0.5), 0.6), (make_pareto(2.0), 1.1)],
    ids=lambda v: v.name if hasattr(v, "name") else str(v),
)
def test_record_mle_maximizes_likelihood(spec, theta):
    rs = sample_records_direct(spec, theta, 9, rng_stream=(43, 0))
    closed = mle_theta_records(spec, rs).theta_hat
    opt = minimize_scalar(
        lambda t: -_record_loglik(spec, rs, t),
        bounds=(1e-3, 50.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    assert closed == pytest.approx(opt.x, rel=1e-6)


def test_sample_and_record_fits_agree_on_shared_statistic():
    # both estimators are B_inv(size / T); feeding the same (size, T) through
    # either path must give the same parameter
    spec = make_lomax()
    rs = extract_upper_records([0.5, 1.5, 4.0])
    rec = mle_theta_records(spec, rs)
    t_rec = rec.sufficient_stat
    # build a sample whose A-sum equals A(R_m): three equal points each at
    # A_inv(T/3)
    point = math.expm1(t_rec / 3.0)
    samp = mle_theta_sample(spec, Sample(values=(point, point, point)))
    assert samp.theta_hat == pytest.approx(rec.theta_hat, rel=1e-12)
    assert samp.sufficient_stat == pytest.approx(t_rec, rel=1e-12)


def test_degenerate_sample_rejected():
    spec = make_exponential()
    with pytest.raises(DegenerateSampleError):
        mle_theta_sample(spec, Sample(values=(0.0, 0.0)))
    pareto = make_pareto(2.0)
    with pytest.raises(DegenerateSampleError):
        # every observation at the support endpoint: T = 0
        mle_theta_records(pareto, extract_upper_records([2.0]))


def test_out_of_support_observation_rejected():
    spec = make_exponential()
    with pytest.raises(DomainError):
        mle_theta_sample(spec, Sample(values=(1.0, -0.5)))
    pareto = make_pareto(2.0)
    with pytest.raises(DomainError):
        mle_theta_sample(pareto, Sample(values=(1.0, 3.0)))
    # every record is checked, not only R_m
    with pytest.raises(DomainError, match=r"^observation -1\.5 outside support"):
        mle_theta_records(spec, RecordSequence((-1.5, 2.0), (0, 1)))


_ARRAY_SPECS = [
    make_exponential(),
    make_lomax(),
    make_weibull(2.0),
    make_weibull(0.7),
    make_pareto(1.5),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("spec", _ARRAY_SPECS, ids=lambda s: s.name)
def test_sample_mle_matches_per_row_definition(spec, seed):
    # one A call on the whole array must give the per-row sum bit for bit
    xs = sample_iid(spec, 1.3, 5000, rng_stream=(seed, 3))
    report = mle_theta_sample(spec, xs)
    t_ref = math.fsum(float(spec.A(v)) for v in xs.values)
    assert report.sufficient_stat.hex() == t_ref.hex()
    theta_ref = float(spec.B_inv(xs.n / t_ref))
    assert report.theta_hat.hex() == theta_ref.hex()


@pytest.mark.parametrize("spec", _ARRAY_SPECS, ids=lambda s: s.name)
def test_out_of_support_message_names_the_first_offender(spec):
    values = list(sample_iid(spec, 1.0, 101, rng_stream=(5, 0)).values)
    bad = spec.support_lo - 0.25
    values[50] = bad
    values[70] = spec.support_lo - 3.0
    expected = (f"observation {bad!r} outside support "
                f"[{spec.support_lo}, {spec.support_hi}) of {spec.name!r}")
    with pytest.raises(DomainError) as info:
        mle_theta_sample(spec, Sample(values=tuple(values)))
    assert str(info.value) == expected
    values[50] = math.inf  # the open upper end is outside too
    with pytest.raises(DomainError, match=r"observation inf outside support"):
        mle_theta_sample(spec, Sample(values=tuple(values)))


def test_nan_and_non_numeric_observations_rejected():
    with pytest.raises(ArgumentError, match="Sample: NaN observation"):
        Sample((1.0, math.nan))
    with pytest.raises(ArgumentError, match="Sample: NaN observation"):
        Sample((math.nan,) + (1.0,) * 1000)
    for values in (("1.0",), (None, 1.0)):
        with pytest.raises(TypeError):
            Sample(values)


@pytest.mark.parametrize("escape", [-1.0, math.inf, math.nan])
def test_inverse_escaping_parameter_domain_rejected(escape):
    base = make_exponential()
    spec = dataclasses.replace(base, name="escaping", B_inv=lambda y: np.full_like(y, escape))
    with pytest.raises(DomainError, match="escaping"):
        mle_theta_sample(spec, Sample(values=(1.0, 2.0)))


@given(
    theta=st.floats(min_value=0.2, max_value=5.0),
    n=st.integers(min_value=2, max_value=30),
    x=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=40)
def test_plugin_estimates_are_model_curves_at_theta_hat(theta, n, x):
    spec = make_exponential()
    xs = sample_iid(spec, theta, n, rng_stream=(7, n))
    theta_hat = mle_theta_sample(spec, xs).theta_hat
    assert pdf_hat_sample(spec, xs, x) == pytest.approx(
        pdf(spec, theta_hat, x), rel=1e-12
    )
    assert cdf_hat_sample(spec, xs, x) == pytest.approx(
        cdf(spec, theta_hat, x), rel=1e-12, abs=1e-15
    )


def test_plugin_cdf_hand_values():
    spec = make_exponential()
    # theta_hat = 2 for the mean parametrization, so F_hat(2 ln 2) = 1/2
    got = cdf_hat_sample(spec, Sample(values=(1.0, 2.0, 3.0)), 2.0 * math.log(2.0))
    assert float(got) == pytest.approx(0.5, rel=1e-14)
    # at the last record the plug-in cdf is 1 - e^{-m} whatever the data
    for values in ([1.0, 2.0, 4.0], [0.2, 0.3, 0.9]):
        rs = extract_upper_records(values)
        got = cdf_hat_records(spec, rs, values[-1])
        assert float(got) == pytest.approx(1.0 - math.exp(-3.0), rel=1e-14)


def test_plugin_record_estimates_accept_grids():
    spec = make_exponential()
    rs = sample_records_direct(spec, 1.0, 5, rng_stream=(1, 1))
    grid = np.linspace(0.0, 4.0, 9)
    dens = pdf_hat_records(spec, rs, grid)
    dist = cdf_hat_records(spec, rs, grid)
    assert dens.shape == grid.shape
    assert dist[0] == 0.0
    assert np.all(np.diff(dist) >= 0)
    theta_hat = mle_theta_records(spec, rs).theta_hat
    assert np.allclose(dens, pdf(spec, theta_hat, grid), rtol=1e-12)
