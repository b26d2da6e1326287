"""Family registry: closed forms, inverses, validation, parsing."""

from __future__ import annotations

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recordmle import (
    ArgumentError,
    DomainError,
    EstimatorRangeError,
    FamilySpec,
    RecordMleError,
    a_inverse,
    b_inverse,
    builtin_descriptions,
    cdf,
    make_exponential,
    make_lomax,
    make_pareto,
    make_weibull,
    pdf,
    quantile,
    resolve_family,
    validate_family,
)
from recordmle._quadrature import integrate_unit_interval
from recordmle.family import _A_TOP, _GRID_SIZE, _INVERT_TOL, _to_interval

BUILTINS = [
    make_exponential(),
    make_lomax(),
    make_weibull(2.0),
    make_weibull(0.5),
    make_pareto(1.5),
]


@pytest.mark.parametrize("spec", BUILTINS, ids=lambda s: s.name)
def test_builtin_passes_validation(spec):
    report = validate_family(spec)
    assert report.passed, [c.detail for c in report.failures()]


def test_exponential_closed_forms():
    spec = make_exponential()
    # mean parametrization: cdf(x) = 1 - exp(-x/theta)
    assert cdf(spec, 2.0, 3.0) == pytest.approx(1.0 - math.exp(-1.5), abs=1e-15)
    assert pdf(spec, 2.0, 3.0) == pytest.approx(0.5 * math.exp(-1.5), abs=1e-15)
    assert pdf(spec, 2.0, 0.0) == pytest.approx(0.5)
    assert quantile(spec, 2.0, 0.5) == pytest.approx(2.0 * math.log(2.0))


def test_lomax_closed_forms():
    spec = make_lomax()
    # cdf(x) = 1 - (1 + x) ** (-1/theta)
    assert cdf(spec, 0.5, 3.0) == pytest.approx(1.0 - 4.0**-2.0, abs=1e-15)
    assert pdf(spec, 0.5, 3.0) == pytest.approx(2.0 * 4.0**-3.0, rel=1e-14)


def test_weibull_closed_forms():
    spec = make_weibull(2.0)
    # B(theta) = theta is the rate on A(x) = x**2
    assert cdf(spec, 3.0, 0.5) == pytest.approx(1.0 - math.exp(-0.75), abs=1e-15)
    assert pdf(spec, 3.0, 0.5) == pytest.approx(3.0 * math.exp(-0.75), rel=1e-14)


def test_pareto_support_and_closed_forms():
    spec = make_pareto(2.0)
    assert spec.support_lo == 2.0
    assert cdf(spec, 1.0, 1.0) == 0.0
    assert pdf(spec, 1.0, 1.0) == 0.0
    assert cdf(spec, 3.0, 4.0) == pytest.approx(1.0 - 2.0**-3.0, rel=1e-14)
    # density at the left endpoint is theta/k
    assert pdf(spec, 3.0, 2.0) == pytest.approx(1.5)


def test_cdf_pdf_accept_arrays():
    spec = make_exponential()
    xs = np.array([0.0, 1.0, 2.0])
    out = cdf(spec, 1.0, xs)
    assert out.shape == (3,)
    assert out[0] == 0.0
    assert np.all(np.diff(out) > 0)
    assert isinstance(cdf(spec, 1.0, 1.0), float)


def test_theta_domain_enforced():
    spec = make_exponential()
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            cdf(spec, bad, 1.0)
    with pytest.raises(DomainError):
        quantile(spec, 1.0, 1.0)
    with pytest.raises(DomainError):
        quantile(spec, 1.0, -0.1)


@given(
    theta=st.floats(min_value=0.05, max_value=20.0),
    u=st.floats(min_value=0.0, max_value=0.999),
)
@settings(max_examples=60)
def test_quantile_roundtrip_exponential(theta, u):
    spec = make_exponential()
    assert cdf(spec, theta, quantile(spec, theta, u)) == pytest.approx(u, abs=1e-9)


@given(
    alpha=st.floats(min_value=0.3, max_value=4.0),
    theta=st.floats(min_value=0.1, max_value=5.0),
    u=st.floats(min_value=0.0, max_value=0.99),
)
@settings(max_examples=60)
def test_quantile_roundtrip_weibull(alpha, theta, u):
    spec = make_weibull(alpha)
    assert cdf(spec, theta, quantile(spec, theta, u)) == pytest.approx(u, abs=1e-9)


def _no_inverse_lomax() -> FamilySpec:
    base = make_lomax()
    return FamilySpec(
        name="lomax-no-inv",
        A=base.A,
        A_prime=base.A_prime,
        B=base.B,
        support_lo=base.support_lo,
        support_hi=base.support_hi,
        theta_domain=base.theta_domain,
    )


@pytest.mark.parametrize("spec", BUILTINS, ids=lambda s: s.name)
def test_builtin_accepts_arrays(spec):
    (check,) = [c for c in validate_family(spec).checks if c.name == "A_accepts_arrays"]
    assert check.passed and check.residual == 0.0


def test_validation_catches_scalar_only_a():
    # math.log1p agrees with lomax's A on every scalar but raises on arrays
    scalar_only = dataclasses.replace(make_lomax(), name="lomax-scalar", A=math.log1p)
    report = validate_family(scalar_only)
    assert [c.name for c in report.failures()] == ["A_accepts_arrays"]
    assert "TypeError" in report.failures()[0].detail
    with pytest.raises(TypeError):
        cdf(scalar_only, 1.0, [0.5, 1.0])


def test_validation_catches_array_call_that_disagrees_with_scalar_calls():
    base = make_lomax()
    # A' that collapses an array to one number
    collapsing = dataclasses.replace(base, A_prime=lambda x: 1.0 / (1.0 + float(np.mean(x))))
    (failure,) = validate_family(collapsing).failures()
    assert failure.name == "A_accepts_arrays" and "shape" in failure.detail

    def drifting(x):
        arr = np.asarray(x, dtype=float)
        return np.log1p(arr) * (1.0 + 1e-6 * (arr.ndim > 0))

    report = validate_family(dataclasses.replace(base, A=drifting))
    assert [c.name for c in report.failures()] == ["A_accepts_arrays"]
    assert report.failures()[0].residual == pytest.approx(1e-6, rel=1e-6)


def test_validation_catches_scalar_only_b():
    # agrees with lomax's B on every scalar but raises on arrays
    base = make_lomax()
    scalar_only = dataclasses.replace(base, name="lomax-scalar-b", B=lambda t: 1.0 / float(t))
    report = validate_family(scalar_only)
    assert [c.name for c in report.failures()] == ["A_accepts_arrays"]
    assert "B on an array: TypeError" in report.failures()[0].detail
    with pytest.raises(TypeError):
        b_inverse(dataclasses.replace(scalar_only, B_inv=None), [0.5, 1.0])


def test_roundtrip_reports_an_inverse_that_raises_on_the_array():
    def a_inv(y):
        if np.ndim(y):
            raise KeyError("no arrays here")
        return y

    spec = dataclasses.replace(make_exponential(), A_inv=a_inv)
    (failure,) = validate_family(spec).failures()
    assert failure.name == "A_inv_roundtrip" and failure.residual == math.inf
    assert failure.detail.endswith(": KeyError: 'no arrays here'")


def test_roundtrip_reports_the_worst_point_of_a_wrong_inverse():
    # off by 1e-6 exp(-(y - 2)^2) relative, so the worst grid point is the one nearest 2
    def a_inv(y):
        y = np.asarray(y, dtype=float)
        return y + 1e-6 * np.maximum(1.0, y) * np.exp(-((y - 2.0) ** 2))

    spec = dataclasses.replace(make_exponential(), A_inv=a_inv)
    (failure,) = validate_family(spec).failures()
    xs = _to_interval((np.arange(_GRID_SIZE) + 0.5) / _GRID_SIZE, 0.0, math.inf)
    worst = float(xs[np.argmin(np.abs(xs - 2.0))])
    assert failure.name == "A_inv_roundtrip" and failure.first_failure == worst
    assert failure.residual == pytest.approx(1e-6 * math.exp(-((worst - 2.0) ** 2)), rel=1e-6)


def test_validation_catches_scalar_only_inverses():
    # each agrees with the exponential's inverse on every scalar but raises on arrays
    base = make_exponential()
    for field_name, inverse, check in (
        ("A_inv", lambda y: float(y), "A_inv_roundtrip"),
        ("B_inv", lambda y: 1.0 / float(y), "B_inv_roundtrip"),
    ):
        spec = dataclasses.replace(base, **{field_name: inverse})
        (failure,) = validate_family(spec).failures()
        assert failure.name == check and "TypeError: only 0-dimensional arrays" in failure.detail
    with pytest.raises(TypeError):
        quantile(dataclasses.replace(base, A_inv=lambda y: float(y)), 1.0, [0.5, 0.9])


def _bounded_a() -> FamilySpec:
    # strictly increasing from 0, but A tops out at 1: cdf stays below 1 - exp(-B)
    return FamilySpec(
        name="bounded",
        A=lambda x: (lambda a: a / (1.0 + a))(np.asarray(x, dtype=float)),
        A_prime=lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)) ** 2,
        B=lambda t: 1.0 / np.asarray(t, dtype=float),
        support_lo=0.0,
        support_hi=math.inf,
        theta_domain=(0.0, math.inf),
    )


def test_validation_catches_bounded_a():
    report = validate_family(_bounded_a())
    (failure,) = report.failures()
    assert failure.name == "A_unbounded"
    assert failure.residual == pytest.approx(35.0) and failure.first_failure == sys.float_info.max
    with pytest.raises(EstimatorRangeError):
        quantile(_bounded_a(), 1.0, 0.9)


@pytest.mark.parametrize("inverse", [True, False], ids=["closed-inverse", "no-inverse"])
def test_unbounded_a_on_a_finite_support_passes(inverse):
    # -log1p(-x) reaches 53 log 2 = 36.7 at the largest float below 1
    spec = FamilySpec(
        name="unit-log",
        A=lambda x: -np.log1p(-np.asarray(x, dtype=float)),
        A_prime=lambda x: 1.0 / (1.0 - np.asarray(x, dtype=float)),
        B=lambda t: np.asarray(t, dtype=float) + 0.0,
        support_lo=0.0,
        support_hi=1.0,
        theta_domain=(0.0, math.inf),
        A_inv=(lambda y: -np.expm1(-np.asarray(y, dtype=float))) if inverse else None,
    )
    report = validate_family(spec)
    assert report.passed, [c.detail for c in report.failures()]
    (check,) = [c for c in report.checks if c.name == "A_unbounded"]
    assert check.residual == pytest.approx(36.0 - 53.0 * math.log(2.0))


def test_weibull_shape_bound_is_where_a_stops_reaching_a_top():
    # x**alpha at the largest float is exp(alpha log(max)), which reaches
    # _A_TOP just above this bound and not at or below it
    bound = math.log(_A_TOP) / math.log(sys.float_info.max)
    report = validate_family(make_weibull(math.nextafter(bound, 1.0)))
    assert report.passed, [c.detail for c in report.failures()]
    for alpha in (bound, math.nextafter(bound, 0.0), 0.001):
        with pytest.raises(ArgumentError, match="alpha must exceed"):
            make_weibull(alpha)


CHECK_ORDER = [
    "A_accepts_arrays", "A_increasing", "A_zero_at_lower", "A_unbounded",
    "A_inv_roundtrip", "B_inv_roundtrip", "B_positive", "A_prime_positive_matches_fd",
]
FAILING = [
    dataclasses.replace(make_lomax(), name="scalar-a", A=math.log1p),
    dataclasses.replace(make_lomax(), name="collapsing-a-prime",
                        A_prime=lambda x: 1.0 / (1.0 + float(np.mean(x)))),
    dataclasses.replace(make_exponential(), name="decreasing",
                        A=lambda x: -np.asarray(x, dtype=float),
                        A_prime=lambda x: -np.ones_like(np.asarray(x, dtype=float))),
    dataclasses.replace(make_weibull(1.0), name="shifted", A=lambda x: np.asarray(x, dtype=float) + 1.0),
    dataclasses.replace(make_exponential(), name="negative-b", B_inv=None,
                        B=lambda t: -1.0 / np.asarray(t, dtype=float)),
    dataclasses.replace(make_exponential(), name="scalar-a-inv", A_inv=lambda y: float(y)),
    _bounded_a(),
]


@pytest.mark.parametrize("spec", BUILTINS + FAILING, ids=lambda s: s.name)
def test_checks_return_plain_python_types(spec):
    report = validate_family(spec)
    assert [c.name for c in report.checks] == (
        ["A_accepts_arrays"] if spec.name in ("scalar-a", "collapsing-a-prime") else CHECK_ORDER
    )
    assert report.passed == (spec in BUILTINS)
    for check in report.checks:
        assert type(check.passed) is bool and type(check.residual) is float, check
        assert check.first_failure is None or type(check.first_failure) is float, check


@pytest.mark.parametrize("base", BUILTINS, ids=lambda s: s.name)
def test_validation_calls_the_maps_on_arrays(base):
    # the only scalar calls are A_accepts_arrays's one per grid point of A, A' and B
    ndims: dict[str, list[int]] = {}

    def counted(key, fn):
        def wrapper(v):
            ndims.setdefault(key, []).append(np.ndim(v))
            return fn(v)
        return wrapper

    maps = ("A", "A_prime", "B", "A_inv", "B_inv")
    spec = dataclasses.replace(base, **{k: counted(k, getattr(base, k)) for k in maps})
    assert validate_family(spec).passed
    assert {k: ndims[k].count(0) for k in maps} == {
        "A": _GRID_SIZE, "A_prime": _GRID_SIZE, "B": _GRID_SIZE, "A_inv": 0, "B_inv": 0,
    }


def test_bisection_fallback_inverses():
    spec = _no_inverse_lomax()
    assert spec.A_inv is None and spec.B_inv is None
    for y in (0.01, 0.5, 3.0, 12.0):
        x = a_inverse(spec, y)
        assert float(spec.A(x)) == pytest.approx(y, abs=1e-9)
    for y in (0.05, 1.0, 7.0):
        t = b_inverse(spec, y)
        assert float(spec.B(t)) == pytest.approx(y, rel=1e-9)
    report = validate_family(spec)
    assert report.passed


FALLBACK_BASES = [
    make_exponential(), make_lomax(), make_weibull(0.5), make_weibull(3.0), make_pareto(1.5)
]


@pytest.mark.parametrize("base", FALLBACK_BASES, ids=lambda s: s.name)
def test_fallback_inverter_matches_closed_forms(base):
    spec = dataclasses.replace(base, A_inv=None, B_inv=None)
    assert a_inverse(spec, 0.0) == spec.support_lo
    # below the reach of the probes the closed lower end bounds the root
    assert a_inverse(spec, 1e-17) == pytest.approx(float(a_inverse(base, 1e-17)), abs=1e-12)
    # A = 120 lies past 9e15 for lomax and pareto: the bracket must double that far
    ys = np.linspace(0.5, 120.0, 240)
    xs = a_inverse(spec, ys)
    np.testing.assert_allclose(xs, a_inverse(base, ys), rtol=1e-9)
    targets = np.logspace(-6, 6, 49)
    thetas = b_inverse(spec, targets)
    np.testing.assert_allclose(base.B(thetas), targets, rtol=1e-6)
    assert validate_family(spec).passed
    with pytest.raises(DomainError):
        a_inverse(spec, -1.0)


def test_fallback_inverter_reaches_far_roots():
    # the root of log1p(x) = 150 lies near 2**216, past 200 doublings
    spec = dataclasses.replace(make_lomax(), A_inv=None)
    assert a_inverse(spec, 150.0) == pytest.approx(a_inverse(make_lomax(), 150.0), rel=1e-12)


def test_weibull_density_at_zero_is_infinite_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pdf(make_weibull(0.5), 1.0, 0.0) == math.inf


def test_fallback_inverter_rejects_target_outside_range():
    spec = FamilySpec(
        name="unit",
        A=lambda x: np.asarray(x, dtype=float) + 0.0,
        A_prime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        B=lambda t: np.asarray(t, dtype=float) + 0.0,
        support_lo=0.0,
        support_hi=math.inf,
        theta_domain=(0.0, 1.0),
    )
    assert b_inverse(spec, 0.3) == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(EstimatorRangeError):
        b_inverse(spec, 2.0)


def _invert_monotone(fn, target: float, lo: float, hi: float, closed_lo: bool = False) -> float:
    """Solve ``fn(x) = target`` for a strictly monotone scalar map on (lo, hi).

    The direction comes from probes at the images of 1/4 and 3/4. From the
    image of 1/2 the bracket grows toward the side of the root: the step
    doubles toward an infinite end and the gap halves toward a finite end,
    at most 2200 times. Bisection then runs to absolute tolerance 1e-12. With
    ``closed_lo`` the map is known to lie below ``target`` at lo, which then
    bounds the root when the probes cannot get closer to it. Raises
    :class:`EstimatorRangeError` when the target cannot be bracketed.
    """
    sign = 1.0 if fn(_to_interval(0.75, lo, hi)) > fn(_to_interval(0.25, lo, hi)) else -1.0
    h = lambda x: sign * (fn(x) - target)  # increasing, zero at the root
    x = _to_interval(0.5, lo, hi)
    val = h(x)
    up = val < 0.0
    end = hi if up else lo
    step = max(abs(x), 1.0)
    bracket = None
    for _ in range(2200):
        nxt = (x + step if up else x - step) if math.isinf(end) else 0.5 * (x + end)
        step *= 2.0
        if nxt in (x, end):  # rounded onto the last probe or the end
            break
        val = h(nxt)
        if val >= 0.0 if up else val <= 0.0:
            bracket = (x, nxt) if up else (nxt, x)
            break
        x = nxt
    if bracket is None and closed_lo and val > 0.0:
        bracket = (lo, x)
    if bracket is None:
        raise EstimatorRangeError(
            f"target {target!r} not bracketed on ({lo}, {hi}): the map is "
            f"{fn(x)!r} at the last probe {x!r}"
        )
    a, b = bracket
    for _ in range(200):
        if b - a <= _INVERT_TOL:
            break
        mid = 0.5 * (a + b)
        if h(mid) < 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


# Referees: the scalar routine above, one element at a time, as the inverse
# fallbacks ran before they worked on whole arrays (with the bracket cap
# since raised from 200 to the array routine's bound).
def _referee_a(spec, ys):
    def scalar(val):
        if val < 0.0:
            raise DomainError(f"A_inv argument {val!r} is negative")
        if val == 0.0:
            return spec.support_lo
        return _invert_monotone(lambda x: float(spec.A(x)), val, spec.support_lo,
                                spec.support_hi, closed_lo=True)

    return np.array([scalar(float(v)) for v in ys])


def _referee_b(spec, ys):
    scalar = lambda val: _invert_monotone(lambda t: float(spec.B(t)), val, *spec.theta_domain)
    return np.array([scalar(float(v)) for v in ys])


def _outcome(inverse, spec, ys):
    """The result bits, or the type and text of the error raised."""
    try:
        return np.asarray(inverse(spec, np.asarray(ys, dtype=float)), dtype=float).tobytes()
    except RecordMleError as exc:
        return type(exc).__name__, str(exc)


NO_INVERSE = [dataclasses.replace(b, A_inv=None, B_inv=None) for b in FALLBACK_BASES]
# the A targets include 0, pareto's 1e-17 that only the closed lower end
# brackets, and 1e-300
A_TARGETS = np.concatenate(
    [[0.0, 1e-17, 1e-300], np.linspace(0.5, 120.0, 240), np.logspace(-12, 2, 300)]
)


@pytest.mark.parametrize("spec", NO_INVERSE, ids=lambda s: s.name)
def test_array_inverter_matches_scalar_referee(spec):
    assert a_inverse(spec, A_TARGETS).tobytes() == _referee_a(spec, A_TARGETS).tobytes()
    b_targets = np.logspace(-6, 6, 49)
    assert b_inverse(spec, b_targets).tobytes() == _referee_b(spec, b_targets).tobytes()


@given(
    spec=st.sampled_from(NO_INVERSE),
    a_targets=st.lists(st.floats(min_value=0.0, max_value=300.0), max_size=8),
    b_targets=st.lists(st.floats(min_value=1e-80, max_value=1e80), max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_array_inverter_matches_scalar_referee_on_random_targets(spec, a_targets, b_targets):
    # targets past the reach of the bracket raise the same error for the
    # same first element
    assert _outcome(a_inverse, spec, a_targets) == _outcome(_referee_a, spec, a_targets)
    assert _outcome(b_inverse, spec, b_targets) == _outcome(_referee_b, spec, b_targets)


def test_array_inverter_edge_targets():
    spec = dataclasses.replace(make_pareto(1.5), A_inv=None, B_inv=None)
    for y in (0.0, 1e-17, 1e-300):
        assert a_inverse(spec, y) == _referee_a(spec, [y])[0]
    assert a_inverse(spec, np.array([])).shape == (0,)
    assert b_inverse(spec, np.array([])).shape == (0,)
    # a 0-d array in, a Python float out
    assert type(a_inverse(spec, np.array(2.0))) is float
    assert type(b_inverse(spec, np.array(2.0))) is float
    with pytest.raises(DomainError, match="A_inv argument -0.5 is negative"):
        a_inverse(spec, [1.0, -0.5])
    for inverse, referee, bad in (
        (a_inverse, _referee_a, (math.nan, math.inf)),
        (b_inverse, _referee_b, (math.nan, math.inf, -math.inf)),
    ):
        for y in bad:
            with pytest.raises(EstimatorRangeError) as exc:
                inverse(spec, np.array([1.0, y]))
            assert str(exc.value).startswith(f"target {y!r} not bracketed")
            assert "np.float64" not in str(exc.value)
            assert _outcome(inverse, spec, [1.0, y]) == _outcome(referee, spec, [1.0, y])


@pytest.mark.parametrize(
    "spec,theta",
    [
        (make_exponential(), 1.3),
        (make_lomax(), 0.5),
        (make_weibull(2.0), 1.3),
        (make_pareto(1.5), 2.0),
    ],
    ids=["exponential", "lomax", "weibull", "pareto"],
)
def test_pdf_integrates_to_one(spec, theta):
    # map the support onto (0, 1); the parameters are chosen so the mapped
    # integrand stays smooth at both endpoints (a power tail with
    # non-integer exponent would leave a derivative singularity at s = 1
    # that the fixed-depth rule rightly refuses to certify)
    lo = spec.support_lo

    def integrand(s):
        x = lo + s / (1.0 - s)
        return pdf(spec, theta, x) / (1.0 - s) ** 2

    res = integrate_unit_interval(integrand)
    assert not res.diverged
    assert res.value == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("spec", BUILTINS, ids=lambda s: s.name)
def test_pdf_is_cdf_derivative(spec):
    theta = 0.8
    h = 1e-5
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        x = float(quantile(spec, theta, q))
        fd = (cdf(spec, theta, x + h) - cdf(spec, theta, x - h)) / (2.0 * h)
        assert float(fd) == pytest.approx(float(pdf(spec, theta, x)), abs=1e-6)


@pytest.mark.parametrize("spec", BUILTINS, ids=lambda s: s.name)
def test_quantile_roundtrip_on_grid(spec):
    thetas = [0.25, 0.5, 1.0, 2.0, 4.0]
    us = [i / 100.0 for i in range(1, 100)]
    for theta in thetas:
        xs = quantile(spec, theta, us)
        back = cdf(spec, theta, xs)
        assert np.max(np.abs(np.asarray(back) - np.asarray(us))) < 1e-9


def test_validation_catches_decreasing_a():
    broken = FamilySpec(
        name="broken",
        A=lambda x: -np.asarray(x, dtype=float),
        A_prime=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
        B=lambda t: 1.0 / np.asarray(t, dtype=float),
        support_lo=0.0,
        support_hi=math.inf,
        theta_domain=(0.0, math.inf),
    )
    report = validate_family(broken)
    assert not report.passed
    assert any(c.name == "A_increasing" for c in report.failures())


def test_validation_catches_decreasing_a_on_unit_interval():
    # -log is positive but strictly decreasing on (0, 1); the validator
    # probes the endpoint, so keep numpy quiet about log(0)
    def neglog_a(x):
        with np.errstate(divide="ignore"):
            return -np.log(np.asarray(x, dtype=float))

    def neglog_a_prime(x):
        with np.errstate(divide="ignore"):
            return -1.0 / np.asarray(x, dtype=float)

    neglog = FamilySpec(
        name="neglog",
        A=neglog_a,
        A_prime=neglog_a_prime,
        B=lambda t: np.asarray(t, dtype=float) + 0.0,
        support_lo=0.0,
        support_hi=1.0,
        theta_domain=(0.0, math.inf),
    )
    report = validate_family(neglog)
    assert not report.passed
    assert any(c.name == "A_increasing" for c in report.failures())


def test_validation_catches_nonzero_a_at_origin():
    shifted = FamilySpec(
        name="shifted",
        A=lambda x: np.asarray(x, dtype=float) + 1.0,
        A_prime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        B=lambda t: np.asarray(t, dtype=float) + 0.0,
        support_lo=0.0,
        support_hi=math.inf,
        theta_domain=(0.0, math.inf),
    )
    assert not validate_family(shifted).passed


def test_resolve_family_grammar():
    assert resolve_family("exponential").name == "exponential"
    assert resolve_family(" LOMAX ").name == "lomax"
    spec = resolve_family("weibull:alpha=2.5")
    assert float(spec.A(2.0)) == pytest.approx(2.0**2.5)
    spec = resolve_family("pareto:k=3.0")
    assert spec.support_lo == 3.0


@pytest.mark.parametrize(
    "text",
    [
        "gamma",
        "weibull",  # missing required parameter
        "weibull:alpha=abc",
        "weibull:beta=1.0",
        "exponential:0",  # bare value, not key=value
        "exponential:rate=1.0",
        "pareto:k=-1",
        "weibull:alpha=0",
    ],
)
def test_resolve_family_rejects(text):
    with pytest.raises(ArgumentError):
        resolve_family(text)


def test_builtin_descriptions_stable():
    rows = builtin_descriptions()
    names = [r["name"] for r in rows]
    assert names == ["exponential", "lomax", "weibull", "pareto"]
    assert all(set(r) == {"name", "parameters", "grammar"} for r in rows)
