"""Adaptive Gauss-Kronrod engine on the unit interval."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from recordmle._quadrature import integrate_unit_interval
from recordmle.errors import ArgumentError


def test_low_degree_polynomial_exact_in_one_generation():
    # degree 13 is inside the embedded Gauss rule's exactness range, so the
    # error estimate is zero and every initial panel is accepted at once
    res = integrate_unit_interval(lambda x: 14.0 * x**13)
    assert not res.diverged
    assert res.generations == 1
    assert res.value == pytest.approx(1.0, abs=1e-14)


def test_high_degree_polynomial_converges():
    res = integrate_unit_interval(lambda x: x**22)
    assert not res.diverged
    assert res.value == pytest.approx(1.0 / 23.0, abs=1e-15)
    assert res.generations <= 4


@pytest.mark.parametrize(
    "f,truth",
    [
        (lambda x: 1.0 / (1.0 + x * x), math.pi / 4.0),
        (lambda x: math.exp(x), math.e - 1.0),
        (lambda x: math.sin(20.0 * x), (1.0 - math.cos(20.0)) / 20.0),
        (lambda x: math.log1p(x), 2.0 * math.log(2.0) - 1.0),
    ],
)
def test_known_integrals(f, truth):
    res = integrate_unit_interval(f)
    assert not res.diverged
    assert abs(res.value - truth) < 1e-12
    assert res.error_bound >= 0.0


def test_narrow_bump_is_not_missed():
    # relative width 1e-3, far below the initial panel size; refinement has
    # to find it rather than integrate the flat background
    w = 1e-3
    f = lambda x: math.exp(-(((x - 0.3) / w) ** 2)) / (w * math.sqrt(math.pi))
    res = integrate_unit_interval(f)
    assert not res.diverged
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.generations > 3


def test_nonintegrable_pole_reports_divergence():
    res = integrate_unit_interval(lambda x: 1.0 / x)
    assert res.diverged
    assert res.error_bound == math.inf
    assert res.last_totals is not None
    # refinement totals keep growing when the integral does not exist
    assert res.last_totals[1] > res.last_totals[0]


def test_nonfinite_values_become_divergence_not_exceptions():
    def f(x):
        return math.inf if x < 0.01 else 1.0

    res = integrate_unit_interval(f)
    assert res.diverged
    assert math.isinf(res.error_bound)


def test_nan_integrand_flagged():
    # cap generations: every panel re-splits, so the default budget would
    # evaluate millions of nodes before giving up
    res = integrate_unit_interval(lambda x: math.nan, max_generations=5)
    assert res.diverged


@given(
    a=st.floats(min_value=-5.0, max_value=5.0),
    b=st.floats(min_value=-5.0, max_value=5.0),
    c=st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=50)
def test_quadratics_exact(a, b, c):
    res = integrate_unit_interval(lambda x: a * x * x + b * x + c)
    assert not res.diverged
    assert res.value == pytest.approx(a / 3.0 + b / 2.0 + c, abs=1e-12)


def test_tolerance_validation():
    with pytest.raises(ArgumentError):
        integrate_unit_interval(lambda x: x, max_generations=0)


def test_error_bound_covers_true_error():
    f = lambda x: math.exp(-3.0 * x) * math.cos(7.0 * x)
    truth = (3.0 + math.exp(-3.0) * (7.0 * math.sin(7.0) - 3.0 * math.cos(7.0))) / 58.0
    res = integrate_unit_interval(f)
    assert not res.diverged
    assert abs(res.value - truth) <= max(res.error_bound, 1e-8) * 4.0
