"""Adaptive Gauss-Kronrod engine on the unit interval."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recordmle._quadrature import (
    _INITIAL_PANELS,
    _MAX_GENERATIONS,
    _TOL,
    _WG,
    _WGK,
    _XGK,
    QuadResult,
    integrate_unit_interval,
)


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
        (lambda x: np.exp(x), math.e - 1.0),
        (lambda x: np.sin(20.0 * x), (1.0 - math.cos(20.0)) / 20.0),
        (lambda x: np.log1p(x), 2.0 * math.log(2.0) - 1.0),
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
    f = lambda x: np.exp(-(((x - 0.3) / w) ** 2)) / (w * math.sqrt(math.pi))
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
    res = integrate_unit_interval(lambda x: np.where(x < 0.01, math.inf, 1.0))
    assert res.diverged
    assert math.isinf(res.error_bound)


def test_nan_integrand_flagged():
    res = integrate_unit_interval(lambda x: math.nan)
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


def test_error_bound_covers_true_error():
    f = lambda x: np.exp(-3.0 * x) * np.cos(7.0 * x)
    truth = (3.0 + math.exp(-3.0) * (7.0 * math.sin(7.0) - 3.0 * math.cos(7.0))) / 58.0
    res = integrate_unit_interval(f)
    assert not res.diverged
    assert abs(res.value - truth) <= max(res.error_bound, 1e-8) * 4.0


# ---------------------------------------------------------------------------
# the scalar rule the array rule replaced, kept verbatim as its referee


def _kronrod_panel(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """(kronrod value, |kronrod - gauss|) on one panel."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    kronrod = 0.0
    gauss = 0.0
    for j in range(7):
        pair = f(center - half * _XGK[j]) + f(center + half * _XGK[j])
        kronrod += _WGK[j] * pair
        if j & 1:
            # odd Kronrod indices are the embedded Gauss nodes
            gauss += _WG[j // 2] * pair
    fs = f(center)
    kronrod += _WGK[7] * fs
    gauss += _WG[3] * fs
    kronrod *= half
    gauss *= half
    return kronrod, abs(kronrod - gauss)


def _scalar_integrate_unit_interval(f: Callable[[float], float]) -> QuadResult:
    pending = [
        (j / _INITIAL_PANELS, (j + 1) / _INITIAL_PANELS) for j in range(_INITIAL_PANELS)
    ]
    accepted_values: list[float] = []
    accepted_errors: list[float] = []
    totals: list[float] = []
    generation = 0

    while pending and generation < _MAX_GENERATIONS:
        generation += 1
        next_pending: list[tuple[float, float]] = []
        pending_values: list[float] = []
        for lo, hi in pending:
            value, err = _kronrod_panel(f, lo, hi)
            if not math.isfinite(value):
                return QuadResult(value, math.inf, True, generation, None)
            # second condition: the error estimate is at the noise floor of
            # the integrand evaluation itself (log-space densities carry
            # relative noise up to ~1e-10 at large shape); splitting further
            # cannot improve such a panel
            if err <= _TOL * (hi - lo) or err <= 1e-10 * abs(value):
                accepted_values.append(value)
                accepted_errors.append(err)
            else:
                pending_values.append(value)
                mid = 0.5 * (lo + hi)
                next_pending.extend([(lo, mid), (mid, hi)])
        totals.append(math.fsum(accepted_values) + math.fsum(pending_values))
        pending = next_pending

    if pending:
        # report the latest full-interval estimate rather than the settled
        # fragment, so the caller sees where the refinement was heading
        return QuadResult(totals[-1], math.inf, True, generation, (totals[-2], totals[-1]))
    return QuadResult(
        math.fsum(accepted_values), math.fsum(accepted_errors), False, generation, None
    )


_BUMP = 1e-3
ARRAY_INTEGRANDS = {
    "degree 13": lambda x: 14.0 * x**13,
    "degree 22": lambda x: x**22,
    "quadratic": lambda x: 2.5 * x * x - 1.5 * x + 0.25,
    "1/(1+x^2)": lambda x: 1.0 / (1.0 + x * x),
    "1/x pole": lambda x: 1.0 / x,
    "narrow bump": lambda x: np.exp(-(((x - 0.3) / _BUMP) ** 2)) / (_BUMP * math.sqrt(math.pi)),
    "exp": lambda x: np.exp(x),
    "sin": lambda x: np.sin(20.0 * x),
    "exp cos": lambda x: np.exp(-3.0 * x) * np.cos(7.0 * x),
    "inf step": lambda x: np.where(x < 0.01, math.inf, 1.0),
    "nan": lambda x: np.full(x.shape, math.nan),
}


@pytest.mark.parametrize("name", ARRAY_INTEGRANDS)
def test_array_rule_matches_the_scalar_rule_bit_for_bit(name):
    # the scalar rule reads the values the array rule computed; a node it
    # asks for that the array rule never evaluated fails the lookup
    f = ARRAY_INTEGRANDS[name]
    seen: dict[float, float] = {}
    calls = [0]

    def recorded(x):
        calls[0] += 1
        values = np.asarray(f(x), dtype=float)
        seen.update(zip(x.tolist(), values.tolist()))
        return values

    got = integrate_unit_interval(recorded)
    want = _scalar_integrate_unit_interval(lambda x: seen[x])
    assert repr(got) == repr(want)
    assert calls[0] == got.generations
