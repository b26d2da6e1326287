"""Adaptive Gauss-Kronrod quadrature on the open unit interval.

Small purpose-built integrator for the oracle module. All oracle targets
are expectations over a gamma law, mapped onto s in (0, 1) by
t = s / (1 - s); the 15-point Kronrod rule never evaluates the endpoints,
so integrable behavior at either end needs no special casing.

Panels that fail the per-panel tolerance are bisected for the next
generation. A target whose exact integral does not exist (the power
function derived quantities with base above 1) shows up as panels near an
endpoint that never settle: the generation cap turns that into a
``diverged`` result carrying the last two whole-interval totals, so the
caller can see the estimate still growing. Divergence is a reportable
outcome here, not an exception; callers that expect a convergent target
escalate it themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ArgumentError

__all__ = ["QuadResult", "integrate_unit_interval"]

# 15-point Kronrod abscissae on [-1, 1] (nonnegative half; symmetric) and
# weights, with the embedded 7-point Gauss weights used for the error
# estimate. Values are the standard double precision constants.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_TOL = 1e-10  # absolute tolerance of the whole integral
_INITIAL_PANELS = 8


@dataclass(frozen=True, slots=True)
class QuadResult:
    """Outcome of one adaptive integration.

    ``error_bound`` sums the per-panel Kronrod-minus-Gauss differences of
    the accepted panels. On divergence ``last_totals`` holds the
    whole-interval totals of the final two refinement generations, which
    keep growing when the underlying integral does not exist.
    """

    value: float
    error_bound: float
    diverged: bool
    generations: int
    last_totals: tuple[float, float] | None


def _kronrod_panel(
    f: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float, bool]:
    """(kronrod value, |kronrod - gauss|, all nodes finite) on one panel."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    kronrod = 0.0
    gauss = 0.0
    finite = True
    for j in range(8):
        xj = _XGK[j]
        if j == 7:
            fs = f(center)
            if not math.isfinite(fs):
                finite = False
                break
            kronrod += _WGK[7] * fs
            gauss += _WG[3] * fs
            break
        f_lo = f(center - half * xj)
        f_hi = f(center + half * xj)
        if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
            finite = False
            break
        pair = f_lo + f_hi
        kronrod += _WGK[j] * pair
        if j & 1:
            # odd Kronrod indices are the embedded Gauss nodes
            gauss += _WG[j // 2] * pair
    if not finite:
        return math.nan, math.inf, False
    kronrod *= half
    gauss *= half
    return kronrod, abs(kronrod - gauss), True


def integrate_unit_interval(
    f: Callable[[float], float], max_generations: int = 20
) -> QuadResult:
    """Adaptively integrate ``f`` over (0, 1) to absolute tolerance 1e-10.

    The interval starts as 8 equal panels. A panel of width w is accepted
    once its error estimate is below 1e-10 * w, so accepted panels jointly
    meet the absolute tolerance; a panel whose estimate has reached the
    roundoff floor of the integrand evaluation (1e-10 relative to the panel
    value) is also accepted, which caps the achievable accuracy at about ten
    digits relative to the total variation. Exhausting ``max_generations``
    with unsettled panels yields ``diverged=True``.
    """
    max_generations = int(max_generations)
    if max_generations < 1:
        raise ArgumentError("integrate_unit_interval: need at least one generation")

    pending = [
        (j / _INITIAL_PANELS, (j + 1) / _INITIAL_PANELS) for j in range(_INITIAL_PANELS)
    ]
    accepted_values: list[float] = []
    accepted_errors: list[float] = []
    totals: list[float] = []
    generation = 0

    while pending and generation < max_generations:
        generation += 1
        next_pending: list[tuple[float, float]] = []
        pending_values: list[float] = []
        for lo, hi in pending:
            value, err, finite = _kronrod_panel(f, lo, hi)
            # second condition: the error estimate is at the noise floor of
            # the integrand evaluation itself (log-space densities carry
            # relative noise up to ~1e-10 at large shape); splitting further
            # cannot improve such a panel
            if finite and (err <= _TOL * (hi - lo) or err <= 1e-10 * abs(value)):
                accepted_values.append(value)
                accepted_errors.append(err)
            else:
                if finite:
                    pending_values.append(value)
                mid = 0.5 * (lo + hi)
                next_pending.extend([(lo, mid), (mid, hi)])
        totals.append(math.fsum(accepted_values) + math.fsum(pending_values))
        pending = next_pending

    if pending:
        # report the latest full-interval estimate rather than the settled
        # fragment, so the caller sees where the refinement was heading
        last_totals = (totals[-2], totals[-1]) if len(totals) >= 2 else None
        return QuadResult(totals[-1], math.inf, True, generation, last_totals)
    return QuadResult(
        math.fsum(accepted_values), math.fsum(accepted_errors), False, generation, None
    )
