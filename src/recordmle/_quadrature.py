"""Adaptive Gauss-Kronrod quadrature on the open unit interval.

Small purpose-built integrator for the oracle module. All oracle targets
are expectations over a gamma law, mapped onto s in (0, 1) by
t = s / (1 - s); the 15-point Kronrod rule never evaluates the endpoints,
so integrable behavior at either end needs no special casing. The
integrand works on whole arrays: each generation evaluates the nodes of
all its pending panels in one call, and each panel still sums its own
nodes in a fixed order, so the result does not depend on how the nodes
were batched.

Panels that fail the per-panel tolerance are bisected for the next
generation. A target whose exact integral does not exist shows up in one
of two ways. A panel whose Kronrod sum is not finite (the integrand
overflows, as exp(1/s) does near s = 0) ends the integration at once
with a ``diverged`` result: no refinement can make that panel finite.
Finite panels near an endpoint that never settle (a pole such as 1/x) run
into the generation cap instead, and that ``diverged`` result carries the
last two whole-interval totals, so the caller can see the estimate still
growing. Divergence is a reportable outcome here, not an exception;
callers that expect a convergent target escalate it themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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

# A panel's 15 nodes in evaluation order (-x_j for j = 0..6, then +x_j,
# then the centre), and the weights of its sums over the columns 0.0,
# pair_0 .. pair_6, centre; the odd Kronrod pairs are the Gauss nodes.
_NODES = np.array([-x for x in _XGK[:7]] + list(_XGK))
_KRONROD_WEIGHTS = np.array((1.0, *_WGK))
_GAUSS_COLUMNS = np.array([0, 2, 4, 6, 8])
_GAUSS_WEIGHTS = np.array((1.0, *_WG))

_TOL = 1e-10  # absolute tolerance of the whole integral
_INITIAL_PANELS = 8
_MAX_GENERATIONS = 20


@dataclass(frozen=True, slots=True)
class QuadResult:
    """Outcome of one adaptive integration.

    ``error_bound`` sums the per-panel Kronrod-minus-Gauss differences of
    the accepted panels. A divergence found at a panel with a non-finite
    Kronrod sum reports that sum as ``value`` and ``last_totals`` None. One
    found at the generation cap holds in ``last_totals`` the whole-interval
    totals of the final two generations, which keep growing when the
    underlying integral does not exist.
    """

    value: float
    error_bound: float
    diverged: bool
    generations: int
    last_totals: tuple[float, float] | None


def _kronrod_panels(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
                    hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(kronrod value, |kronrod - gauss|) of every panel, from one call of f.

    Each panel sums its weighted nodes in the scalar rule's order, from 0.0
    through the node pairs j = 0..6 to the centre, with a sequential
    ``add.accumulate``, so its sums do not depend on how many panels share
    the call.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fv = np.empty(15 * lo.size)
    fv[:] = f((center[:, None] + half[:, None] * _NODES).ravel())
    fv = fv.reshape(lo.size, 15)
    terms = np.zeros((lo.size, 9))  # column 0 is the starting sum
    # non-finite values propagate silently, as in float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        terms[:, 1:8] = fv[:, :7] + fv[:, 7:14]
        terms[:, 8] = fv[:, 14]
        kronrod = np.add.accumulate(terms * _KRONROD_WEIGHTS, axis=1)[:, -1] * half
        gauss = np.add.accumulate(terms[:, _GAUSS_COLUMNS] * _GAUSS_WEIGHTS,
                                  axis=1)[:, -1] * half
        return kronrod, np.abs(kronrod - gauss)


def integrate_unit_interval(f: Callable[[np.ndarray], np.ndarray]) -> QuadResult:
    """Adaptively integrate ``f`` over (0, 1) to absolute tolerance 1e-10.

    ``f`` takes a float64 array of nodes in (0, 1) and returns their values
    (an array of the same shape, or a scalar for a constant); it is called
    once per generation, on the 15 nodes of every pending panel. The
    interval starts as 8 equal panels. A panel of width w is accepted
    once its error estimate is below 1e-10 * w, so accepted panels jointly
    meet the absolute tolerance; a panel whose estimate has reached the
    roundoff floor of the integrand evaluation (1e-10 relative to the panel
    value) is also accepted, which caps the achievable accuracy at about ten
    digits relative to the total variation. A panel whose Kronrod sum is not
    finite returns ``diverged=True`` at once, with the first such sum in
    panel order; so does reaching 20 generations with unsettled panels.
    """
    lo = np.arange(_INITIAL_PANELS) / _INITIAL_PANELS
    hi = np.arange(1, _INITIAL_PANELS + 1) / _INITIAL_PANELS
    accepted_values: list[float] = []
    accepted_errors: list[float] = []
    totals: list[float] = []
    generation = 0

    while lo.size and generation < _MAX_GENERATIONS:
        generation += 1
        values, errs = _kronrod_panels(f, lo, hi)
        bad = ~np.isfinite(values)
        if bad.any():
            return QuadResult(float(values[np.argmax(bad)]), math.inf, True, generation, None)
        # second condition: the error estimate is at the noise floor of
        # the integrand evaluation itself (log-space densities carry
        # relative noise up to ~1e-10 at large shape); splitting further
        # cannot improve such a panel
        done = (errs <= _TOL * (hi - lo)) | (errs <= 1e-10 * np.abs(values))
        accepted_values.extend(values[done].tolist())
        accepted_errors.extend(errs[done].tolist())
        totals.append(math.fsum(accepted_values) + math.fsum(values[~done].tolist()))
        # each unsettled panel becomes its two halves, in panel order
        lo, hi = np.repeat(lo[~done], 2), np.repeat(hi[~done], 2)
        lo[1::2] = hi[::2] = 0.5 * (lo[::2] + hi[1::2])

    if lo.size:
        # report the latest full-interval estimate rather than the settled
        # fragment, so the caller sees where the refinement was heading
        return QuadResult(totals[-1], math.inf, True, generation, (totals[-2], totals[-1]))
    return QuadResult(
        math.fsum(accepted_values), math.fsum(accepted_errors), False, generation, None
    )
