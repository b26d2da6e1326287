"""First-type exponential family: definition, validation, exact evaluation.

A member of the family is a continuous distribution with

    F(x; theta) = 1 - exp{-B(theta) * A(x)},    a <= x < b,

where A is strictly increasing on the support with A(a) = 0 and
A(x) -> infinity as x -> b, and B maps the parameter domain into (0,
infinity). Differentiating gives the density

    f(x; theta) = A'(x) * B(theta) * exp{-A(x) * B(theta)}.

The substitution u = A(x) turns every member into a unit-rate exponential
in u scaled by 1/B(theta), which is what makes the family tractable: all
downstream estimation theory reduces to gamma laws of the sufficient
statistic. This module holds the family container (:class:`FamilySpec`),
the four builtin members, a registry addressable by command-line strings,
grid-based validation, and the exact pdf/cdf/quantile maps.

Builtin members
---------------
=============  ===============  ============  ==============
name           A(x)             B(theta)      support
=============  ===============  ============  ==============
exponential    x                1/theta       [0, inf)
lomax          log(1 + x)       1/theta       [0, inf)
weibull:alpha  x**alpha         theta         [0, inf)
pareto:k       log(x / k)       theta         [k, inf)
=============  ===============  ============  ==============

The exponential member uses the mean parametrization (B = 1/theta), so
theta is E[X]. The pareto member is stated in the increasing-A form; a
decreasing variant such as A(x) = -log(x) on (0, 1) violates the family
conditions and is rejected by :func:`validate_family`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ArgumentError, DomainError, EstimatorRangeError

__all__ = [
    "FamilySpec",
    "CheckResult",
    "ValidationReport",
    "validate_family",
    "cdf",
    "pdf",
    "quantile",
    "a_inverse",
    "b_inverse",
    "point_constants",
    "make_exponential",
    "make_lomax",
    "make_weibull",
    "make_pareto",
    "resolve_family",
    "builtin_descriptions",
]

_ROUNDTRIP_TOL = 1e-9
_DERIVATIVE_TOL = 1e-6
_INVERT_TOL = 1e-12
# The fallback inverter's bracket grows until its probe reaches the end of
# the domain or rounds onto itself. A step doubling from at least 1
# overflows within 1,024 steps; a gap halving from below 2**1024 reaches the
# smallest float spacing, 2**-1074, within 2,098. The bound is that, with
# room for rounding.
_BRACKET_STEPS = 2200
_GRID_SIZE = 64
# A must exceed this at the largest float below support_hi: just below
# -log(2**-53), about 36.7, where the largest uniform double lands at B = 1.
_A_TOP = 36.0
# at or below this shape the weibull A = x**alpha stays under _A_TOP at the
# largest float, so the family is no distribution in float64
_WEIBULL_ALPHA_MIN = math.log(_A_TOP) / math.log(sys.float_info.max)


@dataclass(frozen=True, slots=True)
class FamilySpec:
    """A concrete member of the first-type exponential family.

    ``A`` must be strictly increasing on ``[support_lo, support_hi)`` with
    ``A(support_lo) = 0`` and must grow past 36 before ``support_hi`` (its
    float64 stand-in for A -> infinity); ``B`` must be positive on the open
    interval ``theta_domain``. ``A``, ``A_prime`` and ``B`` must accept
    numpy arrays as well as scalars: the cdf/pdf maps, the sample MLE, the
    MC engine, the ``eval`` grids and the inverse fallback call them on
    whole arrays, and :func:`point_constants` on scalars. ``A_inv`` and
    ``B_inv`` are optional and, when given, are called on arrays only; when
    ``None``, a bracketed bisection with absolute tolerance 1e-12 inverts
    ``A`` or ``B`` on the whole array, so custom families can be registered
    with only ``A`` and ``B``. :func:`validate_family` checks each of these
    the way the code calls it, and fails a scalar-only callable.

    Instances are immutable and safe to share across worker threads.
    """

    name: str
    A: Callable
    A_prime: Callable
    B: Callable
    support_lo: float
    support_hi: float
    theta_domain: tuple[float, float]
    A_inv: Optional[Callable] = None
    B_inv: Optional[Callable] = None


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Outcome of one validation invariant.

    ``residual`` is the worst entry of the check's error array, which must
    lie below the check's tolerance (a negated margin for the sign checks);
    ``first_failure`` is that entry's grid point when the check fails.
    """

    name: str
    passed: bool
    residual: float
    first_failure: Optional[float]
    detail: str


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """All invariant outcomes for one :class:`FamilySpec`."""

    family: str
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


# ---------------------------------------------------------------------------
# evaluation helpers


def _check_theta(spec: FamilySpec, theta: float) -> float:
    theta = float(theta)
    lo, hi = spec.theta_domain
    if not (lo < theta < hi) or math.isnan(theta):
        raise DomainError(
            f"theta={theta!r} outside parameter domain ({lo}, {hi}) "
            f"of family {spec.name!r}"
        )
    return theta


def point_constants(spec: FamilySpec, theta: float, x: float) -> tuple[float, float, float]:
    """Domain-checked (B(theta), A(x), A'(x)) at a support point."""
    theta = _check_theta(spec, theta)
    x = float(x)
    if math.isnan(x) or not (spec.support_lo <= x < spec.support_hi):
        raise DomainError(
            f"x={x!r} outside support [{spec.support_lo}, {spec.support_hi})"
        )
    # a map that overflows float64 gives inf, which the callers' values carry
    with np.errstate(over="ignore"):
        return float(spec.B(theta)), float(spec.A(x)), float(spec.A_prime(x))


def _eval_pointwise(x, fn):
    """Apply ``fn`` to a scalar or array argument, mirroring the shape."""
    arr = np.asarray(x, dtype=float)
    out = fn(arr)
    if arr.ndim == 0:
        return float(out)
    return np.asarray(out, dtype=float)


def _on_support(spec: FamilySpec, theta: float, x, name: str, core, past_end: float):
    """``core(B(theta), A(x), x)`` on the support, 0 below it, ``past_end`` at or past its end."""
    b_val = float(spec.B(_check_theta(spec, theta)))

    def _eval(arr):
        if np.isnan(arr).any():
            raise DomainError(f"{name}: NaN evaluation point")
        inside = (arr >= spec.support_lo) & (arr < spec.support_hi)
        safe = np.where(inside, arr, spec.support_lo)
        values = core(b_val, np.asarray(spec.A(safe), dtype=float), safe)
        return np.where(arr < spec.support_lo, 0.0, np.where(inside, values, past_end))

    return _eval_pointwise(x, _eval)


def cdf(spec: FamilySpec, theta: float, x):
    """Exact distribution function ``1 - exp(-B(theta) A(x))``.

    Points below the lower support endpoint evaluate to 0 and points at or
    above the upper endpoint to 1; within the support the map is
    nondecreasing in ``x``. Accepts scalars or arrays.
    """
    return _on_support(spec, theta, x, "cdf", lambda b, a, _: -np.expm1(-b * a), 1.0)


def pdf(spec: FamilySpec, theta: float, x):
    """Exact density ``A'(x) B(theta) exp(-A(x) B(theta))``.

    The lower endpoint is treated as closed (A(a) = 0, so
    ``pdf(a) = A'(a) B(theta)``); points outside ``[a, b)`` have density 0.
    """
    return _on_support(spec, theta, x, "pdf", lambda b, a, safe: np.asarray(
        spec.A_prime(safe), dtype=float) * b * np.exp(-a * b), 0.0)


def quantile(spec: FamilySpec, theta: float, u):
    """Inverse of :func:`cdf`: ``A_inv(-log(1 - u) / B(theta))``.

    Defined for ``0 <= u < 1``; u = 0 maps to the lower support endpoint.
    Satisfies ``cdf(spec, theta, quantile(spec, theta, u)) = u`` within
    1e-9 on the support.
    """
    theta = _check_theta(spec, theta)
    b_val = float(spec.B(theta))

    def _q(arr):
        if np.isnan(arr).any() or (arr < 0.0).any() or (arr >= 1.0).any():
            raise DomainError("quantile: u must satisfy 0 <= u < 1")
        y = -np.log1p(-arr) / b_val
        return a_inverse(spec, y)

    return _eval_pointwise(u, _q)


# ---------------------------------------------------------------------------
# inverse maps with bisection fallback


def _to_interval(s, lo: float, hi: float):
    """Map s in (0, 1), scalar or array, increasingly onto the open (lo, hi)."""
    if math.isinf(hi) and math.isinf(lo):
        return np.tan(np.pi * (s - 0.5))
    if math.isinf(hi):
        return lo + s / (1.0 - s)
    if math.isinf(lo):
        return hi - (1.0 - s) / s
    return lo + (hi - lo) * s


def _invert_monotone(fn, target, lo: float, hi: float, closed_lo: bool = False):
    """Solve ``fn(x) = target`` elementwise for a strictly monotone map on (lo, hi).

    The direction comes from probes at the images of 1/4 and 3/4. From the
    image of 1/2 the bracket grows toward the side of the root: the step
    doubles toward an infinite end and the gap halves toward a finite end,
    until the probe reaches the end or rounds onto itself. Bisection then
    runs to absolute tolerance 1e-12. With ``closed_lo`` the map is known
    to lie below ``target`` at lo, which then bounds the root when the
    probes cannot get closer to it. Every element takes these steps on its
    own, as a scalar solve would, and ``fn`` is called once per step on the
    elements still moving. Raises :class:`EstimatorRangeError` when a target
    cannot be bracketed.
    """
    t = np.asarray(target, dtype=float).ravel()
    with np.errstate(all="ignore"):  # far probes may overflow the map
        probe = np.asarray(fn(_to_interval(np.array([0.25, 0.75]), lo, hi)), dtype=float)
        sign = 1.0 if probe[1] > probe[0] else -1.0
        # increasing, zero at the root; evaluated on the elements in `m` only
        h = lambda x, m: sign * (np.asarray(fn(x[m]), dtype=float) - t[m])
        x = np.full(t.shape, _to_interval(0.5, lo, hi))
        moving = np.ones(t.shape, dtype=bool)
        val = h(x, moving)
        up = val < 0.0
        end = np.where(up, hi, lo)
        step = np.maximum(np.abs(x), 1.0)
        far, found = x.copy(), np.zeros(t.shape, dtype=bool)  # far: the probe past the root
        for _ in range(_BRACKET_STEPS):
            nxt = np.where(np.isinf(end), np.where(up, x + step, x - step), 0.5 * (x + end))
            step *= 2.0
            moving &= (nxt != x) & (nxt != end)  # rounded onto the last probe or the end
            if not moving.any():
                break
            nval = val.copy()
            nval[moving] = h(nxt, moving)
            hit = moving & np.where(up, nval >= 0.0, nval <= 0.0)
            far, found = np.where(hit, nxt, far), found | hit
            moving &= ~hit
            x, val = np.where(moving, nxt, x), np.where(moving, nval, val)
        a, b = np.where(up, x, far), np.where(up, far, x)
        if closed_lo:
            fall = ~found & (val > 0.0)
            a, found = np.where(fall, lo, a), found | fall
        if not found.all():
            i = int(np.argmin(found))
            raise EstimatorRangeError(
                f"target {float(t[i])!r} not bracketed on ({lo}, {hi}): the map is "
                f"{float(np.asarray(fn(x[i:i + 1]), dtype=float)[0])!r} at the last "
                f"probe {float(x[i])!r}"
            )
        for _ in range(200):
            live = b - a > _INVERT_TOL
            if not live.any():
                break
            mid = 0.5 * (a + b)
            below = np.zeros(t.shape, dtype=bool)
            below[live] = h(mid, live) < 0.0
            a, b = np.where(below, mid, a), np.where(live & ~below, mid, b)
    return (0.5 * (a + b)).reshape(np.shape(target))


def a_inverse(spec: FamilySpec, y):
    """Evaluate ``A_inv``, falling back to bisection when not supplied."""

    def fallback(arr):
        if (arr < 0.0).any():
            raise DomainError(f"A_inv argument {float(arr[arr < 0.0][0])!r} is negative")
        out, inner = np.full(arr.shape, spec.support_lo), arr != 0.0
        out[inner] = _invert_monotone(spec.A, arr[inner], spec.support_lo,
                                      spec.support_hi, closed_lo=True)
        return out

    return _eval_pointwise(y, fallback if spec.A_inv is None else spec.A_inv)


def b_inverse(spec: FamilySpec, y):
    """Evaluate ``B_inv``, falling back to monotone bisection when absent."""
    fallback = lambda arr: _invert_monotone(spec.B, arr, *spec.theta_domain)
    return _eval_pointwise(y, fallback if spec.B_inv is None else spec.B_inv)


# ---------------------------------------------------------------------------
# validation


def _verdict(name: str, tol: float, grid, detail: str, errors) -> CheckResult:
    """Check ``name``: every entry of ``errors()`` lies below ``tol``.

    ``errors`` computes one error per point of ``grid`` as an array, under
    ``np.errstate(all="ignore")``; NaN counts as infinite. The residual is
    the worst entry, and a failure names its grid point. An exception from
    ``errors`` fails the check at the first grid point, with its type and
    text after ``detail``.
    """
    try:
        with np.errstate(all="ignore"):
            err = np.broadcast_to(np.asarray(errors(), dtype=float), np.shape(grid))
    except Exception as exc:  # report, never crash validation
        err = np.full(np.shape(grid), math.inf)
        detail = f"{detail}: {type(exc).__name__}: {exc}"
    err = np.where(np.isnan(err), math.inf, err)
    i = int(np.argmax(err))
    ok = bool(err[i] < tol)
    return CheckResult(name, ok, float(err[i]), None if ok else float(grid[i]), detail)


def _array_check(spec: FamilySpec, xs: np.ndarray, thetas: np.ndarray) -> CheckResult:
    """A and A' once on the array ``xs`` and B once on ``thetas``, against one
    scalar call per point; the map with the worst relative gap is reported."""

    def gap(fn, grid):
        vec = np.asarray(fn(grid), dtype=float)
        if vec.shape != grid.shape:
            raise ValueError(f"shape {grid.shape} in, shape {vec.shape} out")
        scalar = np.array([float(fn(float(v))) for v in grid])
        return np.where(vec == scalar, 0.0, np.abs(vec - scalar) / np.abs(scalar))

    maps = (("A", spec.A, xs), ("A'", spec.A_prime, xs), ("B", spec.B, thetas))
    return max(
        (_verdict("A_accepts_arrays", _ROUNDTRIP_TOL, grid, f"{label} on an array",
                  lambda fn=fn, grid=grid: gap(fn, grid)) for label, fn, grid in maps),
        key=lambda check: check.residual,
    )


def validate_family(spec: FamilySpec) -> ValidationReport:
    """Run every family invariant on deterministic grids of 64 points.

    ``A_accepts_arrays`` runs first: A and A' called once on the whole
    support grid and B once on the whole parameter grid must match one
    scalar call per point within 1e-9 relative. It is the only check that
    calls the maps on scalars; when it fails, the report holds it alone,
    because every later check calls the maps on arrays. Then, in order: A
    strictly increasing; A zero at the lower endpoint (within 1e-9, or,
    when A is not finite there, within 1e-6 at lo plus 4**-12 times the
    support's width, or 4**-12 on an infinite support); ``A_unbounded``, A
    above 36 at the largest float below the upper endpoint; the A and B
    inverse roundtrips, through :func:`a_inverse` and :func:`b_inverse` on
    the whole grid, within 1e-9 relative; B positive; A' positive and
    within 1e-6 relative of a central finite difference of A. A non-finite
    value or an exception is reported as a failure of its check, not
    raised.
    """
    s = (np.arange(_GRID_SIZE) + 0.5) / _GRID_SIZE
    lo, hi = spec.support_lo, spec.support_hi
    xs, thetas = _to_interval(s, lo, hi), _to_interval(s, *spec.theta_domain)
    arrays = _array_check(spec, xs, thetas)
    if not arrays.passed:
        return ValidationReport(family=spec.name, checks=(arrays,))
    A = lambda v: np.asarray(spec.A(v), dtype=float)
    B = lambda v: np.asarray(spec.B(v), dtype=float)

    def increase():
        steps = np.diff(A(xs))
        return np.where(np.isfinite(steps), -steps, math.inf)

    def roundtrip(inverse, fn, grid):
        return lambda: np.abs(inverse(spec, fn(grid)) - grid) / np.maximum(1.0, np.abs(grid))

    def derivative():
        h = np.minimum(1e-5 * np.maximum(np.abs(xs), 1e-8), 0.5 * np.minimum(xs - lo, hi - xs))
        fd = (A(xs + h) - A(xs - h)) / (2.0 * h)
        ap = np.asarray(spec.A_prime(xs), dtype=float)
        return np.where(ap > 0.0, np.abs(fd - ap) / ap, math.inf)

    ends = np.array([lo, lo + (1.0 if math.isinf(hi) else hi - lo) * 4.0 ** -12])
    zero = _verdict("A_zero_at_lower", _ROUNDTRIP_TOL, ends[:1],
                    "A evaluated at the lower support endpoint", lambda: np.abs(A(ends[:1])))
    if not math.isfinite(zero.residual):  # an open endpoint: judge the limit instead
        zero = _verdict("A_zero_at_lower", 1e-6, ends[1:],
                        "|A| close to the open lower endpoint", lambda: np.abs(A(ends[1:])))
    top = np.array([math.nextafter(hi, -math.inf)])
    checks = (
        arrays,
        _verdict("A_increasing", 0.0, xs[1:],
                 "pairwise increase of A over the support grid", increase),
        zero,
        _verdict("A_unbounded", 0.0, top,
                 f"{_A_TOP} minus A at the largest float below the upper endpoint",
                 lambda: _A_TOP - A(top)),
        _verdict("A_inv_roundtrip", _ROUNDTRIP_TOL, xs,
                 "A_inv(A(x)) relative error on the support grid",
                 roundtrip(a_inverse, A, xs)),
        _verdict("B_inv_roundtrip", _ROUNDTRIP_TOL, thetas,
                 "B_inv(B(theta)) relative error on the theta grid",
                 roundtrip(b_inverse, B, thetas)),
        _verdict("B_positive", 0.0, thetas, "sign of B over the parameter grid",
                 lambda: -B(thetas)),
        _verdict("A_prime_positive_matches_fd", _DERIVATIVE_TOL, xs,
                 "A' sign and agreement with a central finite difference of A", derivative),
    )
    return ValidationReport(family=spec.name, checks=checks)


# ---------------------------------------------------------------------------
# builtin families and registry


def make_exponential() -> FamilySpec:
    """Exponential with mean theta: A(x) = x, B(theta) = 1/theta."""
    return FamilySpec(
        name="exponential",
        A=lambda x: np.asarray(x, dtype=float) + 0.0,
        A_prime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        A_inv=lambda y: np.asarray(y, dtype=float) + 0.0,
        B=lambda t: 1.0 / np.asarray(t, dtype=float),
        B_inv=lambda y: 1.0 / np.asarray(y, dtype=float),
        support_lo=0.0,
        support_hi=math.inf,
        theta_domain=(0.0, math.inf),
    )


def make_lomax() -> FamilySpec:
    """Lomax: A(x) = log(1 + x), B(theta) = 1/theta."""
    return FamilySpec(
        name="lomax",
        A=lambda x: np.log1p(np.asarray(x, dtype=float)),
        A_prime=lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)),
        A_inv=lambda y: np.expm1(np.asarray(y, dtype=float)),
        B=lambda t: 1.0 / np.asarray(t, dtype=float),
        B_inv=lambda y: 1.0 / np.asarray(y, dtype=float),
        support_lo=0.0,
        support_hi=math.inf,
        theta_domain=(0.0, math.inf),
    )


def make_weibull(alpha: float) -> FamilySpec:
    """Weibull with fixed shape alpha: A(x) = x**alpha, B(theta) = theta."""
    alpha = float(alpha)
    if not (alpha > _WEIBULL_ALPHA_MIN and math.isfinite(alpha)):
        raise ArgumentError(f"weibull shape alpha must exceed {_WEIBULL_ALPHA_MIN!r}, below "
                            f"which x**alpha stays under {_A_TOP} in float64, got {alpha!r}")

    def a_prime(x):
        with np.errstate(divide="ignore"):  # x = 0 with alpha < 1: inf, as it should be
            return alpha * np.asarray(x, dtype=float) ** (alpha - 1.0)

    return FamilySpec(
        name=f"weibull:alpha={alpha!r}",
        A=lambda x, a=alpha: np.asarray(x, dtype=float) ** a,
        A_prime=a_prime,
        A_inv=lambda y, a=alpha: np.asarray(y, dtype=float) ** (1.0 / a),
        B=lambda t: np.asarray(t, dtype=float) + 0.0,
        B_inv=lambda y: np.asarray(y, dtype=float) + 0.0,
        support_lo=0.0,
        support_hi=math.inf,
        theta_domain=(0.0, math.inf),
    )


def make_pareto(k: float) -> FamilySpec:
    """Pareto with scale k: A(x) = log(x / k), B(theta) = theta, x >= k."""
    k = float(k)
    if not (k > 0.0 and math.isfinite(k)):
        raise ArgumentError(f"pareto scale k must be positive, got {k!r}")
    return FamilySpec(
        name=f"pareto:k={k!r}",
        A=lambda x, kk=k: np.log(np.asarray(x, dtype=float) / kk),
        A_prime=lambda x: 1.0 / np.asarray(x, dtype=float),
        A_inv=lambda y, kk=k: kk * np.exp(np.asarray(y, dtype=float)),
        B=lambda t: np.asarray(t, dtype=float) + 0.0,
        B_inv=lambda y: np.asarray(y, dtype=float) + 0.0,
        support_lo=k,
        support_hi=math.inf,
        theta_domain=(0.0, math.inf),
    )


# name -> (factory, required parameter names, grammar string)
_REGISTRY: dict[str, tuple[Callable, tuple[str, ...], str]] = {
    "exponential": (make_exponential, (), "exponential"),
    "lomax": (make_lomax, (), "lomax"),
    "weibull": (make_weibull, ("alpha",), "weibull:alpha=<positive real>"),
    "pareto": (make_pareto, ("k",), "pareto:k=<positive real>"),
}


def builtin_descriptions() -> list[dict[str, str]]:
    """Stable-order registry listing for the CLI."""
    rows = []
    for name, (_, params, grammar) in _REGISTRY.items():
        rows.append(
            {
                "name": name,
                "parameters": ",".join(params) if params else "",
                "grammar": grammar,
            }
        )
    return rows


def resolve_family(text: str) -> FamilySpec:
    """Resolve a family string of the form ``name[:key=value,...]``.

    Values are parsed as decimal reals. Unknown names, unknown or missing
    parameters, and malformed pairs raise :class:`ArgumentError`.
    """
    text = text.strip()
    name, _, param_text = text.partition(":")
    name = name.strip().lower()
    if name not in _REGISTRY:
        known = ", ".join(_REGISTRY)
        raise ArgumentError(f"unknown family {name!r}; known: {known}")
    factory, required, grammar = _REGISTRY[name]
    params: dict[str, float] = {}
    if param_text:
        for pair in param_text.split(","):
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ArgumentError(
                    f"malformed family parameter {pair!r}; expected {grammar!r}"
                )
            try:
                params[key] = float(value)
            except ValueError:
                raise ArgumentError(
                    f"family parameter {key!r} has non-numeric value {value!r}"
                ) from None
    unknown = set(params) - set(required)
    if unknown:
        raise ArgumentError(
            f"family {name!r} does not take parameter(s) {sorted(unknown)}; "
            f"grammar: {grammar}"
        )
    missing = [p for p in required if p not in params]
    if missing:
        raise ArgumentError(
            f"family {name!r} requires parameter(s) {missing}; grammar: {grammar}"
        )
    return factory(**params)
