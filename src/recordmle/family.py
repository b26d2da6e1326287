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


@dataclass(frozen=True, slots=True)
class FamilySpec:
    """A concrete member of the first-type exponential family.

    ``A`` must be strictly increasing on ``[support_lo, support_hi)`` with
    ``A(support_lo) = 0``; ``B`` must be positive on the open interval
    ``theta_domain``. ``A`` and ``A_prime`` must accept numpy arrays: the
    cdf/pdf maps, the sample MLE, the MC engine and the ``eval`` grids call
    them on whole arrays, and :func:`validate_family` fails a scalar-only
    callable. ``B`` is only called on scalars. ``A_inv`` and ``B_inv`` are
    optional and, when given, are called on arrays; when ``None``, a
    bracketed bisection with absolute tolerance 1e-12 inverts ``A`` or
    ``B`` one element at a time, so custom families can be registered with
    only ``A`` and ``B``.

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
    """Outcome of one validation invariant."""

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
    return float(spec.B(theta)), float(spec.A(x)), float(spec.A_prime(x))


def _eval_pointwise(x, fn):
    """Apply ``fn`` to a scalar or array argument, mirroring the shape."""
    arr = np.asarray(x, dtype=float)
    out = fn(arr)
    if arr.ndim == 0:
        return float(out)
    return np.asarray(out, dtype=float)


def cdf(spec: FamilySpec, theta: float, x):
    """Exact distribution function ``1 - exp(-B(theta) A(x))``.

    Points below the lower support endpoint evaluate to 0 and points at or
    above the upper endpoint to 1; within the support the map is
    nondecreasing in ``x``. Accepts scalars or arrays.
    """
    theta = _check_theta(spec, theta)
    b_val = float(spec.B(theta))

    def _cdf(arr):
        if np.isnan(arr).any():
            raise DomainError("cdf: NaN evaluation point")
        inside = (arr >= spec.support_lo) & (arr < spec.support_hi)
        safe = np.where(inside, arr, spec.support_lo)
        core = -np.expm1(-b_val * np.asarray(spec.A(safe), dtype=float))
        out = np.where(arr < spec.support_lo, 0.0, np.where(inside, core, 1.0))
        return out

    return _eval_pointwise(x, _cdf)


def pdf(spec: FamilySpec, theta: float, x):
    """Exact density ``A'(x) B(theta) exp(-A(x) B(theta))``.

    The lower endpoint is treated as closed (A(a) = 0, so
    ``pdf(a) = A'(a) B(theta)``); points outside ``[a, b)`` have density 0.
    """
    theta = _check_theta(spec, theta)
    b_val = float(spec.B(theta))

    def _pdf(arr):
        if np.isnan(arr).any():
            raise DomainError("pdf: NaN evaluation point")
        inside = (arr >= spec.support_lo) & (arr < spec.support_hi)
        safe = np.where(inside, arr, spec.support_lo)
        a_val = np.asarray(spec.A(safe), dtype=float)
        ap_val = np.asarray(spec.A_prime(safe), dtype=float)
        core = ap_val * b_val * np.exp(-a_val * b_val)
        return np.where(inside, core, 0.0)

    return _eval_pointwise(x, _pdf)


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


def _invert_monotone(fn, target: float, lo: float, hi: float, closed_lo: bool = False) -> float:
    """Solve ``fn(x) = target`` for a strictly monotone scalar map on (lo, hi).

    The direction comes from probes at the images of 1/4 and 3/4. From the
    image of 1/2 the bracket grows toward the side of the root: the step
    doubles toward an infinite end and the gap halves toward a finite end,
    at most 200 times. Bisection then runs to absolute tolerance 1e-12. With
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
    for _ in range(200):
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


def _elementwise(y, scalar):
    """Apply a scalar routine to a scalar, or to each element of an array."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 0:
        return scalar(float(arr))
    return np.array([scalar(float(v)) for v in arr.ravel()]).reshape(arr.shape)


def a_inverse(spec: FamilySpec, y):
    """Evaluate ``A_inv``, falling back to bisection when not supplied."""
    if spec.A_inv is not None:
        return _eval_pointwise(y, spec.A_inv)

    def scalar(val: float) -> float:
        if val < 0.0:
            raise DomainError(f"A_inv argument {val!r} is negative")
        if val == 0.0:
            return spec.support_lo
        return _invert_monotone(lambda x: float(spec.A(x)), val, spec.support_lo,
                                spec.support_hi, closed_lo=True)

    return _elementwise(y, scalar)


def b_inverse(spec: FamilySpec, y):
    """Evaluate ``B_inv``, falling back to monotone bisection when absent."""
    if spec.B_inv is not None:
        return _eval_pointwise(y, spec.B_inv)
    return _elementwise(
        y, lambda val: _invert_monotone(lambda t: float(spec.B(t)), val, *spec.theta_domain)
    )


# ---------------------------------------------------------------------------
# validation


def _roundtrip_check(name: str, fn, inverse, grid, detail: str) -> CheckResult:
    """Worst relative error of ``inverse(fn(v))`` against v over ``grid``."""
    worst, first = 0.0, None
    for v in grid:
        try:
            back = float(inverse(float(fn(v))))
            rel = abs(back - v) / max(1.0, abs(v))
        except Exception as exc:
            rel, detail = math.inf, f"{type(exc).__name__}: {exc}"
        if rel > worst:
            worst, first = rel, float(v)
    ok = worst <= _ROUNDTRIP_TOL
    return CheckResult(name, ok, worst, None if ok else first, detail)


def _safe_eval(fn, arg):
    try:
        return float(fn(arg)), None
    except Exception as exc:  # report, never crash validation
        return math.nan, f"{type(exc).__name__}: {exc}"


def _array_check(spec: FamilySpec, xs: np.ndarray) -> CheckResult:
    """A and A' called once on the array ``xs``, against their scalar calls."""
    worst, first = 0.0, None
    for label, fn in (("A", spec.A), ("A'", spec.A_prime)):
        try:
            vec = np.asarray(fn(xs), dtype=float)
            if vec.shape != xs.shape:
                raise ValueError(f"shape {xs.shape} in, shape {vec.shape} out")
        except Exception as exc:  # report, never crash validation
            return CheckResult("A_accepts_arrays", False, math.inf, float(xs[0]),
                               f"{label} on an array: {type(exc).__name__}: {exc}")
        scalar = np.array([_safe_eval(fn, x)[0] for x in xs])
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(vec == scalar, 0.0, np.abs(vec - scalar) / np.abs(scalar))
        rel = np.nan_to_num(rel, nan=math.inf)
        i = int(np.argmax(rel))
        if rel[i] > worst:
            worst, first = float(rel[i]), float(xs[i])
    ok = worst <= _ROUNDTRIP_TOL
    return CheckResult(
        "A_accepts_arrays", ok, worst, None if ok else first,
        "A and A' on the support grid as one array, against scalar calls",
    )


def validate_family(spec: FamilySpec, grid_size: int = 64) -> ValidationReport:
    """Run every family invariant on deterministic grids.

    Checks, in order: A strictly increasing; A zero at the lower endpoint
    (limit grid when the endpoint itself is not evaluable); the A and B
    inverse roundtrips within 1e-9 relative; B positive on the parameter
    grid; A' positive and within 1e-6 relative of a central finite
    difference of A; A and A' called once on the whole support grid,
    matching the scalar calls within 1e-9 relative. Non-finite callable
    output is reported as a failure of the corresponding check, not
    raised.
    """
    if grid_size < 8:
        raise ArgumentError("validate_family: grid_size must be at least 8")
    checks: list[CheckResult] = []
    s = (np.arange(grid_size) + 0.5) / grid_size
    xs = _to_interval(s, spec.support_lo, spec.support_hi)
    thetas = _to_interval(s, *spec.theta_domain)

    # A strictly increasing, pairwise on the grid
    a_vals = np.array([_safe_eval(spec.A, x)[0] for x in xs])
    finite = np.isfinite(a_vals)
    if not finite.all():
        bad = int(np.argmin(finite))
        checks.append(
            CheckResult(
                "A_increasing", False, math.inf, float(xs[bad]),
                "A returned a non-finite value on the support grid",
            )
        )
    else:
        diffs = np.diff(a_vals)
        ok = bool((diffs > 0.0).all())
        worst = float(diffs.min())
        first = None if ok else float(xs[int(np.argmin(diffs > 0.0)) + 1])
        checks.append(
            CheckResult(
                "A_increasing", ok, max(0.0, -worst), first,
                "pairwise increase of A over the support grid",
            )
        )

    # A(a) = 0, by direct evaluation or by a limit grid toward a
    a_at_lo, err = _safe_eval(spec.A, spec.support_lo)
    if err is None and math.isfinite(a_at_lo):
        ok = abs(a_at_lo) <= _ROUNDTRIP_TOL
        checks.append(
            CheckResult(
                "A_zero_at_lower", ok, abs(a_at_lo),
                None if ok else spec.support_lo,
                "A evaluated at the lower support endpoint",
            )
        )
    else:
        scale = 1.0 if math.isinf(spec.support_hi) else (
            spec.support_hi - spec.support_lo
        )
        approach = spec.support_lo + scale * 4.0 ** -np.arange(1, 13)
        vals = np.abs([_safe_eval(spec.A, x)[0] for x in approach])
        ok = bool(
            np.isfinite(vals).all()
            and (np.diff(vals) <= 0.0).all()
            and vals[-1] <= 1e-6
        )
        checks.append(
            CheckResult(
                "A_zero_at_lower", ok, float(vals[-1]),
                None if ok else float(approach[-1]),
                "limit of |A| on a grid approaching the open lower endpoint",
            )
        )

    checks.append(_roundtrip_check(
        "A_inv_roundtrip", spec.A, lambda y: a_inverse(spec, y), xs,
        "A_inv(A(x)) relative error on the support grid",
    ))
    checks.append(_roundtrip_check(
        "B_inv_roundtrip", spec.B, lambda y: b_inverse(spec, y), thetas,
        "B_inv(B(theta)) relative error on the theta grid",
    ))

    # B positive on the parameter grid
    b_vals = np.array([_safe_eval(spec.B, t)[0] for t in thetas])
    ok = bool(np.isfinite(b_vals).all() and (b_vals > 0.0).all())
    first = None if ok else float(thetas[int(np.argmax(~(np.isfinite(b_vals) & (b_vals > 0.0))))])
    checks.append(
        CheckResult(
            "B_positive", ok,
            0.0 if ok else float(np.nan_to_num(b_vals, nan=-math.inf).min()),
            first, "sign of B over the parameter grid",
        )
    )

    # A' positive and consistent with a central finite difference
    worst, first = 0.0, None
    positive = True
    for x in xs:
        gap = x - spec.support_lo
        if not math.isinf(spec.support_hi):
            gap = min(gap, spec.support_hi - x)
        h = min(1e-5 * max(abs(x), 1e-8), 0.5 * gap)
        if h <= 0.0:
            continue
        ap, err = _safe_eval(spec.A_prime, x)
        if err is not None or not math.isfinite(ap) or ap <= 0.0:
            positive = False
            first = first if first is not None else float(x)
            worst = math.inf
            continue
        fd = (float(spec.A(x + h)) - float(spec.A(x - h))) / (2.0 * h)
        rel = abs(fd - ap) / abs(ap)
        if rel > worst:
            worst, first = rel, float(x)
    ok = positive and worst <= _DERIVATIVE_TOL
    checks.append(
        CheckResult(
            "A_prime_positive_matches_fd", ok, worst, None if ok else first,
            "A' sign and agreement with a central finite difference of A",
        )
    )

    checks.append(_array_check(spec, xs))
    return ValidationReport(family=spec.name, checks=tuple(checks))


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
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ArgumentError(f"weibull shape alpha must be positive, got {alpha!r}")
    return FamilySpec(
        name=f"weibull:alpha={alpha!r}",
        A=lambda x, a=alpha: np.asarray(x, dtype=float) ** a,
        A_prime=lambda x, a=alpha: a * np.asarray(x, dtype=float) ** (a - 1.0),
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
