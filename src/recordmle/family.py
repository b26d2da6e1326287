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
    ``theta_domain``. ``A_inv`` and ``B_inv`` are optional: when ``None``,
    a bracketed bisection fallback with absolute tolerance 1e-12 is used,
    so custom families can be registered with only ``A`` and ``B``.
    Callables should accept numpy arrays; scalar-only callables still work
    but force elementwise fallbacks in the samplers.

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


def _bisect_increasing(fn, target: float, lo: float, hi_open: float) -> float:
    """Invert a strictly increasing scalar map on [lo, hi_open).

    Expands a bracket geometrically toward the open upper endpoint, then
    bisects to absolute tolerance 1e-12 on the argument.
    """
    f_lo = fn(lo)
    if target <= f_lo:
        if abs(target - f_lo) <= _INVERT_TOL:
            return lo
        raise EstimatorRangeError(
            f"target {target!r} below range start {f_lo!r} at argument {lo!r}"
        )
    if math.isinf(hi_open):
        hi = max(abs(lo), 1.0)
        for _ in range(200):
            if fn(hi) >= target:
                break
            hi *= 2.0
        else:
            raise EstimatorRangeError(
                f"target {target!r} not bracketed below argument {hi!r}"
            )
        lo_b = lo if hi == max(abs(lo), 1.0) else hi / 2.0
    else:
        hi = hi_open
        lo_b = lo
        # step just inside the open endpoint; fn may not be finite at hi
        width = hi - lo
        probe = hi - width * 1e-15
        if fn(probe) < target:
            raise EstimatorRangeError(
                f"target {target!r} above range near open endpoint {hi_open!r}"
            )
        hi = probe
    lo = lo_b
    for _ in range(200):
        if hi - lo <= _INVERT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _invert_on_open_interval(fn, target: float, domain: tuple[float, float]) -> float:
    """Invert a strictly monotone scalar map on an open interval.

    Monotonicity direction is detected from two probes; the interval may be
    unbounded. Raises :class:`EstimatorRangeError` with the observed range
    when the target cannot be bracketed.
    """
    lo, hi = domain
    # map (0,1) -> domain so unbounded intervals get geometric probing
    if math.isinf(hi) and math.isinf(lo):
        to_dom = lambda s: math.tan(math.pi * (s - 0.5))
    elif math.isinf(hi):
        to_dom = lambda s: lo + s / (1.0 - s)
    elif math.isinf(lo):
        to_dom = lambda s: hi - (1.0 - s) / s
    else:
        to_dom = lambda s: lo + (hi - lo) * s

    g = lambda s: fn(to_dom(s))
    increasing = g(0.75) > g(0.25)
    h = (lambda s: g(s)) if increasing else (lambda s: -g(s))
    t = target if increasing else -target

    s_lo, s_hi = None, None
    probes_lo = [0.5 * 2.0**-k for k in range(60)]
    # past k = 52 the subtraction rounds to 1.0 exactly, outside the open map
    probes_hi = [s for k in range(60) if (s := 1.0 - 0.5 * 2.0**-k) < 1.0]
    for s in probes_lo:
        val = h(s)
        if math.isfinite(val) and val <= t:
            s_lo = s
            break
    for s in probes_hi:
        val = h(s)
        if math.isfinite(val) and val >= t:
            s_hi = s
            break
    if s_lo is not None and s_lo == s_hi:
        # both scans stopped on the shared probe: the target sits exactly there
        return to_dom(s_lo)
    if s_lo is None or s_hi is None or s_lo > s_hi:
        lo_obs = g(probes_lo[-1])
        hi_obs = g(probes_hi[-1])
        rng = (min(lo_obs, hi_obs), max(lo_obs, hi_obs))
        raise EstimatorRangeError(
            f"target {target!r} outside observed range {rng!r} of B on the "
            f"parameter domain {domain!r}"
        )
    for _ in range(200):
        if to_dom(s_hi) - to_dom(s_lo) <= _INVERT_TOL:
            break
        mid = 0.5 * (s_lo + s_hi)
        if h(mid) < t:
            s_lo = mid
        else:
            s_hi = mid
    return to_dom(0.5 * (s_lo + s_hi))


def a_inverse(spec: FamilySpec, y):
    """Evaluate ``A_inv``, falling back to bisection when not supplied."""
    if spec.A_inv is not None:
        return _eval_pointwise(y, lambda arr: spec.A_inv(arr))

    def scalar(val: float) -> float:
        if val < 0.0:
            raise DomainError(f"A_inv argument {val!r} is negative")
        return _bisect_increasing(
            lambda x: float(spec.A(x)), val, spec.support_lo, spec.support_hi
        )

    arr = np.asarray(y, dtype=float)
    if arr.ndim == 0:
        return scalar(float(arr))
    return np.array([scalar(v) for v in arr.ravel()]).reshape(arr.shape)


def b_inverse(spec: FamilySpec, y):
    """Evaluate ``B_inv``, falling back to monotone bisection when absent."""
    if spec.B_inv is not None:
        return _eval_pointwise(y, lambda arr: spec.B_inv(arr))

    def scalar(val: float) -> float:
        return _invert_on_open_interval(
            lambda t: float(spec.B(t)), val, spec.theta_domain
        )

    arr = np.asarray(y, dtype=float)
    if arr.ndim == 0:
        return scalar(float(arr))
    return np.array([scalar(v) for v in arr.ravel()]).reshape(arr.shape)


# ---------------------------------------------------------------------------
# validation


def _support_grid(spec: FamilySpec, grid_size: int) -> np.ndarray:
    s = (np.arange(grid_size) + 0.5) / grid_size
    a, b = spec.support_lo, spec.support_hi
    if math.isinf(b):
        return a + s / (1.0 - s)
    return a + (b - a) * s


def _theta_grid(spec: FamilySpec, grid_size: int) -> np.ndarray:
    s = (np.arange(grid_size) + 0.5) / grid_size
    lo, hi = spec.theta_domain
    if math.isinf(hi) and math.isinf(lo):
        return np.tan(np.pi * (s - 0.5))
    if math.isinf(hi):
        return lo + s / (1.0 - s)
    if math.isinf(lo):
        return hi - (1.0 - s) / s
    return lo + (hi - lo) * s


def _safe_eval(fn, arg):
    try:
        return float(fn(arg)), None
    except Exception as exc:  # report, never crash validation
        return math.nan, f"{type(exc).__name__}: {exc}"


def validate_family(spec: FamilySpec, grid_size: int = 64) -> ValidationReport:
    """Run every family invariant on deterministic grids.

    Checks, in order: A strictly increasing; A zero at the lower endpoint
    (limit grid when the endpoint itself is not evaluable); the A and B
    inverse roundtrips within 1e-9 relative; B positive on the parameter
    grid; A' positive and within 1e-6 relative of a central finite
    difference of A. Non-finite callable output is reported as a failure
    of the corresponding check, not raised.
    """
    if grid_size < 8:
        raise ArgumentError("validate_family: grid_size must be at least 8")
    checks: list[CheckResult] = []
    xs = _support_grid(spec, grid_size)
    thetas = _theta_grid(spec, grid_size)

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

    # A_inv(A(x)) roundtrip
    worst, first, detail = 0.0, None, "A_inv(A(x)) relative error on the support grid"
    for x in xs:
        try:
            back = float(a_inverse(spec, float(spec.A(x))))
            rel = abs(back - x) / max(1.0, abs(x))
        except Exception as exc:
            rel, detail = math.inf, f"{type(exc).__name__}: {exc}"
        if rel > worst:
            worst, first = rel, float(x)
    ok = worst <= _ROUNDTRIP_TOL
    checks.append(CheckResult("A_inv_roundtrip", ok, worst, None if ok else first, detail))

    # B_inv(B(theta)) roundtrip
    worst, first, detail = 0.0, None, "B_inv(B(theta)) relative error on the theta grid"
    for t in thetas:
        try:
            back = float(b_inverse(spec, float(spec.B(t))))
            rel = abs(back - t) / max(1.0, abs(t))
        except Exception as exc:
            rel, detail = math.inf, f"{type(exc).__name__}: {exc}"
        if rel > worst:
            worst, first = rel, float(t)
    ok = worst <= _ROUNDTRIP_TOL
    checks.append(CheckResult("B_inv_roundtrip", ok, worst, None if ok else first, detail))

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
