"""Independent ground truth for the series formulas and estimators.

Both estimators reduce to the same sufficient statistic T (the sum of
A-transformed observations, or A of the top record), and T follows a gamma
law with shape equal to the count and rate B(theta). Every quantity the
series module approximates is therefore an expectation of some h(T), which
this module evaluates two independent ways:

* adaptive quadrature of h against the gamma density to absolute
  tolerance 1e-10 (:func:`expect_over_gamma` and the ``exact_*`` wrappers);
* a deterministic, replayable Monte Carlo engine that simulates the actual
  estimators (:func:`mc_estimate`). Its ``records_direct`` source draws
  A(R_m) from its Gamma(m, B(theta)) law, one draw per replication, and
  keeps the record simulator's roundtrip through A_inv and A. Its
  ``records`` source walks each block's stream once with the literal
  sequential sampler (``records._sequential_tops``), a capped sequence NaN. On
  every source a draw or record that overflows raises ``records._observations``' error.

The four plug-in estimators, theta_hat = B_inv(size/T), g(theta_hat) =
k**theta_hat, F_hat(x) and f_hat(x), are each stated once, as a map of the
T array and its true value (``_estimator``). That one table serves both
oracles: the quadrature integrates a target's map, or its squared error,
on whole arrays of T, and the Monte Carlo engine applies the same map to
simulated T, through the one private route (``_mc_stat_array``) that all
three MC entry points take and that checks size and theta before any draw.
Only the power target's quadrature keeps its own map, in the rate
parametrization B(theta) = theta (:func:`exact_mse_g_power`).

Neither route shares code with the series evaluation, so agreement between
the three is evidence, not tautology. Targets whose exact expectation does
not exist (the power-function MSE with base above 1) come back from the
quadrature as a divergence signal; wrappers for quantities that must
converge escalate that signal to :class:`DivergenceError`.

Monte Carlo replications are partitioned into contiguous blocks of 4096;
the block index is the rng stream id, blocks write in block order into one
array, and that array is reduced by one pairwise summation. Results are
therefore bit-identical across runs and across worker counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import closedform, family as fam, records
from ._quadrature import QuadResult, integrate_unit_interval
from ._streams import make_generator
from .errors import (
    ArgumentError,
    DivergenceError,
    DomainError,
    ReplicationFailureError,
)
from .records import sample_records_sequential  # noqa: F401, perfbench/tracing.py wraps it

__all__ = [
    "Target",
    "REGISTRY",
    "TARGETS",
    "SOURCES",
    "ExperimentConfig",
    "MomentReport",
    "expect_over_gamma",
    "exact_expected_cdf_hat",
    "exact_expected_pdf_hat",
    "exact_mse_cdf_hat",
    "exact_mse_pdf_hat",
    "exact_mse_theta_hat",
    "exact_mse_g_power",
    "mc_estimate",
    "mc_statistic_array",
    "ks_two_sample",
    "consistency_curve",
]

SOURCES = ("sample", "records_direct", "records")

_BLOCK = 4096
_MAX_FAILURE_FRACTION = 0.01


# ---------------------------------------------------------------------------
# quadrature against the gamma law of T


def expect_over_gamma(h: Callable[[np.ndarray], np.ndarray], size: int,
                      rate: float) -> QuadResult:
    """E[h(T)] for T gamma with integer shape ``size`` and rate ``rate``.

    ``h`` takes a float64 array of T values and returns its values
    elementwise, as ``FamilySpec.A`` and ``B`` do; it is called once per
    quadrature generation, on the nodes of every pending panel. The half
    line is mapped onto s in (0, 1) by t = (size/rate) s / (1-s): scaling
    by the gamma mean parks the bulk of the mass around s = 0.5 at every
    shape, so the density spike (relative width 1/sqrt(size)) always spans
    several panels and cannot slip between quadrature nodes. The density
    and Jacobian are evaluated in log space so large shapes neither
    overflow nor lose the tails. Floating-point warnings are off: where h
    overflows, the panel holding it is not finite and ends the adaptive
    rule at once with a divergence signal rather than an exception.
    ``rate`` and ``size/rate`` must be finite and positive.
    """
    size = int(size)
    if size < 1:
        raise ArgumentError("expect_over_gamma: size must be at least 1")
    rate = float(rate)
    scale = size / rate if rate > 0.0 else 0.0
    if not (rate < math.inf and 0.0 < scale < math.inf):
        raise ArgumentError(
            f"expect_over_gamma: rate {rate!r} and size/rate {scale!r} must be finite "
            "and positive"
        )
    log_rate = math.log(rate)
    lg_size = math.lgamma(size)
    log_scale = math.log(scale)

    def integrand(s: np.ndarray) -> np.ndarray:
        u = s / (1.0 - s)
        t = scale * u
        log_weight = size * log_rate - rate * t - lg_size + log_scale + 2.0 * np.log1p(u)
        if size != 1:
            log_weight += (size - 1) * np.log(t)
        return h(t) * np.exp(log_weight)

    with np.errstate(all="ignore"):
        return integrate_unit_interval(integrand)


def _require_convergent(result: QuadResult, what: str) -> float:
    if result.diverged:
        raise DivergenceError(f"{what}: no finite expectation (value {result.value!r} "
                              f"after {result.generations} generations, last totals "
                              f"{result.last_totals!r})")
    return result.value


def _exact(target: str, spec: fam.FamilySpec, theta: float, x: Optional[float],
           size: int) -> float:
    """Quadrature value of a ``REGISTRY`` target, floored at 0.

    The integrand is the target's map from the ``_estimator`` table, the one
    the MC simulates: the estimate itself for a ``mean`` target, its squared
    error against the true value for an ``mse`` target.
    """
    entry = REGISTRY[target]
    size = int(size)
    estimate, truth = _estimator(entry.estimator, spec, theta, x, size, None)
    h = estimate if entry.kind == "mean" else (lambda t: (estimate(t) - truth) ** 2)
    rate = float(spec.B(fam._check_theta(spec, theta)))
    return max(0.0, _require_convergent(expect_over_gamma(h, size, rate), target))


def exact_expected_cdf_hat(spec: fam.FamilySpec, theta: float, x: float, size: int) -> float:
    """Exact mean of the plug-in CDF estimate: E[1 - exp(-size A(x)/T)].

    The integrand is bounded, so this target always converges; the result
    is clamped to [0, 1] against quadrature roundoff at the scale of the
    1e-10 tolerance.
    """
    return min(1.0, _exact("E_cdf_hat", spec, theta, x, size))


def exact_expected_pdf_hat(spec: fam.FamilySpec, theta: float, x: float, size: int) -> float:
    """Exact mean of the plug-in density estimate.

    E[A'(x) (size/T) exp(-size A(x)/T)]; converges whenever A(x) > 0 (the
    essential decay of exp(-c/t) wins at t -> 0) and at A(x) = 0 for size
    of at least 2. A genuinely divergent configuration raises
    :class:`DivergenceError`.
    """
    return _exact("E_pdf_hat", spec, theta, x, size)


def exact_mse_cdf_hat(spec: fam.FamilySpec, theta: float, x: float, size: int) -> float:
    """Exact MSE of the plug-in CDF estimate.

    Single quadrature of the bounded squared error
    (1 - e^{-size A(x)/t} - F(x; theta))^2, so no cancellation enters before
    the integral.
    """
    return _exact("MSE_cdf_hat", spec, theta, x, size)


def exact_mse_pdf_hat(spec: fam.FamilySpec, theta: float, x: float, size: int) -> float:
    """Exact MSE of the plug-in density estimate.

    Single quadrature of the nonnegative integrand
    (A'(x) (size/t) e^{-size A(x)/t} - f(x; theta))^2, so no cancellation
    enters before the integral.
    """
    return _exact("MSE_pdf_hat", spec, theta, x, size)


def exact_mse_theta_hat(spec: fam.FamilySpec, theta: float, size: int) -> float:
    """Exact MSE of the parameter MLE: E[(B_inv(size/T) - theta)^2]."""
    return _exact("MSE_theta_hat", spec, theta, None, size)


def exact_mse_g_power(theta: float, n: int, k: float) -> QuadResult:
    """Quadrature MSE of k**theta_hat in the rate parametrization B = theta.

    Returns the raw :class:`QuadResult`. For k > 1 the expectation does not
    exist at any n: k**(2 theta_hat) = exp(c/T) with theta_hat = n/T and
    c = 2 n ln k > 0, and exp(c/t) t^(n-1) is not integrable at t = 0. That
    case comes back ``diverged`` with an infinite value and 0 generations,
    without evaluating the integrand. Counterpart of
    :func:`recordmle.closedform.mse_g_power_series`.
    """
    theta, (n,), k = closedform._power_args(theta, [n], k, "exact_mse_g_power")
    if k > 1.0:
        return QuadResult(math.inf, math.inf, True, 0, None)
    log_k = math.log(k)
    g_true = k**theta
    return expect_over_gamma(lambda t: (np.exp(n * log_k / t) - g_true) ** 2, n, theta)


# ---------------------------------------------------------------------------
# experiment configuration, moment targets and report types


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """One reproducible experiment: family, parameter, design, seed.

    ``family`` is a registry string (``name[:key=value,...]``). ``sizes``
    holds exactly one positive size (callers sweep sizes by looping) and
    ``x_grid`` at most one point, both checked at construction. ``g_k`` is
    the base of the power function target and only read for MSE_g_hat.
    """

    family: str
    theta: float
    sizes: tuple[int, ...]
    x_grid: tuple[float, ...] = ()
    reps: int = 1000
    seed: int = 0
    g_k: float = math.e

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "x_grid", tuple(float(x) for x in self.x_grid))
        if len(self.sizes) != 1 or self.sizes[0] < 1:
            raise ArgumentError("ExperimentConfig: sizes must hold exactly one positive size")
        if len(self.x_grid) > 1:
            raise ArgumentError("ExperimentConfig: x_grid must hold at most one point")
        if int(self.reps) < 100:
            raise ArgumentError("ExperimentConfig: reps must be at least 100")
        object.__setattr__(self, "reps", int(self.reps))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "g_k", float(self.g_k))

    def resolve(self) -> fam.FamilySpec:
        return fam.resolve_family(self.family)


@dataclass(frozen=True, slots=True)
class MomentReport:
    """Three-way view of one moment target under one configuration.

    ``series_value`` is None when the target has no closed series for the
    configuration; ``quad_value`` is None when the exact integral diverges
    (then ``quad_divergent`` is True).
    """

    target: str
    mc_value: float
    mc_stderr: float
    reps: int
    failures: int
    config: ExperimentConfig
    series_value: Optional[closedform.SeriesValue] = None
    quad_value: Optional[float] = None
    quad_divergent: bool = False


_POINT_ESTIMATORS = ("cdf_hat", "pdf_hat")


def _estimator(
    name: str, spec: fam.FamilySpec, theta: float, x: Optional[float], size: int,
    k: Optional[float],
) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """Plug-in estimator ``name`` as a map of the T array, and its true value.

    ``theta_hat`` is B_inv(size/T) through :func:`family.b_inverse`;
    ``g_hat`` is k**theta_hat; ``cdf_hat`` and ``pdf_hat`` are the plug-in
    cdf and density at x. The MC engine applies the map block by block, so
    every statistic keeps one operation order and its values their bits.
    """
    if name in _POINT_ESTIMATORS:
        if x is None:
            raise ArgumentError("point targets need exactly one evaluation point in x_grid")
        b_val, a_val, ap_val = fam.point_constants(spec, theta, x)
        if name == "pdf_hat":
            return (lambda t: ap_val * (size / t) * np.exp(-(size / t) * a_val),
                    ap_val * b_val * math.exp(-b_val * a_val))
        return lambda t: -np.expm1(-(size / t) * a_val), -math.expm1(-b_val * a_val)
    if name == "theta_hat":
        return lambda t: fam.b_inverse(spec, size / t), theta
    if name == "g_hat":
        if not (0.0 < k < math.inf) or k == 1.0:
            raise ArgumentError("MSE_g_hat needs g_k positive, finite and not 1")
        try:
            return lambda t: k ** fam.b_inverse(spec, size / t), k**theta
        except OverflowError:
            raise DomainError(f"g(theta) = {k!r}**{theta!r} overflows float64") from None
    raise ArgumentError(f"unknown statistic {name!r}")


@dataclass(frozen=True, slots=True)
class Target:
    """One moment target: its ``table --formula`` name and four routes.

    The routes take ``(spec, theta, x, size, k)``; x is read only when
    ``needs_x``, k is the base of the power target. ``series`` gives the
    truncated :class:`closedform.SeriesValue` (None: no series for a general
    family), and ``sweep`` the ``table`` rows over a list of sizes in one
    call, with the size list in place of the size (for alpha-n, the
    exponential member's exact theta^2 / n); ``exact`` gives the quadrature
    value or raises :class:`DivergenceError`. Both oracles take the plug-in
    ``estimator`` of the ``_estimator`` table (the power target's quadrature
    excepted): the mean of the estimator (``kind`` "mean") or of its squared
    error against the true value ("mse"). The lambdas look closedform
    functions up at call time, so wrappers set on that module (the
    benchmark's tracing) see the calls.
    """

    name: str
    formula: str
    estimator: str
    kind: str
    series: Optional[Callable[..., closedform.SeriesValue]]
    sweep: Callable[..., list[closedform.SeriesValue]]
    exact: Callable[..., float]

    @property
    def needs_x(self) -> bool:
        return self.estimator in _POINT_ESTIMATORS


# MSE_theta_hat has a closed form only family by family; its table formula
# alpha-n is the exponential member's theta^2 / n. The series and quadrature
# of MSE_g_hat take the rate parametrization B(theta) = theta, so they
# referee the MC only for such a family. For one with B(theta) != theta the
# MC still simulates that family's theta_hat: exponential (B = 1/theta),
# theta = 1.3, n = 12, k = 0.5, 1e5 replications, seed 5 gives 0.010854
# +- 4.7e-5 against quadrature 0.011030. Which referee is right there is a
# spec decision.
REGISTRY = {t.name: t for t in (
    Target("E_cdf_hat", "E-cdf", "cdf_hat", "mean",
           lambda s, th, x, n, k: closedform.expected_cdf_hat_series(s, th, x, n),
           lambda s, th, x, ns, k: closedform.expected_cdf_hat_sweep(s, th, x, ns),
           lambda s, th, x, n, k: exact_expected_cdf_hat(s, th, x, n)),
    Target("E_pdf_hat", "E-pdf", "pdf_hat", "mean",
           lambda s, th, x, n, k: closedform.expected_pdf_hat_series(s, th, x, n),
           lambda s, th, x, ns, k: closedform.expected_pdf_hat_sweep(s, th, x, ns),
           lambda s, th, x, n, k: exact_expected_pdf_hat(s, th, x, n)),
    Target("MSE_cdf_hat", "MSE-cdf", "cdf_hat", "mse",
           lambda s, th, x, n, k: closedform.mse_cdf_hat_series(s, th, x, n),
           lambda s, th, x, ns, k: closedform.mse_cdf_hat_sweep(s, th, x, ns),
           lambda s, th, x, n, k: exact_mse_cdf_hat(s, th, x, n)),
    Target("MSE_pdf_hat", "MSE-pdf", "pdf_hat", "mse",
           lambda s, th, x, n, k, **kw: closedform.mse_pdf_hat_series(s, th, x, n, **kw),
           lambda s, th, x, ns, k, **kw: closedform.mse_pdf_hat_sweep(s, th, x, ns, **kw),
           lambda s, th, x, n, k: exact_mse_pdf_hat(s, th, x, n)),
    Target("MSE_theta_hat", "alpha-n", "theta_hat", "mse", None,
           lambda s, th, x, ns, k: closedform.alpha_n_sweep(th, ns),
           lambda s, th, x, n, k: exact_mse_theta_hat(s, th, n)),
    Target("MSE_g_hat", "mse-g", "g_hat", "mse",
           lambda s, th, x, n, k: closedform.mse_g_power_series(th, n, k),
           lambda s, th, x, ns, k: closedform.mse_g_power_sweep(th, ns, k),
           lambda s, th, x, n, k: _require_convergent(exact_mse_g_power(th, n, k),
                                                      "exact_mse_g_power")),
)}
TARGETS = tuple(REGISTRY)


# ---------------------------------------------------------------------------
# Monte Carlo engine


def _block_sufficient_stats(
    spec: fam.FamilySpec,
    theta: float,
    size: int,
    seed: int,
    block_index: int,
    count: int,
    source: str,
) -> np.ndarray:
    """T values for one contiguous block of replications.

    The block index is the rng stream id, so the draw sequence of a block
    never depends on how blocks are distributed over workers.
    """
    rng = make_generator(seed, block_index)
    if source == "sample":  # the draws are scanned only where a T is not finite
        return records._observations(spec, theta, rng.random((count, size)), f"theta={theta!r}",
            lambda head: f"draw {block_index * _BLOCK * size + head.size - 1}",
            keep=lambda xs: np.sum(np.asarray(spec.A(xs), dtype=float), axis=1))
    if source == "records_direct":
        # records enter the statistic only through A(R_m), the sum of m
        # exponential gaps of rate B: draw it from its Gamma(m, B) law, then
        # keep the simulator's roundtrip through A_inv rather than shortcutting
        r_m = records._observations(
            spec, theta, rng.standard_gamma(float(size), count) / float(spec.B(theta)),
            f"m={size}", lambda head: f"record R_{size}", a_values=True)
        return np.asarray(spec.A(r_m), dtype=float)
    # "records": the literal sequential sampler, one walk over the block's stream
    r_m = records._sequential_tops(spec, theta, size, rng, count)
    out = np.full(count, math.nan)
    done = ~np.isnan(r_m)
    out[done] = spec.A(r_m[done])
    return out


def _mc_stat_array(
    spec: fam.FamilySpec,
    theta: float,
    x: Optional[float],
    size: int,
    k: Optional[float],
    statistic: str,
    reps: int,
    seed: int,
    source: str,
    workers: int = 1,
) -> tuple[np.ndarray, float]:
    """Per-replication values of the ``_estimator`` map ``statistic``, and its true value.

    Every argument is checked before any draw. Blocks are computed possibly
    in parallel but written in block order into one array, so the output,
    deterministic in (seed, reps), never depends on the worker count.
    """
    if source not in SOURCES:
        raise ArgumentError(f"unknown estimator source {source!r}; known: {SOURCES}")
    if size < 1:
        raise ArgumentError(f"sizes must be positive, got {size}")
    if reps < 1:
        raise ArgumentError("reps must be positive")
    workers = int(workers)
    if workers < 1:
        raise ArgumentError(f"workers must be at least 1, got {workers}")
    theta = fam._check_theta(spec, theta)
    transform, truth = _estimator(statistic, spec, theta, x, size, k)
    blocks = range((reps + _BLOCK - 1) // _BLOCK)
    out = np.empty(reps, dtype=float)

    def run_block(idx: int) -> None:
        count = min(_BLOCK, reps - idx * _BLOCK)
        t_vals = _block_sufficient_stats(spec, theta, size, seed, idx, count, source)
        with np.errstate(all="ignore"):
            out[idx * _BLOCK: idx * _BLOCK + count] = transform(t_vals)

    if workers == 1 or len(blocks) == 1:
        list(map(run_block, blocks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_block, blocks))
    return out, truth


def _config_args(config: ExperimentConfig) -> tuple:
    """``(spec, theta, x, size, k)`` of ``config``, the routes' argument order."""
    return (config.resolve(), config.theta, config.x_grid[0] if config.x_grid else None,
            config.sizes[0], config.g_k)


def mc_estimate(
    config: ExperimentConfig, target: str, source: str, workers: int = 1
) -> MomentReport:
    """Monte Carlo estimate of one moment target, with the series and
    quadrature values alongside for comparison.

    Replications with non-finite statistics are counted as failures; more
    than 1% failing aborts the run. On every source a draw or record that
    overflows float64 raises :class:`~recordmle.errors.DomainError` instead,
    naming it, as does theta outside the family's domain.
    """
    if target not in TARGETS:
        raise ArgumentError(f"unknown target {target!r}; known: {TARGETS}")
    entry = REGISTRY[target]
    args = _config_args(config)
    ys, truth = _mc_stat_array(*args, entry.estimator, config.reps, config.seed, source,
                               workers)
    if entry.kind == "mse":
        with np.errstate(all="ignore"):
            ys -= truth  # a non-finite error is a failure, counted below
    finite = np.isfinite(ys)
    failures = int(config.reps - int(finite.sum()))
    if failures > _MAX_FAILURE_FRACTION * config.reps:
        raise ReplicationFailureError(
            f"{failures} of {config.reps} replications failed (>1%)"
        )
    stat = ys if failures == 0 else ys[finite]
    n_ok = stat.size
    # an MSE's stderr needs the error's fourth moment; squaring in place keeps
    # one float64 per replication and the sums' bits; an overflow makes them inf
    with np.errstate(over="ignore"):
        if entry.kind == "mse":
            np.multiply(stat, stat, out=stat)
        mc_value = float(np.sum(stat) / n_ok)
        var = float(np.sum(np.multiply(stat, stat, out=stat)) / n_ok) - mc_value * mc_value
    # an infinite mc_value makes var inf - inf = nan, which max(var, 0.0) keeps
    mc_stderr = math.sqrt(max(var, 0.0) / max(n_ok - 1, 1))
    try:
        quad_value, diverged = entry.exact(*args), False
    except DivergenceError:
        quad_value, diverged = None, True
    try:
        series = None if entry.series is None else entry.series(*args)
    except ArgumentError:
        series = None
    return MomentReport(
        target=target,
        mc_value=mc_value,
        mc_stderr=mc_stderr,
        reps=config.reps,
        failures=failures,
        config=config,
        series_value=series,
        quad_value=quad_value,
        quad_divergent=diverged,
    )


# ---------------------------------------------------------------------------
# distribution comparison and consistency


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|.

    Evaluated over the pooled points with right-continuous empirical CDFs;
    exact, symmetric, and invariant under any common strictly increasing
    transform of both samples.
    """
    a_arr = np.sort(np.asarray(a, dtype=float))
    b_arr = np.sort(np.asarray(b, dtype=float))
    if a_arr.size == 0 or b_arr.size == 0:
        raise ArgumentError("ks_two_sample: both samples must be nonempty")
    if np.isnan(a_arr).any() or np.isnan(b_arr).any():
        raise ArgumentError("ks_two_sample: NaN in input")
    pooled = np.concatenate([a_arr, b_arr])
    cdf_a = np.searchsorted(a_arr, pooled, side="right") / a_arr.size
    cdf_b = np.searchsorted(b_arr, pooled, side="right") / b_arr.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def mc_statistic_array(
    config: ExperimentConfig,
    source: str,
    statistic: str = "theta_hat",
    workers: int = 1,
) -> np.ndarray:
    """Raw per-replication estimator values (no aggregation).

    ``statistic`` is ``"theta_hat"``, ``"g_hat"``, ``"cdf_hat"`` or
    ``"pdf_hat"``; the last two need one evaluation point in ``x_grid``.
    Used by the distributional-identity and consistency checks, which need
    whole empirical laws rather than moments.
    """
    return _mc_stat_array(*_config_args(config), statistic, config.reps, config.seed,
                          source, workers)[0]


def consistency_curve(
    spec: fam.FamilySpec,
    theta: float,
    eps: float,
    sizes: Sequence[int],
    reps: int,
    seed: int,
    source: str = "records_direct",
    workers: int = 1,
) -> list[tuple[int, float]]:
    """Empirical P(|theta_hat - theta| > eps) for each record count.

    Each size gets its own derived stream family (size index folded into
    the seed), so adding sizes never perturbs earlier entries.
    """
    eps = float(eps)
    if not (eps > 0.0):
        raise ArgumentError("consistency_curve: eps must be positive")
    sizes = [int(s) for s in sizes]
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ArgumentError("consistency_curve: sizes must be strictly increasing")
    out: list[tuple[int, float]] = []
    for idx, size in enumerate(sizes):
        theta_hats, _ = _mc_stat_array(spec, theta, None, size, None, "theta_hat",
                                       int(reps), int(seed) + (idx << 32), source, workers)
        good = theta_hats[np.isfinite(theta_hats)]
        p = float(np.mean(np.abs(good - float(theta)) > eps))
        out.append((size, p))
    return out
