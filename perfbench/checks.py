"""Independent referees for every output the benchmark produces.

Nothing here imports ``recordmle``. Reference values come from the family
definitions written out below, Python's ``csv`` module, ``math.fsum``,
``mpmath`` and, for the KS distance only, numpy's sort. Each check returns ``None`` when the output is right and a short
reason when it is not, so a wrong output becomes a failed operation with a
name and a cause.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath
import numpy as np

mpmath.mp.dps = 40

# name -> (A, A', B, B^-1), each usable on floats and on mpmath numbers.
FAMILIES = {
    "exponential": (lambda x: x, lambda x: 1, lambda t: 1 / t, lambda y: 1 / y),
    "lomax": (mpmath.log1p, lambda x: 1 / (1 + x), lambda t: 1 / t, lambda y: 1 / y),
    "weibull:alpha=2": (lambda x: x * x, lambda x: 2 * x, lambda t: t, lambda y: y),
}
# the family name the program reports for each family string
REPORTED_NAME = {"exponential": "exponential", "weibull:alpha=2": "weibull:alpha=2.0"}

# one-sample KS: P(sqrt(n) D > lam) <= 2 exp(-2 lam^2); lam for p = 1e-9
KS_P = 1e-9
KS_LAMBDA = math.sqrt(math.log(2.0 / KS_P) / 2.0)
# Monte Carlo estimates must lie within this many standard errors
MC_Z = 5.0
# fit and eval outputs against float references computed the same way
FIT_RTOL = 1e-12
EVAL_TOL = 1e-12
# series rows against the mpmath sum: relative to the sum of |terms|
SERIES_RTOL = 5e-11
# converged targets (series at large size, quadrature) against Bessel-K
EXACT_TOL = 1e-9


def _rel_gap(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# data path: simulate, fit, eval


def read_values(text: str) -> tuple[list[int], list[float]]:
    """Index and value columns of ``index,value`` CSV text, via the csv module."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["index", "value"]:
        raise ValueError(f"header {header!r}")
    idx, vals = [], []
    for row in reader:
        idx.append(int(row[0]))
        vals.append(float(row[1]))
    return idx, vals


def check_simulate(family: str, theta: float, n: int, text: str) -> str | None:
    """Header, indices 0..n-1, support, and KS distance to the exact CDF."""
    try:
        idx, vals = read_values(text)
    except (ValueError, IndexError) as exc:
        return f"simulate output does not parse: {exc}"
    if idx != list(range(n)):
        return f"simulate: indices are not 0..{n - 1}"
    if any(not (0.0 <= v < math.inf) for v in vals):
        return "simulate: value outside the support [0, inf)"
    a, _, b, _ = FAMILIES[family]
    f = -np.expm1(-float(b(theta)) * a(np.sort(np.asarray(vals))))
    ranks = np.arange(n)
    d = float(max(np.max((ranks + 1) / n - f), np.max(f - ranks / n)))
    crit = KS_LAMBDA / math.sqrt(n)
    if d > crit:
        return f"simulate: KS distance {d:.3g} above {crit:.3g} (p={KS_P:g})"
    return None


def fnv1a64(data: bytes) -> str:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def check_manifest(stderr_text: str, out_path: str, data: bytes) -> str | None:
    """The manifest names the output file and its FNV-1a 64 digest."""
    try:
        manifest = json.loads(stderr_text)
    except ValueError:
        return "manifest is not JSON"
    want = [{"path": out_path, "fnv1a64": fnv1a64(data)}]
    if manifest.get("outputs") != want:
        return f"manifest outputs {manifest.get('outputs')!r}, expected {want!r}"
    return None


def reference_fit(family: str, vals: list[float], records: bool) -> tuple[int, float, float]:
    """(size, T, theta_hat) from a plain running-max pass and math.fsum."""
    a, _, _, b_inv = FAMILIES[family]
    if records:
        m, top = 0, -math.inf
        for v in vals:
            if v > top:
                top, m = v, m + 1
        size, t_stat = m, float(a(top))
    else:
        size, t_stat = len(vals), math.fsum(float(a(v)) for v in vals)
    return size, t_stat, float(b_inv(size / t_stat))


def check_fit(family: str, vals: list[float], records: bool, text: str) -> str | None:
    try:
        got = json.loads(text)
    except ValueError:
        return "fit output is not JSON"
    size, t_stat, theta_hat = reference_fit(family, vals, records)
    want = {"family": REPORTED_NAME[family], "source": "records" if records else "sample",
            "n_or_m": size}
    for key, value in want.items():
        if got.get(key) != value:
            return f"fit: {key} is {got.get(key)!r}, expected {value!r}"
    for key, value in (("sufficient_stat", t_stat), ("theta_hat", theta_hat)):
        if not isinstance(got.get(key), float) or _rel_gap(got[key], value) > FIT_RTOL:
            return f"fit: {key} is {got.get(key)!r}, expected {value!r}"
    return None


def check_eval(family: str, what: str, theta_hat: float, grid: tuple[float, float, int],
               text: str) -> str | None:
    """Every row of an eval output against the closed-form cdf or pdf."""
    a, ap, b, _ = FAMILIES[family]
    lo, hi, count = grid
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["x", "value"] or len(rows) != count + 1:
        return f"eval: header {rows[0]!r} with {len(rows) - 1} rows, expected {count}"
    bv = float(b(theta_hat))
    for i, (xs, vs) in enumerate(rows[1:]):
        x, v = float(xs), float(vs)
        if abs(x - (lo + i * (hi - lo) / (count - 1))) > 1e-12 * max(1.0, abs(hi)):
            return f"eval: grid point {i} is {x!r}"
        ax = float(a(x))
        if what.startswith("cdf"):
            want = -math.expm1(-bv * ax)
        else:
            want = float(ap(x)) * bv * math.exp(-bv * ax)
        if abs(v - want) > EVAL_TOL * max(1.0, abs(want)):
            return f"eval: {what}({x!r}) is {v!r}, expected {want!r}"
    return None


# ---------------------------------------------------------------------------
# closed forms: series sums and the gamma-law expectations


def series_sum(c, count: int, size: int, offset: int):
    """(sum, sum of |terms|) of c^i Gamma(size-i-offset) / (i! Gamma(size)), i < count.

    Built by the exact term ratio c / ((i+1)(size-i-offset-1)) in mpmath.
    """
    c = mpmath.mpf(c)
    term = mpmath.gamma(size - offset) / mpmath.gamma(size)
    total, scale = mpmath.mpf(0), mpmath.mpf(0)
    for i in range(count):
        total += term
        scale += abs(term)
        if i + 1 < count:
            term = term * c / ((i + 1) * (size - i - offset - 1))
    return total, scale


def gamma_moment(c, rate, n: int, k: int = 0):
    """E[T^-k exp(-c/T)] for T gamma with shape n and the given rate:
    2 rate^n (c/rate)^((n-k)/2) K_{n-k}(2 sqrt(c rate)) / Gamma(n)."""
    c, rate = mpmath.mpf(c), mpmath.mpf(rate)
    nu = n - k
    return (2 * rate**n * (c / rate) ** (mpmath.mpf(nu) / 2)
            * mpmath.besselk(nu, 2 * mpmath.sqrt(c * rate)) / mpmath.gamma(n))


def _point(family: str, theta: float, x: float):
    a, ap, b, _ = FAMILIES[family]
    x = mpmath.mpf(x)
    return mpmath.mpf(b(mpmath.mpf(theta))), mpmath.mpf(a(x)), mpmath.mpf(ap(x))


def series_reference(formula: str, family: str | None, theta: float, x: float | None,
                     k: float | None, n: int):
    """(value, scale) of the truncated series the ``table`` subcommand displays."""
    if formula == "mse-g":
        lk = mpmath.log(k) * n * theta
        g = mpmath.mpf(k) ** theta
        e1, s1 = series_sum(lk, n, n, 0)
        e2, s2 = series_sum(2 * lk, n, n, 0)
        return e2 - 2 * g * e1 + g * g, s2 + 2 * g * s1 + g * g
    bv, av, apv = _point(family, theta, x)
    ba = bv * av
    if formula == "E-cdf":
        s, sc = series_sum(-n * ba, n, n, 0)
        return 1 - s, 1 + sc
    if formula == "MSE-cdf":
        w2, s2 = series_sum(-2 * n * ba, n, n, 0)
        w1, s1 = series_sum(-n * ba, n, n, 0)
        return (w2 - 2 * mpmath.exp(-ba) * w1 + mpmath.exp(-2 * ba),
                s2 + 2 * s1 + 1)
    if formula == "MSE-pdf":
        f = apv * bv * mpmath.exp(-ba)
        q2, s2 = series_sum(-2 * n * ba, n - 2, n, 2)
        q1, s1 = series_sum(-n * ba, n - 1, n, 1)
        p2, p1 = (n * bv * apv) ** 2, n * bv * apv
        return p2 * q2 - 2 * f * p1 * q1 + f * f, p2 * s2 + 2 * f * p1 * s1 + f * f
    raise ValueError(formula)


def exact_reference(target: str, family: str | None, theta: float, x: float | None,
                    n: int, k: float | None = None):
    """Exact moments from the Bessel-K form of the gamma-law expectations."""
    if target == "mse-g":
        c = -n * mpmath.log(k)
        g = mpmath.mpf(k) ** theta
        return gamma_moment(2 * c, theta, n) - 2 * g * gamma_moment(c, theta, n) + g * g
    bv, av, apv = _point(family, theta, x)
    ba = bv * av
    c = n * av
    if target == "E-cdf":
        return 1 - gamma_moment(c, bv, n)
    if target == "E-pdf":
        return apv * n * gamma_moment(c, bv, n, 1)
    if target == "MSE-cdf":
        return (gamma_moment(2 * c, bv, n) - 2 * mpmath.exp(-ba) * gamma_moment(c, bv, n)
                + mpmath.exp(-2 * ba))
    if target == "MSE-pdf":
        f = apv * bv * mpmath.exp(-ba)
        return ((apv * n) ** 2 * gamma_moment(2 * c, bv, n, 2)
                - 2 * f * apv * n * gamma_moment(c, bv, n, 1) + f * f)
    raise ValueError(target)


def natural_bounds(formula: str, theta: float, k: float | None) -> tuple[float, float]:
    if formula in ("E-cdf", "MSE-cdf"):
        return 0.0, 1.0
    if formula == "mse-g":
        g = k**theta
        return 0.0, (math.inf if k > 1 else max(g, 1 - g) ** 2)
    return 0.0, math.inf


def check_table(formula: str, family: str | None, theta: float, x: float | None,
                k: float | None, sizes: list[int], sampled: list[int], exact_sizes: list[int],
                text: str) -> str | None:
    """Size column, flag consistency, mpmath sums at ``sampled`` sizes and the
    exact moment at ``exact_sizes``, where the series has converged."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["size", "value", "in_bounds", "regime"]:
        return f"table: header {rows[0]!r}"
    body = rows[1:]
    if [int(r[0]) for r in body] != sizes:
        return "table: size column differs from the requested sweep"
    lo, hi = natural_bounds(formula, theta, k)
    values = {}
    for size_s, value_s, in_bounds_s, regime in body:
        v = float(value_s)
        inside = math.isfinite(v) and lo <= v <= hi
        if in_bounds_s != ("true" if inside else "false"):
            return f"table: size {size_s} value {v!r} flagged in_bounds={in_bounds_s}"
        if not inside and regime != "truncation_suspect":
            return f"table: size {size_s} out of bounds but regime {regime}"
        values[int(size_s)] = v
    for n in sampled:
        want, scale = series_reference(formula, family, theta, x, k, n)
        if abs(values[n] - want) > SERIES_RTOL * scale:
            return f"table: size {n} value {values[n]!r}, mpmath sum {mpmath.nstr(want, 17)}"
    for n in exact_sizes:
        want = exact_reference(formula, family, theta, x, n, k)
        if abs(values[n] - want) > EXACT_TOL * max(1, abs(want)):
            return f"table: size {n} value {values[n]!r}, exact {mpmath.nstr(want, 17)}"
    return None


def check_exact(target: str, family: str, theta: float, x: float, n: int,
                value: float) -> str | None:
    want = exact_reference(target, family, theta, x, n)
    if abs(value - want) > EXACT_TOL * max(1, abs(want)):
        return f"exact {target} n={n}: {value!r}, Bessel-K {mpmath.nstr(want, 17)}"
    return None


def check_diverged(diverged: bool, value: float, n: int) -> str | None:
    """At k = e the second moment of k^theta_hat does not exist."""
    if not diverged:
        return f"exact_mse_g_power k=e, n={n}: reported convergence to {value!r}"
    return None


def check_mc_mse_theta(mc_value: float, mc_stderr: float, theta: float, size: int,
                       failures: int, reps: int) -> str | None:
    """MC MSE of theta_hat (exponential) against theta^2 / size."""
    want = theta * theta / size
    if not (mc_stderr > 0.0) or abs(mc_value - want) > MC_Z * mc_stderr:
        return (f"MC MSE {mc_value!r} +- {mc_stderr!r}, expected {want!r} "
                f"within {MC_Z:g} standard errors")
    if not (0 <= failures <= reps // 100):
        return f"MC reported {failures} failures of {reps}"
    return None


def check_verify(code: int, text: str) -> str | None:
    try:
        report = json.loads(text)
    except ValueError:
        return "verify output is not JSON"
    if code != 0 or report.get("passed") is not True:
        failed = [c["name"] for s in report.get("suites", []) for c in s["checks"]
                  if not c["passed"]]
        return f"verify exit {code}, failed checks {failed}"
    return None
