"""Quadrature and Monte Carlo oracles: the independent routes."""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import importlib
import inspect
import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recordmle import closedform as closedform_mod, family as family_mod, oracle as oracle_mod
from recordmle import records as records_mod
from recordmle._streams import make_generator
from recordmle import (
    ArgumentError,
    DomainError,
    ExperimentConfig,
    RecordCapError,
    ReplicationFailureError,
    a_inverse,
    alpha_n_exponential,
    b_inverse,
    cdf,
    consistency_curve,
    exact_expected_cdf_hat,
    exact_expected_pdf_hat,
    exact_mse_cdf_hat,
    exact_mse_g_power,
    exact_mse_pdf_hat,
    exact_mse_theta_hat,
    expect_over_gamma,
    expected_cdf_hat_series,
    ks_two_sample,
    make_exponential,
    make_lomax,
    make_pareto,
    make_weibull,
    mc_estimate,
    mc_statistic_array,
    mse_cdf_hat_series,
    pdf,
    quantile,
    resolve_family,
    sample_records_sequential,
)

EXP = make_exponential()


# ---------------------------------------------------------------------------
# expect_over_gamma


@given(
    size=st.integers(min_value=1, max_value=60),
    rate=st.floats(min_value=0.1, max_value=10.0),
    p=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=80, deadline=None)
def test_gamma_polynomial_moments(size, rate, p):
    # E[T^p] = Gamma(size+p) / (Gamma(size) rate^p)
    res = expect_over_gamma(lambda t, p=p: t**p, size, rate)
    assert not res.diverged
    want = math.exp(math.lgamma(size + p) - math.lgamma(size)) / rate**p
    assert abs(res.value - want) <= 1e-10 * max(1.0, abs(want))


def test_gamma_moment_large_shape():
    # the substitution is scaled by the gamma mean, so a sharp spike at
    # shape 1e4 still lands on the panel grid
    res = expect_over_gamma(lambda t: t, 10000, 10000.0)
    assert not res.diverged
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_exponential_transform_is_bessel():
    # E[exp(-1/T)] for unit-rate exponential T equals 2 K_1(2)
    res = expect_over_gamma(lambda t: np.exp(-1.0 / t), 1, 1.0)
    assert not res.diverged
    with mpmath.workdps(30):
        want = float(2 * mpmath.besselk(1, 2))
    assert res.value == pytest.approx(want, abs=1e-12)


def test_constant_and_mean_expectations():
    # density integrates to one; E[T] is shape/rate
    assert expect_over_gamma(lambda t: 1.0, 4, 3.0).value == pytest.approx(1.0, abs=1e-10)
    assert expect_over_gamma(lambda t: t, 3, 2.0).value == pytest.approx(1.5, rel=1e-10)


def test_expect_over_gamma_validation():
    with pytest.raises(ArgumentError):
        expect_over_gamma(lambda t: 1.0, 0, 1.0)
    with pytest.raises(ArgumentError):
        expect_over_gamma(lambda t: 1.0, 3, 0.0)
    with pytest.raises(ArgumentError):
        expect_over_gamma(lambda t: 1.0, 3, math.nan)


def test_expect_over_gamma_rejects_a_rate_out_of_float_range():
    # an infinite rate, and a rate so small that the gamma mean size/rate
    # overflows, are argument errors rather than a math error or a
    # divergence of a bounded target
    with pytest.raises(ArgumentError):
        expect_over_gamma(lambda t: 1.0, 3, math.inf)
    with pytest.raises(ArgumentError):
        exact_expected_cdf_hat(EXP, 1e308, 1e300, 3)


# ---------------------------------------------------------------------------
# exact moment targets


def test_exact_values_large_size():
    assert exact_expected_cdf_hat(EXP, 1.0, 1.0, 200) == pytest.approx(
        0.6330360319716533, rel=1e-12
    )
    assert exact_expected_pdf_hat(EXP, 1.0, 1.0, 200) == pytest.approx(
        0.3669548409369166, rel=1e-12
    )
    assert exact_mse_cdf_hat(EXP, 1.0, 1.0, 200) == pytest.approx(
        0.0006757782576051197, rel=1e-10
    )
    assert exact_mse_pdf_hat(EXP, 1.0, 1.0, 200) == pytest.approx(
        2.607291373672755e-06, rel=1e-9
    )


def test_expected_cdf_hat_support_edge_and_bessel_value():
    # at the lower support endpoint the plug-in cdf is identically zero
    assert exact_expected_cdf_hat(EXP, 1.0, 0.0, 5) == 0.0
    # size 1: E[exp(-A(x)/T)] with T ~ Exp(1) at x = 1 is 2 K_1(2)
    with mpmath.workdps(30):
        want = float(1 - 2 * mpmath.besselk(1, 2))
    assert exact_expected_cdf_hat(EXP, 1.0, 1.0, 1) == pytest.approx(want, abs=1e-10)


def test_exact_mse_cdf_nonnegative_and_zero_at_edge():
    # three quadratures cancel at the edge, so only roundoff survives
    assert exact_mse_cdf_hat(EXP, 1.0, 0.0, 4) == pytest.approx(0.0, abs=1e-12)
    for theta in (0.5, 2.0):
        for x in (0.2, 1.0, 3.0):
            for size in (2, 7):
                assert exact_mse_cdf_hat(EXP, theta, x, size) >= 0.0


def test_series_and_quadrature_agree_in_asymptotic_regime():
    size = 200
    s = expected_cdf_hat_series(EXP, 1.0, 1.0, size).value
    q = exact_expected_cdf_hat(EXP, 1.0, 1.0, size)
    assert abs(s - q) < 1e-9
    s = mse_cdf_hat_series(EXP, 1.0, 1.0, size).value
    q = exact_mse_cdf_hat(EXP, 1.0, 1.0, size)
    assert abs(s - q) < 1e-9


def test_quadrature_adjudicates_truncation_defect():
    # size 2, x = 0.8: the truncated series says 1.6 (impossible for a
    # probability); the exact moment is a genuine probability
    series = expected_cdf_hat_series(EXP, 1.0, 0.8, 2)
    exact = exact_expected_cdf_hat(EXP, 1.0, 0.8, 2)
    assert series.value == pytest.approx(1.6, abs=1e-12)
    assert not series.in_natural_bounds
    assert exact == pytest.approx(0.6272774696121026, rel=1e-11)
    assert 0.0 < exact < 1.0


def test_exact_mse_theta_matches_closed_form_exponential():
    # theta_hat = T/n for the mean parametrization, so the MSE is exactly
    # theta^2/n; a strong independent check of the whole quadrature path
    for theta, n in [(1.0, 5), (1.5, 7), (0.3, 12)]:
        got = exact_mse_theta_hat(EXP, theta, n)
        assert got == pytest.approx(alpha_n_exponential(theta, n), rel=1e-9)


def test_exact_mse_theta_other_families():
    # weibull B identity: theta_hat = n/T, E[(n/T - theta)^2] =
    # theta^2 (n^2/((n-1)(n-2)) - 2n/(n-1) + 1) for T ~ Gamma(n, theta)
    n, theta = 9, 1.3
    want = theta**2 * (n * n / ((n - 1) * (n - 2)) - 2 * n / (n - 1) + 1)
    got = exact_mse_theta_hat(make_weibull(2.0), theta, n)
    assert got == pytest.approx(want, rel=1e-9)


def test_exact_mse_g_regimes():
    # k < 1: convergent, frozen values
    res = exact_mse_g_power(1.0, 10, 0.5)
    assert not res.diverged
    assert res.value == pytest.approx(0.012794851001966397, rel=1e-10)
    res5 = exact_mse_g_power(1.0, 5, 0.5)
    assert not res5.diverged
    assert res5.value == pytest.approx(0.025775767363710334, rel=1e-10)
    # k > 1: the exponential growth at T -> 0 is not integrable; the
    # signal is a divergence flag with a non-finite value, not an exception,
    # and it comes from the theorem before any quadrature generation
    div = exact_mse_g_power(1.0, 7, math.e)
    assert div.diverged
    assert not math.isfinite(div.value)
    assert div.generations == 0


@pytest.mark.parametrize("n", range(4, 13))
def test_exact_mse_g_overflow_ends_in_the_first_generation(monkeypatch, n):
    calls = [0]
    integrate = oracle_mod.integrate_unit_interval

    def counting(f):
        def counted_f(s):
            calls[0] += 1
            return f(s)

        return integrate(counted_f)

    monkeypatch.setattr(oracle_mod, "integrate_unit_interval", counting)
    res = exact_mse_g_power(1.0, n, math.e)
    assert res.diverged
    # k > 1 diverges by theorem, so no generation runs and h is never called
    assert res.generations == 0
    assert calls[0] == 0


def test_exact_mse_g_diverges_for_every_size_just_above_one():
    # exp(c/t) t^(n-1) is not integrable at 0 for any c > 0, however small,
    # though at k = 1.001 no quadrature node comes near the growth
    for n in range(1, 60):
        res = exact_mse_g_power(1.0, n, 1.001)
        assert res.diverged, n
        assert res.value == math.inf
        assert res.last_totals is None


BOUNDED_MEMBERS = [resolve_family(f) for f in (
    "exponential", "lomax", "weibull:alpha=0.5", "weibull:alpha=2", "pareto:k=1",
    "pareto:k=1.5")]


@given(
    spec=st.sampled_from(BOUNDED_MEMBERS),
    size=st.integers(min_value=1, max_value=1000),
    log_ba=st.floats(min_value=-6.0, max_value=3.0),
    theta=st.floats(min_value=0.5, max_value=2.0),
)
@settings(max_examples=100, deadline=None)
def test_bounded_targets_never_diverge(spec, size, log_ba, theta):
    # the integrands lie in [0, 1], so no panel can be non-finite and no
    # refinement can run away
    x = float(a_inverse(spec, math.exp(log_ba) / float(spec.B(theta))))
    assert 0.0 <= exact_expected_cdf_hat(spec, theta, x, size) <= 1.0
    assert 0.0 <= exact_mse_cdf_hat(spec, theta, x, size) <= 1.0


@pytest.mark.parametrize(
    "spec",
    [EXP, make_lomax(), make_weibull(2.0), make_weibull(0.5), make_pareto(1.5)],
    ids=lambda s: s.name,
)
def test_estimator_table_matches_the_plug_in_functions(spec):
    # both oracles integrate or simulate these maps, so a wrong map would
    # pass both; check each against the library's own plug-in functions
    theta, size = 1.3, 7
    x = float(quantile(spec, theta, 0.6))
    t = np.linspace(0.2, 5.0, 49) * size / float(spec.B(theta))
    theta_hats = b_inverse(spec, size / t)
    table = oracle_mod._estimator
    estimate, truth = table("theta_hat", spec, theta, None, size, None)
    np.testing.assert_allclose(estimate(t), theta_hats, rtol=1e-13, atol=0.0)
    assert truth == theta
    for name, plug_in in (("cdf_hat", cdf), ("pdf_hat", pdf)):
        estimate, truth = table(name, spec, theta, x, size, None)
        want = [plug_in(spec, th, x) for th in theta_hats]
        np.testing.assert_allclose(estimate(t), want, rtol=1e-13, atol=0.0)
        assert truth == pytest.approx(plug_in(spec, theta, x), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("k", [math.inf, math.nan, 1.0, 0.0, -0.5])
def test_power_target_k_rule_is_shared(k):
    # exact_mse_g_power once returned a diverged result at k = inf
    for fn, name in ((closedform_mod.mse_g_power_series, "mse_g_power_series"),
                     (exact_mse_g_power, "exact_mse_g_power")):
        with pytest.raises(ArgumentError) as info:
            fn(1.0, 5, k)
        assert str(info.value) == f"{name}: k must be positive, finite and not 1 (g degenerates)"


@pytest.mark.parametrize("theta", [math.inf, math.nan, 0.0, -2.0])
def test_power_target_theta_rule_is_shared(theta):
    # exact_mse_g_power once took theta = inf to expect_over_gamma's rate check
    for fn, name in ((closedform_mod.mse_g_power_series, "mse_g_power_series"),
                     (exact_mse_g_power, "exact_mse_g_power")):
        with pytest.raises(DomainError) as info:
            fn(theta, 5, 0.5)
        assert str(info.value) == f"{name}: theta must be positive and finite"


def test_exact_target_domain_validation():
    with pytest.raises(DomainError):
        exact_expected_cdf_hat(EXP, -1.0, 1.0, 5)
    with pytest.raises(DomainError):
        exact_expected_cdf_hat(EXP, 1.0, -1.0, 5)
    with pytest.raises(DomainError):
        exact_mse_theta_hat(EXP, 0.0, 5)
    with pytest.raises(DomainError):
        exact_mse_g_power(-2.0, 5, 0.5)


# ---------------------------------------------------------------------------
# Monte Carlo engine


def _cfg(**kw):
    base = dict(family="exponential", theta=1.0, sizes=(8,), reps=2048, seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


def test_mc_arrays_deterministic_and_worker_invariant():
    cfg = _cfg()
    a = mc_statistic_array(cfg, "sample", "theta_hat", workers=1)
    b = mc_statistic_array(cfg, "sample", "theta_hat", workers=1)
    c = mc_statistic_array(cfg, "sample", "theta_hat", workers=4)
    d = mc_statistic_array(cfg, "sample", "theta_hat", workers=16)
    assert a.shape == (2048,)
    assert np.array_equal(a, b)
    # writing in block order makes the result independent of the thread
    # count, bit for bit
    assert np.array_equal(a, c)
    assert np.array_equal(a, d)
    e = mc_statistic_array(_cfg(seed=6), "sample", "theta_hat")
    assert not np.array_equal(a, e)


@pytest.mark.parametrize("workers", [0, -3])
def test_mc_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ArgumentError):
        mc_statistic_array(_cfg(), "sample", "theta_hat", workers=workers)
    with pytest.raises(ArgumentError):
        mc_estimate(_cfg(), "MSE_theta_hat", "sample", workers=workers)


def test_mc_sources_differ_but_share_law():
    cfg = _cfg(reps=20000, sizes=(5,))
    s = mc_statistic_array(cfg, "sample", "theta_hat")
    r = mc_statistic_array(_cfg(reps=20000, sizes=(5,), seed=77), "records_direct",
                           "theta_hat")
    assert not np.array_equal(s, r)
    # identical sampling law at n = m: KS well under the 0.02 working bound
    assert ks_two_sample(s, r) < 0.02


@pytest.mark.parametrize("m", [1, 4, 30, 700])
def test_records_direct_matches_exact_gamma_law(m):
    # exponential: B(theta) = 1/theta and theta_hat = T/m, so m theta_hat/theta
    # is Gamma(m, 1); theta = 2 makes B != 1/B, so a wrong rate shows too
    theta, reps = 2.0, 5000
    cfg = ExperimentConfig("exponential", theta, (m,), reps=reps, seed=2017)
    t = np.sort(m * mc_statistic_array(cfg, "records_direct", "theta_hat") / theta)
    exact = np.array([float(mpmath.gammainc(m, 0, v, regularized=True)) for v in t])
    ranks = np.arange(1, reps + 1) / reps
    ks = max(np.max(ranks - exact), np.max(exact - (ranks - 1.0 / reps)))
    # Kolmogorov critical value at alpha = 1e-6 from its tail 2 exp(-2 n d^2),
    # which the Dvoretzky-Kiefer-Wolfowitz-Massart inequality makes a bound
    # at every n
    assert ks < math.sqrt(math.log(2.0 / 1e-6) / (2.0 * reps)), ks


def test_sequential_records_source_agrees():
    # theta_hat is a strictly decreasing function of A(R_m) here, and the KS
    # statistic is invariant under monotone transforms, so this compares the
    # m-th record laws of the two samplers at full strength
    cfg = _cfg(reps=20000, sizes=(4,))
    direct = mc_statistic_array(cfg, "records_direct", "theta_hat")
    seq = mc_statistic_array(_cfg(reps=20000, sizes=(4,), seed=99), "records",
                             "theta_hat")
    assert ks_two_sample(direct, seq) < 0.02


def _referee_tops(spec, theta, m, gen, count, max_draws):
    """The MC `records` source one replication at a time: one
    sample_records_sequential call per replication on one shared generator."""
    out = np.empty(count)
    for j in range(count):
        try:
            out[j] = sample_records_sequential(spec, theta, m, gen, max_draws).values[-1]
        except RecordCapError:
            out[j] = math.nan
    return out


def _assert_tops_match_referee(spec, m, seed, count, max_draws, theta=1.3):
    ours, referee = make_generator(seed, m), make_generator(seed, m)
    got = records_mod._sequential_tops(spec, theta, m, ours, count, max_draws)
    want = _referee_tops(spec, theta, m, referee, count, max_draws)
    case = (spec.name, m, seed, count, max_draws)
    assert got.tobytes() == want.tobytes(), case
    assert np.array_equal(np.isnan(got), np.isnan(want)), case
    assert ours.bit_generator.state == referee.bit_generator.state, case
    return got


_NO_A_INV = dataclasses.replace(make_lomax(), A_inv=None)


@pytest.mark.parametrize("spec, count", [
    (make_exponential(), 300), (make_lomax(), 300), (make_weibull(2.0), 300),
    (make_weibull(0.5), 300), (make_pareto(1.5), 300), (_NO_A_INV, 40),
], ids=["exponential", "lomax", "weibull-2", "weibull-0.5", "pareto", "lomax-no-A_inv"])
def test_sequential_tops_match_per_replication_referee_at_cap_700(spec, count):
    # a cap of 700 draws ends many sequences inside their second chunk, so
    # capped rows sit between rows that a batch accepts
    capped = 0
    for m in range(1, 13):
        capped += np.isnan(_assert_tops_match_referee(spec, m, m, count, 700)).sum()
    assert capped > 0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_sequential_tops_match_per_replication_referee_around_batch_sizes(m):
    # batches double from 1 to 256 rows; these counts end a block on either
    # side of a batch boundary, at the default cap
    for count in (1, 2, 3, 255, 256, 257, 600):
        _assert_tops_match_referee(make_weibull(2.0), m, count, count, 10_000_000)
    # a cap below 256 cuts every first chunk short
    _assert_tops_match_referee(make_exponential(), m, 1, 300, 200)


def test_block_records_source_maps_A_once_bit_for_bit():
    # A mapped once over the block's R_m equals A on each replication's R_m
    for fam_name, theta, m in (("weibull:alpha=2", 1.3, 3), ("lomax", 0.8, 5),
                               ("pareto:k=1.5", 2.0, 4)):
        spec = resolve_family(fam_name)
        got = oracle_mod._block_sufficient_stats(spec, theta, m, 11, 0, 500, "records")
        r_m = _referee_tops(spec, theta, m, make_generator(11, 0), 500, 10_000_000)
        want = np.array([math.nan if math.isnan(v) else float(spec.A(v)) for v in r_m])
        assert got.tobytes() == want.tobytes(), fam_name


def test_sequential_tops_match_referee_in_pieces_of_100(monkeypatch):
    # a piece smaller than a first chunk: batches of one row, every chunk split
    monkeypatch.setattr(records_mod, "_PIECE", 100)
    for m in range(1, 9):
        _assert_tops_match_referee(make_exponential(), m, 7, 200, 20_000)
        _assert_tops_match_referee(make_exponential(), m, 8, 200, 700)


def test_sequential_tops_match_referee_on_value_ties(monkeypatch):
    # a quantile rounded to 3 significant digits maps distinct uniform
    # records to one value, so the block is sampled again on the values
    exact = family_mod.quantile

    def rounded(spec, theta, u):
        x = np.asarray(exact(spec, theta, u), dtype=float)
        return np.array([float(f"{v:.3g}") for v in x.ravel()]).reshape(x.shape)

    spec = make_weibull(10.0)
    unrounded = {m: records_mod._sequential_tops(spec, 1.0, m, make_generator(5, m), 30,
                                                 20_000) for m in range(2, 9)}
    monkeypatch.setattr(family_mod, "quantile", rounded)
    moved = 0
    for m in range(2, 9):
        got = _assert_tops_match_referee(spec, m, 5, 30, 20_000, theta=1.0)
        moved += got.tobytes() != unrounded[m].tobytes()
    assert moved > 0


def test_records_source_counts_only_capped_sequences_as_failures(monkeypatch):
    # a cap of 1000 draws caps about one sequence in ten at m = 4: exactly
    # those replications are NaN, and they are the failures counted
    cfg = _cfg(reps=200, sizes=(4,))
    real = records_mod._sequential_tops
    monkeypatch.setattr(records_mod, "_sequential_tops",
                        lambda *args: real(*args, max_draws=1000))
    want = _referee_tops(EXP, 1.0, 4, make_generator(cfg.seed, 0), 200, 1000)
    capped = int(np.isnan(want).sum())
    assert 2 < capped < 200
    ys = mc_statistic_array(cfg, "records", "theta_hat")
    assert np.array_equal(np.isnan(ys), np.isnan(want))
    with pytest.raises(ReplicationFailureError, match=f"^{capped} of 200 replications"):
        mc_estimate(cfg, "MSE_theta_hat", "records")

    def broken(*args, **kwargs):
        raise ZeroDivisionError("a bug, not a capped sequence")

    # any other error is a defect and must surface, not become a NaN
    monkeypatch.setattr(records_mod, "_walk", broken)
    with pytest.raises(ZeroDivisionError):
        mc_estimate(cfg, "MSE_theta_hat", "records")


def test_records_source_fails_typed_at_m10():
    # at m = 10, 2-3% of literal sequences exceed the 1e7-draw cap; on these
    # inputs 5 of 200 do, more than the 1% an estimate tolerates
    cfg = ExperimentConfig("exponential", 1.0, (10,), reps=200, seed=3)
    with pytest.raises(ReplicationFailureError, match="5 of 200 replications failed"):
        mc_estimate(cfg, "MSE_theta_hat", "records")


def test_mc_estimate_cross_checks_quadrature():
    cfg = _cfg(reps=40000, sizes=(12,), x_grid=(0.7,))
    rep = mc_estimate(cfg, "E_cdf_hat", "sample")
    assert rep.failures == 0
    assert rep.quad_value is not None and not rep.quad_divergent
    assert rep.series_value is not None
    assert abs(rep.mc_value - rep.quad_value) < 3.0 * rep.mc_stderr
    assert rep.mc_stderr < 0.005


def test_mc_estimate_mse_target():
    cfg = _cfg(reps=60000, sizes=(10,))
    rep = mc_estimate(cfg, "MSE_theta_hat", "sample")
    want = alpha_n_exponential(1.0, 10)
    assert abs(rep.mc_value - want) < 3.0 * rep.mc_stderr
    assert rep.quad_value == pytest.approx(want, rel=1e-8)
    # no closed series op covers this target
    assert rep.series_value is None


def test_mc_estimate_divergent_target_flagged():
    cfg = _cfg(reps=512, sizes=(6,), g_k=math.e)
    rep = mc_estimate(cfg, "MSE_g_hat", "records_direct")
    assert rep.quad_divergent
    assert rep.quad_value is None
    assert rep.series_value is not None
    d = dataclasses.asdict(rep)
    assert d["quad_divergent"] is True
    assert d["series_value"]["regime_note"] == "truncation_suspect"


def test_mc_estimate_overflowing_mse_has_no_finite_stderr():
    # theta_hat = 1/T past 709.8 makes k**theta_hat inf in 142 replications,
    # under the 1% rule; squaring the finite errors then overflows the sums.
    # The suite turns numpy's RuntimeWarning into an error.
    cfg = ExperimentConfig("weibull:alpha=1", 1.0, (1,), reps=100_000, seed=5, g_k=math.e)
    rep = mc_estimate(cfg, "MSE_g_hat", "sample")
    assert rep.failures == 142 and rep.quad_divergent
    assert rep.mc_value == math.inf
    assert not math.isfinite(rep.mc_stderr)


def test_mc_power_target_overflow_is_a_typed_error():
    cfg = ExperimentConfig("weibull:alpha=1", 1.3, (3,), reps=100, seed=1, g_k=1e300)
    with pytest.raises(DomainError, match=r"g\(theta\) = 1e\+300\*\*1.3 overflows"):
        mc_estimate(cfg, "MSE_g_hat", "sample")
    with pytest.raises(DomainError, match="overflows float64"):
        mc_statistic_array(cfg, "records_direct", "g_hat")
    with pytest.raises(ArgumentError, match="g_k positive, finite"):
        mc_statistic_array(dataclasses.replace(cfg, g_k=math.inf), "sample", "g_hat")


@pytest.mark.filterwarnings("error")
def test_mc_records_direct_overflow_is_a_domain_error():
    # lomax A_inv overflows float64 past m = 700, as in the direct sampler
    cfg = ExperimentConfig("lomax", 1.0, (800,), reps=100, seed=1)
    with pytest.raises(DomainError, match=r"'lomax' at m=800: record R_800 overflows"):
        mc_estimate(cfg, "MSE_theta_hat", "records_direct")
    rep = mc_estimate(ExperimentConfig("lomax", 1.0, (600,), reps=100, seed=1),
                      "MSE_theta_hat", "records_direct")
    assert rep.failures == 0


@pytest.mark.filterwarnings("error")
def test_mc_records_overflow_is_a_domain_error(monkeypatch):
    # lomax at theta = 1000 overflows at about half the draws; this once walked
    # 97 of 100 rows to the 1e7-draw cap (4.4 s) and reported them as failures
    def no_literal_walk(*args):
        raise AssertionError("a row was walked on the values")

    monkeypatch.setattr(records_mod, "sample_records_sequential", no_literal_walk)
    cfg = ExperimentConfig("lomax", 1000.0, (3,), reps=100, seed=1)
    with pytest.raises(DomainError, match=r"'lomax' at m=3: record R_[123] overflows"):
        mc_estimate(cfg, "MSE_theta_hat", "records")


@pytest.mark.filterwarnings("error")
def test_mc_sample_overflow_is_a_domain_error():
    # an overflowing draw made T inf and theta_hat = B_inv(0) = 0 finite: this
    # reported 0.001779 +- 0.000036 with no failure, 9 stderr from 0.001458
    cfg = ExperimentConfig("weibull:alpha=0.006", 0.05, (5,), reps=100_000, seed=1)
    for call in (lambda: mc_estimate(cfg, "MSE_theta_hat", "sample"),
                 lambda: mc_statistic_array(cfg, "sample")):
        with pytest.raises(DomainError, match=r"at theta=0\.05: draw \d+ overflows float64"):
            call()


@pytest.mark.parametrize("source", ["sample", "records_direct"])
@pytest.mark.parametrize("target", oracle_mod.TARGETS)
def test_mc_estimate_every_target_agrees_with_quadrature(target, source):
    # weibull has B(theta) = theta, so the power target's referees apply too;
    # worst gap measured over seeds 0..10 is 2.5 standard errors
    cfg = ExperimentConfig("weibull:alpha=2", 1.3, (8,), (0.9,), reps=20000, g_k=0.5)
    rep = mc_estimate(cfg, target, source)
    assert rep.failures == 0
    assert not rep.quad_divergent
    assert abs(rep.mc_value - rep.quad_value) <= 5.0 * rep.mc_stderr
    assert (rep.series_value is None) == (target == "MSE_theta_hat")


def test_table_formulas_are_the_registry_formulas():
    import argparse

    from recordmle.cli import _build_parser

    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    formula = next(a for a in sub.choices["table"]._actions if a.dest == "formula")
    assert list(formula.choices) == [t.formula for t in oracle_mod.REGISTRY.values()]
    assert oracle_mod.TARGETS == ("E_cdf_hat", "E_pdf_hat", "MSE_cdf_hat",
                                  "MSE_pdf_hat", "MSE_theta_hat", "MSE_g_hat")


def test_mc_estimate_requires_one_size():
    with pytest.raises(ArgumentError):
        mc_estimate(_cfg(sizes=(5, 10)), "E_cdf_hat", "sample")
    with pytest.raises(ArgumentError):
        mc_estimate(_cfg(), "nonsense", "sample")
    with pytest.raises(ArgumentError):
        mc_estimate(_cfg(), "E_cdf_hat", "nonsense")
    with pytest.raises(ArgumentError):
        # point targets need exactly one evaluation point
        mc_estimate(_cfg(x_grid=()), "E_cdf_hat", "sample")


def test_experiment_config_validation():
    with pytest.raises(ArgumentError):
        ExperimentConfig(family="exponential", theta=1.0, sizes=())
    with pytest.raises(ArgumentError):
        ExperimentConfig(family="exponential", theta=1.0, sizes=(0,))
    with pytest.raises(ArgumentError):
        ExperimentConfig(family="exponential", theta=1.0, sizes=(5,), reps=10)
    cfg = ExperimentConfig(family="lomax", theta=2.0, sizes=[3], reps=150.0)
    assert cfg.sizes == (3,) and cfg.reps == 150
    assert cfg.resolve().name == "lomax"


def test_experiment_config_holds_one_size_and_at_most_one_point():
    with pytest.raises(ArgumentError, match="exactly one positive size"):
        ExperimentConfig("exponential", 1.0, (5, 10), reps=100)
    with pytest.raises(ArgumentError, match="at most one point"):
        ExperimentConfig("exponential", 1.0, (5,), (0.3, 0.9), reps=100)
    # a target that reads no x once ran with both points and ignored them
    with pytest.raises(ArgumentError, match="at most one point"):
        mc_estimate(_cfg(x_grid=(0.3, 0.9)), "MSE_theta_hat", "sample")
    # one x on a target that reads none is accepted and changes no bit
    with_x = mc_estimate(_cfg(x_grid=(0.3,)), "MSE_theta_hat", "sample")
    bare = mc_estimate(_cfg(), "MSE_theta_hat", "sample")
    assert (with_x.mc_value, with_x.mc_stderr) == (bare.mc_value, bare.mc_stderr)
    assert np.array_equal(mc_statistic_array(_cfg(x_grid=(0.3,)), "records_direct"),
                          mc_statistic_array(_cfg(), "records_direct"))


@pytest.mark.parametrize("theta", [-1.0, 0.0, math.nan])
def test_mc_checks_theta_on_every_source_before_any_draw(theta):
    # records_direct once drew for any theta: negative estimates at -1, zeros
    # after a divide-by-zero warning at 0, a record overflow named at nan
    cfg = ExperimentConfig("exponential", theta, (5,), reps=100, seed=1)
    calls = {
        "mc_statistic_array": lambda source: mc_statistic_array(cfg, source),
        "mc_estimate": lambda source: mc_estimate(cfg, "MSE_theta_hat", source),
        "consistency_curve": lambda source: consistency_curve(EXP, theta, 0.2, (5, 20),
                                                              200, 1, source),
    }
    want = f"theta={theta!r} outside parameter domain (0.0, inf) of family 'exponential'"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in calls.items():
            for source in oracle_mod.SOURCES:
                with pytest.raises(DomainError) as info:
                    call(source)
                assert str(info.value) == want, (name, source)


# ---------------------------------------------------------------------------
# bit-for-bit pins of the MC engine: every statistic keeps its operation
# order, so a refactor of the targets must leave these digests unchanged

_PIN_CFG = ExperimentConfig("weibull:alpha=2", 1.3, (8,), (0.9,), reps=5000, g_k=0.5)
_ARRAY_SHA256 = {
    ("theta_hat", "sample"):
        "de7fb084dfe6de46f40fe3aa4e27017b2f20dc2d9c6d4ebc90baa23a054ba374",
    ("theta_hat", "records_direct"):
        "5abf6eb5fd5c54f01ee9297fdb100309fa18c06e953c37cf897065969ace019f",
    ("cdf_hat", "sample"):
        "fd6699ad1d2d1c1cd2e3e6a108a34d58a2d8d3ba61c9050fa3fe9f4ab549f221",
    ("cdf_hat", "records_direct"):
        "3c8579fe0f59ca66babf41cd81ac693ceccfe7257408c6366cf7a323e74daf94",
}
# (mc_value.hex(), mc_stderr.hex()) per (target, source)
_MC_HEX = {
    ("E_cdf_hat", "sample"): ("0x1.57cb7df889bd9p-1", "0x1.ca6ce9dd94f3dp-10"),
    ("E_pdf_hat", "sample"): ("0x1.83345b363d8e1p-1", "0x1.5af61aa9ed60dp-10"),
    ("MSE_cdf_hat", "sample"): ("0x1.01446152eacffp-6", "0x1.24e075037d851p-12"),
    ("MSE_pdf_hat", "sample"): ("0x1.957b7cea16027p-7", "0x1.28a70a6a67557p-11"),
    ("MSE_theta_hat", "sample"): ("0x1.9a7b447455c8ep-2", "0x1.049bd70b56ad1p-6"),
    ("MSE_g_hat", "sample"): ("0x1.0e66f6dfb12aep-6", "0x1.482c505e7d8e5p-12"),
    ("E_cdf_hat", "records_direct"): ("0x1.57e6c4a21af29p-1", "0x1.cb755251d6a7ap-10"),
    ("E_pdf_hat", "records_direct"): ("0x1.82f588a583261p-1", "0x1.62e29e93a25b5p-10"),
    ("MSE_cdf_hat", "records_direct"): ("0x1.02895e54b7bbbp-6", "0x1.28603380f83b6p-12"),
    ("MSE_pdf_hat", "records_direct"): ("0x1.a4a2bda952466p-7", "0x1.4415d84c70e0ep-11"),
    ("MSE_theta_hat", "records_direct"): ("0x1.b4155de5410cbp-2", "0x1.4d612e8713cc1p-6"),
    ("MSE_g_hat", "records_direct"): ("0x1.10061e4365b92p-6", "0x1.4db67fa9a72e3p-12"),
}


def test_mc_engine_pinned_bit_for_bit():
    # reps = 5000 spans two 4096-replication blocks
    for (statistic, source), want in _ARRAY_SHA256.items():
        got = mc_statistic_array(_PIN_CFG, source, statistic).tobytes()
        assert hashlib.sha256(got).hexdigest() == want, (statistic, source)
    for (target, source), want in _MC_HEX.items():
        rep = mc_estimate(_PIN_CFG, target, source)
        assert rep.failures == 0
        assert (rep.mc_value.hex(), rep.mc_stderr.hex()) == want, (target, source)
    cfg = ExperimentConfig("weibull:alpha=2", 1.3, (3,), reps=200)
    rep = mc_estimate(cfg, "MSE_theta_hat", "records")
    assert rep.failures == 0
    assert (rep.mc_value.hex(), rep.mc_stderr.hex()) == (
        "0x1.707da3f13390dp+1", "0x1.a8bce6e65ebf0p-1")


def _reference_moments(ys, kind):
    """``mc_value`` and ``mc_stderr`` of a statistic array, compacted and
    squared into new arrays: the in-place moments must match it bit for bit."""
    ok = ys[np.isfinite(ys)]
    with np.errstate(over="ignore"):
        stat = ok * ok if kind == "mse" else ok
        value = float(np.sum(stat) / ok.size)
        var = float(np.sum(stat * stat) / ok.size) - value * value
    return value, math.sqrt(max(var, 0.0) / max(ok.size - 1, 1))


@pytest.mark.parametrize("target, cfg, failures", [
    ("E_cdf_hat", ExperimentConfig("lomax", 0.8, (6,), (1.1,), reps=50_001, seed=3), 0),
    ("MSE_theta_hat", ExperimentConfig("weibull:alpha=2", 1.3, (4,), reps=50_001, seed=4), 0),
    # 142 replications overflow to inf and are compacted away
    ("MSE_g_hat", ExperimentConfig("weibull:alpha=1", 1.0, (1,), reps=100_000, seed=5,
                                   g_k=math.e), 142),
])
def test_mc_moments_keep_the_bits_of_compact_then_square(target, cfg, failures):
    entry = oracle_mod.REGISTRY[target]
    ys = mc_statistic_array(cfg, "sample", entry.estimator)
    if entry.kind == "mse":
        _, truth = oracle_mod._estimator(entry.estimator, cfg.resolve(), cfg.theta,
                                         None, cfg.sizes[0], cfg.g_k)
        ys = ys - truth
    want = tuple(v.hex() for v in _reference_moments(ys, entry.kind))
    # more blocks than workers: the thread pool writes disjoint slices
    for workers in (1, 3):
        rep = mc_estimate(cfg, target, "sample", workers=workers)
        assert rep.failures == failures
        assert (rep.mc_value.hex(), rep.mc_stderr.hex()) == want, workers


def test_mc_threads_write_disjoint_slices():
    # more workers than cores and a short switch interval: a lost or
    # misplaced block write would leave np.empty's garbage in the array
    cfg = _cfg(reps=30 * 4096 + 7)
    want = mc_statistic_array(cfg, "sample", "theta_hat")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = mc_statistic_array(cfg, "sample", "theta_hat", workers=16)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)


def test_mc_holds_about_one_float64_per_replication():
    # block parts plus their concatenation, or squares into new arrays, would
    # hold two to four float64 per replication here (15.3 and 31.5 MB)
    cfg = ExperimentConfig("exponential", 1.0, (5,), reps=1_000_000, seed=1)
    for call in (lambda: mc_estimate(cfg, "MSE_theta_hat", "sample"),
                 lambda: mc_statistic_array(cfg, "sample")):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * cfg.reps

# ---------------------------------------------------------------------------
# KS statistic


def test_ks_hand_values():
    assert ks_two_sample([1.0, 2.0], [1.5]) == pytest.approx(0.5)
    assert ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert ks_two_sample([0.0, 1.0], [5.0, 6.0]) == 1.0


@given(
    a=st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=40),
    b=st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=40),
)
@settings(max_examples=60)
def test_ks_symmetric_bounded_and_transform_invariant(a, b):
    d = ks_two_sample(a, b)
    assert 0.0 <= d <= 1.0
    assert d == ks_two_sample(b, a)
    # strictly increasing common transform preserves every ordering
    fa = [math.atan(v) for v in a]
    fb = [math.atan(v) for v in b]
    assert ks_two_sample(fa, fb) == pytest.approx(d, abs=1e-12)


def test_ks_rejects_bad_input():
    with pytest.raises(ArgumentError):
        ks_two_sample([], [1.0])
    with pytest.raises(ArgumentError):
        ks_two_sample([1.0], [math.nan])


# ---------------------------------------------------------------------------
# consistency curve


def test_consistency_curve_decreases_and_is_stable():
    curve = consistency_curve(EXP, 1.0, 0.2, (5, 20), reps=4000, seed=31)
    again = consistency_curve(EXP, 1.0, 0.2, (5, 20), reps=4000, seed=31)
    assert curve == again
    probs = [p for _, p in curve]
    assert probs[0] > probs[1]
    # exact tail masses from the Gamma law of T: P(|T/n - 1| > 0.2)
    assert probs[0] == pytest.approx(0.6562, abs=0.03)
    assert probs[1] == pytest.approx(0.3680, abs=0.03)


def test_consistency_curve_prefix_stable_under_extension():
    # per-size derived streams: adding a size must not change earlier entries
    short = consistency_curve(EXP, 1.0, 0.2, (5, 20), reps=2000, seed=8)
    long = consistency_curve(EXP, 1.0, 0.2, (5, 20, 40), reps=2000, seed=8)
    assert long[:2] == short


def test_consistency_curve_huge_tolerance_is_all_zero():
    curve = consistency_curve(EXP, 1.0, 1e12, (3, 6), reps=400, seed=2)
    assert [p for _, p in curve] == [0.0, 0.0]


def test_consistency_curve_inverts_b_by_bisection_without_b_inv():
    # a spec with only A and B takes the bisection fallback of both inverses;
    # its curve may move by one replication's rounding, no more
    bare = dataclasses.replace(EXP, A_inv=None, B_inv=None)
    reps = 2000
    got = consistency_curve(bare, 1.0, 0.2, (5, 20), reps=reps, seed=8)
    want = consistency_curve(EXP, 1.0, 0.2, (5, 20), reps=reps, seed=8)
    assert [n for n, _ in got] == [5, 20]
    for (_, p), (_, q) in zip(got, want):
        assert abs(p - q) <= 1.0 / reps

def test_consistency_curve_validation():
    with pytest.raises(ArgumentError):
        consistency_curve(EXP, 1.0, 0.0, (5, 10), reps=500, seed=0)
    with pytest.raises(ArgumentError):
        consistency_curve(EXP, 1.0, 0.2, (10, 5), reps=500, seed=0)
    with pytest.raises(ArgumentError):
        consistency_curve(EXP, 1.0, 0.2, (), reps=500, seed=0)
    for sizes in ((0, 3), (-2, 3)):
        with pytest.raises(ArgumentError, match="sizes must be positive"):
            consistency_curve(EXP, 1.0, 0.1, sizes, reps=200, seed=1)


# ---------------------------------------------------------------------------
# package exports


def test_package_reexports_are_in_module_all():
    import recordmle

    seen = set()
    for node in ast.parse(inspect.getsource(recordmle)).body:
        if isinstance(node, ast.ImportFrom) and node.module in (
                "family", "records", "estimate", "closedform", "oracle"):
            module = importlib.import_module(f"recordmle.{node.module}")
            missing = {a.name for a in node.names} - set(module.__all__)
            assert not missing, f"{node.module}.__all__ lacks {sorted(missing)}"
            seen.add(node.module)
    assert len(seen) == 5
