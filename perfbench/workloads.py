"""The benchmark's four workloads, each a list of operations per round.

A round's inputs come from ``random.Random`` seeded with the workload name,
the run seed and the round index, so the same seed gives the same inputs
and no two rounds of a run repeat an input. An operation is one CLI call or
one library call; ``call`` is the timed part and ``check`` compares its
result with an independent reference afterwards, untimed. Only the failing
``records-mc`` call has inputs that do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import checks


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


class ProgramError(Exception):
    """A CLI call that exited with the usage/configuration error code 2."""


def round_rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{r}")


def cli_op(rm, name: str, argv: list[str], check) -> Op:
    """One ``recordmle.cli.main`` call; its stderr is kept for the check."""

    def call():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = rm.cli.main(argv)
        if code == 2:
            raise ProgramError(err.getvalue().strip())
        return code, err.getvalue()

    return Op(name, call, check)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# data-path: simulate -> fit -> fit --records -> eval, per family

DATA_ROWS = (("exponential", 120_000, False, "cdf-hat"),
             ("weibull:alpha=2", 80_000, True, "pdf-hat"))


def _data_family(rm, workdir: str, rng: random.Random, family: str, n: int,
                 manifest: bool, what: str) -> list[Op]:
    theta = rng.uniform(0.5, 3.0)
    seed = rng.randrange(2**31)
    short = family.split(":")[0]
    data = os.path.join(workdir, f"{short}.csv")
    out = os.path.join(workdir, f"{short}.out")
    # exponential: theta is the mean; weibull alpha=2: B = theta, scale 1/sqrt(theta)
    hi = rng.uniform(3.0, 6.0) * (theta if short == "exponential" else 1 / math.sqrt(theta))
    grid = (0.0, hi, 201)
    state: dict = {}

    def check_simulate(result):
        text = _read(data)
        reason = checks.check_simulate(family, theta, n, text)
        if reason is None and manifest:
            reason = checks.check_manifest(result[1], data, text.encode("utf-8"))
        state["values"] = checks.read_values(text)[1]
        return reason

    def check_fit(records):
        def check(result):
            return checks.check_fit(family, state["values"], records, _read(out))
        return check

    def check_eval(result):
        theta_hat = checks.reference_fit(family, state["values"], False)[2]
        return checks.check_eval(family, what, theta_hat, grid, _read(out))

    simulate = ["simulate", "--family", family, "--theta", repr(theta), "--n", str(n),
                "--seed", str(seed), "--out", data] + (["--manifest"] if manifest else [])
    fit = ["fit", "--family", family, "--data", data, "--out", out]
    return [
        cli_op(rm, f"simulate {short}", simulate, check_simulate),
        cli_op(rm, f"fit {short}", fit, check_fit(False)),
        cli_op(rm, f"fit --records {short}", fit + ["--records"], check_fit(True)),
        cli_op(rm, f"eval {what} {short}",
               ["eval", "--family", family, "--what", what, "--grid", f"0:{hi!r}:201",
                "--data", data, "--out", out], check_eval),
    ]


def data_path(rm, workdir: str, rng: random.Random) -> list[Op]:
    ops = []
    for family, n, manifest, what in DATA_ROWS:
        ops += _data_family(rm, workdir, rng, family, n, manifest, what)
    return ops


# ---------------------------------------------------------------------------
# series-table: closed-form sweeps, no data I/O, quadrature or MC

# formula, family, smallest and largest size; x is drawn so that B(theta) A(x) = u
TABLES = (("E-cdf", "exponential", 2, 2000),
          ("MSE-cdf", "lomax", 2, 800),
          ("MSE-pdf", "weibull:alpha=2", 3, 800),
          ("mse-g", None, 1, 800))


def _x_for(family: str, theta: float, u: float) -> float:
    """The support point where B(theta) A(x) = u."""
    if family == "exponential":
        return u * theta
    if family == "lomax":
        return math.expm1(u * theta)
    return math.sqrt(u / theta)


def series_table(rm, workdir: str, rng: random.Random) -> list[Op]:
    ops = []
    out = os.path.join(workdir, "table.csv")
    for formula, family, lo, hi in TABLES:
        theta = rng.uniform(0.5, 2.0)
        argv = ["table", "--formula", formula, "--theta", repr(theta),
                "--sizes", f"{lo}..{hi}", "--out", out]
        x = k = None
        if family is None:
            k = rng.uniform(0.3, 0.8)
            argv += ["--k", repr(k)]
        else:
            x = _x_for(family, theta, rng.uniform(0.3, 1.5))
            argv += ["--family", family, "--x", repr(x)]
        sampled = [lo, hi] + rng.sample(range(lo + 1, hi), 2)

        def check(result, formula=formula, family=family, theta=theta, x=x, k=k,
                  lo=lo, hi=hi, sampled=sampled):
            return checks.check_table(formula, family, theta, x, k, list(range(lo, hi + 1)),
                                      sampled, [hi], _read(out))

        ops.append(cli_op(rm, f"table {formula}", argv, check))
    return ops


# ---------------------------------------------------------------------------
# oracle: verify suites, quadrature on a (family, size, x) grid, vectorized MC

# the suites whose verdict does not depend on the seed (see README)
SUITES = ("theorem3", "theorem4", "theorem5", "consistency")
EXACT = (("E-cdf", "exact_expected_cdf_hat"), ("E-pdf", "exact_expected_pdf_hat"),
         ("MSE-cdf", "exact_mse_cdf_hat"), ("MSE-pdf", "exact_mse_pdf_hat"))
# family, size range: one small, one moderate, one large size per round
EXACT_GRID = (("exponential", 3, 10), ("lomax", 20, 80), ("weibull:alpha=2", 150, 300))
MC_REPS = 1_000_000


def _mc_op(rm, name: str, config, source: str) -> Op:
    def call():
        return rm.oracle.mc_estimate(config, "MSE_theta_hat", source)

    def check(report):
        return checks.check_mc_mse_theta(report.mc_value, report.mc_stderr, config.theta,
                                         config.sizes[0], report.failures, config.reps)

    return Op(name, call, check)


def oracle(rm, workdir: str, rng: random.Random) -> list[Op]:
    seed = rng.randrange(2**31)
    out = os.path.join(workdir, "verify.json")
    ops = [cli_op(rm, f"verify {suite}",
                  ["verify", "--suite", suite, "--seed", str(seed), "--out", out],
                  lambda result: checks.check_verify(result[0], _read(out)))
           for suite in SUITES]
    for family, lo, hi in EXACT_GRID:
        spec = rm.family.resolve_family(family)
        theta = rng.uniform(0.5, 2.0)
        x = _x_for(family, theta, rng.uniform(0.3, 1.5))
        n = rng.randint(lo, hi)
        for target, fn in EXACT:
            def call(fn=fn, spec=spec, theta=theta, x=x, n=n):
                return getattr(rm.oracle, fn)(spec, theta, x, n)

            def check(value, target=target, family=family, theta=theta, x=x, n=n):
                return checks.check_exact(target, family, theta, x, n, value)

            ops.append(Op(f"{fn} {family.split(':')[0]}", call, check))
    theta, n = rng.uniform(0.5, 2.0), rng.randint(4, 12)
    ops.append(Op("exact_mse_g_power k=e",
                  lambda: rm.oracle.exact_mse_g_power(theta, n, math.e),
                  lambda res: checks.check_diverged(res.diverged, res.value, n)))
    for source in ("sample", "records_direct"):
        config = rm.oracle.ExperimentConfig(
            "exponential", rng.uniform(0.5, 2.0), (rng.randint(5, 20),), reps=MC_REPS,
            seed=rng.randrange(2**31))
        ops.append(_mc_op(rm, f"mc_estimate {source}", config, source))
    return ops


# ---------------------------------------------------------------------------
# records-mc: the literal sequential sampler behind the MC `records` source

# (m, reps): sized so that more than 1% capped replications has a chance
# below 1e-8 per call (see README)
RECORDS = ((4, 2000), (6, 1000))


def records_mc(rm, workdir: str, rng: random.Random) -> list[Op]:
    ops = []
    for m, reps in RECORDS:
        config = rm.oracle.ExperimentConfig("exponential", rng.uniform(0.5, 2.0), (m,),
                                            reps=reps, seed=rng.randrange(2**31))
        ops.append(_mc_op(rm, f"mc_estimate records m={m}", config, "records"))
    # kept although it fails: at m = 10, 2-3% of sequences hit the 1e7-draw
    # cap, and on these fixed inputs 5 of 200 replications do, every time
    failing = rm.oracle.ExperimentConfig("exponential", 1.0, (10,), reps=200, seed=3)
    ops.append(_mc_op(rm, "mc_estimate records m=10", failing, "records"))
    return ops


WORKLOADS = {
    "data-path": data_path,
    "series-table": series_table,
    "oracle": oracle,
    "records-mc": records_mc,
}
