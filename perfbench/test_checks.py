"""Each referee accepts the program's real output and rejects a perturbed one.

    python3 -m pytest perfbench/test_checks.py -q

Outputs come from the program at small sizes, run in-process from ``src/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import recordmle  # noqa: E402
from recordmle import cli, oracle  # noqa: E402


def run_cli(argv: list[str], out: str) -> tuple[int, str, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--out", out])
    with open(out, encoding="utf-8") as fh:
        return code, fh.read(), err.getvalue()


def replace_field(text: str, row: int, col: int, fn) -> str:
    """CSV text with one field (data row ``row``, column ``col``) mapped by ``fn``."""
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    fields[col] = fn(fields[col])
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "xs.csv")
    code, text, err = run_cli(["simulate", "--family", "weibull:alpha=2", "--theta", "1.5",
                               "--n", "4000", "--seed", "9", "--manifest"], path)
    assert code == 0
    return path, text, err


def test_simulate(sample):
    path, text, err = sample
    assert checks.check_simulate("weibull:alpha=2", 1.5, 4000, text) is None
    assert checks.check_manifest(err, path, text.encode()) is None
    # the same draws against another theta, a dropped row, a digest of other bytes
    assert "KS distance" in checks.check_simulate("weibull:alpha=2", 1.2, 4000, text)
    dropped = "\n".join(line for i, line in enumerate(text.split("\n")) if i != 7)
    assert "indices" in checks.check_simulate("weibull:alpha=2", 1.5, 4000, dropped)
    assert checks.check_manifest(err, path, text.encode() + b" ") is not None


def test_fit(sample, tmp_path):
    path, text, _ = sample
    values = checks.read_values(text)[1]
    for records in (False, True):
        out = str(tmp_path / "fit.json")
        code, fit, _ = run_cli(["fit", "--family", "weibull:alpha=2", "--data", path]
                               + (["--records"] if records else []), out)
        assert code == 0
        assert checks.check_fit("weibull:alpha=2", values, records, fit) is None
        got = json.loads(fit)
        for key, bad in (("theta_hat", got["theta_hat"] * (1 + 1e-10)),
                         ("sufficient_stat", got["sufficient_stat"] * (1 - 1e-10)),
                         ("n_or_m", got["n_or_m"] + 1),
                         ("source", "records" if not records else "sample")):
            assert key in checks.check_fit("weibull:alpha=2", values, records,
                                           json.dumps({**got, key: bad}))


def test_eval(sample, tmp_path):
    path, text, _ = sample
    theta_hat = checks.reference_fit("weibull:alpha=2", checks.read_values(text)[1], False)[2]
    out = str(tmp_path / "eval.csv")
    code, ev, _ = run_cli(["eval", "--family", "weibull:alpha=2", "--what", "pdf-hat",
                           "--grid", "0:2.5:51", "--data", path], out)
    assert code == 0
    assert checks.check_eval("weibull:alpha=2", "pdf-hat", theta_hat, (0.0, 2.5, 51), ev) is None
    bumped = replace_field(ev, 20, 1, lambda v: repr(float(v) * (1 + 1e-9)))
    assert "pdf-hat" in checks.check_eval("weibull:alpha=2", "pdf-hat", theta_hat,
                                          (0.0, 2.5, 51), bumped)
    # a cdf where the pdf belongs
    assert checks.check_eval("weibull:alpha=2", "cdf-hat", theta_hat, (0.0, 2.5, 51), ev)


@pytest.mark.parametrize("formula,family,x,k,lo,hi", [
    ("E-cdf", "exponential", 0.9, None, 2, 300),
    ("MSE-cdf", "lomax", 1.1, None, 2, 200),
    ("MSE-pdf", "weibull:alpha=2", 0.8, None, 3, 200),
    ("mse-g", None, None, 0.5, 1, 200),
])
def test_table(tmp_path, formula, family, x, k, lo, hi):
    argv = ["table", "--formula", formula, "--theta", "1.3", "--sizes", f"{lo}..{hi}"]
    argv += ["--k", repr(k)] if family is None else ["--family", family, "--x", repr(x)]
    code, table, _ = run_cli(argv, str(tmp_path / "table.csv"))
    assert code == 0
    sizes = list(range(lo, hi + 1))

    def verdict(text, sampled=(lo, lo + 7, hi)):
        return checks.check_table(formula, family, 1.3, x, k, sizes, list(sampled), [hi], text)

    assert verdict(table) is None
    # a wrong value at a sampled size, at the converged size, a flipped flag
    assert "mpmath sum" in verdict(replace_field(table, 7, 1, lambda v: repr(float(v) + 1e-6)))
    shifted = replace_field(table, hi - lo, 1, lambda v: repr(float(v) + 1e-6))
    assert "exact" in verdict(shifted, sampled=(lo,))
    flag = {"true": "false", "false": "true"}
    assert "flagged" in verdict(replace_field(table, 3, 2, flag.get))


def test_exact_and_divergence():
    spec = recordmle.resolve_family("lomax")
    for target, fn in (("E-cdf", oracle.exact_expected_cdf_hat),
                       ("E-pdf", oracle.exact_expected_pdf_hat),
                       ("MSE-cdf", oracle.exact_mse_cdf_hat),
                       ("MSE-pdf", oracle.exact_mse_pdf_hat)):
        value = fn(spec, 1.2, 0.7, 25)
        assert checks.check_exact(target, "lomax", 1.2, 0.7, 25, value) is None
        assert checks.check_exact(target, "lomax", 1.2, 0.7, 25, value * (1 + 1e-6) + 1e-7)
    res = oracle.exact_mse_g_power(1.0, 6, math.e)
    assert checks.check_diverged(res.diverged, res.value, 6) is None
    converged = oracle.exact_mse_g_power(1.0, 6, 0.5)
    assert checks.check_diverged(converged.diverged, converged.value, 6)


@pytest.mark.parametrize("source,reps", [("sample", 50_000), ("records_direct", 50_000),
                                         ("records", 2000)])
def test_mc(source, reps):
    config = oracle.ExperimentConfig("exponential", 1.4, (4,), reps=reps, seed=4)
    rep = oracle.mc_estimate(config, "MSE_theta_hat", source)
    assert checks.check_mc_mse_theta(rep.mc_value, rep.mc_stderr, 1.4, 4,
                                     rep.failures, rep.reps) is None
    for off in (1.4**2 / 4 + 5.5 * rep.mc_stderr, 1.4**2 / 4 - 5.5 * rep.mc_stderr):
        assert "standard errors" in checks.check_mc_mse_theta(off, rep.mc_stderr, 1.4, 4,
                                                              rep.failures, rep.reps)
    assert "failures" in checks.check_mc_mse_theta(rep.mc_value, rep.mc_stderr, 1.4, 4,
                                                   reps // 100 + 1, reps)


def test_verify(tmp_path):
    code, text, _ = run_cli(["verify", "--suite", "theorem3", "--seed", "1"],
                            str(tmp_path / "v.json"))
    assert checks.check_verify(code, text) is None
    assert checks.check_verify(1, text)
    report = json.loads(text)
    report["passed"] = False
    assert checks.check_verify(0, json.dumps(report))
