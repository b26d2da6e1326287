"""The benchmark's tracer still fits the package it wraps.

``perfbench/tracing.py`` patches module attributes by name and counts each
public Monte Carlo call as one ``oracle.mc`` span, on the assumption that
those calls never call one another. A rename or a nested entry point would
otherwise break only a traced benchmark run.
"""

from __future__ import annotations

import os

import recordmle
from recordmle import cli, oracle

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_tracer_counts_one_mc_call_and_its_replications(capsys, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    original = oracle.mc_estimate
    tracer = tracing.Tracer()
    restore = tracer.install(recordmle)
    try:
        tracer.begin_round()
        config = oracle.ExperimentConfig("exponential", 1.0, (3,), reps=200, seed=3)
        report = oracle.mc_estimate(config, "MSE_theta_hat", "records")
        code = cli.main(["table", "--formula", "E-cdf", "--sizes", "2..6", "--theta", "1.0",
                         "--x", "0.5", "--family", "exponential"])
        tracer.end_round()
    finally:
        restore()
    assert oracle.mc_estimate is original
    assert report.failures == 0 and code == 0
    assert capsys.readouterr().out.startswith("size,value,")
    names = [span[0] for span in tracer.spans]
    assert names.count("oracle.mc") == 1 and names.count("cli") == 1
    assert tracer.counters["oracle.reps"] == 200
