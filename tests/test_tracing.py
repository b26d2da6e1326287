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


def test_tracer_sees_the_samplers_quantile_calls(capsys, monkeypatch):
    # the samplers reach family.quantile through one private map; a keyword call
    # or a binding made at import would hide the draws from the tracer
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    tracer = tracing.Tracer()
    restore = tracer.install(recordmle)
    try:
        tracer.begin_round()
        codes = [cli.main(["simulate", "--family", "exponential", "--theta", "1.0", *argv,
                           "--seed", "3"])
                 for argv in (["--records", "4", "--records-mode", "sequential"], ["--n", "50"])]
        tracer.end_round()
    finally:
        restore()
    assert codes == [0, 0]
    assert capsys.readouterr().out.count("index,value\n") == 2
    names = [span[0] for span in tracer.spans]
    assert names.count("records.sequential") == 1 and names.count("records.sample_iid") == 1
    walk = names.index("records.sequential")
    assert any(name == "family.quantile" and parent == walk
               for name, _, _, parent in tracer.spans)
    assert tracer.counters["records.sequential_draws"] > 0
