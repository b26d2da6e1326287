"""End-to-end CLI behavior through real subprocesses."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "recordmle", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout: {proc.stdout[:500]}"
        f"\nstderr: {proc.stderr[:500]}"
    )
    return proc


def test_families_listing():
    proc = run_cli("families")
    for name in ("exponential", "lomax", "weibull", "pareto"):
        assert name in proc.stdout
    rows = json.loads(run_cli("families", "--json").stdout)
    assert [r["name"] for r in rows] == ["exponential", "lomax", "weibull", "pareto"]
    assert rows[2]["grammar"] == "weibull:alpha=<positive real>"


def test_simulate_sample_reproducible():
    args = ("simulate", "--family", "exponential", "--theta", "2.0", "--n", "6",
            "--seed", "11")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout
    assert a.stderr == ""
    lines = a.stdout.strip().split("\n")
    assert lines[0] == "index,value"
    assert len(lines) == 7
    # shortest round-trip decimals: every value survives a float() cycle
    for ln in lines[1:]:
        idx, val = ln.split(",")
        assert repr(float(val)) == val
    c = run_cli("simulate", "--family", "exponential", "--theta", "2.0", "--n", "6",
                "--seed", "12")
    assert c.stdout != a.stdout


def test_simulate_records_increasing():
    proc = run_cli("simulate", "--family", "lomax", "--theta", "1.0", "--records",
                   "5", "--seed", "3")
    vals = [float(ln.split(",")[1]) for ln in proc.stdout.strip().split("\n")[1:]]
    assert len(vals) == 5
    assert all(x < y for x, y in zip(vals, vals[1:]))
    seq = run_cli("simulate", "--family", "lomax", "--theta", "1.0", "--records",
                  "5", "--records-mode", "sequential", "--seed", "3")
    seq_vals = [float(ln.split(",")[1]) for ln in seq.stdout.strip().split("\n")[1:]]
    assert all(x < y for x, y in zip(seq_vals, seq_vals[1:]))


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--family", "exponential", "--theta", "1", "--seed", "1"),
        ("simulate", "--family", "exponential", "--theta", "1", "--n", "3",
         "--records", "3", "--seed", "1"),
        ("simulate", "--family", "exponential", "--theta", "1", "--n", "3"),
        ("simulate", "--theta", "1", "--n", "3", "--seed", "1"),
        ("simulate", "--family", "exponential:0", "--theta", "1", "--n", "3",
         "--seed", "1"),
        ("simulate", "--family", "gamma", "--theta", "1", "--n", "3", "--seed", "1"),
    ],
)
def test_simulate_usage_errors(argv):
    proc = run_cli(*argv, expect=2)
    assert proc.stderr.startswith("error:")
    assert proc.stdout == ""


def test_simulate_output_roundtrips_byte_identically():
    from recordmle import Sample
    from recordmle.records import parse_csv_values, serialize_csv

    proc = run_cli("simulate", "--family", "weibull:alpha=2", "--theta", "1.5",
                   "--n", "9", "--seed", "23")
    values = parse_csv_values(proc.stdout)
    assert serialize_csv(Sample(values=tuple(values))) == proc.stdout


def test_fit_sample_hand_value(tmp_path):
    data = tmp_path / "xs.csv"
    data.write_text("index,value\n0,1.0\n1,2.0\n2,3.0\n")
    proc = run_cli("fit", "--family", "exponential", "--data", str(data))
    obj = json.loads(proc.stdout)
    assert list(obj) == ["family", "source", "n_or_m", "sufficient_stat", "theta_hat"]
    assert obj["theta_hat"] == pytest.approx(2.0)
    assert obj["source"] == "sample"
    assert obj["n_or_m"] == 3


def test_fit_records_extracts_first(tmp_path):
    data = tmp_path / "xs.csv"
    data.write_text("index,value\n0,3.0\n1,1.0\n2,4.0\n3,1.0\n4,5.0\n")
    obj = json.loads(
        run_cli("fit", "--family", "exponential", "--data", str(data),
                "--records").stdout
    )
    assert obj["source"] == "records"
    assert obj["n_or_m"] == 3
    assert obj["sufficient_stat"] == pytest.approx(5.0)
    assert obj["theta_hat"] == pytest.approx(5.0 / 3.0)


def test_fit_missing_file_exit_2(tmp_path):
    proc = run_cli("fit", "--family", "exponential", "--data",
                   str(tmp_path / "nope.csv"), expect=2)
    assert "error:" in proc.stderr


def test_eval_exact_curves():
    proc = run_cli("eval", "--family", "exponential", "--what", "cdf", "--grid",
                   "0:2:5", "--theta", "1.0")
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "x,value"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 5
    assert rows[0] == (0.0, 0.0)
    assert rows[-1][1] == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)


def test_eval_plugin_density_from_data(tmp_path):
    data = tmp_path / "xs.csv"
    data.write_text("index,value\n0,1.0\n1,2.0\n2,3.0\n")
    proc = run_cli("eval", "--family", "exponential", "--what", "pdf-hat", "--grid",
                   "2:2:1", "--data", str(data))
    x, v = map(float, proc.stdout.strip().split("\n")[1].split(","))
    # fitted mean is 2, so the curve is (1/2) e^{-x/2}
    assert v == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize(
    "family,grid",
    [
        ("exponential", "0:4:41"),
        ("lomax", "0:20:41"),
        ("weibull:alpha=2", "0:4:41"),
        ("pareto:k=1.0", "1:21:41"),
    ],
)
def test_eval_emits_curves_for_every_builtin(family, grid):
    for what in ("cdf", "pdf"):
        proc = run_cli("eval", "--family", family, "--what", what, "--grid",
                       grid, "--theta", "1.0")
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "x,value"
        vals = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert len(vals) == 41
        assert all(v >= 0.0 for v in vals)
        if what == "cdf":
            assert vals == sorted(vals)
            assert vals[-1] > 0.9


def test_eval_plugin_rows_match_refit_curve(tmp_path):
    data = tmp_path / "xs.csv"
    data.write_text("index,value\n0,1.0\n1,2.0\n2,3.0\n")
    fitted = run_cli("eval", "--family", "exponential", "--what", "cdf-hat",
                     "--grid", "0:6:13", "--data", str(data))
    # theta_hat for this sample is exactly 2; the plug-in curve must be the
    # model curve there, byte for byte
    direct = run_cli("eval", "--family", "exponential", "--what", "cdf",
                     "--grid", "0:6:13", "--theta", "2.0")
    assert fitted.stdout == direct.stdout


def test_eval_grid_outside_support_exit_2():
    proc = run_cli("eval", "--family", "pareto:k=2.0", "--what", "cdf", "--grid",
                   "1:3:5", "--theta", "1.0", expect=2)
    assert "outside support" in proc.stderr
    run_cli("eval", "--family", "exponential", "--what", "cdf", "--grid",
            "0:bad:5", "--theta", "1.0", expect=2)


def test_table_alpha_n():
    proc = run_cli("table", "--formula", "alpha-n", "--sizes", "8", "--theta", "2.0")
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "size,value,in_bounds,regime"
    assert lines[1] == "8,0.5,true,asymptotic_ok"


def test_table_series_sweep_flags_defect():
    proc = run_cli("table", "--formula", "E-cdf", "--sizes", "2,200", "--family",
                   "exponential", "--theta", "1.0", "--x", "0.8")
    rows = [ln.split(",") for ln in proc.stdout.strip().split("\n")[1:]]
    assert rows[0][0] == "2"
    assert float(rows[0][1]) == pytest.approx(1.6, abs=1e-12)
    assert rows[0][2] == "false"
    assert rows[0][3] == "truncation_suspect"
    assert rows[1][2] == "true"


def test_table_as_printed_changes_values():
    base = run_cli("table", "--formula", "MSE-pdf", "--sizes", "3..6", "--family",
                   "exponential", "--theta", "1.0", "--x", "1.0")
    variant = run_cli("table", "--formula", "MSE-pdf", "--sizes", "3..6", "--family",
                      "exponential", "--theta", "1.0", "--x", "1.0", "--as-printed")
    assert base.stdout != variant.stdout
    # the size floor of the formula is a usage error, not a crash
    run_cli("table", "--formula", "MSE-pdf", "--sizes", "2..4", "--family",
            "exponential", "--theta", "1.0", "--x", "1.0", expect=2)


def test_table_mse_g_range_syntax():
    proc = run_cli("table", "--formula", "mse-g", "--sizes", "4..5", "--theta",
                   "1.0", "--k", "0.5")
    rows = proc.stdout.strip().split("\n")[1:]
    assert len(rows) == 2
    assert rows[0].startswith("4,")


def test_out_file_and_manifest(tmp_path):
    target = tmp_path / "out.csv"
    plain = run_cli("simulate", "--family", "exponential", "--theta", "1.0", "--n",
                    "4", "--seed", "9")
    written = run_cli("simulate", "--family", "exponential", "--theta", "1.0", "--n",
                      "4", "--seed", "9", "--out", str(target), "--manifest")
    assert written.stdout == ""
    assert target.read_text() == plain.stdout
    manifest = json.loads(written.stderr)
    assert manifest["subcommand"] == "simulate"
    assert manifest["seed"] == 9
    assert manifest["outputs"][0]["path"] == str(target)
    assert len(manifest["outputs"][0]["fnv1a64"]) == 16
    # same bytes, same digest, independent of destination
    again = run_cli("simulate", "--family", "exponential", "--theta", "1.0", "--n",
                    "4", "--seed", "9", "--manifest")
    assert json.loads(again.stderr)["outputs"][0]["fnv1a64"] == \
        manifest["outputs"][0]["fnv1a64"]


def test_fnv1a64_published_vectors():
    from recordmle.cli import _fnv1a64

    assert _fnv1a64(b"") == "cbf29ce484222325"
    assert _fnv1a64(b"a") == "af63dc4c8601ec8c"
    assert _fnv1a64(b"foobar") == "85944171f73967e8"


def test_digest_only_with_manifest(monkeypatch, capsys):
    import recordmle.cli as cli

    def fail(data):
        raise AssertionError("digest computed without --manifest")

    monkeypatch.setattr(cli, "_fnv1a64", fail)
    assert cli.main(["families"]) == 0
    assert capsys.readouterr().out


def test_manifest_never_touches_stdout():
    with_m = run_cli("families", "--manifest")
    without = run_cli("families")
    assert with_m.stdout == without.stdout
    assert with_m.stderr != ""
    assert without.stderr == ""


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=exponential\ntheta=2.0\nn=6\nseed=11\n")
    via_cfg = run_cli("simulate", "--config", str(cfg))
    explicit = run_cli("simulate", "--family", "exponential", "--theta", "2.0",
                       "--n", "6", "--seed", "11")
    assert via_cfg.stdout == explicit.stdout
    # explicit flags win over the file
    override = run_cli("simulate", "--config", str(cfg), "--seed", "12")
    assert override.stdout != via_cfg.stdout


def test_config_rejects_malformed(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not a pair\n")
    run_cli("simulate", "--config", str(cfg), expect=2)
    run_cli("simulate", "--config", str(tmp_path / "missing.cfg"), expect=2)


def test_verify_fast_suite_passes_and_is_deterministic():
    a = run_cli("verify", "--suite", "theorem3", "--seed", "1")
    b = run_cli("verify", "--suite", "theorem3", "--seed", "1")
    assert a.stdout == b.stdout
    report = json.loads(a.stdout)
    assert report["passed"] is True
    assert report["suites"][0]["suite"] == "theorem3"
    names = [c["name"] for c in report["suites"][0]["checks"]]
    assert "size2_truncation_defect_detected" in names


def test_verify_json_is_ndjson():
    proc = run_cli("verify", "--suite", "theorem5", "--seed", "1", "--json")
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["suite"] == "theorem5"
    assert obj["passed"] is True
    # compact separators, no pretty printing
    assert ": " not in lines[0]


def test_verify_requires_seed():
    run_cli("verify", "--suite", "theorem3", expect=2)


def test_version_flag():
    proc = run_cli("--version")
    assert proc.stdout.strip().endswith("0.1.0")
