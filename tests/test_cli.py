"""End-to-end CLI behavior.

``run_cli`` runs ``recordmle.cli.main`` in this process and captures what a
``python -m recordmle`` subprocess would show: stdout, stderr with every
warning appended as the interpreter would print it, and the exit code.
``test_python_m_entry_point`` runs the real subprocess.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import warnings

import pytest


def run_cli(*argv, expect=0):
    from recordmle.cli import main

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors and --version
            code = 0 if exc.code is None else exc.code
    stderr = err.getvalue() + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
        for w in caught
    )
    proc = subprocess.CompletedProcess(argv, code, out.getvalue(), stderr)
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout: {proc.stdout[:500]}"
        f"\nstderr: {proc.stderr[:500]}"
    )
    return proc


def test_python_m_entry_point():
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "recordmle", *argv],
                              capture_output=True, text=True, timeout=120)

    ok = run("--version")
    assert ok.returncode == 0
    assert ok.stdout.strip().endswith("0.1.0")
    bad = run("simulate", "--family", "gamma", "--theta", "1", "--n", "3", "--seed", "1")
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert bad.stderr.startswith("error:")


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


def test_simulate_records_overflow_is_a_typed_error():
    import hashlib

    proc = run_cli("simulate", "--family", "lomax", "--theta", "1", "--records",
                   "800", "--seed", "9", expect=2)
    assert proc.stdout == ""
    assert proc.stderr == "error: family 'lomax' at m=800: record R_701 overflows float64\n"
    # the largest m that fits prints as it did before the check
    ok = run_cli("simulate", "--family", "lomax", "--theta", "1", "--records",
                 "700", "--seed", "9")
    assert ok.stderr == ""
    assert (hashlib.sha256(ok.stdout.encode("utf-8")).hexdigest()
            == "8a25ff83927fa2873ea7eae95e3d1cd6e8b54120563af9ae2ae789a3fe4b9b9d")


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


def test_simulate_sample_rejects_sequential_records_mode(capsys):
    from recordmle.cli import main

    assert main(["simulate", "--family", "exponential", "--theta", "1", "--n", "3",
                 "--records-mode", "sequential", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--records-mode" in err


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


def test_simulate_weibull_shape_below_float64_bound_exit_2():
    # x**0.001 stays under 36 at the largest float: quantile would give inf
    proc = run_cli("simulate", "--family", "weibull:alpha=0.001", "--theta", "1", "--n", "5",
                   "--seed", "1", expect=2)
    assert proc.stdout == ""
    assert "alpha must exceed 0.00504875" in proc.stderr
    assert "Warning" not in proc.stderr


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


def test_infinite_density_at_zero_prints_no_warning():
    # weibull with alpha < 1 has an infinite density at x = 0
    proc = run_cli("eval", "--what", "pdf", "--family", "weibull:alpha=0.5", "--grid",
                   "0:1:3", "--theta", "1")
    assert proc.stdout.split("\n")[1] == "0.0,inf"
    assert proc.stderr == ""
    proc = run_cli("table", "--formula", "E-pdf", "--family", "weibull:alpha=0.5",
                   "--x", "0", "--sizes", "2..4", "--theta", "1")
    assert proc.stdout.split("\n")[1].startswith("2,inf,")
    assert proc.stderr == ""


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


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--formula", "E-cdf", "--family", "exponential", "--theta", "1",
         "--x", "1000", "--sizes", "2000"),
        ("table", "--formula", "mse-g", "--theta", "1", "--k", "1e300", "--sizes",
         "2000"),
    ],
)
def test_table_overflowing_series_gives_flagged_row(argv):
    proc = run_cli(*argv)
    assert proc.stderr == ""
    assert proc.stdout.strip().split("\n")[-1].endswith(",false,truncation_suspect")


@pytest.mark.parametrize(
    "formula,extra",
    [
        ("alpha-n", ["--family", "weibull:alpha=2"]),
        ("alpha-n", ["--x", "1"]),
        ("mse-g", ["--family", "bogus", "--x", "5"]),
        ("mse-g", ["--x", "5"]),
    ],
)
def test_table_rejects_family_and_x_for_formulas_without_a_point(formula, extra, capsys):
    from recordmle.cli import main

    assert main(["table", "--formula", formula, "--theta", "1", "--sizes", "3",
                 *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--family and --x" in err


def test_table_rejects_as_printed_for_other_formulas():
    proc = run_cli("table", "--formula", "MSE-cdf", "--sizes", "3..6", "--family",
                   "exponential", "--theta", "1.0", "--x", "1.0", "--as-printed",
                   expect=2)
    assert "--as-printed" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("what,flag", [("pdf", "--data"), ("cdf", "--records")])
def test_eval_exact_curve_rejects_fit_flags(tmp_path, what, flag):
    data = tmp_path / "xs.csv"
    data.write_text("index,value\n0,1.0\n1,2.0\n2,3.0\n")
    extra = ["--data", str(data)] if flag == "--data" else ["--records"]
    proc = run_cli("eval", "--family", "exponential", "--what", what, "--grid",
                   "0:2:5", "--theta", "1.0", *extra, expect=2)
    assert flag in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("families",),
        ("simulate", "--family", "exponential", "--theta", "1", "--n", "3", "--seed", "1"),
        ("fit", "--family", "exponential", "--data", "xs.csv"),
        ("eval", "--family", "exponential", "--what", "cdf", "--grid", "0:2:5",
         "--theta", "1"),
        ("table", "--formula", "alpha-n", "--theta", "1", "--sizes", "3"),
    ],
)
def test_workers_only_on_verify(argv, capsys):
    from recordmle.cli import main

    with pytest.raises(SystemExit) as exc:
        main([*argv, "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


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


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_rejects_fewer_than_one_worker(workers):
    proc = run_cli("verify", "--suite", "theorem1", "--seed", "1", "--workers", workers,
                   expect=2)
    assert proc.stdout == ""
    assert "--workers must be at least 1" in proc.stderr


def test_version_flag():
    proc = run_cli("--version")
    assert proc.stdout.strip().endswith("0.1.0")


# sha256 of stdout for fixed seeded commands: the byte contract that a
# refactor must keep; a change here is an output change to explain
_SEEDED_STDOUT = [
    ("table --formula E-cdf --family exponential --theta 1 --x 1 --sizes 1..60",
     "8ee4a3466427bfc2294585d719f09a15806c9a95c8d2983ee14b2426a922acbc"),
    ("table --formula E-pdf --family lomax --theta 1.3 --x 0.7 --sizes 2..60",
     "22d391760cf138ceea2a6defb87a8468a8e6a990b6d1de29bb974105708168c2"),
    ("table --formula MSE-cdf --family weibull:alpha=2 --theta 0.8 --x 0.9 --sizes 1..60",
     "c2934e7bd0b6d189d5720fe4a346f651ed0f8a6378ed30fb128b851491cc546f"),
    ("table --formula MSE-pdf --family pareto:k=1.5 --theta 1.2 --x 2 --sizes 3..60",
     "9ebe0565d3566737fff018348d5c410adfe15455b673cca57643862f50f66dd5"),
    ("table --formula MSE-pdf --family exponential --theta 1 --x 1 --sizes 3..60 "
     "--as-printed",
     "5fcce010b49528c1c229a135120a243ad42550e3d3bc439d3f589985ff200ea0"),
    ("table --formula alpha-n --theta 2 --sizes 1..20",
     "d303a3a0f8a67c3b70d577d48408b3158f708a1fc50b451eaad496ed5dd05b06"),
    ("table --formula mse-g --theta 1 --k 0.5 --sizes 1..45",
     "c75f263b928f22f0f44a49f1af1b1811fb15b46e9b335f6fb90ef697b552c125"),
    ("table --formula mse-g --theta 1 --sizes 1..30",
     "80bd735c60b4826d29a171341c1032b5aeee520b591d556d27e16472e41458f6"),
    ("simulate --family exponential --theta 2 --n 50 --seed 7",
     "5b97e773cbca0d175d8d0fea1df8bedb76051a12bc475d13f2c90cd148aae12e"),
    ("simulate --family weibull:alpha=2 --theta 1 --records 8 --seed 7",
     "f2bd6ece1baee88ac89c450178ed8260a5f35aa665b3e054a625b841bc186ed2"),
    ("simulate --family lomax --theta 1 --records 5 --records-mode sequential --seed 3",
     "6d1374e860325ba694c986777f1e7935e12cf68d1e6b087cbfc7e2822407a730"),
    ("eval --family lomax --what pdf --grid 0:10:41 --theta 1",
     "3d31c8d54783e620027d6943ed37b1538cb2cad37301a5e26e72784fc821ad11"),
    ("eval --family pareto:k=1.0 --what cdf --grid 1:21:41 --theta 1.5",
     "32476665ae8c1bf339c5f73de63a38f0865091c7bea22941eb90d6045fb30a32"),
    ("families",
     "0abfa8411878b4e83616050764bf4688725a566889c9c4555e1daedd62bf420e"),
    ("verify --suite theorem3 --seed 1 --json",
     "a19f94c1a1762b7617b091ea0cd52537253e5f308dd31bf4f3d9806975b34dcc"),
    ("verify --suite theorem4 --seed 1 --json",
     "2801a600662cce4dddd233610ff8c3cfde467b2fc63ffd05dcc112c36de07373"),
    ("verify --suite theorem1 --seed 1 --json",
     "842f42f6de74aad7f807ddbd17e4bd7fc5f7d283021a696454a42253f2014123"),
    ("verify --suite example1 --seed 1 --json",
     "714d0480f9f9a93ffb1524b5e1d47fc4ca49843ea21f3a6e1689f7128e6cfc43"),
    ("verify --suite theorem5 --seed 1 --json",
     "129204e811effaa2ef8ce61194dc57e97fc3af2ede498352193b03f63568fd9d"),
    ("verify --suite consistency --seed 1 --json",
     "74781d65d7e894a872af352de97190128c549ddfe21e82874576121fa6ae7df0"),
]


def test_seeded_stdout_digests(capsys):
    import hashlib

    from recordmle.cli import main

    for command, digest in _SEEDED_STDOUT:
        assert main(command.split()) == 0, command
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, command


# sha256 of stdout for table sweeps to large sizes, where most series terms
# underflow to 0.0, and for the two overflowing sweeps, whose nan rows come
# from the IEEE-sum fallback
_LARGE_SWEEP_STDOUT = [
    ("table --formula E-cdf --family exponential --theta 1 --x 1 --sizes 2..2000",
     "f2882d49d136470f8d2b5ffe952c333ef2b00301dbb305e0085edc7f02861e57"),
    ("table --formula MSE-cdf --family lomax --theta 1.3 --x 1 --sizes 2..800",
     "7e689fea825117443f01331745d3435c9dd0660fa1ef01d45644f4a2b2d156b0"),
    ("table --formula MSE-pdf --family weibull:alpha=2 --theta 1 --x 0.9 --sizes 3..800",
     "7fff4ded1e14c60c29b948a06bb9f13039b7918581f75ab3954ca4c1ec80765f"),
    ("table --formula mse-g --theta 1 --k 0.5 --sizes 1..800",
     "86471cddd754e6b0649282928788eebde5e90b49e93d29738670eab2e4952947"),
    ("table --formula E-cdf --family exponential --theta 1 --x 1000 --sizes 1990..2000",
     "9e30fbd2c9c73c7715b38c0c1e6596a9e0c5ba9a4e2ae203bc0431cb44e18cc9"),
    ("table --formula mse-g --theta 1 --k 1e300 --sizes 1..2000",
     "2547b18dcd5c86c3bef61c4581dd3865cd57740bc3bc09d3d457b71e94ad5d53"),
]


@pytest.mark.parametrize("command,digest", _LARGE_SWEEP_STDOUT,
                         ids=["E-cdf", "MSE-cdf", "MSE-pdf", "mse-g", "E-cdf-overflow",
                              "mse-g-overflow"])
def test_large_sweep_stdout_digests(command, digest, capsys):
    import hashlib

    from recordmle.cli import main

    assert main(command.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# (family, theta, simulate seed, eval grid) -> sha256 of the stdout of fit,
# fit --records and eval --what cdf-hat --data on a simulated n = 20 000 sample
_FIT_PATH_STDOUT = [
    (("exponential", "1.5", "11", "0:8:33"),
     ("347fe0aa253498be7f175e7a997a48ceb5b5f7a0e53847e7713890d1312d4df9",
      "f5eb09b65b6189f497b1d7383c63f4738df82990373ca38e1dda9a906299c92c",
      "9c0d55f0a291c99d745c33d0fbb66cc50650b2410da81241fe7ec1c3ac9000bc")),
    (("lomax", "0.7", "12", "0:8:33"),
     ("114dcf4f3f59a8b862903e6fd9b6433449b38540f253378c6c6253f5e41fa4e9",
      "ba9f2781f573d2a5d40365a270ca20f7fea23001ee3186a52d0b7a14a6e7aa75",
      "08b587194a18ced280eb5c77aff7cf60e108e85cf59bccd0d48af61e38b8cb39")),
    (("weibull:alpha=2", "1.3", "13", "0:4:33"),
     ("8ee9e30e87be1a10f9119b1e1ad38419e93346efd24f4cdadf3a4dd2463f383a",
      "08b5b9da234779911f1dbe46dc0fb8618fca9822d9e98d2f672275128e63fad7",
      "6d395af4fbc8492292914972e044f739c9ccbee5526a2dde50bb065871d28073")),
    (("pareto:k=1.5", "2.5", "14", "1.5:9.5:33"),
     ("5abe1d42f7ede4498e69e3a23d33f2d1690c8983d68ee01c615dff740b77c428",
      "5fdf29b6d97aec67117c3311581a5ddbd2b258a03a83622ae60a099b361a530f",
      "9d7ca77954e6f6f8f5c1dc02b884cbd2b171b1db463ccf396c1d9ae070f7d473")),
]


@pytest.mark.parametrize("case,digests", _FIT_PATH_STDOUT,
                         ids=[case[0] for case, _ in _FIT_PATH_STDOUT])
def test_fit_path_stdout_digests(case, digests, tmp_path, capsys):
    import hashlib

    from recordmle.cli import main

    family, theta, seed, grid = case
    data = str(tmp_path / "sample.csv")
    assert main(["simulate", "--family", family, "--theta", theta, "--n", "20000",
                 "--seed", seed, "--out", data]) == 0
    commands = (
        ["fit", "--family", family, "--data", data],
        ["fit", "--family", family, "--data", data, "--records"],
        ["eval", "--family", family, "--what", "cdf-hat", "--data", data, "--grid", grid],
    )
    capsys.readouterr()
    for command, digest in zip(commands, digests):
        assert main(command) == 0, command
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, command
