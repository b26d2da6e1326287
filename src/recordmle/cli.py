"""Command-line front end: families | simulate | fit | eval | table | verify.

Every randomized subcommand requires --seed; given the same flags and seed
the byte output is identical across runs and worker counts on one host:
the same bytes hold for one numpy build at one SIMD dispatch level, whose
transcendental kernels may round the last bit differently. Numbers are
printed as shortest round-trip decimals, CSV is UTF-8 with LF endings and
a mandatory header, JSON uses a fixed key order. Run manifests (flag set,
version, timestamps, FNV-1a digests of outputs) go to stderr when
--manifest is passed, never to stdout, so stdout stays reproducible.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, closedform, estimate
from . import family as fam
from . import oracle, records
from ._streams import mix_seed_stream
from .errors import ArgumentError, RecordMleError

__all__ = ["main"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a64(data: bytes) -> str:
    h, prime, mask = _FNV_OFFSET, _FNV_PRIME, 0xFFFFFFFFFFFFFFFF  # locals: the loop is hot
    for byte in data:
        h = ((h ^ byte) * prime) & mask
    return f"{h:016x}"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, args) -> list[dict]:
    """Write ``text`` to --out or stdout; the manifest entries (none without --manifest)."""
    data = text.encode("utf-8")
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(text)
    if not args.manifest:
        return []
    return [{"path": args.out or "stdout", "fnv1a64": _fnv1a64(data)}]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ArgumentError(message)


def _parse_sizes(text: str) -> list[int]:
    """Size sweeps: inclusive range 'a..b' or an explicit comma list."""
    try:
        if ".." in text:
            a, b = text.split("..", 1)
            lo, hi = int(a), int(b)
            _require(lo <= hi, f"empty size range {text!r}")
            return list(range(lo, hi + 1))
        sizes = [int(p) for p in text.split(",") if p.strip()]
        _require(bool(sizes), "no sizes given")
        return sizes
    except ValueError:
        raise ArgumentError(f"malformed --sizes {text!r}; use 'a..b' or 'a,b,c'") from None


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError:
        raise ArgumentError(f"malformed --grid {text!r}; use 'lo:hi:count'") from None
    _require(count >= 1, "--grid count must be at least 1")
    _require(hi >= lo, "--grid needs hi >= lo")
    return np.linspace(lo, hi, count)


def _expand_config(argv: list[str]) -> list[str]:
    """Splice a flat key=value config file in as flags after the subcommand.

    Explicit command-line flags override the file because they come later
    in the argument list. A key with value true/false toggles a boolean
    flag.
    """
    flat: list[str] = []
    path = None
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            _require(i + 1 < len(argv), "--config needs a path")
            path = argv[i + 1]
            i += 2
            continue
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            i += 1
            continue
        flat.append(tok)
        i += 1
    if path is None:
        return flat
    if not flat:
        raise ArgumentError("--config requires a subcommand")
    tokens: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            _require(bool(sep), f"malformed config line {line!r}; expected key=value")
            key, value = key.strip(), value.strip()
            if value.lower() == "true":
                tokens.append(f"--{key}")
            elif value.lower() == "false":
                continue
            else:
                tokens.extend([f"--{key}", value])
    return [flat[0]] + tokens + flat[1:]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_families(args) -> tuple[list[dict], int]:
    rows = fam.builtin_descriptions()
    if args.json:
        text = json.dumps(rows, indent=2) + "\n"
    else:
        lines = [
            f"{row['name']:<14} params: {row['parameters'] or '-':<8} "
            f"usage: {row['grammar']}"
            for row in rows
        ]
        text = "\n".join(lines) + "\n"
    return _emit(text, args), 0


def _cmd_simulate(args) -> tuple[list[dict], int]:
    _require(args.family is not None, "simulate requires --family")
    spec = fam.resolve_family(args.family)
    _require(args.seed is not None, "simulate requires --seed")
    _require(args.theta is not None, "simulate requires --theta")
    _require(
        (args.n is None) != (args.records is None),
        "simulate needs exactly one of --n or --records",
    )
    _require(args.n is None or args.records_mode == "direct",
             "--records-mode sequential applies only to --records")
    stream = (int(args.seed), 0)
    if args.n is not None:
        obj = records.sample_iid(spec, args.theta, int(args.n), stream)
    elif args.records_mode == "sequential":
        obj = records.sample_records_sequential(spec, args.theta, int(args.records), stream)
    else:
        obj = records.sample_records_direct(spec, args.theta, int(args.records), stream)
    return _emit(records.serialize_csv(obj), args), 0


def _fit_report(args) -> estimate.EstimateReport:
    _require(args.family is not None, "a family name is required (--family)")
    spec = fam.resolve_family(args.family)
    with open(args.data, "r", encoding="utf-8") as fh:
        values = records.parse_csv_values(fh.read())
    if args.records:
        rs = records.extract_upper_records(values)
        return estimate.mle_theta_records(spec, rs)
    sample = records.Sample(tuple(values))
    return estimate.mle_theta_sample(spec, sample)


def _cmd_fit(args) -> tuple[list[dict], int]:
    _require(args.data is not None, "fit requires --data")
    rep = _fit_report(args)
    obj = {
        "family": rep.family,
        "source": rep.source,
        "n_or_m": rep.size,
        "sufficient_stat": rep.sufficient_stat,
        "theta_hat": rep.theta_hat,
    }
    return _emit(json.dumps(obj, indent=2) + "\n", args), 0


def _cmd_eval(args) -> tuple[list[dict], int]:
    _require(args.family is not None, "eval requires --family")
    spec = fam.resolve_family(args.family)
    xs = _parse_grid(args.grid)
    inside = (xs >= spec.support_lo) & (xs < spec.support_hi)
    _require(
        bool(inside.all()),
        f"grid point {float(xs[int(np.argmin(inside))])!r} outside support "
        f"[{spec.support_lo}, {spec.support_hi})",
    )
    if args.what in ("pdf", "cdf"):
        _require(args.theta is not None, f"{args.what} requires --theta")
        _require(args.data is None and not args.records,
                 f"--data and --records apply only to {args.what}-hat")
        theta = args.theta
    else:
        _require(args.data is not None, f"{args.what} requires --data")
        theta = _fit_report(args).theta_hat
    values = (fam.pdf if args.what.startswith("pdf") else fam.cdf)(spec, theta, xs)
    rows = [(float(x), float(v)) for x, v in zip(xs, values)]
    return _emit(_csv(["x", "value"], rows), args), 0


_TABLE_TARGETS = {t.formula: t for t in oracle.REGISTRY.values()}


def _cmd_table(args) -> tuple[list[dict], int]:
    _require(args.theta is not None, "table requires --theta")
    _require(not args.as_printed or args.formula == "MSE-pdf",
             "--as-printed applies only to --formula MSE-pdf")
    sizes = _parse_sizes(args.sizes)
    target = _TABLE_TARGETS[args.formula]
    spec = None
    if target.needs_x:
        _require(args.family is not None, f"{args.formula} requires --family")
        _require(args.x is not None, f"{args.formula} requires --x")
        spec = fam.resolve_family(args.family)
    else:
        _require(args.family is None and args.x is None,
                 f"--family and --x do not apply to --formula {args.formula}")
    options = {"as_printed": True} if args.as_printed else {}
    rows = []
    for size in sizes:
        if target.series is None:  # alpha-n: the exponential theta^2 / n, exact
            value = closedform.alpha_n_exponential(args.theta, size)
            sv = closedform.SeriesValue(value, 1, True, closedform.ASYMPTOTIC_OK)
        else:
            sv = target.series(spec, args.theta, args.x, size, args.k, **options)
        rows.append((size, sv.value, sv.in_natural_bounds, sv.regime_note))
    return _emit(_csv(["size", "value", "in_bounds", "regime"], rows), args), 0


# ---------------------------------------------------------------------------
# verify suites


def _check(name: str, passed: bool, **data) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update(data)
    return entry


def _suite(name: str, checks: list[dict], **meta) -> dict:
    """One suite record; every suite runs on the exponential member at theta = 1."""
    return {"suite": name, "family": "exponential", "theta": 1.0, **meta,
            "checks": checks, "passed": all(c["passed"] for c in checks)}


def _series_vs_exact(target: str) -> dict:
    """A target's size-200 series at x = 1 against its exact value, within 1e-3."""
    entry, spec = oracle.REGISTRY[target], fam.make_exponential()
    series = entry.series(spec, 1.0, 1.0, 200, None).value
    exact = entry.exact(spec, 1.0, 1.0, 200, None)
    return _check(
        f"{target.removesuffix('_hat')}_series_vs_exact_size200",
        abs(series - exact) < 1e-3,
        series=series,
        exact=exact,
        abs_error=abs(series - exact),
        tolerance=1e-3,
    )


def _suite_theorem1(seed: int, workers: int) -> dict:
    """Sample-based and record-based estimators share one law at n = m."""
    size, reps, x = 5, 20_000, math.log(2.0)
    cfg_s = oracle.ExperimentConfig(
        "exponential", 1.0, (size,), (x,), reps=reps, seed=mix_seed_stream(seed, 1)
    )
    cfg_r = oracle.ExperimentConfig(
        "exponential", 1.0, (size,), (x,), reps=reps, seed=mix_seed_stream(seed, 2)
    )
    checks = []
    for stat, label in (("theta_hat", "ks_theta_hat"), ("cdf_hat", "ks_cdf_hat_at_log2")):
        a = oracle.mc_statistic_array(cfg_s, "sample", stat, workers)
        b = oracle.mc_statistic_array(cfg_r, "records_direct", stat, workers)
        d = oracle.ks_two_sample(a, b)
        checks.append(_check(label, d < 0.02, statistic=d, threshold=0.02))
    return _suite("theorem1", checks, size=size, reps_per_arm=reps)


def _suite_example1(seed: int, workers: int) -> dict:
    """MC MSE of theta_hat against theta^2/n, sample and record versions."""
    reps = 200_000
    checks = []
    sample_reports = {}
    for idx, n in enumerate((5, 10, 20)):
        cfg = oracle.ExperimentConfig(
            "exponential", 1.0, (n,), reps=reps, seed=mix_seed_stream(seed, 10 + idx)
        )
        rep = oracle.mc_estimate(cfg, "MSE_theta_hat", "sample", workers)
        sample_reports[n] = rep
        expected = closedform.alpha_n_exponential(1.0, n)
        rel = abs(rep.mc_value - expected) / expected
        checks.append(
            _check(
                f"mse_theta_sample_n{n}",
                rel <= 0.03,
                mc_value=rep.mc_value,
                mc_stderr=rep.mc_stderr,
                expected=expected,
                rel_error=rel,
                tolerance=0.03,
            )
        )
    cfg_r = oracle.ExperimentConfig(
        "exponential", 1.0, (10,), reps=reps, seed=mix_seed_stream(seed, 20)
    )
    rep_r = oracle.mc_estimate(cfg_r, "MSE_theta_hat", "records_direct", workers)
    rep_s = sample_reports[10]
    gap = abs(rep_r.mc_value - rep_s.mc_value)
    bound = 2.0 * math.hypot(rep_r.mc_stderr, rep_s.mc_stderr)
    checks.append(
        _check(
            "mse_records_m10_vs_sample_n10",
            gap <= bound,
            records_value=rep_r.mc_value,
            sample_value=rep_s.mc_value,
            gap=gap,
            bound=bound,
        )
    )
    return _suite("example1", checks, reps=reps)


def _suite_theorem3(seed: int, workers: int) -> dict:
    """Truncated mean series against exact quadrature, plus the size-2 defect."""
    spec = fam.make_exponential()
    defect = closedform.expected_cdf_hat_series(spec, 1.0, 0.8, 2)
    exact_defect = oracle.exact_expected_cdf_hat(spec, 1.0, 0.8, 2)
    checks = [
        _series_vs_exact("E_cdf_hat"),
        _series_vs_exact("E_pdf_hat"),
        _check(
            "size2_truncation_defect_detected",
            abs(defect.value - 1.6) < 1e-12
            and not defect.in_natural_bounds
            and 0.0 < exact_defect < 1.0,
            series=defect.value,
            in_natural_bounds=defect.in_natural_bounds,
            regime_note=defect.regime_note,
            exact=exact_defect,
        ),
    ]
    return _suite("theorem3", checks)


def _suite_theorem4(seed: int, workers: int) -> dict:
    """MSE series against exact quadrature; adjudicates the cross-term sign."""
    spec = fam.make_exponential()
    default = closedform.mse_pdf_hat_series(spec, 1.0, 1.0, 200)
    printed = closedform.mse_pdf_hat_series(spec, 1.0, 1.0, 200, as_printed=True)
    exact_p = oracle.exact_mse_pdf_hat(spec, 1.0, 1.0, 200)
    checks = [
        _series_vs_exact("MSE_cdf_hat"),
        _check(
            "MSE_pdf_sign_adjudication_size200",
            abs(default.value - exact_p) < 2e-3,
            default_form=default.value,
            exact=exact_p,
            abs_error=abs(default.value - exact_p),
            tolerance=2e-3,
            as_printed_form=printed.value,
            as_printed_gap=abs(printed.value - exact_p),
        ),
    ]
    return _suite("theorem4", checks)


def _suite_theorem5(seed: int, workers: int) -> dict:
    """Bias of the exact estimator means vanishes with size at the median."""
    spec = fam.make_exponential()
    x = math.log(2.0)
    f_true, big_f = 0.5, 0.5
    sizes = (2, 5, 20, 100)
    gaps_cdf = [
        abs(oracle.exact_expected_cdf_hat(spec, 1.0, x, s) - big_f) for s in sizes
    ]
    gaps_pdf = [
        abs(oracle.exact_expected_pdf_hat(spec, 1.0, x, s) - f_true) for s in sizes
    ]
    checks = [
        _check(
            "cdf_bias_strictly_decreasing",
            all(b < a for a, b in zip(gaps_cdf, gaps_cdf[1:])),
            sizes=list(sizes),
            gaps=gaps_cdf,
        ),
        _check(
            "cdf_bias_small_at_100", gaps_cdf[-1] < 0.01, gap=gaps_cdf[-1], tolerance=0.01
        ),
        _check(
            "pdf_bias_strictly_decreasing",
            all(b < a for a, b in zip(gaps_pdf, gaps_pdf[1:])),
            sizes=list(sizes),
            gaps=gaps_pdf,
        ),
        _check(
            "pdf_bias_small_at_100",
            gaps_pdf[-1] < 0.01 * f_true,
            gap=gaps_pdf[-1],
            tolerance=0.01 * f_true,
        ),
    ]
    return _suite("theorem5", checks, x=x)


def _suite_consistency(seed: int, workers: int) -> dict:
    """Exceedance probability of the record MLE shrinks with the record count."""
    spec = fam.make_exponential()
    curve = oracle.consistency_curve(
        spec, 1.0, 0.2, (5, 20, 80), 20_000, mix_seed_stream(seed, 60),
        source="records_direct", workers=workers,
    )
    probs = [p for _, p in curve]
    checks = [
        _check(
            "exceedance_strictly_decreasing",
            all(b < a for a, b in zip(probs, probs[1:])),
            curve=[[s, p] for s, p in curve],
        ),
        _check("final_below_quarter", probs[-1] < 0.25, final=probs[-1], tolerance=0.25),
    ]
    return _suite("consistency", checks, eps=0.2, reps=20_000)


_SUITES = {
    "theorem1": _suite_theorem1,
    "example1": _suite_example1,
    "theorem3": _suite_theorem3,
    "theorem4": _suite_theorem4,
    "theorem5": _suite_theorem5,
    "consistency": _suite_consistency,
}


def _cmd_verify(args) -> tuple[list[dict], int]:
    _require(args.seed is not None, "verify requires --seed")
    _require(args.workers >= 1, f"--workers must be at least 1, got {args.workers}")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    results = [_SUITES[name](int(args.seed), args.workers) for name in names]
    passed = all(r["passed"] for r in results)
    if args.json:
        text = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in results)
    else:
        text = json.dumps({"seed": int(args.seed), "suites": results, "passed": passed},
                          indent=2) + "\n"
    return _emit(text, args), 0 if passed else 1


# ---------------------------------------------------------------------------
# parser and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recordmle",
        description="MLE and plug-in distribution estimates from samples and "
        "upper records, with series and oracle cross-checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--manifest", action="store_true",
                       help="print a run manifest (with digests) to stderr")
        p.add_argument("--config", help="flat key=value file supplying default flags")
        if seed:
            p.add_argument("--seed", type=int, help="64-bit seed (required)")

    p = sub.add_parser("families", help="list builtin families")
    p.add_argument("--json", action="store_true")
    common(p)

    p = sub.add_parser("simulate", help="draw a sample or record sequence as CSV")
    p.add_argument("--family")
    p.add_argument("--theta", type=float)
    p.add_argument("--n", type=int, help="i.i.d. sample size")
    p.add_argument("--records", type=int, help="number of upper records")
    p.add_argument("--records-mode", choices=("direct", "sequential"), default="direct")
    common(p, seed=True)

    p = sub.add_parser("fit", help="maximum-likelihood fit from a CSV value column")
    p.add_argument("--family")
    p.add_argument("--data", help="CSV file with a 'value' column")
    p.add_argument("--records", action="store_true",
                   help="extract upper records first and fit from them")
    common(p)

    p = sub.add_parser("eval", help="evaluate pdf/cdf or their plug-in estimates on a grid")
    p.add_argument("--family")
    p.add_argument("--what", choices=("pdf", "cdf", "pdf-hat", "cdf-hat"), required=True)
    p.add_argument("--grid", required=True, help="lo:hi:count")
    p.add_argument("--theta", type=float)
    p.add_argument("--data", help="CSV input for the plug-in variants")
    p.add_argument("--records", action="store_true",
                   help="plug-in variants fit from extracted records")
    common(p)

    p = sub.add_parser("table", help="closed-form series across a size sweep as CSV")
    p.add_argument("--formula", required=True, choices=tuple(_TABLE_TARGETS))
    p.add_argument("--sizes", required=True, help="'a..b' inclusive or 'a,b,c'")
    p.add_argument("--family")
    p.add_argument("--theta", type=float)
    p.add_argument("--x", type=float, help="evaluation point for the cdf/pdf formulas")
    p.add_argument("--k", type=float, default=math.e, help="base of the power target")
    p.add_argument("--as-printed", action="store_true", dest="as_printed",
                   help="evaluate the circulating MSE-pdf variant instead of the default")
    common(p)

    p = sub.add_parser("verify", help="run verification suites and report pass/fail")
    p.add_argument("--suite", default="all",
                   choices=("theorem1", "example1", "theorem3", "theorem4",
                            "theorem5", "consistency", "all"))
    p.add_argument("--json", action="store_true",
                   help="one compact JSON object per suite instead of one report")
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads for replication blocks")
    common(p, seed=True)

    return parser


_DISPATCH = {
    "families": _cmd_families,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    start = datetime.now(timezone.utc).isoformat()
    raw = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_expand_config(raw))
        outputs, code = _DISPATCH[args.command](args)
    except RecordMleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "manifest", False):
        flags = {
            k: v for k, v in sorted(vars(args).items()) if k not in ("command", "manifest")
        }
        manifest = {
            "subcommand": args.command,
            "flags": flags,
            "seed": getattr(args, "seed", None),
            "version": __version__,
            "started": start,
            "finished": datetime.now(timezone.utc).isoformat(),
            "outputs": outputs,
        }
        print(json.dumps(manifest, indent=2), file=sys.stderr)
    return code
