"""Command-line front end: families | simulate | fit | eval | table | verify.

Each subcommand checks its flags, calls the library and emits the result;
``verify`` prints the records of the suites in :mod:`recordmle.verify`.

Every randomized subcommand requires --seed; given the same flags and seed
the byte output is identical across runs and worker counts on one host:
the same bytes hold for one numpy build at one SIMD dispatch level, whose
transcendental kernels may round the last bit differently. Numbers are
printed as shortest round-trip decimals, CSV is UTF-8 with LF endings and
a mandatory header, JSON uses a fixed key order. Run manifests (flag set,
version, timestamps, FNV-1a digests of outputs) go to stderr when
--manifest is passed, never to stdout, so stdout stays reproducible.
The digest is FNV-1a 64 computed by a blocked numpy kernel
(:func:`_fnv1a64`) that gives the per-byte definition bit for bit: it uses
only integer operations that wrap mod 2**64 or mod 256, so it is exact and
its value does not depend on the host or its SIMD level.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, estimate
from . import family as fam
from . import oracle, records, verify
from .errors import ArgumentError, RecordMleError

__all__ = ["main"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
# bytes per block of the digest: its working set stays a few hundred KiB
_FNV_BLOCK = 1 << 16


def _xor_scan(flags: np.ndarray) -> np.ndarray:
    """Inclusive prefix XOR of a uint8 array of zero/nonzero flags, as 0/1 uint8.

    Packs 64 flags to a little-endian word, scans inside each word by
    shift-and-XOR, then flips every word after an odd count of set flags.
    """
    n = flags.size
    words = np.zeros(-(-n // 64), dtype="<u8")
    words.view(np.uint8)[: -(-n // 8)] = np.packbits(flags, bitorder="little")
    for shift in (1, 2, 4, 8, 16, 32):
        words ^= words << shift
    carry = np.bitwise_xor.accumulate(words >> 63)
    words[1:] ^= np.uint64(0) - carry[:-1]
    return np.unpackbits(words.view(np.uint8), count=n, bitorder="little")


def _fnv1a64(data: bytes) -> str:
    """FNV-1a 64 of ``data`` as 16 hex digits: h = ((h ^ b) * P) mod 2**64 per byte.

    Computed a block of bytes at a time. P = 0x100000001B3 is 0xB3 mod 256,
    so the low byte l of the state runs on its own, l' = ((l ^ b) * 0xB3)
    mod 256; bit k of l' is bit k of l ^ b XOR bit k of ((l ^ b) mod 2**k)
    * 0xB3, so each bit of l, at every position of the block, is one prefix
    XOR once the lower bits are known. Then h ^ b = h + d with d = (l ^ b) - l,
    and the block of L bytes maps h to h * P**L + sum(d_i * P**(L - i)),
    one uint64 dot product against the powers of P.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    # powers[j] = P**(j + 1) mod 2**64: uint64 products wrap
    powers = np.multiply.accumulate(
        np.full(min(buf.size, _FNV_BLOCK), _FNV_PRIME, dtype=np.uint64))
    h = _FNV_OFFSET
    for start in range(0, buf.size, _FNV_BLOCK):
        b = buf[start:start + _FNV_BLOCK]
        n = b.size
        x = np.zeros(n, dtype=np.uint8)  # l ^ b at each position, one bit per pass
        t = np.empty(n, dtype=np.uint8)
        for k in range(8):
            bit = 1 << k
            # bit k flips from one position to the next by bit k of b ^ x * 0xB3
            t[0] = h & bit
            np.multiply(x[:-1], 0xB3, out=t[1:])
            t[1:] ^= b[:-1]
            t &= bit
            x |= ((_xor_scan(t) << k) ^ b) & bit
        d = (x.astype(np.int16) - (x ^ b)).astype(np.uint64)
        h = (h * int(powers[n - 1]) + int(np.dot(d, powers[n - 1::-1]))) & _MASK64
    return f"{h:016x}"


def _csv(header: list[str], lines: list[str]) -> str:
    """The header and the already formatted ``lines``, one per row."""
    return "\n".join([",".join(header), *lines]) + "\n"


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
        # every observation, as for a sample: one below the running maximum is no record
        estimate._check_support(spec, values)
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
    lines = [f"{float(x)!r},{float(v)!r}" for x, v in zip(xs, values)]
    return _emit(_csv(["x", "value"], lines), args), 0


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
    lines = [f"{size},{sv.value!r},{'true' if sv.in_natural_bounds else 'false'},"
             f"{sv.regime_note}" for size, sv in
             zip(sizes, target.sweep(spec, args.theta, args.x, sizes, args.k, **options))]
    return _emit(_csv(["size", "value", "in_bounds", "regime"], lines), args), 0


def _cmd_verify(args) -> tuple[list[dict], int]:
    _require(args.seed is not None, "verify requires --seed")
    _require(args.workers >= 1, f"--workers must be at least 1, got {args.workers}")
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    results = [verify.run(name, args.seed, args.workers) for name in names]
    passed = all(r["passed"] for r in results)
    if args.json:
        text = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in results)
    else:
        text = json.dumps({"seed": int(args.seed), "suites": results, "passed": passed},
                          indent=2) + "\n"
    return _emit(text, args), 0 if passed else 1


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache
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
    p.add_argument("--suite", default="all", choices=(*verify.SUITES, "all"))
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
    try:
        args = _build_parser().parse_args(argv)
        outputs, code = _DISPATCH[args.command](args)
    except (RecordMleError, OSError) as exc:
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
