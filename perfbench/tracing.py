"""Spans and counters around recordmle's public functions, for traced runs.

``Tracer.install`` replaces module attributes with timing wrappers and
returns a function that puts the originals back. The program looks these
names up at call time, so calls the CLI and the library make into one
another are caught as well as the benchmark's own. Spans (name, start, end,
parent) and counters stay in memory until ``write``.
"""

from __future__ import annotations

import collections
import dataclasses
import inspect
import json
import re
import statistics
import time
from typing import Callable

# span name -> per-layer metric that reports its self time
SPAN_METRICS = {
    "cli": "cli.self_s",
    "records.sample_iid": "records.sample_iid_s",
    "records.serialize_csv": "records.serialize_csv_s",
    "records.parse_csv_values": "records.parse_csv_values_s",
    "records.extract_upper_records": "records.extract_upper_records_s",
    "records.sequential": "records.sequential_s",
    "estimate.mle_sample": "estimate.mle_s",
    "estimate.mle_records": "estimate.mle_s",
    "family.quantile": "family.quantile_s",
    "family.cdf_pdf": "family.cdf_pdf_s",
    "closedform.series": "closedform.series_s",
    "quadrature": "quadrature.s",
    "oracle.mc": "oracle.mc_s",
}
# counters reported as they stand after the first timed round
COUNT_METRICS = (
    "records.sequential_draws",
    "records.cap_hits",
    "quadrature.integrand_evals",
    "quadrature.generations",
    "oracle.rep_failures",
)
# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(m, "s", "lower") for m in dict.fromkeys(SPAN_METRICS.values())]
    + [("records.sequential_draws", "count", "lower"),
       ("records.cap_hits", "count", "lower"),
       ("estimate.A_calls_per_row", "calls/row", "lower"),
       ("closedform.ns_per_term", "ns/term", "lower"),
       ("quadrature.integrand_evals", "count", "lower"),
       ("quadrature.generations", "count", "lower"),
       ("oracle.reps_per_s", "reps/s", "higher"),
       ("oracle.rep_failures", "count", "lower")]
)

_SERIES = ("w_alpha_series", "expected_cdf_hat_series", "expected_pdf_hat_series",
           "mse_cdf_hat_series", "mse_pdf_hat_series", "mse_g_power_series")
_FAILED_REPS = re.compile(r"(\d+) of \d+ replications failed")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []  # indices of the spans now open
        self.counters = collections.Counter()
        self.rounds: list[tuple[int, int, dict]] = []  # span range and counters
        self._round_start = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None, error=None):
        """``fn`` recorded as a span; hooks see (args, kwargs[, result or error])."""

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if error is not None:
                    error(exc)
                raise
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def begin_round(self) -> None:
        self._round_start = len(self.spans)
        self.counters.clear()

    def end_round(self) -> None:
        self.rounds.append((self._round_start, len(self.spans), dict(self.counters)))

    # -- installation ------------------------------------------------------

    def install(self, rm) -> Callable[[], None]:
        """Wrap the public functions of the recordmle package ``rm``."""
        cli, records, estimate, family = rm.cli, rm.records, rm.estimate, rm.family
        closedform, oracle = rm.closedform, rm.oracle
        count = self.counters
        saved = []

        def patch(module, attr, wrapper):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

        def simple(module, attr, name, **hooks):
            patch(module, attr, self.wrap(name, getattr(module, attr), **hooks))

        simple(cli, "main", "cli")
        for attr in ("sample_iid", "serialize_csv", "parse_csv_values",
                     "extract_upper_records"):
            simple(records, attr, f"records.{attr}")

        def cap_hit(exc):
            if isinstance(exc, rm.RecordCapError):
                count["records.cap_hits"] += 1

        sequential = self.wrap("records.sequential", records.sample_records_sequential,
                               error=cap_hit)
        patch(records, "sample_records_sequential", sequential)
        patch(oracle, "sample_records_sequential", sequential)

        # calls of the resolved specs' A, read around each sample MLE
        a_calls = [0]
        mark = [0]

        def rows(args, kwargs):
            count["estimate.rows"] += args[1].n
            mark[0] = a_calls[0]

        def a_used(args, kwargs, out):
            count["estimate.A_calls"] += a_calls[0] - mark[0]

        simple(estimate, "mle_theta_sample", "estimate.mle_sample", before=rows, after=a_used)
        simple(estimate, "mle_theta_records", "estimate.mle_records")

        def draws(args, kwargs):
            # the sequential sampler calls family.quantile directly
            if self.stack and self.spans[self.stack[-1]][0] == "records.sequential":
                count["records.sequential_draws"] += int(getattr(args[2], "size", 1))

        simple(family, "quantile", "family.quantile", before=draws)
        simple(family, "cdf", "family.cdf_pdf")
        simple(family, "pdf", "family.cdf_pdf")

        resolve = family.resolve_family

        def resolve_counting(text):
            spec = resolve(text)
            a = spec.A

            def counted_a(x):
                a_calls[0] += 1
                return a(x)

            return dataclasses.replace(spec, A=counted_a)

        patch(family, "resolve_family", resolve_counting)

        def terms(args, kwargs, out):
            count["closedform.terms"] += out.terms_used

        for attr in _SERIES:
            simple(closedform, attr, "closedform.series", after=terms)

        def generations(args, kwargs, out):
            count["quadrature.generations"] += out.generations

        quad = self.wrap("quadrature", oracle.integrate_unit_interval, after=generations)

        def quad_counting(f, *args, **kwargs):
            def counted_f(s):
                count["quadrature.integrand_evals"] += 1
                return f(s)

            return quad(counted_f, *args, **kwargs)

        patch(oracle, "integrate_unit_interval", quad_counting)

        def reps_of(fn, key, times=None):
            sig = inspect.signature(fn)

            def before(args, kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                n = bound[key].reps if key == "config" else int(bound[key])
                count["oracle.reps"] += n * (len(bound[times]) if times else 1)

            return before

        def mc_failures(args, kwargs, out):
            count["oracle.rep_failures"] += out.failures

        def mc_error(exc):
            found = _FAILED_REPS.search(str(exc))
            if isinstance(exc, rm.ReplicationFailureError) and found:
                count["oracle.rep_failures"] += int(found.group(1))

        simple(oracle, "mc_estimate", "oracle.mc",
               before=reps_of(oracle.mc_estimate, "config"), after=mc_failures,
               error=mc_error)
        simple(oracle, "mc_statistic_array", "oracle.mc",
               before=reps_of(oracle.mc_statistic_array, "config"))
        simple(oracle, "consistency_curve", "oracle.mc",
               before=reps_of(oracle.consistency_curve, "reps", "sizes"))

        def restore():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore

    # -- reporting ---------------------------------------------------------

    def _round_summary(self, lo: int, hi: int) -> tuple[dict, float]:
        """Self time per span name in spans[lo:hi], and inclusive oracle.mc time."""
        child = collections.defaultdict(float)
        for name, start, end, parent in self.spans[lo:hi]:
            if parent >= lo:
                child[parent] += end - start
        self_s = collections.defaultdict(float)
        mc_inclusive = 0.0
        for i in range(lo, hi):
            name, start, end, _ = self.spans[i]
            self_s[name] += end - start - child[i]
            if name == "oracle.mc":  # the MC entry points never call one another
                mc_inclusive += end - start
        return self_s, mc_inclusive

    def metrics(self) -> dict:
        """Every per-layer metric; times are medians over the rounds."""
        per_round = [self._round_summary(lo, hi) for lo, hi, _ in self.rounds]
        counts = [c for _, _, c in self.rounds]
        out = {}
        for metric in dict.fromkeys(SPAN_METRICS.values()):
            spans = [name for name, m in SPAN_METRICS.items() if m == metric]
            out[metric] = statistics.median(sum(s.get(name, 0.0) for name in spans)
                                            for s, _ in per_round)
        out["closedform.ns_per_term"] = statistics.median(
            1e9 * s.get("closedform.series", 0.0) / c["closedform.terms"]
            if c.get("closedform.terms") else 0.0
            for (s, _), c in zip(per_round, counts))
        out["oracle.reps_per_s"] = statistics.median(
            c.get("oracle.reps", 0) / mc if mc > 0 else 0.0
            for (_, mc), c in zip(per_round, counts))
        first = counts[0]
        for metric in COUNT_METRICS:
            out[metric] = first.get(metric, 0)
        rows = first.get("estimate.rows", 0)
        out["estimate.A_calls_per_row"] = first.get("estimate.A_calls", 0) / rows if rows else 0.0
        units = {name: unit for name, unit, _ in PER_LAYER}
        return {name: {"value": out[name], "unit": units[name]} for name, _, _ in PER_LAYER}

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta,
                       "span_fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[n, round(s, 7), round(e, 7), p] for n, s, e, p in self.spans],
                       "rounds": [{"spans": [lo, hi], "counters": c}
                                  for lo, hi, c in self.rounds]}, fh)
