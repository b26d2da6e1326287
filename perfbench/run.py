"""Run one workload of the recordmle benchmark and print its metrics.

    python3 perfbench/run.py --workload data-path --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. Each run sets up (imports, inputs, one warm-up round,
the latter two repeated), then runs whole rounds of the workload's
operations until ``--seconds`` have passed, checking every output against
an independent reference. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import time

_T0 = time.perf_counter()

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys


def _process_age() -> float:
    """Seconds since this process started (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE_AT_T0 = _process_age()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 2


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop; tells a slow host from a slow program."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def run_round(ops, tracer, tally) -> float:
    """Run and check one round; returns the summed time of its calls."""
    spent = 0.0
    if tracer is not None:
        tracer.begin_round()
    for op in ops:
        start = time.perf_counter()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a failed operation, reported by name and cause
            result, error = None, exc
        spent += time.perf_counter() - start
        tally["attempted"] += 1
        if error is not None:
            reason = f"{type(error).__name__}: {error}"
        else:
            try:
                reason = op.check(result)
            except Exception as exc:  # an output the referee cannot even read
                reason = f"unreadable output ({type(exc).__name__}: {exc})"
            if reason is not None:
                tally["wrong"] += 1
        if reason is not None:
            tally["failed"] += 1
            tally["reasons"][(op.name, reason)] = tally["reasons"].get((op.name, reason), 0) + 1
    if tracer is not None:
        tracer.end_round()
    return spent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "recordmle", "__init__.py")):
        print(f"error: no recordmle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import recordmle
    import recordmle.cli

    if os.path.dirname(os.path.abspath(recordmle.__file__)) != os.path.join(SRC, "recordmle"):
        print(f"error: recordmle imported from {recordmle.__file__}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    import_s = _AGE_AT_T0 + time.perf_counter() - _T0

    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = None
    restore = None
    if args.trace:
        tracer = Tracer()
        restore = tracer.install(recordmle)
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            for op in build(recordmle, workdir, workloads.round_rng(args.workload, args.seed, -1 - i)):
                try:
                    op.call()
                except Exception:  # warm-up only; the same call is counted when timed
                    pass
            setups.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.spans.clear()
        reference = statistics.median(reference_loop() for _ in range(3))

        tally = {"attempted": 0, "failed": 0, "wrong": 0, "reasons": {}}
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            ops = build(recordmle, workdir,
                        workloads.round_rng(args.workload, args.seed, len(rounds)))
            gc.collect()
            rounds.append(run_round(ops, tracer, tally))
    finally:
        if restore is not None:
            restore()
        shutil.rmtree(workdir, ignore_errors=True)

    round_s = statistics.median(rounds)
    print(f"# workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"round_s {round_s:.6f}, reference loop {reference:.6f} s "
          f"(pure Python, no recordmle code)")
    print("# rounds_s " + " ".join(f"{t:.4f}" for t in rounds))
    for (name, reason), times in sorted(tally["reasons"].items()):
        print(f"# failed x{times}: {name}: {reason}")
    if tracer is not None:
        path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "round_s": rounds})
        print(f"# traced round_s {round_s:.6f}; spans written to {os.path.relpath(path, ROOT)}")
        metrics = tracer.metrics()
    else:
        metrics = {
            "round_s": {"value": round_s, "unit": "s"},
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": tally["wrong"] == 0, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
