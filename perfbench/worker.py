"""One run of one workload in this process: set up, warm up, time, check.

run.py starts this script in a fresh process with the BLAS and OpenMP
thread counts pinned to one and ``src`` on PYTHONPATH.  The last line of
its standard output is one JSON object: the monotonic clock when the
inputs were ready and, unless ``--setup-only``, the operation counts, the
end-to-end metrics (or the per-layer ones with ``--trace 1``) and the raw
per-operation times.

Outputs are kept until the timed loop ends and are checked afterwards,
so that neither the time nor the peak resident set counts the checks.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import time

from szego.errors import SzegoError

import checks
import workloads
from tracing import Tracer

# op_tail_ms on roundtrip: the 98th percentile, the highest whole
# percentile that keeps ten samples beyond it at 500 samples.  A run goes
# on past --seconds, in whole rounds, until it has that many.
TAIL_PERCENTILE = 98
MIN_BEYOND = 10
MIN_OPS = {"roundtrip": 500, "large_n": 1, "flow": 1}
# Untimed rounds before the loop.  On flow the first round ran ~20 %
# slower than the later ones (first use of the process's memory); on
# large_n one round takes ~25 s, and seeds 1-5 showed no such effect.
WARMUP_ROUNDS = {"roundtrip": 1, "large_n": 0, "flow": 1}


def tail_ms(samples_ms, percentile: float = TAIL_PERCENTILE):
    """Nearest-rank percentile, or None when fewer than ten samples lie beyond it."""
    ordered = sorted(samples_ms)
    rank = math.ceil(len(ordered) * percentile / 100.0)
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def check(workload: str, item, out) -> list:
    if workload == "roundtrip":
        return checks.check_roundtrip(item, out)
    if workload == "large_n":
        return checks.check_large_n(item, out)
    return checks.check_flow(item, out, workloads.HIERARCHY_Y)


def timed_loop(items, op, seconds: float, min_ops: int, tracer=None):
    """Whole rounds until `seconds` have passed and `min_ops` were attempted."""
    times, outputs = [], []
    start = time.perf_counter()
    while True:
        for item in items:
            if tracer is not None:
                tracer.operation = len(times)
            t0 = time.perf_counter()
            try:
                out = op(item)
            except SzegoError as exc:
                out = exc
            times.append(time.perf_counter() - t0)
            outputs.append(out)
        if time.perf_counter() - start >= seconds and len(times) >= min_ops:
            return times, outputs, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file for the trace's spans (with --trace 1)")
    args = parser.parse_args(argv)

    items = workloads.INPUTS[args.workload](args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    op = workloads.OPS[args.workload]
    for item in items * WARMUP_ROUNDS[args.workload]:
        op(item)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        times, outputs, loop_s = timed_loop(items, op, args.seconds,
                                            MIN_OPS[args.workload], tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, failed, done_ms = [], [], []
    for i, out in enumerate(outputs):
        if isinstance(out, SzegoError):
            failed.append(f"operation {i}: {type(out).__name__}: {out}")
            continue
        done_ms.append(1e3 * times[i])
        problems.extend(f"operation {i}: {p}"
                        for p in check(args.workload, items[i % len(items)], out))

    if args.workload == "roundtrip":
        tail = tail_ms(done_ms)
        tail_kind = f"p{TAIL_PERCENTILE} of {len(done_ms)} operations"
    else:
        tail = max(done_ms, default=None)
        tail_kind = f"slowest of {len(done_ms)} operations"
    end_to_end = {
        "ops_per_s": (len(done_ms) / loop_s, "op/s"),
        "op_p50_ms": (statistics.median(done_ms) if done_ms else None, "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    result = {
        "ready": ready,
        "attempted": len(outputs),
        "failed": len(failed),
        "correct": not problems,
        "problems": (failed + problems)[:20],
        "end_to_end": end_to_end,
        "tail_kind": tail_kind,
        "times_ms": [1e3 * t for t in times],
        "loop_s": loop_s,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics(len(outputs))
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "operations": len(outputs),
                           "fields": ["id", "parent", "name", "start_s", "end_s",
                                      "operation"],
                           "spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
