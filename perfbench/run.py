"""Benchmark of szego: the spectral map, its inverse and the cubic Szego flow.

Run from the repository root:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Workloads: roundtrip, large_n, flow (see perfbench/README.md).  Each run
starts perfbench/worker.py in fresh processes with one BLAS and one
OpenMP thread: two that only set up, then one that sets up, warms up,
times whole rounds of operations for at least --seconds and checks every
output.  setup_s is the median of the three set-up times, each from
process start to inputs ready.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer ones with --trace 1.  Raw per-operation times
and, when traced, every span go to perfbench/results/.  Exits non-zero,
printing no result, when the package sources are missing or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("roundtrip", "large_n", "flow")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class WorkerError(RuntimeError):
    pass


def spawn(args: list, deadline: float):
    """Run the worker to completion; return its result and its set-up time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    result = json.loads(lines[-1])
    return result, result["ready"] - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="szego benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "szego" / "__init__.py").is_file():
        print(f"no szego sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(common + ["--setup-only"], deadline)[1])
        timed = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            timed += ["--spans", str(RESULTS / f"{stem}-spans.json")]
        run, setup = spawn(common + timed, deadline)
        setups.append(setup)
    except WorkerError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = run["per_layer"]
    else:
        metrics = dict(run["end_to_end"], setup_s=(statistics.median(setups), "s"))
    missing = [name for name, (value, _) in metrics.items() if value is None]
    if missing:
        print(f"no value for {missing} ({run['tail_kind']})", file=sys.stderr)
        return 1
    raw = dict(run, setups_s=setups, seconds=args.seconds, trace=args.trace)
    (RESULTS / f"{stem}.json").write_text(json.dumps(raw))
    for problem in run["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
