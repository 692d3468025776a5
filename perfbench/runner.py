"""One measurement of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/runner.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR [--probe]

Set-up (importing the package and the workload's warm-up call) is timed
first. With --probe the runner prints that time and exits; otherwise it
runs timed calls until their summed wall time reaches --seconds, checks
every call's output, and prints one JSON object as its last stdout line.
With --trace 1 untraced and traced calls alternate; the traced ones give
the per-layer metrics and the untraced ones the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def machine_record() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def measure(workload, seconds: float, trace: bool, prepare_problems: list) -> dict:
    import numpy as np

    from tracer import Tracer, layer_metrics

    tracer = Tracer() if trace else None
    walls, cpus, traced_walls = [], [], []
    traced_trials = 0
    traced_bytes = 0
    failed = 0
    problems_seen = []
    measured = 0.0
    i = 0
    while measured < seconds or (trace and not (walls and traced_walls)):
        traced = trace and i % 2 == 1
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with tracer.active() if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                output = workload.call(i)
                t1 = time.perf_counter()
            c1 = cpu_seconds()
            try:
                problems = workload.check(i, output)
            except Exception as exc:  # a check that cannot run is a failure too
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        except Exception as exc:  # an operation that raises counts as failed
            t1 = time.perf_counter()
            c1 = cpu_seconds()
            output, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        if i == 0:
            problems = prepare_problems + problems
        measured += t1 - t0
        if traced:
            traced_walls.append(t1 - t0)
            traced_trials += workload.trials_per_op
            if output is not None:
                traced_bytes += workload.output_bytes(output)
        else:
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
        if problems:
            failed += 1
            problems_seen.extend(f"call {i}: {p}" for p in problems)
        i += 1

    result = {
        "attempted": i,
        "failed": failed,
        "problems": problems_seen[:20],
        "notes": workload.notes,
    }
    median_wall = float(np.median(walls))
    if not trace:
        result["metrics"] = {
            "wall_s": median_wall,
            "trials_per_s": workload.trials_per_op / median_wall,
            "draws_per_s": workload.draws_per_op / median_wall,
            "cpu_s": float(np.median(cpus)),
            "peak_rss_mb": peak_rss_mb(),
        }
        result["samples"] = len(walls)
        return result

    ops = len(traced_walls)
    metrics = layer_metrics(tracer.summary(), ops, sum(traced_walls), traced_trials)
    metrics.update({"montecarlo.fanout_overhead_s": 0.0, "montecarlo.fanout_efficiency": 0.0})
    metrics.update(workload.trace_extras(walls))
    metrics["cli.output_bytes"] = traced_bytes / ops
    metrics["trace.overhead_pct"] = 100.0 * (float(np.median(traced_walls)) / median_wall - 1.0)
    result["metrics"] = metrics
    result["samples"] = ops
    result["unwrapped"] = tracer.missing
    result["meter_errors"] = tracer.meter_errors
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import jsm2lab.cli  # noqa: F401  (imports every layer, numpy and scipy)

    setup = time.perf_counter() - start
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.workdir)
    start = time.perf_counter()
    workload.warmup()
    setup += time.perf_counter() - start
    if args.probe:
        print(json.dumps({"setup_s": setup}))
        return 0

    prepare_problems = workload.prepare(args.seed)
    result = measure(workload, args.seconds, bool(args.trace), prepare_problems)
    result["setup_s"] = setup
    result["record"] = machine_record()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
