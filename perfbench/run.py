"""jsm2lab benchmark: Monte Carlo throughput end to end, and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
its ``src`` directory. The workloads and metrics are those listed in
BENCHMARK.json at the checkout root. With --trace 0 the last stdout line
holds every end-to-end metric, with --trace 1 every per-layer metric,
together with the number of calls attempted and failed and whether all
outputs were correct. The line before it records the machine.

BLAS and OpenMP pools are pinned to one thread in every process, before
numpy is imported, so that --jobs 2 uses at most two cores. Set-up time is
the median over SETUP_PROBES fresh interpreters plus the measuring one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave the checkout as it was
    return env


def run_child(args: list, env: dict, deadline: float) -> dict:
    """Run runner.py with args; return the JSON object on its last stdout line."""
    timeout = max(1.0, deadline - time.monotonic())
    cmd = [sys.executable, str(HERE / "runner.py")] + args
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"runner timed out after {timeout:.0f} s")
    finally:
        # reap any pool worker left behind by a crash
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"runner exited {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def source_digest() -> str:
    """sha256 over the package sources, to name the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "jsm2lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    # on SIGTERM, unwind so that the runner's process group is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "jsm2lab" / "__init__.py").is_file():
        print(f"error: no jsm2lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    deadline = time.monotonic() + DEADLINE_S
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", repr(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_child(common + ["--probe"], env, deadline)["setup_s"])
        raw = run_child(common, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = dict(raw["metrics"])
    if not args.trace:
        setups.append(raw["setup_s"])
        values["setup_s"] = statistics.median(setups)
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    record = dict(raw["record"])
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "threads": {var: env[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "timed_calls": raw["samples"],
        "setup_samples_s": setups,
        "error_rate": raw["failed"] / raw["attempted"],
        "problems": raw["problems"],
        "notes": raw["notes"],
    })
    for key in ("unwrapped", "meter_errors"):
        if raw.get(key):
            record[key] = raw[key]
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{'error_rate':45s} {record['error_rate']:.6g} ratio", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
