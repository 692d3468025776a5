"""Collect a set of benchmark runs per checkout into BENCH_<label>.json.

    python3 tools/bench_set.py --runs 10 --out-dir . PARENT=/path/a CHANGE=/path/b

The two LABEL=CHECKOUT arguments name the parent and the changed source
checkout, each with its own perfbench/. For every workload in
BENCHMARK.json, run i (seed i, from 1 to --runs) runs
``python3 perfbench/run.py --trace 0`` once in each checkout, the parent
first on odd i and the change first on even i, so that neither side always
runs first on a drifting host. Run length is the benchmark's run_seconds.

BENCH_<label>.json holds, per workload, the record and result line of every
run and, per end-to-end metric, the median and the quartiles of the runs,
together with the checkout's commit, a sha256 of its benchmarked source
files (read without git, so that a checkout outside git is named too) and
the machine's core count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List


def git_commit(checkout: Path) -> str:
    """HEAD of the checkout, with "+dirty" when tracked files differ from it."""
    head = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    if head.returncode != 0:
        return "unknown"
    dirty = subprocess.run(
        ["git", "-C", str(checkout), "diff", "--quiet", "HEAD"], capture_output=True
    )
    return head.stdout.strip() + ("+dirty" if dirty.returncode else "")


# The files whose bytes decide what a benchmark run measures.
SOURCE_GLOBS = ("src/jsm2lab/*.py", "perfbench/*.py", "BENCHMARK.json")


def source_sha256(checkout: Path) -> str:
    """sha256 over the checkout's SOURCE_GLOBS files in order of relative path."""
    files = sorted(p.relative_to(checkout).as_posix() for g in SOURCE_GLOBS for p in checkout.glob(g))
    digest = hashlib.sha256()
    for rel in files:
        data = (checkout / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> Dict:
    """One benchmark run; returns its record line and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        )
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: List[Dict]) -> Dict[str, Dict]:
    """Median and quartiles of every end-to-end metric over the runs."""
    names = runs[0]["result"]["metrics"]
    out = {}
    for name, first in names.items():
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        out[name] = dict(quartiles(values), unit=first["unit"])
    out["failed"] = {"total": sum(run["result"]["failed"] for run in runs),
                     "attempted": sum(run["result"]["attempted"] for run in runs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="LABEL=CHECKOUT", help="the parent checkout")
    parser.add_argument("change", metavar="LABEL=CHECKOUT", help="the changed checkout")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2 to give quartiles")
    seeds = range(1, args.runs + 1)
    sides = []
    for item in (args.parent, args.change):
        label, sep, path = item.partition("=")
        checkout = Path(path).resolve()
        if not sep or not label or not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"expected LABEL=CHECKOUT with perfbench/run.py, got {item!r}")
        sides.append((label, checkout))
    # Both refusals come before the first run: the files are written only
    # after every run of the set.
    if sides[0][0] == sides[1][0]:
        parser.error(f"the two labels must differ, got {sides[0][0]!r} twice")
    if not Path(args.out_dir).is_dir():
        parser.error(f"--out-dir {args.out_dir!r} is not a directory")

    spec = json.loads((sides[0][1] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {label: {w: [] for w in workloads} for label, _ in sides}
    for workload in workloads:
        for seed in seeds:
            order = sides if seed % 2 else sides[::-1]
            for position, (label, checkout) in enumerate(order):
                start = time.monotonic()
                run = run_once(checkout, workload, seed, spec["run_seconds"])
                run.update(seed=seed, position=position)
                runs[label][workload].append(run)
                metrics = run["result"]["metrics"]
                print(f"{workload} seed {seed} {label}: "
                      f"trials_per_s {metrics['trials_per_s']['value']:.6g}, "
                      f"failed {run['result']['failed']} ({time.monotonic() - start:.0f} s)",
                      file=sys.stderr)

    for label, checkout in sides:
        doc = {
            "format": "jsm2lab-bench-set-1",
            "label": label,
            "commit": git_commit(checkout),
            "source_sha256": source_sha256(checkout),
            "nproc": os.cpu_count(),
            "command": "python3 perfbench/run.py --workload W --seed N "
                       f"--seconds {spec['run_seconds']} --trace 0",
            "runs_per_workload": args.runs,
            "seeds": list(seeds),
            "first_on_odd_seeds": sides[0][0],
            "workloads": {
                w: {"summary": summarize(runs[label][w]), "runs": runs[label][w]}
                for w in workloads
            },
        }
        path = Path(args.out_dir) / f"BENCH_{label}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
