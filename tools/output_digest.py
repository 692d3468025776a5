"""Print sha256 digests of the jsm2lab command outputs whose bytes a refactor must keep.

    python3 tools/output_digest.py CHECKOUT > digests.txt

Runs a fixed set of `jsm2lab` commands against CHECKOUT/src, each in its
own temporary directory, and prints one line per stdout and per --out
file: the sha256, the exit code for a stdout, and a label. Before a sweep
sidecar is hashed its time fields (created_unix, wall_time_s) are dropped.
A '#' line first names the numpy version: the Monte Carlo and verify
bytes depend on numpy. Two checkouts whose output bytes agree
print identical lines, so

    diff <(python3 tools/output_digest.py PARENT) <(python3 tools/output_digest.py CHANGE)

is empty. The set covers the Monte Carlo commands (a sweep over M with two
workers, a sweep over SNR whose grid values are given out of order,
four simulate points, one with redrawn uniform amplitudes, and find-m
with one and two workers), bounds at six points (one where the
necessary measurement count is vacuous, one where the Corollary 2
columns are NaN, one at S=100, where S equal centering energies
square-sum to S alpha*^2, one at x_min^2 = 0.37 and rho = 7, where
Corollary 3's vector count hangs on how its canonical slack is written,
and one at SNR 1e-4, where log(1 + x) - x cancels), verify at three seeds (one at 200,000 samples, one at
the 2,000-sample floor, where a sampler's whole stack is smaller than one
residual batch), two
simulate points at the decoder walk's edge depths: K=1, where the raw
columns are the candidates, and K=5, with four levels of prefixes, and two
simulate points whose walks the score budget cuts into many chunks: 27,405
candidates of two vectors, and 190 candidates of 200 vectors.

tests/test_output_digests.py runs the same set in-process and compares
it with tests/output_digests.txt; a change that moves output bytes on
purpose rewrites that file with

    python3 tools/output_digest.py . > tests/output_digests.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

_SIDECAR_TIME_FIELDS = ("created_unix", "wall_time_s")

# (label, arguments, file written through --out or None)
RUNS: Tuple[Tuple[str, List[str], Optional[str]], ...] = (
    (
        "sweep-m",
        "sweep --n 16 --k 2 --s 2 --snr 10 --trials 1000 --axis m --values 3,4,5,6,7,8,9,10,11"
        " --seed 7 --jobs 2".split(),
        "sweep.csv",
    ),
    (
        "sweep-snr-order",
        "sweep --n 12 --k 2 --m 6 --s 2 --trials 300 --axis snr --values 100,1,10"
        " --seed 7 --jobs 2".split(),
        None,
    ),
    (
        "simulate-n20k3m8s3",
        "simulate --n 20 --k 3 --m 8 --s 3 --snr 10 --trials 1000 --seed 7 --jobs 2".split(),
        "simulate.csv",
    ),
    (
        "simulate-n12k4m6s2",
        "simulate --n 12 --k 4 --m 6 --s 2 --snr 10 --trials 600 --seed 7".split(),
        "simulate.csv",
    ),
    (
        "simulate-n24k4m5s2",
        "simulate --n 24 --k 4 --m 5 --s 2 --snr 10 --trials 300 --seed 7".split(),
        "simulate.csv",
    ),
    (
        "simulate-uniform-redrawn",
        "simulate --n 12 --k 2 --m 6 --s 2 --snr 10 --trials 600 --seed 7"
        " --amplitude uniform --xmax 2 --fix-signal false".split(),
        "simulate.csv",
    ),
    (
        "find-m-jobs1",
        "find-m --n 16 --k 2 --s 4 --snr 100 --trials 1000 --target 0.1 --seed 7 --jobs 1".split(),
        None,
    ),
    (
        "find-m-jobs2",
        "find-m --n 16 --k 2 --s 4 --snr 100 --trials 1000 --target 0.1 --seed 7 --jobs 2".split(),
        None,
    ),
    ("bounds", "bounds --n 64 --k 4 --s 2 --snr 1 --m 5".split(), None),
    ("bounds-vacuous-necessary", "bounds --n 2 --k 1 --m 2 --s 1 --snr 10".split(), None),
    ("bounds-cor2-nan", "bounds --n 64 --k 4 --m 16 --s 2 --snr 0.5".split(), None),
    ("bounds-s100", "bounds --n 6 --k 1 --m 2 --s 100 --snr 1e4 --rho 1.2".split(), None),
    ("bounds-xmin2", "bounds --n 6 --k 1 --m 2 --s 1 --snr 1 --rho 7 --xmin2 0.37".split(), None),
    ("bounds-low-snr", "bounds --n 6 --k 2 --m 4 --s 1 --snr 1e-4".split(), None),
    ("verify", "verify --seed 7 --trials 20000".split(), None),
    ("verify-seed11", "verify --seed 11 --trials 200000".split(), None),
    ("verify-floor", "verify --seed 5 --trials 1".split(), None),
    (
        "simulate-n12k1m3s1",
        "simulate --n 12 --k 1 --m 3 --s 1 --snr 10 --trials 600 --seed 7".split(),
        "simulate.csv",
    ),
    (
        "simulate-n12k5m7s2",
        "simulate --n 12 --k 5 --m 7 --s 2 --snr 10 --trials 300 --seed 7".split(),
        "simulate.csv",
    ),
    (
        "simulate-n30k4m5s2",
        "simulate --n 30 --k 4 --m 5 --s 2 --snr 10 --trials 40 --seed 7".split(),
        "simulate.csv",
    ),
    (
        "simulate-n20k2m3s200",
        "simulate --n 20 --k 2 --m 3 --s 200 --snr 10 --trials 20 --seed 7".split(),
        "simulate.csv",
    ),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    """The sha256 of a written file; a sidecar loses its time fields first."""
    data = path.read_bytes()
    if path.name.endswith(".meta.json"):
        meta = json.loads(data)
        for key in _SIDECAR_TIME_FIELDS:
            meta.pop(key, None)
        data = json.dumps(meta, indent=2, sort_keys=True).encode()
    return _sha(data)


def version_lines() -> List[str]:
    """The header line naming the numpy version of this interpreter.

    numpy's stream and sampler shape the Monte Carlo and verify bytes.
    """
    import numpy

    return [f"# numpy {numpy.__version__}"]


def run_lines(label: str, exit_code: int, stdout: bytes, directory: Path) -> List[str]:
    """The lines of one run: its stdout with the exit code, then each file it wrote."""
    lines = [f"{_sha(stdout)}  {label} stdout exit={exit_code}"]
    for path in sorted(directory.iterdir()):
        lines.append(f"{_file_digest(path)}  {label} {path.name}")
    return lines


def digests(checkout: Path) -> List[str]:
    """One "sha256  label" line per stdout and per written file of every run."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    lines = []
    for label, args, out in RUNS:
        with tempfile.TemporaryDirectory(prefix="jsm2lab-digest-") as tmp:
            argv = [sys.executable, "-m", "jsm2lab.cli", *args]
            if out is not None:
                argv += ["--out", out]  # relative, so stdout does not name the temp directory
            proc = subprocess.run(argv, cwd=tmp, env=env, capture_output=True)
            lines += run_lines(label, proc.returncode, proc.stdout, Path(tmp))
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkout", type=Path, help="source checkout holding src/jsm2lab")
    args = parser.parse_args(argv)
    if not (args.checkout / "src" / "jsm2lab").is_dir():
        parser.error(f"{args.checkout} has no src/jsm2lab")
    print("\n".join(version_lines() + digests(args.checkout)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
