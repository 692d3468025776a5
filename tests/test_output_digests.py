"""The output bytes of tools/output_digest.py's runs match the committed digests.

Each run goes through cli.main in-process, in its own working directory.
The digests depend on numpy's PCG64 stream and normal sampler, whose
version heads tests/output_digests.txt, and not on the CPU kernel OpenBLAS
picks at load time: the verify runs and a sweep are run again in fresh
interpreters under two other kernels. A change that moves output bytes on
purpose rewrites that file with the tool and says why.
"""

import difflib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jsm2lab.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "output_digests.txt"


def _load_output_digest():
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_bytes_match_the_pinned_digests(tmp_path, monkeypatch, capsys):
    tool = _load_output_digest()
    lines = []
    for label, args, out in tool.RUNS:
        run_dir = tmp_path / label
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        code = main(args + (["--out", out] if out else []))
        lines += tool.run_lines(label, code, capsys.readouterr().out.encode(), run_dir)
    pinned = PINNED.read_text().splitlines()
    header = [line for line in pinned if line.startswith("#")]
    expected = [line for line in pinned if not line.startswith("#")]
    if lines != expected:
        diff = difflib.unified_diff(expected, lines, "pinned", "run", lineterm="", n=0)
        pytest.fail(
            f"output digests differ from {PINNED.name}, pinned under "
            f"{'; '.join(h.lstrip('# ') for h in header)} and run under "
            f"{'; '.join(h.lstrip('# ') for h in tool.version_lines())}:\n" + "\n".join(diff)
        )


def _blas_name() -> str:
    config = np.show_config(mode="dicts")
    return config.get("Build Dependencies", {}).get("blas", {}).get("name", "unknown")


# the runs whose printed paths went through BLAS or LAPACK, and one sweep
_KERNEL_RUNS = ("sweep-m", "verify", "verify-seed11", "verify-floor")


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_output_bytes_do_not_depend_on_the_openblas_kernel(coretype, tmp_path):
    if "openblas" not in _blas_name():
        pytest.skip(f"numpy's BLAS is {_blas_name()}, not OpenBLAS")
    tool = _load_output_digest()
    # the kernel is chosen when OpenBLAS loads, so only a fresh interpreter takes it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_CORETYPE=coretype)
    lines = []
    for label, args, out in tool.RUNS:
        if label not in _KERNEL_RUNS:
            continue
        run_dir = tmp_path / label
        run_dir.mkdir()
        argv = [sys.executable, "-m", "jsm2lab.cli", *args, *(["--out", out] if out else [])]
        proc = subprocess.run(argv, cwd=run_dir, env=env, capture_output=True, timeout=300)
        lines += tool.run_lines(label, proc.returncode, proc.stdout, run_dir)
    pinned = [line for line in PINNED.read_text().splitlines() if line.split()[1] in _KERNEL_RUNS]
    assert lines == pinned
