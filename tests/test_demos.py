"""Smoke test: the narrative demos run to completion against the package.

phase_transition.py runs in-process with its trial count cut to 100 per
point: at its own 4,000 it takes about 20 s.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["bounds_walkthrough", "decoder_anatomy", "tail_oracles", "vector_scaling"]
)
def test_demo_runs(demo, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_phase_transition_runs(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "phase_transition", ROOT / "demos" / "phase_transition.py"
    )
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.TRIALS = 100
    monkeypatch.chdir(tmp_path)
    demo.main()
    out = capsys.readouterr().out
    assert "smallest M with failure <= 0.1:" in out
    lines = (tmp_path / "phase_transition.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + demo.N - demo.K  # header plus M = K+1..N
