"""Consecutive walks in one process reuse their memory instead of faulting it in again.

Each walk checks a buffer set out and returns it when it ends, so the
second seed block of a plan runs in pages the first one left resident.
Without that, glibc trims the heap top a walk's temporaries freed and the
next walk faults every page back in: about 2,600 to 6,200 minor faults per
256-trial block at N=16, K=2, S=4, the shape of the `sweep-fanout`
benchmark. Each case runs in a fresh interpreter, so the heap holds only
what the import and the plan put there, and reads the process's minor
fault count (Linux ru_minflt) around each of blocks 0 and 1.
"""

import os
import subprocess
import sys

import pytest

import jsm2lab

SCRIPT = """
import resource, sys
from jsm2lab.ensemble import ProblemParams
from jsm2lab.montecarlo import TrialPlan, _run_block
plan = TrialPlan(ProblemParams(n=16, k=2, m={m}, s=4, sigma2=0.01, xmin2=1.0), 512, 0)
for block in (0, 1):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _run_block((plan, block))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor fault counts are read on Linux")
@pytest.mark.parametrize("m", [3, 7, 11])
def test_second_block_reuses_the_first_blocks_pages(m):
    src = os.path.dirname(os.path.dirname(jsm2lab.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(m=m)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 500
