"""Repeated work in one process reuses its memory instead of faulting it in again.

Each walk checks a buffer set out and returns it when it ends, so the
second seed block of a plan runs in pages the first one left resident.
Without that, glibc trims the heap top a walk's temporaries freed and the
next walk faults every page back in: about 2,600 to 6,200 minor faults per
256-trial block at N=16, K=2, S=4, the shape of the `sweep-fanout`
benchmark. The z samplers behind `verify` draw in chunks of one residual
batch, at most 512 KB, so their peak memory does not grow with a chunk
that glibc maps and unmaps on every call: with chunks of 2^22 scalars
(33.6 MB each), a 200,000-trial call at verify's correct-support shape
raised peak RSS 56 MB above the import's, and now about 3 MB. Each case runs in a
fresh interpreter, so the heap holds only what the import and the case put
there, and reads the process's minor fault count (Linux ru_minflt) or its
peak resident set (ru_maxrss, in KB).
"""

import os
import subprocess
import sys

import pytest

import jsm2lab

WALK_SCRIPT = """
import resource
from jsm2lab.ensemble import ProblemParams
from jsm2lab.montecarlo import TrialPlan, _run_block
plan = TrialPlan(ProblemParams(n=16, k=2, m={m}, s=4, sigma2=0.01, xmin2=1.0), 512, 0)
for block in (0, 1):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _run_block((plan, block))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""

SAMPLER_SCRIPT = """
import resource
from jsm2lab.quadstats import sample_z_correct
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sample_z_correct(6, 2, 3, 200_000, 11)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor fault counts are read on Linux")
@pytest.mark.parametrize("m", [3, 7, 11])
def test_second_block_reuses_the_first_blocks_pages(m):
    assert _run(WALK_SCRIPT.format(m=m)) < 500


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is read in KB on Linux")
def test_z_sampler_peak_memory_stays_flat():
    # the (200000,) outputs take 1.6 MB each; the chunks add at most 1 MB
    assert _run(SAMPLER_SCRIPT) < 16 * 1024


def _run(script):
    """Run script in a fresh interpreter that imports this jsm2lab; returns its printed integer."""
    src = os.path.dirname(os.path.dirname(jsm2lab.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)
