"""No command loads scipy.special, scipy.optimize or scipy.stats.

The package's log-gamma, isotonic fit and binomial quantile are its own,
with the bits of the scipy functions they replace (tests/test_scipy_parity.py),
so importing jsm2lab.cli and running any one command or run_trials leaves
all three out of sys.modules; only the version field of a sweep sidecar
imports the top-level scipy package. Every case runs in a fresh interpreter,
since this process has imported them all.
"""

import json
import os
import subprocess
import sys

import pytest

import jsm2lab

SCIPY_MODULES = ("scipy.optimize", "scipy.special", "scipy.stats")

RUN_TRIALS = """
from jsm2lab.ensemble import ProblemParams
from jsm2lab.montecarlo import TrialPlan, run_trials
run_trials(TrialPlan(ProblemParams(n=6, k=2, m=4, s=1, sigma2=1.0, xmin2=1.0), 4, 0))
"""


def cli_call(*argv: str) -> str:
    return f"""
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({list(argv)!r}) == 0
"""


def scipy_loaded_after(code: str) -> list:
    """The scipy submodules loaded by a fresh interpreter after import jsm2lab.cli and code."""
    script = (
        "import json, sys\nimport jsm2lab.cli as cli\n" + code
        + f"\nprint(json.dumps([m for m in {SCIPY_MODULES!r} if m in sys.modules]))\n"
    )
    src = os.path.dirname(os.path.dirname(jsm2lab.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


POINT = ("--n", "6", "--k", "2", "--s", "1", "--snr", "10")


@pytest.mark.parametrize(
    "code",
    [
        "",
        RUN_TRIALS,
        cli_call("bounds", *POINT, "--m", "4"),
        cli_call("simulate", *POINT, "--m", "4", "--trials", "4"),
        cli_call("sweep", *POINT, "--trials", "4", "--axis", "m", "--values", "3,4"),
        cli_call("find-m", *POINT, "--trials", "4", "--target", "0.5"),
        cli_call("verify", "--trials", "1"),
    ],
    ids=["import", "run_trials", "bounds", "simulate", "sweep", "find-m", "verify"],
)
def test_scipy_loads_only_where_it_is_called(code):
    assert scipy_loaded_after(code) == []
