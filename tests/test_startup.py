"""Every command runs with scipy unimportable: numpy is the only runtime dependency.

The package's log-gamma, isotonic fit and binomial quantile are its own,
with the bits of the scipy functions they replace (tests/test_scipy_parity.py),
and a sweep sidecar records the jsm2lab and numpy versions only. Each case
runs in a fresh interpreter, since this process has imported scipy: the
script sets sys.modules["scipy"] = None, so any import of scipy or of a
submodule raises, then imports jsm2lab.cli and runs the case, which must
exit 0. The --out cases write their CSV and sidecar into a temporary
directory.
"""

import os
import subprocess
import sys

import pytest

import jsm2lab

RUN_TRIALS = """
from jsm2lab.ensemble import ProblemParams
from jsm2lab.montecarlo import TrialPlan, run_trials
run_trials(TrialPlan(ProblemParams(n=6, k=2, m=4, s=1, sigma2=1.0, xmin2=1.0), 4, 0))
"""


def cli_call(*argv: str) -> str:
    return f"sys.exit(cli.main({list(argv)!r}))"


POINT = ("--n", "6", "--k", "2", "--s", "1", "--snr", "10")


@pytest.mark.parametrize(
    "code",
    [
        "",
        RUN_TRIALS,
        cli_call("bounds", *POINT, "--m", "4"),
        cli_call("simulate", *POINT, "--m", "4", "--trials", "4"),
        cli_call("simulate", *POINT, "--m", "4", "--trials", "4", "--out", "run.csv"),
        cli_call("sweep", *POINT, "--trials", "4", "--axis", "m", "--values", "3,4"),
        cli_call("sweep", *POINT, "--trials", "4", "--axis", "m", "--values", "3,4", "--out", "grid.csv"),
        cli_call("find-m", *POINT, "--trials", "4", "--target", "0.5"),
        cli_call("verify", "--trials", "1"),
    ],
    ids=[
        "import", "run_trials", "bounds", "simulate", "simulate-out",
        "sweep", "sweep-out", "find-m", "verify",
    ],
)
def test_scipy_loads_only_where_it_is_called(code, tmp_path):
    script = 'import sys\nsys.modules["scipy"] = None\nimport jsm2lab.cli as cli\n' + code
    src = os.path.dirname(os.path.dirname(jsm2lab.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
