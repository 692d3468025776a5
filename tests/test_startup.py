"""Fresh interpreters: what importing the CLI loads, and what a run writes.

Every command runs with scipy unimportable: numpy is the only runtime dependency.

The package's log-gamma, isotonic fit and binomial quantile are its own,
with the bits of the scipy functions they replace (tests/test_scipy_parity.py),
and a sweep sidecar records the jsm2lab and numpy versions only. Each case
runs in a fresh interpreter, since this process has imported scipy: the
script sets sys.modules["scipy"] = None, so any import of scipy or of a
submodule raises, then imports jsm2lab.cli and runs the case, which must
exit 0. The --out cases write their CSV and sidecar into a temporary
directory.

Importing the CLI loads neither multiprocessing nor concurrent.futures, and
the workers a run forks leave none of the caller's buffered stdout behind
a second time.
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
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


def run_script(script, cwd):
    """Run script in a fresh interpreter that imports this checkout's jsm2lab."""
    src = os.path.dirname(os.path.dirname(jsm2lab.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("PYTHONUNBUFFERED", None)  # stdout on a pipe stays block-buffered
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True, env=env)


def test_cli_import_loads_no_process_pool(tmp_path):
    script = (
        "import sys\nimport jsm2lab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"


def test_forked_workers_do_not_repeat_buffered_stdout(tmp_path):
    # stdout is a pipe, so the first line is still in the caller's buffer at the fork
    sweep = ("sweep", *POINT, "--trials", "300", "--axis", "m", "--values", "3,4")
    outputs = []
    for jobs in ("1", "2"):
        script = "import sys\nimport jsm2lab.cli as cli\nprint('before the run')\n"
        proc = run_script(script + cli_call(*sweep, "--jobs", jobs), tmp_path)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].startswith(b"before the run\n") and outputs[0].count(b"before") == 1
    assert outputs[1] == outputs[0]
