import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_bench_set():
    spec = importlib.util.spec_from_file_location("bench_set", ROOT / "tools" / "bench_set.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("case", ["missing-out-dir", "equal-labels"])
def test_refuses_a_set_that_cannot_be_written_before_the_first_run(case, tmp_path, monkeypatch, capsys):
    bench_set = _load_bench_set()

    def run_once(*args):
        pytest.fail("a benchmark run started before the arguments were checked")

    monkeypatch.setattr(bench_set, "run_once", run_once)
    if case == "missing-out-dir":
        argv = ["--out-dir", str(tmp_path / "missing"), f"PARENT={ROOT}", f"CHANGE={ROOT}"]
    else:
        argv = ["--out-dir", str(tmp_path), f"SAME={ROOT}", f"SAME={ROOT}"]
    with pytest.raises(SystemExit) as exc:
        bench_set.main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
