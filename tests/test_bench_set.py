import importlib.util
import json
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


def _copy_sources(dest):
    """The files source_sha256 reads, copied from the repo into dest."""
    for rel in ("src/jsm2lab", "perfbench"):
        (dest / rel).mkdir(parents=True)
        for path in (ROOT / rel).glob("*.py"):
            (dest / rel / path.name).write_bytes(path.read_bytes())
    (dest / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    return dest


def test_source_hash_names_the_benchmarked_files(tmp_path):
    bench_set = _load_bench_set()
    a = _copy_sources(tmp_path / "a")
    b = _copy_sources(tmp_path / "b")
    assert bench_set.source_sha256(a) == bench_set.source_sha256(b)
    runner = b / "perfbench" / "runner.py"
    data = bytearray(runner.read_bytes())
    data[-1] ^= 1
    runner.write_bytes(bytes(data))
    assert bench_set.source_sha256(a) != bench_set.source_sha256(b)


def test_each_side_records_its_commit_and_source_hash(tmp_path, monkeypatch):
    bench_set = _load_bench_set()
    a = _copy_sources(tmp_path / "a")
    b = _copy_sources(tmp_path / "b")
    (b / "perfbench" / "run.py").write_bytes((a / "perfbench" / "run.py").read_bytes() + b"\n")

    def run_once(checkout, workload, seed, seconds):
        metric = {"value": float(seed), "unit": "s"}
        return {"record": {}, "result": {"metrics": {"trials_per_s": metric},
                                          "failed": 0, "attempted": 1}}

    monkeypatch.setattr(bench_set, "run_once", run_once)
    out = tmp_path / "out"
    out.mkdir()
    assert bench_set.main(["--runs", "2", "--out-dir", str(out), f"P={a}", f"C={b}"]) == 0
    for label, checkout in (("P", a), ("C", b)):
        doc = json.loads((out / f"BENCH_{label}.json").read_text())
        assert doc["commit"] == bench_set.git_commit(checkout)
        assert doc["source_sha256"] == bench_set.source_sha256(checkout)
    assert (json.loads((out / "BENCH_P.json").read_text())["source_sha256"]
            != json.loads((out / "BENCH_C.json").read_text())["source_sha256"])
