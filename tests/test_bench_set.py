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


def _stub_run(value):
    """A run_once stand-in whose every end-to-end metric reads value(checkout, seed)."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_once(checkout, workload, seed, seconds):
        metrics = {name: {"value": value(checkout, seed), "unit": "s"} for name in names}
        return {"record": {}, "result": {"metrics": metrics, "failed": 0, "attempted": 1}}

    return run_once


def test_each_side_records_its_commit_and_source_hash(tmp_path, monkeypatch):
    bench_set = _load_bench_set()
    a = _copy_sources(tmp_path / "a")
    b = _copy_sources(tmp_path / "b")
    (b / "perfbench" / "run.py").write_bytes((a / "perfbench" / "run.py").read_bytes() + b"\n")

    monkeypatch.setattr(bench_set, "run_once", _stub_run(lambda checkout, seed: float(seed)))
    out = tmp_path / "out"
    out.mkdir()
    assert bench_set.main(["--runs", "2", "--out-dir", str(out), f"P={a}", f"C={b}"]) == 0
    for label, checkout in (("P", a), ("C", b)):
        doc = json.loads((out / f"BENCH_{label}.json").read_text())
        assert doc["commit"] == bench_set.git_commit(checkout)
        assert doc["source_sha256"] == bench_set.source_sha256(checkout)
    assert (json.loads((out / "BENCH_P.json").read_text())["source_sha256"]
            != json.loads((out / "BENCH_C.json").read_text())["source_sha256"])


def _canned_runs(wall_s, trials_per_s):
    return [
        {"seed": seed, "result": {"metrics": {"wall_s": {"value": w}, "trials_per_s": {"value": r}}}}
        for seed, (w, r) in enumerate(zip(wall_s, trials_per_s), start=1)
    ]


def test_versus_counts_pair_wins_in_each_metrics_better_direction():
    bench_set = _load_bench_set()
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "trials_per_s", "better": "higher"}]
    parent = _canned_runs([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0])
    # a win, a tie, a loss and a win on each metric; listed out of seed order,
    # so that runs pair by seed and not by position
    change = _canned_runs([0.5, 2.0, 3.5, 1.0], [5.0, 20.0, 45.0, 60.0])[::-1]
    out = bench_set.versus(parent, change, metrics)
    assert out["wall_s"] == {"better": "lower", "ratio": pytest.approx(1.5 / 2.5),
                             "wins": 2, "losses": 1, "pairs": 4}
    assert out["trials_per_s"] == {"better": "higher", "ratio": pytest.approx(32.5 / 25.0),
                                   "wins": 2, "losses": 1, "pairs": 4}


def test_the_changes_file_holds_the_comparison(tmp_path, monkeypatch, capsys):
    bench_set = _load_bench_set()
    a = _copy_sources(tmp_path / "a")
    b = _copy_sources(tmp_path / "b")
    # every metric of the change reads half the parent's on every seed
    value = lambda checkout, seed: seed * (0.5 if checkout == b.resolve() else 1.0)  # noqa: E731
    monkeypatch.setattr(bench_set, "run_once", _stub_run(value))
    out = tmp_path / "out"
    out.mkdir()
    assert bench_set.main(["--runs", "3", "--out-dir", str(out), f"P={a}", f"C={b}"]) == 0
    parent = json.loads((out / "BENCH_P.json").read_text())
    change = json.loads((out / "BENCH_C.json").read_text())
    assert "versus" not in parent
    assert set(change) - set(parent) == {"versus"}
    assert change["versus"]["parent"] == "P"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    err = capsys.readouterr().err
    for workload in (w["name"] for w in spec["workloads"]):
        compared = change["versus"]["workloads"][workload]
        assert sorted(compared) == sorted(m["name"] for m in spec["end_to_end"])
        for metric in spec["end_to_end"]:
            c = compared[metric["name"]]
            lower = metric["better"] == "lower"
            assert c["ratio"] == 0.5
            assert (c["wins"], c["losses"], c["pairs"]) == ((3, 0, 3) if lower else (0, 3, 3))
            assert f"{workload} {metric['name']}: C/P median 0.5000" in err
