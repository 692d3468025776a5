"""Tests of the benchmark's own parts: operation counts, spans, references.

    python3 -m pytest perfbench -q
"""

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import opcount  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from jsm2lab import decoder, ensemble, montecarlo  # noqa: E402


def counted_householder(block, y):
    """Residual of y off span(block) by the package's Householder steps.

    Plain Python, one scalar operation at a time, counting flops with the
    conventions of opcount.
    """
    m, k = block.shape
    a = [[float(v) for v in row] + [float(yi)] for row, yi in zip(block, y)]
    flops = 0
    for j in range(k):
        length = m - j
        x = [a[i][j] for i in range(j, m)]
        norm2 = sum(t * t for t in x)
        flops += 2 * length - 1
        alpha = -math.copysign(math.sqrt(norm2), x[0])
        flops += 1
        v = x[:]
        v[0] -= alpha
        flops += 1
        vn2 = sum(t * t for t in v)
        flops += 2 * length - 1
        scale = 2.0 / vn2
        flops += 1
        for c in range(j + 1, k + 1):
            dot = sum(v[i - j] * a[i][c] for i in range(j, m))
            flops += 2 * length - 1
            coef = scale * dot
            flops += 1
            for i in range(j, m):
                a[i][c] -= coef * v[i - j]
            flops += 2 * length
    tail = [a[i][k] for i in range(k, m)]
    if tail:
        flops += 2 * len(tail) - 1
    return sum(t * t for t in tail), flops


def test_operation_counts_match_hand_count():
    # N=4, K=2, M=3, S=1: six candidate-vectors of a 3 x 3 block each.
    # flops, step 0 (L=3): ||x||^2 5, sqrt 1, v0 1, ||v||^2 5, 2/||v||^2 1,
    #   two columns of (dot 5, scale 1, update 6): 13 + 24
    # step 1 (L=2): 3 + 1 + 1 + 3 + 1, one column of (3 + 1 + 4): 9 + 8
    # residual tail of length 1: 1
    assert opcount.householder_flops(3, 2) == 13 + 24 + 9 + 8 + 1 == 55
    # words: read columns 6 and y 3, write buffer 9, step 0 block 2*3*3,
    # step 1 block 2*2*2, tail 1
    assert opcount.candidate_vector_bytes(3, 2) == 8 * (6 + 3 + 9 + 18 + 8 + 1) == 360
    assert opcount.candidate_vectors(4, 2, 1) == 6
    assert 6 * 55 == opcount.candidate_vectors(4, 2, 1) * opcount.householder_flops(3, 2)


@pytest.mark.parametrize("m,k", [(3, 2), (2, 1), (5, 4), (6, 2), (10, 3)])
def test_flop_formula_matches_counted_householder(m, k):
    rng = np.random.default_rng(m * 10 + k)
    block = rng.standard_normal((m, k))
    y = rng.standard_normal(m)
    resid, flops = counted_householder(block, y)
    assert flops == opcount.householder_flops(m, k)
    fast, _ = decoder.residual_energies(block[None], y[None])
    assert resid == pytest.approx(float(fast[0]), rel=1e-10, abs=1e-12)


def test_self_time_subtracts_child_spans():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 5.0, 6.0, 0],
    ]
    stats = tracer.summarize(spans)
    assert stats["a"].self_time == pytest.approx(6.0)
    assert stats["b"].calls == 2
    assert stats["b"].total == pytest.approx(4.0)
    assert stats["b"].self_time == pytest.approx(3.0)
    assert stats["c"].self_time == pytest.approx(1.0)


def test_tracer_wraps_call_sites_and_restores_them(monkeypatch):
    fake = types.ModuleType("perfbench_fake")

    def inner(x):
        return x + 1

    def outer(x):
        return fake.inner(x) * 2

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, "perfbench_fake", fake)
    monkeypatch.setattr(tracer, "TARGETS", (
        ("perfbench_fake", "outer", "fake.outer"),
        ("perfbench_fake", "inner", "fake.inner"),
        ("perfbench_fake", "absent", "fake.absent"),
    ))
    tr = tracer.Tracer()
    with tr.active():
        assert fake.outer(1) == 4
    assert fake.inner is inner and fake.outer is outer
    assert tr.missing == ["perfbench_fake.absent"]
    names = [(s[0], s[3]) for s in tr.spans]
    assert names == [("fake.outer", -1), ("fake.inner", 0)]


def test_dense_oracle_agrees_with_decode():
    p = ensemble.ProblemParams(n=7, k=2, m=4, s=2, sigma2=0.05, xmin2=1.0)
    compared = 0
    for seed in range(6):
        support, f, y = workloads.draw_instance(p, np.random.default_rng(seed))
        out = decoder.decode(y, f, p, true_support=support)
        ref = oracle.dense_decode(y.measurements, f.matrices, p.sigma2, p.delta, support.indices)
        if ref.near_tie:
            continue
        compared += 1
        assert (None if out.decoded is None else out.decoded.indices) == ref.decoded
        assert out.correct_typical == ref.correct_typical
        assert out.num_incorrect_typical == ref.num_incorrect_typical
        assert out.event_failure == ref.event_failure
        assert out.decode_error == ref.decode_error
    assert compared >= 5


def _result(ef, de, ca, it, trials=10):
    est = montecarlo.EstimateWithCI.from_counts
    return montecarlo.RunResult(est(ef, trials), est(de, trials), est(ca, trials), est(it, trials))


def test_counter_invariants():
    assert workloads.counter_problems(_result(5, 3, 2, 4), 10) == []
    assert workloads.counter_problems(_result(5, 6, 2, 4), 10)  # decode error outside the union
    assert workloads.counter_problems(_result(7, 3, 2, 4), 10)  # union larger than its parts
    assert workloads.counter_problems(_result(5, 3, 2, 4), 12)  # wrong trial count
