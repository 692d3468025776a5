"""Structural invariants checked over generated inputs."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jsm2lab import decoder
from jsm2lab.bounds import (
    _log1pmx,
    fano_lower_perr,
    log_binom,
    sufficient_M,
    t_value,
    upper_bound_perr,
)
from jsm2lab.decoder import _trial_scores, decode, typicality_stat
from jsm2lab.ensemble import (
    AMPLITUDE_FIXED,
    AMPLITUDE_MODES,
    MeasurementEnsemble,
    ProblemParams,
    SensingEnsemble,
    SupportSet,
    sample_sparse_ensemble,
)
from jsm2lab.montecarlo import trend_residual, wilson_interval
from jsm2lab.quadstats import QuadFormSpec
from oracles import brute_force_decode, brute_force_stats


@st.composite
def params_strategy(draw):
    n = draw(st.integers(4, 128))
    k = draw(st.integers(1, max(1, min(n - 1, 8))))
    m = draw(st.integers(k + 1, n))
    s = draw(st.integers(1, 12))
    sigma2 = draw(st.floats(1e-3, 1e3))
    xmin2 = draw(st.floats(1e-3, 1e3))
    rho = draw(st.floats(1.01, 16.0))
    return ProblemParams(n=n, k=k, m=m, s=s, sigma2=sigma2, xmin2=xmin2, rho=rho)


@given(trials=st.integers(1, 10_000), frac=st.floats(0.0, 1.0))
def test_wilson_interval_orders_and_clamps(trials, frac):
    successes = min(trials, int(round(frac * trials)))
    low, high = wilson_interval(successes, trials)
    assert 0.0 <= low <= successes / trials <= high <= 1.0
    assert high - low > 0.0


@given(x=st.floats(1e-6, 1e6), beta=st.floats(1e-6, 1e4))
def test_chernoff_kernel_nonpositive(x, beta):
    # beta (log x - (x - 1)), the log of the chi-square tail kernel at ratio x
    val = beta * _log1pmx(x - 1.0)
    assert val <= 0.0
    if abs(x - 1.0) > 1e-6:
        assert val < 0.0


@settings(max_examples=60)
@given(params=params_strategy())
def test_default_slack_always_admissible(params):
    ceiling = (1.0 - params.k / params.m) * params.xmin2
    assert 0.0 < params.delta < ceiling


@settings(max_examples=60)
@given(params=params_strategy())
def test_tilt_stays_in_unit_interval(params):
    t = t_value(params)
    assert 0.0 < t < 1.0
    assert t < 1.0 - 1.0 / params.rho


@settings(max_examples=40)
@given(params=params_strategy())
def test_upper_bound_report_is_coherent(params):
    rep = upper_bound_perr(params)
    assert rep.log_p_d1 < 0.0
    assert rep.log_p_d2 < 0.0
    assert 0.0 <= rep.upper_perr <= 1.0
    assert 0.0 <= rep.lower_perr <= 1.0
    assert rep.log_upper_perr >= rep.log_p_d1 + math.log(2.0) - 1e-12


@settings(max_examples=40)
@given(params=params_strategy())
def test_sufficiency_exceeds_sparsity_and_fano_dies_beyond_it(params):
    m_suff = sufficient_M(params)
    assert m_suff > params.k
    # any M at or past the requirement drives the converse floor to zero:
    # t < SNR/(1+SNR) gives -log(1-t) - t < log(1 + K SNR), so there
    # S M log(1 + K SNR)/2 exceeds K log(N/K)
    big_m = min(int(math.ceil(m_suff)) + 1, params.n)
    if big_m >= m_suff:
        assert fano_lower_perr(replace(params, m=big_m)) == 0.0


@given(n=st.integers(0, 400), k=st.integers(0, 400))
def test_log_binom_symmetry(n, k):
    if k > n:
        n, k = k, n
    assert math.isclose(log_binom(n, k), log_binom(n, n - k), rel_tol=1e-12)
    assert log_binom(n, k) >= 0.0


@given(
    alphas=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8),
    m=st.integers(2, 12),
)
def test_spec_moments_match_closed_form(alphas, m):
    k = m - 1
    spec = QuadFormSpec.from_alpha(alphas, m, k)
    # ((M-K) sum alpha, 2 (M-K) sum alpha^2)
    assert math.isclose(spec.mean, (m - k) * sum(alphas), rel_tol=1e-12)
    assert math.isclose(spec.variance, 2.0 * (m - k) * sum(a * a for a in alphas), rel_tol=1e-12)


@st.composite
def support_strategy(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))
    indices = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    return SupportSet(tuple(sorted(indices)), n)


@given(
    support=support_strategy(),
    s=st.integers(1, 6),
    mode=st.sampled_from(AMPLITUDE_MODES),
    x_min=st.floats(1e-3, 1e3),
    spread=st.floats(1.0, 1e3),
    seed=st.integers(0, 2**64 - 1),
)
def test_sampled_signals_are_jointly_sparse(support, s, mode, x_min, spread, seed):
    # the sampler's postcondition: nothing downstream re-checks it
    x_max = x_min * spread
    x = sample_sparse_ensemble(support, s, x_min, mode, x_max, seed=seed)
    assert isinstance(x, np.ndarray) and x.dtype == float and not x.flags.writeable
    assert x.shape == (s, support.ambient_dim)
    off = np.ones(support.ambient_dim, dtype=bool)
    off[support.as_array()] = False
    assert not x[:, off].any()
    mags = np.abs(x[:, support.as_array()])
    if mode == AMPLITUDE_FIXED:
        assert (mags == x_min).all()
    else:
        assert ((x_min <= mags) & (mags <= x_max)).all()


@given(st.lists(st.floats(0.0, 1.0), max_size=12))
def test_trend_residual_zero_iff_sorted_down(values):
    ordered = sorted(values, reverse=True)
    assert trend_residual(ordered) <= 1e-12


# ---- decode against the dense reference, K up to 4 -------------------------

BOUNDARY_TOL = 1e-9


@st.composite
def decode_instance(draw):
    """A small instance, possibly with a duplicated or an all-zero column."""
    k = draw(st.sampled_from([1, 2, 3, 4]))
    n = draw(st.integers(k + 1, 9))
    m = draw(st.integers(k + 1, n))
    s = draw(st.integers(1, 3))
    sigma2 = draw(st.sampled_from([0.01, 0.3, 1.0]))
    flaw = draw(st.sampled_from(["none", "duplicate", "zero"]))
    delta = draw(st.sampled_from([None, 0.0, math.inf]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((s, m, n))
    i, j = sorted(rng.choice(n, size=2, replace=False))
    if flaw == "duplicate":
        f[:, :, j] = f[:, :, i]
    elif flaw == "zero":
        f[:, :, j] = 0.0
    support = tuple(int(v) for v in np.sort(rng.choice(n, size=k, replace=False)))
    x = np.zeros((s, n))
    x[:, support] = rng.choice([-1.0, 1.0], size=(s, k)) * rng.uniform(1.0, 2.0, size=(s, k))
    y = np.einsum("smn,sn->sm", f, x) + math.sqrt(sigma2) * rng.standard_normal((s, m))
    params = ProblemParams(n=n, k=k, m=m, s=s, sigma2=sigma2, xmin2=1.0, delta_override=delta)
    return params, f, y, support


def near_boundary(rows, threshold):
    """True when the decision sits within round-off of a boundary.

    The boundaries are the threshold and the runner-up's score. An exact
    tie counts too: with a duplicated column, equal spans are scored from
    different column orders, so the two decoders may split them in the
    last bit.
    """
    tol = BOUNDARY_TOL * max([1.0] + [abs(c) for _, _, c, _ in rows])
    best = sorted(abs(c) for _, _, c, typical in rows if typical)[:2]
    if len(best) == 2 and best[1] - best[0] < tol:
        return True
    return any(abs(abs(c) - threshold) < tol for _, _, c, _ in rows)


@settings(max_examples=150, deadline=None)
@given(inst=decode_instance())
def test_decode_matches_dense_reference(inst):
    params, f, y, support = inst
    rows = brute_force_stats(y, f, params.sigma2, params.k, params.delta)
    assume(not near_boundary(rows, params.s * params.m * params.delta))
    out = decode(
        MeasurementEnsemble(y),
        SensingEnsemble(f),
        params,
        true_support=SupportSet(support, params.n),
    )
    ref = brute_force_decode(y, f, params.sigma2, params.k, params.delta, support)
    decoded = out.decoded.indices if out.decoded is not None else None
    assert (decoded, out.correct_typical, out.num_incorrect_typical,
            out.event_failure, out.decode_error) == ref


@settings(max_examples=100, deadline=None)
@given(inst=decode_instance())
def test_typicality_stat_is_decode_test(inst):
    # typicality_stat and decode apply one test: same verdict on the true
    # support, and the same count of typical candidates over all supports
    params, f, y, support = inst
    rows = brute_force_stats(y, f, params.sigma2, params.k, params.delta)
    assume(not near_boundary(rows, params.s * params.m * params.delta))
    meas, sensing = MeasurementEnsemble(y), SensingEnsemble(f)
    out = decode(meas, sensing, params, true_support=SupportSet(support, params.n))
    stats = [
        typicality_stat(SupportSet(j, params.n), meas, sensing, params) for j, _, _, _ in rows
    ]
    assert stats[[r[0] for r in rows].index(support)].typical == out.correct_typical
    assert sum(st.typical for st in stats) == out.num_incorrect_typical + out.correct_typical


@pytest.mark.parametrize("chunk", [None, 1, 7], ids=["default", "1", "7"])
def test_every_candidate_matches_dense_rows(monkeypatch, chunk):
    # N=10, K=4 walks three internal prefix levels; one duplicated column
    # makes some blocks rank-deficient. The default budget holds all 210
    # candidates in one chunk; 1 candidate a chunk gives each sibling group
    # a chunk of its own, and 7 cuts runs of parents among which some have
    # no children
    n, k, m, s = 10, 4, 6, 2
    if chunk is not None:
        monkeypatch.setattr(decoder, "_WALK_SCORES", chunk * s)
    rng = np.random.default_rng(2024)
    f = rng.standard_normal((s, m, n))
    f[1, :, 7] = f[1, :, 3]
    y = rng.standard_normal((s, m))
    values = np.empty(math.comb(n, k))
    rank_ok = np.empty(values.size, dtype=bool)
    for lo, value, ok in _trial_scores(f[None], y[None], k):
        # one trial: a candidate's value sums its vectors, its rank needs all
        values[lo : lo + value.shape[1]] = value[0]
        rank_ok[lo : lo + value.shape[1]] = ok[0]
    # with an infinite slack a candidate is typical exactly when it has full rank
    rows = brute_force_stats(y, f, 1.0, k, math.inf)
    assert [r[3] for r in rows] == rank_ok.tolist()
    assert 0 < int((~rank_ok).sum()) < values.size
    for (_, value, _, _), got, ok in zip(rows, values, rank_ok):
        if ok:
            assert got == pytest.approx(value, rel=1e-9, abs=1e-12)


def _all_scores(matrices, measurements, k):
    """Every candidate's values and rank flags from one walk, chunks joined in order."""
    _, values, oks = zip(*_trial_scores(matrices, measurements, k))
    return np.concatenate(values, axis=1), np.concatenate(oks, axis=1)


@pytest.mark.parametrize("t, s, m, n, k", [(1, 2, 5, 30, 4), (3, 2, 4, 12, 3)], ids=["s2", "t3-s2"])
def test_multi_vector_scores_do_not_depend_on_the_chunk(monkeypatch, t, s, m, n, k):
    # with two or more vectors einsum sums each score row by row in order,
    # so a budget of 1 or 7 candidates a chunk gives the default's bits
    rng = np.random.default_rng(31)
    matrices = rng.standard_normal((t, s, m, n))
    measurements = rng.standard_normal((t, s, m))
    value, ok = _all_scores(matrices, measurements, k)
    assert value.shape == (t, math.comb(n, k))
    for chunk in (1, 7):
        monkeypatch.setattr(decoder, "_WALK_SCORES", chunk * t * s)
        got_value, got_ok = _all_scores(matrices, measurements, k)
        assert np.array_equal(got_value, value)
        assert np.array_equal(got_ok, ok)
