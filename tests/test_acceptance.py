"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line with the measured quantities,
then asserts. The converse-floor check dominates the runtime: it enumerates
C(64,4) candidate supports per trial for a thousand trials.
"""

import itertools
import math
import time

import numpy as np
import pytest

from jsm2lab.bounds import (
    corollary3_S_bound,
    fano_lower_perr,
    necessary_M,
    upper_bound_perr,
)
from jsm2lab.cli import main
from jsm2lab.decoder import decode, typicality_stat
from jsm2lab.ensemble import (
    ProblemParams,
    SupportSet,
    measure,
    sample_sensing,
    sample_sparse_ensemble,
    sample_support,
)
from jsm2lab.montecarlo import TrialPlan, find_M_star, run_trials, sweep, trend_residual
from jsm2lab.quadstats import QuadFormSpec, laurent_massart_check, sample_z_correct
from oracles import brute_force_decode, brute_force_stats

ACCEPT_SEED = 20260816


def _verdict(tag: str, ok: bool, detail: str) -> bool:
    print(f"acceptance {tag}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    return ok


def test_01_simulated_failure_never_exceeds_bound():
    # 10^4 trials on every (N, M, S, SNR) grid point; the clamped analytic
    # bound plus the Wilson half-width must sit above each estimate. All 24
    # points run as one sweep, one map over two workers
    start = time.monotonic()
    grid = list(itertools.product((8, 12), (4, 6, 8), (1, 4), (10.0, 100.0)))
    plans = [
        TrialPlan(
            params=ProblemParams(n=n, k=2, m=m, s=s, sigma2=1.0 / snr, xmin2=1.0, rho=2.0),
            trials=10_000,
            master_seed=ACCEPT_SEED + idx,
        )
        for idx, (n, m, s, snr) in enumerate(grid)
    ]
    violations = []
    for (n, m, s, snr), row in zip(grid, sweep(plans, jobs=2)):
        est = row.rates.event_failure
        ceiling = row.bound.upper_perr + est.half_width
        if est.point > ceiling:
            violations.append((n, m, s, snr, est.point, ceiling))
    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 300.0
    assert _verdict(
        "01 bound-honesty",
        ok,
        f"{len(grid)} grid points, {len(violations)} violations, {elapsed:.1f}s",
    )


def test_02_decode_error_respects_converse_floor():
    params = ProblemParams(n=64, k=4, m=5, s=2, sigma2=1.0, xmin2=1.0, rho=2.0)
    m_necessary = necessary_M(params)
    assert params.m < m_necessary
    floor = fano_lower_perr(params)
    plan = TrialPlan(
        params=params,
        trials=1_000,
        master_seed=ACCEPT_SEED,
        amplitude_mode="fixed",
        fix_signal=True,
    )
    est = run_trials(plan, jobs=2).decode_error
    ok = est.point >= floor - 3.0 * est.half_width
    assert _verdict(
        "02 converse-floor",
        ok,
        f"decode_error={est.point:.4f} at M=5 < necessary {m_necessary:.2f}, "
        f"floor={floor:.4f}, hw={est.half_width:.4f}",
    )


def _random_admissible_params(rng):
    n = int(rng.integers(6, 128))
    k = int(rng.integers(1, min(n // 2, 8) + 1))
    m = int(rng.integers(k + 1, n + 1))
    s = int(rng.integers(1, 12))
    sigma2 = float(10.0 ** rng.uniform(-2, 1))
    xmin2 = float(10.0 ** rng.uniform(-1, 2))
    rho = float(rng.uniform(1.1, 10.0))
    override = None
    if rng.random() < 0.5:
        ceiling = (1.0 - k / m) * xmin2
        override = float(rng.uniform(0.02, 0.98)) * ceiling
    return ProblemParams(
        n=n, k=k, m=m, s=s, sigma2=sigma2, xmin2=xmin2, rho=rho,
        delta_override=override,
    )


def test_03_correct_tail_chernoff_dominates_exp_form():
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = -math.inf
    for _ in range(1_000):
        rep = upper_bound_perr(_random_admissible_params(rng))
        worst = max(worst, rep.log_p_d1 - rep.log_p1_exp)
    ok = worst <= 1e-12
    assert _verdict("03 dominance-correct-tail", ok, f"1000 tuples, max gap {worst:.3e}")


def test_04_incorrect_tail_chernoff_dominates_exp_form():
    rng = np.random.default_rng(ACCEPT_SEED + 1)
    worst = -math.inf
    for _ in range(1_000):
        rep = upper_bound_perr(_random_admissible_params(rng))
        worst = max(worst, rep.log_p_d2 - rep.log_p2_exp)
    ok = worst <= 1e-12
    assert _verdict("04 dominance-incorrect-tail", ok, f"1000 tuples, max gap {worst:.3e}")


def test_05_correct_statistic_moments_and_mgf():
    m, k, s, trials = 6, 2, 3, 100_000
    draws = sample_z_correct(m, k, s, trials=trials, seed=ACCEPT_SEED)
    mean_t, var_t = float(s * (m - k)), float(2 * s * (m - k))
    se_mean = math.sqrt(var_t / trials)
    mean_err = abs(float(np.mean(draws)) - mean_t)
    m4 = float(np.mean((draws - mean_t) ** 4))
    se_var = math.sqrt(max(m4 - var_t**2, 0.0) / trials)
    var_err = abs(float(np.var(draws)) - var_t)
    mgf_emp = float(np.mean(np.exp(0.1 * draws)))
    mgf_ref = 0.8 ** -(s * (m - k) / 2.0)
    mgf_rel = abs(mgf_emp - mgf_ref) / mgf_ref
    ok = mean_err < 5.0 * se_mean and var_err < 5.0 * se_var and mgf_rel < 0.02
    assert _verdict(
        "05 correct-statistic-moments",
        ok,
        f"|mean-12|={mean_err:.4f} (5se={5*se_mean:.4f}), "
        f"|var-24|={var_err:.4f} (5se={5*se_var:.4f}), mgf rel err={mgf_rel:.4f}",
    )


def test_06_incorrect_statistic_moments_through_pipeline():
    # five random wrong supports, real matrices and noise each trial; the
    # predicted weights are noise floor plus per-vector missed energy
    n, k, m, s, sigma2 = 8, 2, 6, 3, 1.0
    trials = 3_000
    rng = np.random.default_rng(ACCEPT_SEED + 2)
    sup = sample_support(n, k, ACCEPT_SEED)
    x = sample_sparse_ensemble(sup, s, 1.0, seed=ACCEPT_SEED + 3)
    params = ProblemParams(n=n, k=k, m=m, s=s, sigma2=sigma2, xmin2=1.0, rho=2.0)
    candidates = [
        j for j in itertools.combinations(range(n), k) if j != sup.indices
    ]
    picks = rng.choice(len(candidates), size=5, replace=False)
    failures = []
    for pick in picks:
        wrong = SupportSet(candidates[pick], n)
        missed = [i for i in sup.indices if i not in wrong.indices]
        alphas = [
            float(np.sum(x.vectors[si, missed] ** 2)) + sigma2 for si in range(s)
        ]
        spec = QuadFormSpec.from_alpha(alphas, m, k)
        mean_t, var_t = spec.mean, spec.variance
        vals = np.empty(trials)
        for tr in range(trials):
            f = sample_sensing(m, n, s, np.random.SeedSequence((ACCEPT_SEED, int(pick), tr, 0)))
            y = measure(x, f, sigma2, np.random.SeedSequence((ACCEPT_SEED, int(pick), tr, 1)))
            vals[tr] = typicality_stat(wrong, y, f, params).value
        se_mean = math.sqrt(var_t / trials)
        m4 = float(np.mean((vals - mean_t) ** 4))
        se_var = math.sqrt(max(m4 - var_t**2, 0.0) / trials)
        if abs(float(np.mean(vals)) - mean_t) >= 5.0 * se_mean:
            failures.append((wrong.indices, "mean"))
        if abs(float(np.var(vals)) - var_t) >= 5.0 * se_var:
            failures.append((wrong.indices, "var"))
    ok = not failures
    assert _verdict(
        "06 incorrect-statistic-moments", ok,
        f"5 supports x {trials} trials, failures={failures or 'none'}",
    )


def test_07_failure_rate_decays_in_vector_count():
    base = dict(n=8, k=2, m=3, sigma2=0.01, xmin2=1.0, rho=2.0)
    # The 0.05 line belongs at the vector count Corollary 3 guarantees, not
    # at S=32. There mu_J^32 = 0.049 bounds the acceptance of one
    # least-favourable wrong candidate, but the event failure is a union
    # over all C(8,2) = 28 of them: the raw union bound 28 * mu_J^32 ~ 1.38
    # is clamped to 1, so nothing below 1 is promised there and the
    # measured rate is ~0.08. From ceil(corollary3_S_bound(.., 0.05)) = 68
    # on, the combined bound, and with it the measured rate, is below 0.05.
    s_star = math.ceil(corollary3_S_bound(ProblemParams(s=1, **base), 0.05))
    s_values = (1, 2, 4, 8, 16, 32, s_star)
    points, half_widths = [], []
    for idx, s in enumerate(s_values):
        plan = TrialPlan(
            params=ProblemParams(s=s, **base),
            trials=10_000,
            master_seed=ACCEPT_SEED + 100 + idx,
        )
        est = run_trials(plan).event_failure
        points.append(est.point)
        half_widths.append(est.half_width)
    residual = trend_residual(points)
    trend_ok = residual < 2.0 * max(half_widths)
    bound_32 = upper_bound_perr(ProblemParams(s=32, **base)).upper_perr
    bound_star = upper_bound_perr(ProblemParams(s=s_star, **base)).upper_perr
    tail_ok = bound_star < 0.05 and points[-1] < 0.05
    ok = trend_ok and tail_ok
    assert _verdict(
        "07 vector-count-trend",
        ok,
        f"rates={[round(p, 4) for p in points]}, residual={residual:.4f} "
        f"(limit {2.0 * max(half_widths):.4f}), S=32 rate={points[-2]:.4f} "
        f"(bound {bound_32:.4f}), S={s_star} rate={points[-1]:.4f} "
        f"bound={bound_star:.4f} (both < 0.05 required)",
    )


def test_08_required_measurements_shrink_with_vectors():
    m_stars = []
    for s in (1, 2, 4, 8):
        params = ProblemParams(n=16, k=2, m=3, s=s, sigma2=0.01, xmin2=1.0, rho=2.0)
        res = find_M_star(TrialPlan(params, trials=2_000, master_seed=ACCEPT_SEED), target=0.1)
        # a saturated search means even M = N misses the target; order it
        # after every achievable count
        m_stars.append(params.n + 1 if res.saturated else res.m_star)
    ok = all(a >= b for a, b in zip(m_stars, m_stars[1:]))
    assert _verdict(
        "08 measurement-vector-tradeoff", ok,
        f"M* over S=(1,2,4,8): {m_stars} (N+1 marks saturation)",
    )


def test_09_tail_inequality_holds_empirically():
    cases = {
        "homogeneous": [1.0] * 8,
        "heterogeneous": [3.0, 1.0, 0.5, 0.25],
    }
    failures = []
    for case_idx, (label, alphas) in enumerate(cases.items()):
        for i, x in enumerate((0.5, 1.0, 2.0)):
            res = laurent_massart_check(
                alphas, x=x, trials=100_000,
                seed=np.random.SeedSequence((ACCEPT_SEED, case_idx, i)),
            )
            if not res.passed:
                failures.append((label, x, res.upper_rate, res.lower_rate))
    ok = not failures
    assert _verdict(
        "09 tail-inequality", ok, f"6 cases x 1e5 samples, failures={failures or 'none'}"
    )


def test_10_decoder_matches_brute_force_oracle():
    rng = np.random.default_rng(ACCEPT_SEED + 4)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, 3))
        if k >= n:
            k = n - 1
        m = int(rng.integers(k + 1, n + 1))
        s = int(rng.integers(1, 4))
        sigma2 = float(10.0 ** rng.uniform(-2, 0.5))
        seeds = tuple(int(v) for v in rng.integers(0, 2**31, size=4))
        sup = sample_support(n, k, seeds[0])
        x = sample_sparse_ensemble(sup, s, math.sqrt(2.0), seed=seeds[1])
        f = sample_sensing(m, n, s, seeds[2])
        y = measure(x, f, sigma2, seeds[3])
        params = ProblemParams(n=n, k=k, m=m, s=s, sigma2=sigma2, xmin2=2.0, rho=2.0)
        out = decode(y, f, params, true_support=sup)
        ref_rows = brute_force_stats(y.measurements, f.matrices, sigma2, k, params.delta)
        flags = [
            typicality_stat(SupportSet(j, n), y, f, params).typical
            for j, _, _, _ in ref_rows
        ]
        if flags != [row[3] for row in ref_rows]:
            mismatches += 1
            continue
        ref = brute_force_decode(
            y.measurements, f.matrices, sigma2, k, params.delta, sup.indices
        )
        got = (
            out.decoded.indices if out.decoded is not None else None,
            out.correct_typical,
            out.num_incorrect_typical,
            out.event_failure,
            out.decode_error,
        )
        if got != ref:
            mismatches += 1
    ok = mismatches == 0
    assert _verdict(
        "10 oracle-equivalence", ok, f"100 instances, {mismatches} mismatches"
    )


def test_11_sweep_bytes_identical_across_jobs(tmp_path):
    out1 = tmp_path / "jobs1.csv"
    out8 = tmp_path / "jobs8.csv"
    common = [
        "sweep", "--n", "8", "--k", "2", "--s", "2", "--snr", "10",
        "--trials", "500", "--seed", str(ACCEPT_SEED), "--axis", "m",
        "--values", "3,5,7",
    ]
    assert main(common + ["--jobs", "1", "--out", str(out1)]) == 0
    assert main(common + ["--jobs", "8", "--out", str(out8)]) == 0
    ok = out1.read_bytes() == out8.read_bytes()
    assert _verdict(
        "11 sweep-determinism", ok,
        f"{out1.stat().st_size} bytes each, identical={ok}",
    )
