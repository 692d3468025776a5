import dataclasses
import functools
import json
import math
import os
import time

import numpy as np
import pytest

import jsm2lab
from jsm2lab import decoder, montecarlo
from jsm2lab.bounds import upper_bound_perr
from jsm2lab.decoder import decode, trials_per_walk
from jsm2lab.ensemble import (
    AMPLITUDE_UNIFORM,
    MeasurementEnsemble,
    ProblemParams,
    SensingEnsemble,
    measure,
    sample_sensing,
    sample_sparse_ensemble,
    sample_support,
)
from jsm2lab.errors import InvalidParameterError, InvalidRangeError, RankDeficientError
from jsm2lab.montecarlo import (
    MC_CSV_COLUMNS,
    EstimateWithCI,
    TrialPlan,
    find_M_star,
    run_trials,
    sweep,
    sweep_csv_lines,
    sweep_metadata,
    trend_residual,
    wilson_interval,
    write_sweep_csv,
)
from jsm2lab.seeding import ROLE_MATRIX, ROLE_NOISE, ROLE_SIGNAL, ROLE_SUPPORT, derive_rng

Z = 1.959963984540054


@pytest.fixture
def forks_per_map(monkeypatch):
    """The children that each map of the test forks, one entry per map, in order."""
    maps, children = [], []
    fork, run_plans = os.fork, montecarlo._run_plans

    def counting_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    def counting_run_plans(plans, jobs):
        before = len(children)
        try:
            return run_plans(plans, jobs)
        finally:
            maps.append(len(children) - before)

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(montecarlo, "_run_plans", counting_run_plans)
    return maps


def assert_no_children_left():
    """No child of this process is running or left as a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWilson:
    def test_frozen_midpoint(self):
        low, high = wilson_interval(5, 10)
        z2 = Z * Z
        denom = 1.0 + z2 / 10.0
        center = (0.5 + z2 / 20.0) / denom
        half = (Z / denom) * math.sqrt(0.025 + z2 / 400.0)
        assert low == pytest.approx(center - half, rel=1e-12)
        assert high == pytest.approx(center + half, rel=1e-12)

    def test_positive_width_at_extremes(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0
        assert 0.0 < high < 0.15
        low, high = wilson_interval(50, 50)
        assert 0.85 < low < 1.0
        assert high == 1.0

    def test_contains_point_estimate(self):
        for succ, tot in [(1, 7), (3, 11), (10, 400), (399, 400)]:
            low, high = wilson_interval(succ, tot)
            assert low <= succ / tot <= high

    def test_mirror_symmetry(self):
        low, high = wilson_interval(12, 40)
        low2, high2 = wilson_interval(28, 40)
        assert low == pytest.approx(1.0 - high2, rel=1e-12)
        assert high == pytest.approx(1.0 - low2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidRangeError):
            wilson_interval(1, 0)
        with pytest.raises(InvalidRangeError):
            wilson_interval(-1, 5)
        with pytest.raises(InvalidRangeError):
            wilson_interval(6, 5)


class TestEstimateWithCI:
    def test_from_counts(self):
        est = EstimateWithCI.from_counts(3, 12)
        assert est.point == 0.25
        low, high = wilson_interval(3, 12)
        assert (est.ci_low, est.ci_high) == (low, high)
        assert est.half_width == pytest.approx(0.5 * (high - low))


PARAMS_EASY = ProblemParams(n=8, k=2, m=6, s=4, sigma2=1e-4, xmin2=1.0, rho=2.0)


class TestTrialPlan:
    def test_validation(self):
        with pytest.raises(InvalidRangeError):
            TrialPlan(params=PARAMS_EASY, trials=0, master_seed=1)
        with pytest.raises(InvalidRangeError, match="master_seed"):
            TrialPlan(params=PARAMS_EASY, trials=10, master_seed=-3)
        with pytest.raises(InvalidParameterError):
            TrialPlan(params=PARAMS_EASY, trials=10, master_seed=1, amplitude_mode="gauss")

    @pytest.mark.parametrize("x_max", [None, 0.5, math.nan, math.inf])
    def test_uniform_amplitudes_need_a_valid_x_max(self, x_max):
        # PARAMS_EASY has x_min = 1; a bad x_max used to yield a row of empty estimates
        assert PARAMS_EASY.x_min == 1.0
        with pytest.raises(InvalidRangeError):
            TrialPlan(PARAMS_EASY, 10, 1, amplitude_mode="uniform", x_max=x_max)
        TrialPlan(PARAMS_EASY, 10, 1, amplitude_mode="uniform", x_max=1.0)

    def test_defaults(self):
        plan = TrialPlan(params=PARAMS_EASY, trials=10, master_seed=1)
        assert plan.amplitude_mode == "fixed"
        assert plan.fix_signal
        assert plan.x_max is None


class TestRunTrials:
    def test_high_snr_rates_respect_bound(self):
        plan = TrialPlan(params=PARAMS_EASY, trials=1000, master_seed=31)
        res = run_trials(plan)
        rep = upper_bound_perr(PARAMS_EASY)
        assert res.event_failure.point <= rep.upper_perr + res.event_failure.half_width
        assert res.decode_error.point <= 0.05

    def test_decode_error_never_exceeds_union_event(self):
        for seed in (1, 2, 3):
            plan = TrialPlan(
                params=ProblemParams(n=8, k=2, m=4, s=2, sigma2=0.5, xmin2=1.0, rho=2.0),
                trials=400,
                master_seed=seed,
            )
            res = run_trials(plan)
            assert res.decode_error.point <= res.event_failure.point + 1e-12

    def test_infinite_slack_forces_failure(self):
        p = ProblemParams(
            n=8, k=2, m=6, s=2, sigma2=1.0, xmin2=1.0, rho=2.0, delta_override=math.inf
        )
        res = run_trials(TrialPlan(params=p, trials=64, master_seed=7))
        assert res.event_failure.point == 1.0
        assert res.correct_atypical.point == 0.0
        assert res.incorrect_typical_rate.point == 1.0

    def test_jobs_do_not_change_results(self):
        plan = TrialPlan(params=PARAMS_EASY, trials=600, master_seed=99)
        a = run_trials(plan, jobs=1)
        b = run_trials(plan, jobs=2)
        assert a == b

    def test_redrawn_signal_and_uniform_amplitudes(self):
        plan = TrialPlan(
            params=ProblemParams(n=8, k=2, m=6, s=2, sigma2=0.25, xmin2=1.0, rho=2.0),
            trials=128,
            master_seed=11,
            amplitude_mode="uniform",
            fix_signal=False,
            x_max=3.0,
        )
        res = run_trials(plan)
        assert 0.0 <= res.event_failure.point <= 1.0
        # same plan, same seed: reproducible despite the extra randomness
        assert run_trials(plan) == res


def _block_instances(plan, block):
    """Support and per-trial (f, y) of one seed block, from its streams drawn whole.

    Index 0 of each role is the plan's pinned draw; seed block b draws from
    index b + 1, one sampler call per role for the whole block.
    """
    p = plan.params
    trials = min(256, plan.trials - 256 * block)
    support = sample_support(p.n, p.k, derive_rng(plan.master_seed, ROLE_SUPPORT, 0))
    if plan.fix_signal:
        x = sample_sparse_ensemble(
            support, p.s, p.x_min, plan.amplitude_mode, plan.x_max,
            seed=derive_rng(plan.master_seed, ROLE_SIGNAL, 0),
        )
        x = np.tile(x, (trials, 1))
    else:
        x = sample_sparse_ensemble(
            support, trials * p.s, p.x_min, plan.amplitude_mode, plan.x_max,
            seed=derive_rng(plan.master_seed, ROLE_SIGNAL, block + 1),
        )
    f = sample_sensing(p.m, p.n, trials * p.s, derive_rng(plan.master_seed, ROLE_MATRIX, block + 1))
    y = measure(x, f, p.sigma2, derive_rng(plan.master_seed, ROLE_NOISE, block + 1))
    fs = f.matrices.reshape(trials, p.s, p.m, p.n)
    ys = y.measurements.reshape(trials, p.s, p.m)
    return support, [(SensingEnsemble(a), MeasurementEnsemble(b)) for a, b in zip(fs, ys)]


def _per_trial_counts(plan, block):
    """The four event counters of one seed block, one public decode per trial."""
    support, instances = _block_instances(plan, block)
    counts = np.zeros(4, dtype=np.int64)
    for f, y in instances:
        out = decode(y, f, plan.params, true_support=support)
        counts += (out.event_failure, out.decode_error, not out.correct_typical,
                   out.num_incorrect_typical > 0)
    return counts


def _walk_trials(monkeypatch, params, t):
    """Make trials_per_walk(params) give t."""
    monkeypatch.setattr(decoder, "_WALK_SCORES", t * params.s * math.comb(params.n, params.k))
    assert trials_per_walk(params) == t


class TestBatchedBlock:
    POINTS = {
        1: dict(n=6, k=1, m=3, s=2, sigma2=0.5, xmin2=1.0, rho=4.0),
        2: dict(n=8, k=2, m=4, s=2, sigma2=0.3, xmin2=1.0, rho=4.0),
        3: dict(n=8, k=3, m=6, s=2, sigma2=0.1, xmin2=1.0, rho=6.0),
    }
    SIGNALS = {
        "pinned": dict(),
        "redrawn": dict(fix_signal=False),
        "uniform": dict(fix_signal=False, amplitude_mode="uniform", x_max=2.0),
    }

    @pytest.mark.parametrize("signal", sorted(SIGNALS))
    @pytest.mark.parametrize("k", sorted(POINTS))
    def test_counters_match_a_decode_per_trial(self, monkeypatch, k, signal):
        params = ProblemParams(**self.POINTS[k])
        plan = TrialPlan(params, trials=256 + 37, master_seed=40 + k, **self.SIGNALS[signal])
        # sub-blocks of 5 trials: both seed blocks end in a partial one
        _walk_trials(monkeypatch, params, 5)
        counts = np.zeros(4, dtype=np.int64)
        for block in (0, 1):
            batched = montecarlo._run_block((plan, block))
            assert batched.tolist() == _per_trial_counts(plan, block).tolist()
            counts += batched
        # every event occurs, and not in every trial
        assert (counts > 0).all() and counts[0] < plan.trials

    def test_last_block_at_the_default_walk_size(self):
        params = ProblemParams(n=16, k=2, m=5, s=4, sigma2=0.05, xmin2=1.0)
        plan = TrialPlan(params, trials=300, master_seed=8)
        assert 1 < trials_per_walk(params) < 300 - 256
        batched = montecarlo._run_block((plan, 1))
        assert batched.tolist() == _per_trial_counts(plan, 1).tolist()

    @pytest.mark.parametrize("signal", sorted(SIGNALS))
    def test_counts_do_not_depend_on_the_walk_size(self, monkeypatch, signal):
        params = ProblemParams(**self.POINTS[2])
        plan = TrialPlan(params, trials=200, master_seed=12, **self.SIGNALS[signal])
        default = trials_per_walk(params)
        assert default not in (1, 5)
        counts = []
        for t in (1, 5, default):
            _walk_trials(monkeypatch, params, t)
            counts.append(montecarlo._run_block((plan, 0)).tolist())
        assert counts[0] == counts[1] == counts[2]
        assert 0 < counts[0][0] < 200

    def test_seed_blocks_draw_different_matrices(self):
        plan = TrialPlan(ProblemParams(**self.POINTS[2]), trials=512, master_seed=3)
        (_, first), (_, second) = (_block_instances(plan, b) for b in (0, 1))
        assert first[0][0].matrices.shape == second[0][0].matrices.shape
        assert not np.array_equal(first[0][0].matrices, second[0][0].matrices)
        assert not np.array_equal(first[0][1].measurements, second[0][1].measurements)


class TestSweep:
    def _plans(self, ms, trials=64):
        return [
            TrialPlan(
                params=ProblemParams(n=8, k=2, m=m, s=2, sigma2=0.25, xmin2=1.0, rho=2.0),
                trials=trials,
                master_seed=17,
            )
            for m in ms
        ]

    def test_rows_keep_plan_order(self):
        rows = sweep(self._plans([7, 3, 5]))
        assert [r.plan.params.m for r in rows] == [7, 3, 5]

    def test_empty_input(self):
        assert sweep([]) == []

    def test_budget_failure_recorded_not_raised(self):
        plans = self._plans([4])
        plans.append(
            TrialPlan(
                params=ProblemParams(n=40, k=10, m=20, s=1, sigma2=1.0, xmin2=1.0, rho=2.0),
                trials=8,
                master_seed=17,
            )
        )
        rows = sweep(plans)
        by_m = {r.plan.params.m: r for r in rows}
        assert by_m[4].error is None
        assert by_m[4].rates is not None
        assert by_m[20].error is not None and "trials:" in by_m[20].error
        assert by_m[20].rates is None
        assert by_m[20].bound is not None  # the analytic side still works

    def test_csv_round_trip(self):
        rows = sweep(self._plans([3, 5]))
        text = sweep_csv_lines(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(MC_CSV_COLUMNS)
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(MC_CSV_COLUMNS)
            assert float(cells[MC_CSV_COLUMNS.index("event_fail")]) <= 1.0

    def test_csv_bytes_stable_across_jobs(self):
        plans = self._plans([3, 5], trials=300)
        a = sweep_csv_lines(sweep(plans, jobs=1))
        b = sweep_csv_lines(sweep(plans, jobs=2))
        assert a == b

    def test_one_pool_serves_the_whole_sweep(self, forks_per_map):
        # six seed blocks over three grid points are one map: one child at jobs=2
        plans = self._plans([3, 5, 7], trials=300)
        forked = sweep_csv_lines(sweep(plans, jobs=2))
        assert forks_per_map == [1]
        assert forked == sweep_csv_lines(sweep(plans, jobs=1))
        assert forks_per_map == [1, 0]

    def test_write_csv_and_metadata(self, tmp_path):
        rows = sweep(self._plans([3]))
        out = tmp_path / "grid.csv"
        write_sweep_csv(rows, str(out))
        text = out.read_text()
        assert text.startswith(",".join(MC_CSV_COLUMNS))
        meta = sweep_metadata(rows, wall_time_s=1.25)
        json.dumps(meta)  # must be serializable as the sidecar
        assert meta["wall_time_s"] == 1.25
        assert meta["rows"][0]["master_seed"] == 17
        assert set(meta["versions"]) == {"jsm2lab", "numpy"}
        assert meta["versions"]["jsm2lab"] == jsm2lab.__version__
        assert meta["interval"] == "wilson-95"


    def test_sidecar_row_rebuilds_the_plan(self):
        params = ProblemParams(
            n=8, k=2, m=4, s=2, sigma2=0.25, xmin2=4.0, rho=3.0, delta_override=0.3
        )
        plan = TrialPlan(
            params, trials=8, master_seed=5, amplitude_mode=AMPLITUDE_UNIFORM,
            fix_signal=False, x_max=3.0,
        )
        rows = sweep([plan])
        record = json.loads(json.dumps(sweep_metadata(rows, wall_time_s=0.0)))["rows"][0]
        # the keys the sidecar rows always had stay
        kept = {"master_seed", "trials", "n", "k", "m", "s", "amplitude_mode", "fix_signal"}
        assert kept <= set(record)
        point = {f.name: record.pop(f.name) for f in dataclasses.fields(ProblemParams)}
        assert TrialPlan(ProblemParams(**point), **record) == rows[0].plan


def _small_plan(trials, params=ProblemParams(n=6, k=2, m=4, s=1, sigma2=1.0, xmin2=1.0)):
    return TrialPlan(params, trials, master_seed=3)


_OVER_BUDGET = ProblemParams(n=40, k=10, m=20, s=1, sigma2=1.0, xmin2=1.0)


class TestWorkerPool:
    """A map over n seed blocks forks min(jobs, n) - 1 children, and none for one block."""

    # 300 trials are two seed blocks, 100 one; a grid point over the budget has none
    @pytest.mark.parametrize(
        "run, work, children",
        [
            (run_trials, _small_plan(300), 1),
            (run_trials, _small_plan(100), 0),
            (sweep, [_small_plan(100)] * 2, 1),
            (sweep, [_small_plan(100), _small_plan(100, _OVER_BUDGET)], 0),
            (functools.partial(find_M_star, target=0.5), _small_plan(300), 1),
            (functools.partial(find_M_star, target=0.5), _small_plan(100), 0),
        ],
        ids=[f"{run}-{blocks}" for run in ("run_trials", "sweep", "find_M_star") for blocks in (2, 1)],
    )
    def test_pool_size_follows_the_work(self, run, work, children, forks_per_map):
        forked = run(work, jobs=6)
        maps = list(forks_per_map)
        forks_per_map.clear()
        assert forked == run(work, jobs=1)
        assert maps and maps == [children] * len(forks_per_map)
        assert forks_per_map == [0] * len(maps)

    @pytest.mark.parametrize("jobs, children", [(2, 1), (3, 2), (6, 2)])
    def test_children_are_capped_by_jobs_and_blocks(self, jobs, children, forks_per_map):
        # 600 trials are three seed blocks
        assert run_trials(_small_plan(600), jobs=jobs) == run_trials(_small_plan(600), jobs=1)
        assert forks_per_map == [children, 0]

    @pytest.mark.parametrize("run, work", [(sweep, []), (run_trials, _small_plan(100))])
    def test_jobs_below_one_is_refused_whatever_the_work(self, run, work):
        with pytest.raises(InvalidRangeError, match="jobs"):
            run(work, jobs=0)

    def test_without_fork_the_caller_runs_every_block(self, monkeypatch):
        expected = run_trials(_small_plan(300), jobs=1)
        monkeypatch.delattr(os, "fork")
        with pytest.warns(UserWarning, match="no os.fork") as caught:
            assert run_trials(_small_plan(300), jobs=2) == expected
        assert len(caught) == 1


def _patch_blocks(monkeypatch, in_child, in_caller, begun):
    """Run `in_child(unit)` in place of _run_block in forked children, and in the caller
    run `in_caller(unit)` only once `begun` children have started a unit of theirs.

    A child writes a byte to a pipe before it starts; the caller reads `begun`
    bytes from it first, so the split of units between processes is fixed.
    """
    caller = os.getpid()
    read_end, write_end = os.pipe()

    def block(unit):
        if os.getpid() != caller:
            os.write(write_end, b"x")
            return in_child(unit)
        for _ in range(begun):
            os.read(read_end, 1)
        return in_caller(unit)

    monkeypatch.setattr(montecarlo, "_run_block", block)
    return read_end, write_end


class TestForkJoin:
    """Failures in a forked map reach the caller, and every child is reaped."""

    @pytest.fixture(autouse=True)
    def _pipes(self):
        self.pipes = ()
        yield
        for fd in self.pipes:
            os.close(fd)
        assert_no_children_left()

    def test_a_child_that_dies_raises_child_process_error(self, monkeypatch):
        self.pipes = _patch_blocks(monkeypatch, lambda unit: os._exit(3), montecarlo._run_block, 1)
        with pytest.raises(ChildProcessError, match=r"status 3\) without its counts"):
            run_trials(_small_plan(300), jobs=2)

    def test_a_childs_exception_reaches_the_caller_with_its_type(self, monkeypatch):
        def fail(unit):
            raise RankDeficientError("rank 1 in a child's block")

        self.pipes = _patch_blocks(monkeypatch, fail, montecarlo._run_block, 1)
        with pytest.raises(RankDeficientError, match="rank 1 in a child's block"):
            run_trials(_small_plan(300), jobs=2)

    def test_the_callers_exception_kills_its_children(self, monkeypatch):
        def fail(unit):
            raise RankDeficientError("rank 1 in the caller's block")

        self.pipes = _patch_blocks(monkeypatch, lambda unit: time.sleep(60), fail, 2)
        start = time.monotonic()
        with pytest.raises(RankDeficientError, match="the caller's block"):
            run_trials(_small_plan(600), jobs=3)
        # the children were killed, not waited for through their minute
        assert time.monotonic() - start < 30

    def test_every_unit_runs_exactly_once(self, monkeypatch, tmp_path):
        log = os.open(tmp_path / "runs", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        self.pipes = (log,)

        def block(unit):
            os.write(log, unit.to_bytes(4, "little"))
            return np.array([unit, 0, 0, 0])

        monkeypatch.setattr(montecarlo, "_run_block", block)
        parts = montecarlo._fork_join(range(20_000), 3)
        assert [int(p[0]) for p in parts] == list(range(20_000))
        runs = np.frombuffer((tmp_path / "runs").read_bytes(), dtype="<u4")
        assert np.array_equal(np.sort(runs), np.arange(20_000))


class TestFindMStar:
    def test_trivial_target_stops_at_smallest_m(self):
        p = ProblemParams(n=8, k=2, m=4, s=2, sigma2=1.0, xmin2=1.0, rho=2.0)
        res = find_M_star(TrialPlan(p, trials=16, master_seed=5), target=1.0)
        assert res.m_star == 3
        assert not res.saturated
        assert list(res.evaluations) == [3]

    def test_high_snr_bracket(self):
        p = ProblemParams(n=8, k=1, m=2, s=4, sigma2=0.01, xmin2=1.0, rho=2.0)
        res = find_M_star(TrialPlan(p, trials=400, master_seed=6), target=0.1)
        assert not res.saturated
        assert res.m_star is not None and 2 <= res.m_star <= 8
        assert res.evaluations[res.m_star].point <= 0.1
        if res.bracket is not None:
            lo, hi = res.bracket
            assert hi == res.m_star
            assert res.evaluations[lo].point > 0.1

    def test_saturation(self):
        p = ProblemParams(n=6, k=2, m=3, s=1, sigma2=100.0, xmin2=1.0, rho=2.0)
        res = find_M_star(TrialPlan(p, trials=128, master_seed=7), target=0.01)
        assert res.saturated
        assert res.m_star is None
        assert res.bracket is None

    def test_target_validation(self):
        p = ProblemParams(n=8, k=2, m=4, s=2, sigma2=1.0, xmin2=1.0, rho=2.0)
        for bad in (0.0, -0.3, 1.5):
            with pytest.raises(InvalidRangeError):
                find_M_star(TrialPlan(p, trials=8, master_seed=5), target=bad)

    def test_each_probe_forks_its_own_children(self, forks_per_map):
        p = ProblemParams(n=10, k=2, m=3, s=8, sigma2=1 / 30, xmin2=1.0, rho=2.0)
        plan = TrialPlan(p, trials=600, master_seed=9)
        forked = find_M_star(plan, target=0.1, jobs=2)
        # three seed blocks per probe: one child each at jobs=2
        assert forks_per_map == [1] * len(forked.evaluations)
        assert forked.bracket is not None and len(forked.evaluations) >= 4
        assert forked == find_M_star(plan, target=0.1, jobs=1)

    def test_same_seed_shares_randomness_across_probes(self):
        p = ProblemParams(n=8, k=1, m=2, s=4, sigma2=0.01, xmin2=1.0, rho=2.0)
        a = find_M_star(TrialPlan(p, trials=200, master_seed=8), target=0.1)
        b = find_M_star(TrialPlan(p, trials=200, master_seed=8), target=0.1)
        assert a == b


class TestTrendResidual:
    def test_zero_for_non_increasing(self):
        assert trend_residual([0.9, 0.5, 0.5, 0.1]) == 0.0
        assert trend_residual([0.4]) == 0.0
        assert trend_residual([]) == 0.0

    def test_two_point_bump(self):
        assert trend_residual([0.5, 0.7]) == pytest.approx(0.1, rel=1e-12)

    def test_noise_bump_is_local(self):
        # one out-of-order pair is pooled; the residual is half the gap
        assert trend_residual([0.9, 0.3, 0.4, 0.1]) == pytest.approx(0.05, rel=1e-12)
