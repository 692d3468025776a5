"""Seeded Monte Carlo estimation of the decoding failure probabilities.

Randomness comes from generators derived by (master seed, role, index):
index 0 holds the plan's pinned support and signal, and seed block b draws
every trial's matrices, noise and redrawn signals in order from index
b + 1 of each role. Results are a pure function of the plan: worker count
and scheduling cannot change a single bit of output. The reduction
is a vector of event counters, which makes block-parallel execution exact,
and estimates carry Wilson 95% intervals so zero-success cells still get
honest uncertainty.

A trial samples sensing matrices and noise (and, unless the plan pins the
signals, fresh amplitudes on the pinned support), decodes by exhaustive
typicality search, and tallies four events: the failure union the
closed-form bounds control, the decode-error of the selection rule, the
correct support failing the test, and at least one incorrect support
passing it.

Work is cut in two levels. A seed block of _TRIAL_BLOCK trials is the unit
a worker runs; inside it, trials are drawn and scored in sub-blocks of
decoder.trials_per_walk trials, one sampler call per role and a single
walk of the decoder per sub-block. Matrices and noise are sequential
standard-normal draws, so the sub-block size does not change them;
redrawn signals are drawn once per seed block. A map over the (plan, seed
block) units of a run, whether one plan, a whole sweep or one probe of
find_M_star, has min(jobs, units, usable CPUs) workers. The calling
process is worker 0 and forks the others (_fork_join); every worker
claims the next unclaimed unit from one shared list until none is left.
The counters of each plan are summed in plan order. A sweep returns one
row per plan in the caller's order; the jsm2lab sweep command orders its
grid.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import pickle
import signal
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import bounds as _bounds
from .decoder import check_enumeration_budget, decode_trials, trials_per_walk
from .ensemble import (
    AMPLITUDE_FIXED,
    ProblemParams,
    SupportSet,
    check_amplitudes,
    measure,
    sample_sensing,
    sample_sparse_ensemble,
    sample_support,
)
from .errors import EnumerationBudgetError, InvalidRangeError, Jsm2LabError
from .seeding import ROLE_MATRIX, ROLE_NOISE, ROLE_SIGNAL, ROLE_SUPPORT, derive_rng

# 97.5% normal quantile fixing the Wilson interval level at 95%.
_WILSON_Z = 1.959963984540054

# Trials per parallel work unit; fixed so the block split (and therefore
# every derived seed) is independent of the worker count.
_TRIAL_BLOCK = 256


def wilson_interval(successes: int, trials: int) -> Tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Stays inside [0, 1] and keeps positive width at 0 or trials successes,
    which is exactly where the normal approximation breaks down.
    """
    if trials < 1:
        raise InvalidRangeError(f"need trials >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise InvalidRangeError(f"successes {successes} outside [0, {trials}]")
    z2 = _WILSON_Z * _WILSON_Z
    phat = successes / trials
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (_WILSON_Z / denom) * math.sqrt(
        phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)
    )
    # at 0 or all successes the exact endpoints are phat itself; guard
    # against 1-ulp drift so the interval always contains the estimate
    return max(0.0, min(phat, center - half)), min(1.0, max(phat, center + half))


@dataclass(frozen=True)
class EstimateWithCI:
    """Binomial point estimate with its 95% Wilson interval."""

    successes: int
    trials: int
    point: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "EstimateWithCI":
        low, high = wilson_interval(successes, trials)
        return cls(successes, trials, successes / trials, low, high)

    @property
    def half_width(self) -> float:
        return 0.5 * (self.ci_high - self.ci_low)


@dataclass(frozen=True)
class TrialPlan:
    """Complete, reproducible description of one Monte Carlo experiment.

    fix_signal=True draws one set of S signals and conditions every trial on
    it, matching the conditional failure probability the bounds address;
    fix_signal=False redraws amplitudes each trial on the same support for
    average-case curves. The amplitude mode and x_max follow
    ensemble.check_amplitudes: x_max is only consulted in uniform mode,
    which requires it finite and at least params.x_min.
    """

    params: ProblemParams
    trials: int
    master_seed: int
    amplitude_mode: str = AMPLITUDE_FIXED
    fix_signal: bool = True
    x_max: Optional[float] = None

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidRangeError(f"need trials >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise InvalidRangeError(f"need master_seed >= 0, got {self.master_seed}")
        check_amplitudes(self.amplitude_mode, self.params.x_min, self.x_max)


@dataclass(frozen=True)
class RunResult:
    """The four event-rate estimates produced by run_trials.

    event_failure is the union rate the closed-form upper bound controls;
    decode_error is the mismatch rate of the concrete selection rule;
    correct_atypical and incorrect_typical_rate split the union into its
    two components. _run_block counts the events in this field order.
    """

    event_failure: EstimateWithCI
    decode_error: EstimateWithCI
    correct_atypical: EstimateWithCI
    incorrect_typical_rate: EstimateWithCI


def _blocks(plan: TrialPlan) -> int:
    """Seed blocks of _TRIAL_BLOCK trials in the plan; the last may be partial."""
    return -(-plan.trials // _TRIAL_BLOCK)


def _pinned_support(plan: TrialPlan) -> SupportSet:
    p = plan.params
    return sample_support(p.n, p.k, derive_rng(plan.master_seed, ROLE_SUPPORT, 0))


def _block_rng(plan: TrialPlan, role: int, block: int) -> np.random.Generator:
    """The stream of one role in seed block `block`.

    Index 0 of every role is reserved for the plan's pinned draws (support
    and pinned signal), so seed block b draws from index b + 1.
    """
    return derive_rng(plan.master_seed, role, block + 1)


def _signals(plan: TrialPlan, support: SupportSet, trials: int, block: int) -> np.ndarray:
    """The (trials * S, N) signal array of one seed block's trials, S rows per trial.

    A pinned signal is drawn once from stream index 0 and tiled; redrawn
    signals are the sampler's own array, drawn from the block's stream in
    one call, since the sampler draws every sign before any magnitude and a
    split would move them.
    """
    p = plan.params
    if plan.fix_signal:
        draws, rng = 1, derive_rng(plan.master_seed, ROLE_SIGNAL, 0)
    else:
        draws, rng = trials, _block_rng(plan, ROLE_SIGNAL, block)
    x = sample_sparse_ensemble(
        support, draws * p.s, p.x_min, plan.amplitude_mode, plan.x_max, seed=rng
    )
    return np.tile(x, (trials, 1)) if plan.fix_signal else x


def _run_block(args: Tuple[TrialPlan, int]) -> np.ndarray:
    """Tally the four event counters, in RunResult's order, over one seed block.

    The block draws each role from its own stream and scores sub-blocks of
    trials_per_walk trials, a walk each. A sub-block of T trials measures
    T*S fresh matrices against its T*S rows of the block's signal array,
    passed as a slice. Matrices and noise are sequential standard-normal
    draws, so the sub-block size does not change them.
    """
    plan, block = args
    p = plan.params
    trials = min(_TRIAL_BLOCK, plan.trials - block * _TRIAL_BLOCK)
    support = _pinned_support(plan)
    signals = _signals(plan, support, trials, block)
    f_rng = _block_rng(plan, ROLE_MATRIX, block)
    n_rng = _block_rng(plan, ROLE_NOISE, block)
    step = trials_per_walk(p)
    counts = np.zeros(4, dtype=np.int64)
    for first in range(0, trials, step):
        t = min(step, trials - first)
        f = sample_sensing(p.m, p.n, t * p.s, f_rng)
        y = measure(signals[first * p.s : (first + t) * p.s], f, p.sigma2, n_rng)
        events = decode_trials(
            f.matrices.reshape(t, p.s, p.m, p.n),
            y.measurements.reshape(t, p.s, p.m),
            p,
            support,
        )
        # the failure union, a decode error, the true support atypical, and
        # an incorrect support typical
        counts += [
            np.count_nonzero(e)
            for e in (
                events.event_failure,
                events.decode_error,
                ~events.correct_typical,
                events.num_incorrect_typical > 0,
            )
        ]
    return counts


def _claim(units: Sequence[Tuple[TrialPlan, int]], claims: int) -> Dict[int, np.ndarray]:
    """Run the units whose indices this process reads from the claim file, until its end.

    Every worker reads the one open file description `claims`, whose
    offset they share, so each 4-byte index is read by exactly one of them.
    """
    done = {}
    while index := os.read(claims, 4):
        i = int.from_bytes(index, "little")
        done[i] = _run_block(units[i])
    return done


def _child(units: Sequence[Tuple[TrialPlan, int]], claims: int, pipe: int) -> None:
    """The body of a forked worker: its counts, or what it raised, pickled into `pipe` once.

    Leaves through os._exit in every case, so that nothing of the caller's
    (buffered output, open files, atexit handlers) runs a second time.
    """
    try:
        try:
            payload = pickle.dumps(_claim(units, claims))
        except BaseException as exc:
            payload = pickle.dumps(exc)
        with open(pipe, "wb") as handle:
            handle.write(payload)
    finally:
        os._exit(0)


def _received(pid: int, payload: bytes, status: int) -> Dict[int, np.ndarray]:
    """The counts a reaped child sent; re-raises what the child raised instead."""
    if not payload:
        code = os.waitstatus_to_exitcode(status)
        raise ChildProcessError(f"worker process {pid} ended (status {code}) without its counts")
    sent = pickle.loads(payload)
    if isinstance(sent, BaseException):
        raise sent
    return sent


def _fork_join(units: Sequence[Tuple[TrialPlan, int]], workers: int) -> List[np.ndarray]:
    """Every unit's counters, in unit order, from this process and workers - 1 forked ones.

    The unit indices sit in an unlinked temporary file, and every process
    claims the next one until the file ends (_claim). A child's exception
    is re-raised here; a child that ends without its counts raises
    ChildProcessError. When this process raises, it kills its children
    first, and every child is reaped before this returns or raises.
    """
    children = {}  # pid -> the read end of its pipe
    with tempfile.TemporaryFile() as claims:
        claims.write(np.arange(len(units), dtype="<u4").tobytes())
        claims.flush()
        claims.seek(0)
        try:
            for _ in range(workers - 1):
                read_end, write_end = os.pipe()
                pid = os.fork()
                if pid == 0:
                    os.close(read_end)
                    _child(units, claims.fileno(), write_end)
                os.close(write_end)
                children[pid] = open(read_end, "rb")
            done = _claim(units, claims.fileno())
            for pid, pipe in list(children.items()):
                payload = pipe.read()
                status = os.waitpid(pid, 0)[1]
                del children[pid]
                pipe.close()
                done.update(_received(pid, payload, status))
        except BaseException:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pid, pipe in children.items():
                pipe.close()
                os.waitpid(pid, 0)
    return [done[i] for i in range(len(units))]


def _run_plans(plans: Sequence[TrialPlan], jobs: int) -> List[RunResult]:
    """The event-rate estimates of every plan, in plan order.

    Every (plan, seed block) unit of the run goes to one map over
    min(jobs, units, usable CPUs) workers, this process and forked ones
    (_fork_join), which forks none for one worker; jobs above the usable
    CPUs warn. Budgets are the caller's to check first. Raises
    InvalidRangeError for jobs < 1, whatever the work.
    """
    if jobs < 1:
        raise InvalidRangeError(f"jobs must be >= 1, got {jobs}")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity sets on this platform
        cpus = os.cpu_count() or 1
    if jobs > cpus:
        warnings.warn(f"jobs={jobs} exceeds the usable CPUs, {cpus}; workers are capped at {cpus}")
    units = [(plan, block) for plan in plans for block in range(_blocks(plan))]
    workers = min(jobs, len(units), cpus)
    if workers > 1 and not hasattr(os, "fork"):
        warnings.warn(f"no os.fork here: {len(units)} seed blocks run in this process only")
        workers = 1
    parts = iter(_fork_join(units, workers))
    results = []
    for plan in plans:
        counts = sum(itertools.islice(parts, _blocks(plan)), np.zeros(4, dtype=np.int64))
        results.append(RunResult(*(EstimateWithCI.from_counts(int(c), plan.trials) for c in counts)))
    return results


def run_trials(plan: TrialPlan, jobs: int = 1) -> RunResult:
    """Estimate all four event rates under the given plan.

    jobs > 1 fans fixed-size trial blocks over this process and forked
    workers; the block split and per-block streams are invariant to jobs,
    so output is bit-identical for any worker count. Raises
    EnumerationBudgetError before running anything when C(N, K) exceeds
    the decoder's ENUMERATION_CAP.
    """
    check_enumeration_budget(plan.params)
    return _run_plans([plan], jobs)[0]


# ---- Sweeps ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep: estimates, analytic bounds, or the error.

    rates and bound are None when their evaluation failed; error carries
    the message so a sweep never dies on one bad point.
    """

    plan: TrialPlan
    rates: Optional[RunResult]
    bound: Optional["_bounds.BoundReport"]
    error: Optional[str] = None


# (CSV column, SweepRow attribute path) of every cell of a sweep row, in
# order: the point, the four estimates in RunResult's field order, each with
# its Wilson interval, then the bounds and the error. A row without rates or
# a bound leaves their cells empty.
_SWEEP_COLUMNS = (
    ("n", "plan.params.n"),
    ("k", "plan.params.k"),
    ("m", "plan.params.m"),
    ("s", "plan.params.s"),
    ("snr_min", "plan.params.snr_min"),
    ("rho", "plan.params.rho"),
    ("trials", "plan.trials"),
    ("event_fail", "rates.event_failure.point"),
    ("event_lo", "rates.event_failure.ci_low"),
    ("event_hi", "rates.event_failure.ci_high"),
    ("decode_err", "rates.decode_error.point"),
    ("decode_lo", "rates.decode_error.ci_low"),
    ("decode_hi", "rates.decode_error.ci_high"),
    ("correct_atypical", "rates.correct_atypical.point"),
    ("correct_atypical_lo", "rates.correct_atypical.ci_low"),
    ("correct_atypical_hi", "rates.correct_atypical.ci_high"),
    ("incorrect_typical", "rates.incorrect_typical_rate.point"),
    ("incorrect_typical_lo", "rates.incorrect_typical_rate.ci_low"),
    ("incorrect_typical_hi", "rates.incorrect_typical_rate.ci_high"),
    ("log_upper", "bound.log_upper_perr"),
    ("lower_fano", "bound.lower_perr"),
    ("error", "error"),
)
MC_CSV_COLUMNS = [column for column, _ in _SWEEP_COLUMNS]


def sweep(plans: Sequence[TrialPlan], jobs: int = 1) -> List[SweepRow]:
    """Run every plan and join estimates with analytic bounds, one row per plan in order.

    The seed blocks of all grid points are one map over min(jobs, blocks,
    usable CPUs) workers. A grid point that cannot run (C(N, K) over the
    decoder's ENUMERATION_CAP) or has no bound (inadmissible slack, ...)
    becomes a row with the error recorded instead of aborting the remaining
    points; run-level failures (a bad jobs count, a worker process that
    dies) propagate.
    """
    budget_errors: List[Optional[str]] = []
    for plan in plans:
        try:
            check_enumeration_budget(plan.params)
            budget_errors.append(None)
        except EnumerationBudgetError as exc:  # recorded per-row by contract
            budget_errors.append(f"trials: {exc}")
    runnable = [plan for plan, err in zip(plans, budget_errors) if err is None]
    results = iter(_run_plans(runnable, jobs))
    rows: List[SweepRow] = []
    for plan, budget_error in zip(plans, budget_errors):
        errors = [budget_error] if budget_error else []
        rates = None if budget_error else next(results)
        bound = None
        try:
            bound = _bounds.upper_bound_perr(plan.params)
        except Jsm2LabError as exc:
            errors.append(f"bound: {exc}")
        rows.append(SweepRow(plan, rates, bound, "; ".join(errors) or None))
    return rows


def sweep_csv_lines(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as a deterministic CSV document (header included)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MC_CSV_COLUMNS)
    writer.writerows(_bounds.csv_cells(row, _SWEEP_COLUMNS) for row in rows)
    return buf.getvalue()


def write_sweep_csv(rows: Sequence[SweepRow], path: str) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(sweep_csv_lines(rows))


def sweep_metadata(rows: Sequence[SweepRow], wall_time_s: float) -> dict:
    """Sidecar payload: every row's whole plan, the jsm2lab and numpy versions, and wall time."""
    return {
        "format": "jsm2lab-sweep-meta-1",
        "created_unix": time.time(),
        "wall_time_s": wall_time_s,
        "versions": {"jsm2lab": __version__, "numpy": np.__version__},
        "interval": "wilson-95",
        "rows": [_plan_record(row.plan) for row in rows],
    }


def _plan_record(plan: TrialPlan) -> dict:
    """Every field of the plan, its ProblemParams flattened in, so a row rebuilds the plan."""
    record = asdict(plan)
    return {**record.pop("params"), **record}


# ---- Measurement-count search ----------------------------------------------


@dataclass(frozen=True)
class MStarResult:
    """Outcome of the smallest-sufficient-M search.

    saturated, derived as m_star is None, means no M up to N reached the
    target. bracket holds the final (below, at-or-under) pair from
    bisection when one exists; non_monotone flags estimate sequences that
    were not non-increasing across the evaluated points, in which case the
    bracketing pair is the trustworthy part of the answer.
    """

    m_star: Optional[int]
    non_monotone: bool
    bracket: Optional[Tuple[int, int]]
    evaluations: Dict[int, EstimateWithCI]

    @property
    def saturated(self) -> bool:
        return self.m_star is None


def find_M_star(plan: TrialPlan, target: float, jobs: int = 1) -> MStarResult:
    """Bisect for the smallest M in [K+1, N] with event failure <= target.

    Each probe runs plan with only M replaced (the M carried by plan.params
    is ignored), so every probe reuses the same master seed and curves
    across calls share their randomness. Assumes the failure
    rate is non-increasing in M; when the evaluated estimates violate that,
    the result flags it and the bracket is what bisection actually pinned
    down. Each probe is one map over min(jobs, seed blocks, usable CPUs)
    workers, the forked ones started afresh for that probe.
    """
    if not 0.0 < target <= 1.0:
        raise InvalidRangeError(f"target must lie in (0, 1], got {target}")

    check_enumeration_budget(plan.params)
    evaluations: Dict[int, EstimateWithCI] = {}

    def monotone_ok() -> bool:
        pts = [evaluations[m].point for m in sorted(evaluations)]
        return all(a >= b for a, b in zip(pts, pts[1:]))

    def probe(m: int) -> float:
        point = replace(plan, params=replace(plan.params, m=m))
        evaluations[m] = _run_plans([point], jobs)[0].event_failure
        return evaluations[m].point

    lo, hi = plan.params.k + 1, plan.params.n
    if probe(lo) <= target:
        return MStarResult(lo, False, None, evaluations)
    if lo == hi or probe(hi) > target:
        return MStarResult(None, not monotone_ok(), None, evaluations)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid) <= target:
            hi = mid
        else:
            lo = mid
    return MStarResult(hi, not monotone_ok(), (lo, hi), evaluations)


def trend_residual(values: Sequence[float]) -> float:
    """Largest deviation of a sequence from its best non-increasing fit.

    Zero for already non-increasing data; used to test decay trends under
    Monte Carlo noise without demanding strict pointwise order.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size <= 1:
        return 0.0
    # The pool-adjacent-violators algorithm of Busing (2022), which
    # scipy.optimize.isotonic_regression runs: an increasing fit of the
    # reversed sequence that pools ties (>=) and takes each block's mean as
    # its weighted sum over its weight, so the fit has scipy's bits.
    y = arr[::-1].tolist()
    blocks = []  # (mean, weight, end) of each pooled block; end is one past
    i = 0
    while i < len(y):
        mean = total = y[i]
        weight = 1.0
        if blocks and blocks[-1][0] >= mean:
            prev_mean, prev_weight, _ = blocks.pop()
            total += prev_weight * prev_mean
            weight += prev_weight
            mean = total / weight
            while i < len(y) - 1 and mean >= y[i + 1]:
                i += 1
                total += y[i]
                weight += 1.0
                mean = total / weight
            while blocks and blocks[-1][0] >= mean:
                prev_mean, prev_weight, _ = blocks.pop()
                total += prev_weight * prev_mean
                weight += prev_weight
                mean = total / weight
        blocks.append((mean, weight, i + 1))
        i += 1
    means, _, ends = zip(*blocks)
    fit = np.repeat(means, np.diff(ends, prepend=0))[::-1]
    return float(np.max(np.abs(fit - arr)))
